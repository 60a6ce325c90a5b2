// Tests for the message-passing runtime: payload storage, the sparse
// round engine (flat delivery buffer, active set, wake_at, delay
// wheel), the deterministic parallel executor, delivery policy, and
// the Fig. 1 relay chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <tuple>
#include <utility>

#include "net/network.hpp"
#include "net/relay.hpp"
#include "scenario/campaign.hpp"

namespace tg::net {
namespace {

// ---------- Words ----------

TEST(Words, GrowthAcrossInlineBoundaryPreservesContents) {
  Words w;
  for (std::uint64_t i = 0; i < 3 * Words::kInlineCapacity; ++i) {
    w.push_back(i * i);
    ASSERT_EQ(w.size(), i + 1);
    for (std::uint64_t j = 0; j <= i; ++j) {
      ASSERT_EQ(w[j], j * j) << "after pushing " << i + 1 << " words";
    }
  }
  EXPECT_TRUE(w.spilled());
  EXPECT_EQ(w.front(), 0u);
  EXPECT_EQ(w.back(),
            (3 * Words::kInlineCapacity - 1) * (3 * Words::kInlineCapacity - 1));
}

TEST(Words, CopyAndMoveAcrossStorageClasses) {
  const Words inline_w{1, 2, 3};
  Words spilled_w;
  for (std::uint64_t i = 0; i < 2 * Words::kInlineCapacity; ++i) {
    spilled_w.push_back(i);
  }

  Words copy = spilled_w;  // deep copy of spilled storage
  EXPECT_EQ(copy, spilled_w);
  copy.front() = 99;
  EXPECT_FALSE(copy == spilled_w);  // no aliasing

  Words moved = std::move(copy);
  EXPECT_EQ(moved.front(), 99u);
  EXPECT_EQ(moved.size(), 2 * Words::kInlineCapacity);

  Words target = inline_w;
  target = std::move(moved);  // move-assign spilled over inline
  EXPECT_EQ(target.size(), 2 * Words::kInlineCapacity);
  target = inline_w;  // copy-assign inline over spilled (keeps capacity)
  EXPECT_EQ(target, inline_w);
  target.clear();
  EXPECT_TRUE(target.empty());
  EXPECT_GE(target.capacity(), 2 * Words::kInlineCapacity);
}

// ---------- Network executor ----------

/// Counts messages and echoes each one back to its source with tag+1,
/// up to a bound — enough structure to generate multi-round traffic.
class EchoNode final : public Node {
 public:
  explicit EchoNode(std::uint64_t bounce_limit) : limit_(bounce_limit) {}

  void on_message(const Message& m, Context& ctx) override {
    ++received_;
    if (m.tag < limit_) ctx.send(m.src, m.tag + 1, m.payload);
  }

  std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t limit_;
  std::uint64_t received_ = 0;
};

TEST(Network, PingPongTerminatesAndCounts) {
  Network net(DeliveryPolicy{}, 1, 1);
  const auto a = net.add_node(std::make_unique<EchoNode>(10));
  const auto b = net.add_node(std::make_unique<EchoNode>(10));
  net.start();
  net.inject(Message{a, b, 0, {42}, 0});
  const auto rounds = net.run_until_quiescent();
  // Tags 0..10 inclusive = 11 deliveries, alternating b, a, b, ...
  EXPECT_EQ(net.stats().delivered, 11u);
  EXPECT_GE(rounds, 11u);
  EXPECT_EQ(dynamic_cast<EchoNode&>(net.node(b)).received(), 6u);
  EXPECT_EQ(dynamic_cast<EchoNode&>(net.node(a)).received(), 5u);
}

TEST(Network, AddNodeAfterStartThrows) {
  Network net(DeliveryPolicy{}, 1, 1);
  net.add_node(std::make_unique<EchoNode>(0));
  net.start();
  EXPECT_THROW(net.add_node(std::make_unique<EchoNode>(0)),
               std::logic_error);
}

TEST(Network, InjectToUnknownNodeThrows) {
  Network net(DeliveryPolicy{}, 1, 1);
  net.add_node(std::make_unique<EchoNode>(0));
  EXPECT_THROW(net.inject(Message{0, 5, 0, {}, 0}), std::out_of_range);
}

TEST(Network, DropPolicyDropsApproximatelyP) {
  DeliveryPolicy policy;
  policy.drop_prob = 0.3;
  Network net(std::move(policy), 99, 1);
  // 64 nodes all echo forever-ish; traffic dies out via drops.
  std::vector<NodeId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(net.add_node(std::make_unique<EchoNode>(200)));
  }
  net.start();
  for (int i = 0; i < 64; ++i) {
    net.inject(Message{ids[(i + 1) % 64], ids[i], 0, {1}, 0});
  }
  net.run_until_quiescent(4000);
  const auto& s = net.stats();
  const double drop_rate = static_cast<double>(s.dropped) /
                           static_cast<double>(s.sent);
  EXPECT_NEAR(drop_rate, 0.3, 0.05);
}

TEST(Network, DelayedMessagesArriveWithinBound) {
  DeliveryPolicy policy;
  policy.max_delay_rounds = 3;
  Network net(std::move(policy), 5, 1);
  const auto a = net.add_node(std::make_unique<EchoNode>(0));
  const auto b = net.add_node(std::make_unique<EchoNode>(0));
  net.start();
  // Messages injected bypass policy; make the nodes talk instead.
  net.inject(Message{a, b, 0, {1}, 0});
  net.run_until_quiescent(64);
  EXPECT_EQ(net.stats().delivered, 1u);
  (void)a;
}

TEST(Network, ByzantineSourcesAreCorrupted) {
  DeliveryPolicy policy;
  policy.byzantine = {1, 0};  // node 0 is Byzantine
  Network net(std::move(policy), 7, 1);
  const auto a = net.add_node(std::make_unique<EchoNode>(1));
  const auto b = net.add_node(std::make_unique<EchoNode>(1));
  net.start();
  net.inject(Message{b, a, 0, {100}, 0});  // a receives, echoes to b
  net.run_until_quiescent(16);
  // a's echo passed through the corrupt hook exactly once.
  EXPECT_GE(net.stats().corrupted, 1u);
  (void)b;
}

TEST(Network, TraceIsDeterministicAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    RelayConfig cfg;
    cfg.chain_length = 6;
    cfg.group_size = 11;
    cfg.bad_per_group = 2;
    cfg.drop_prob = 0.05;
    cfg.max_delay_rounds = 2;
    cfg.threads = threads;
    cfg.seed = 31337;
    return run_relay_chain(cfg);
  };
  const auto t1 = run(1);
  const auto t3 = run(3);  // non-divisor width: chunk boundaries shift
  const auto t4 = run(4);
  const auto t8 = run(8);
  const auto t16 = run(16);  // more workers than the pool may hold
  EXPECT_EQ(t1.trace_hash, t3.trace_hash);
  EXPECT_EQ(t1.trace_hash, t4.trace_hash);
  EXPECT_EQ(t1.trace_hash, t8.trace_hash);
  EXPECT_EQ(t1.trace_hash, t16.trace_hash);
  EXPECT_EQ(t1.delivered, t4.delivered);
  EXPECT_EQ(t1.messages_delivered, t8.messages_delivered);
}

/// Chatter with payloads wide enough to spill past Words' inline
/// capacity.
class WidePayloadNode final : public Node {
 public:
  WidePayloadNode(std::size_t n, std::size_t words) : n_(n), words_(words) {}

  void on_start(Context& ctx) override { ctx.wake_at(1); }

  void on_message(const Message& m, Context& ctx) override {
    (void)ctx;
    for (const auto w : m.payload) state_ += w;
  }

  void on_round_end(Context& ctx) override {
    ctx.wake_at(ctx.round() + 1);
    Words payload;
    payload.push_back(state_);
    while (payload.size() < words_) {
      payload.push_back(payload.back() * 0x100000001B3ULL + ctx.round());
    }
    ctx.send(static_cast<NodeId>((ctx.self() + 1) % n_), 1,
             std::move(payload));
    ctx.send(static_cast<NodeId>((ctx.self() + 3) % n_), 2, {state_});
  }

 private:
  std::size_t n_;
  std::size_t words_;
  std::uint64_t state_ = 1;
};

std::uint64_t run_wide_chatter(std::size_t threads) {
  constexpr std::size_t kNodes = 16;
  DeliveryPolicy policy;
  policy.drop_prob = 0.1;
  policy.max_delay_rounds = 2;
  policy.byzantine.assign(kNodes, 0);
  policy.byzantine[5] = 1;
  Network net(std::move(policy), /*seed=*/777, threads);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node(std::make_unique<WidePayloadNode>(
        kNodes, 3 * Words::kInlineCapacity));
  }
  net.start();
  for (std::size_t r = 0; r < 24; ++r) net.run_round();
  return net.trace_hash();
}

TEST(Network, SpilledPayloadTrafficIsThreadCountInvariant) {
  // Every payload spills past the SBO capacity, and the policy drops,
  // delays and corrupts, so the full router engages.
  EXPECT_EQ(run_wide_chatter(4), run_wide_chatter(1));
}

TEST(Network, ChatterTrafficIsPinned) {
  // run_chatter_round_loop's traffic, pinned at payloads that fit
  // inline (4 words) and that spill (16 words), on 1 and 4 executor
  // threads.  Recorded while the network still had switchable buffer
  // recycling and pooled payload storage; all four combinations gave
  // these pins.
  struct Pin {
    std::size_t words;
    std::uint64_t trace;
  };
  for (const Pin pin : {Pin{4, 0xc80123380616b5bbULL},
                        Pin{16, 0x812c2572662463ebULL}}) {
    scenario::RoundLoopConfig config;
    config.nodes = 64;
    config.fanout = 3;
    config.rounds = 50;
    config.payload_words = pin.words;
    const auto run = scenario::run_chatter_round_loop(config);
    EXPECT_EQ(run.trace_hash, pin.trace) << pin.words << " words";
    EXPECT_EQ(run.delivered, 9408u) << pin.words << " words";

    // The same nodes on a 4-thread executor.
    Network net(DeliveryPolicy{}, config.seed, /*threads=*/4);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      net.add_node(std::make_unique<scenario::ChatterNode>(
          config.nodes, config.fanout, config.payload_words));
    }
    net.start();
    for (std::size_t r = 0; r < config.rounds; ++r) net.run_round();
    EXPECT_EQ(net.trace_hash(), pin.trace) << pin.words << " words";
    EXPECT_EQ(net.stats().delivered, 9408u) << pin.words << " words";
  }
}

TEST(Network, DifferentSeedsDifferentTraces) {
  RelayConfig cfg;
  cfg.drop_prob = 0.1;
  cfg.seed = 1;
  const auto r1 = run_relay_chain(cfg);
  cfg.seed = 2;
  const auto r2 = run_relay_chain(cfg);
  EXPECT_NE(r1.trace_hash, r2.trace_hash);
}

// ---------- Sparse round engine ----------

/// Records every delivery and every handler turn.
class RecorderNode final : public Node {
 public:
  void on_message(const Message& m, Context& ctx) override {
    received.emplace_back(ctx.round(), m);
  }
  void on_round_end(Context& ctx) override { turns.push_back(ctx.round()); }

  std::vector<std::pair<std::uint64_t, Message>> received;
  std::vector<std::uint64_t> turns;
};

TEST(SparseEngine, MessageEqualityRoundTripsThroughWordsAtSboBoundary) {
  // Payload sizes straddling Words::kInlineCapacity: the wire format
  // must compare and round-trip identically through the delivery
  // buffer whether the words sit inline or in spilled storage.
  for (const std::size_t words :
       {Words::kInlineCapacity - 1, Words::kInlineCapacity,
        Words::kInlineCapacity + 1, 4 * Words::kInlineCapacity}) {
    Message original;
    original.src = 0;
    original.dst = 1;
    original.tag = 0xBEEF;
    for (std::size_t w = 0; w < words; ++w) {
      original.payload.push_back(0x1000 + w);
    }
    EXPECT_EQ(original.payload.spilled(), words > Words::kInlineCapacity);

    Network net(DeliveryPolicy{}, 1, 1);
    net.add_node(std::make_unique<RecorderNode>());
    net.add_node(std::make_unique<RecorderNode>());
    net.start();
    net.inject(original);  // copies
    EXPECT_EQ(net.run_round(), 1u);
    const auto& got = dynamic_cast<RecorderNode&>(net.node(1)).received;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got.front().second, original) << words << " words";

    // Equality is by content, not storage class: rebuild via a copy
    // that grew word-by-word (different capacity trajectory).
    Message rebuilt;
    rebuilt.src = original.src;
    rebuilt.dst = original.dst;
    rebuilt.tag = original.tag;
    rebuilt.payload.reserve(words);
    for (const auto w : original.payload) rebuilt.payload.push_back(w);
    EXPECT_EQ(rebuilt, original);
    rebuilt.payload.back() ^= 1;
    EXPECT_FALSE(rebuilt == original);
  }
}

/// Counts handler invocations into shared counters.
class CountingNode final : public Node {
 public:
  CountingNode(std::size_t* starts, std::size_t* turns)
      : starts_(starts), turns_(turns) {}
  void on_start(Context&) override { ++*starts_; }
  void on_message(const Message&, Context&) override {}
  void on_messages(std::span<Message>, Context&) override {
    ++*turns_;
  }
  void on_round_end(Context&) override { ++*turns_; }

 private:
  std::size_t* starts_;
  std::size_t* turns_;
};

TEST(SparseEngine, IdleNodesInvokeNoHandlers) {
  constexpr std::size_t kNodes = 100'000;
  std::size_t starts = 0;
  std::size_t turns = 0;
  Network net(DeliveryPolicy{}, 1, 1);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node(std::make_unique<CountingNode>(&starts, &turns));
  }
  net.start();
  EXPECT_EQ(starts, kNodes);
  for (int r = 0; r < 20; ++r) EXPECT_EQ(net.run_round(), 0u);
  EXPECT_EQ(turns, 0u);
  // One delivery activates exactly its destination for one round.
  net.inject(Message{0, 4242, 1, {7}, 0});
  EXPECT_EQ(net.run_round(), 1u);
  EXPECT_EQ(turns, 2u);  // on_messages + on_round_end
  EXPECT_EQ(net.run_round(), 0u);
  EXPECT_EQ(turns, 2u);
}

/// Requests wakes from a fixed plan and records its turns.
class WakePlanNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    EXPECT_THROW(ctx.wake_at(0), std::invalid_argument);
    ctx.wake_at(3);
    ctx.wake_at(3);  // coalesces
    ctx.wake_at(5);
  }
  void on_message(const Message&, Context&) override {}
  void on_messages(std::span<Message> batch, Context& ctx) override {
    batches.emplace_back(ctx.round(), batch.size());
  }
  void on_round_end(Context& ctx) override {
    turns.push_back(ctx.round());
    if (ctx.round() == 3) {
      EXPECT_THROW(ctx.wake_at(3), std::invalid_argument);
      EXPECT_THROW(ctx.wake_at(2), std::invalid_argument);
      ctx.wake_at(5);  // also requested from on_start: coalesces
      ctx.wake_at(9);
      ctx.wake_at(7);  // out of order across rounds is fine
    }
  }

  std::vector<std::pair<std::uint64_t, std::size_t>> batches;
  std::vector<std::uint64_t> turns;
};

TEST(SparseEngine, WakeAtFiresExactlyAtRequestedRounds) {
  // The waking node sits at either end of the node range and on both
  // sides of a 64-bit word of the active bitmap, in networks of 1, 2
  // and 65 nodes; every other node only records.
  const std::pair<std::size_t, NodeId> shapes[] = {
      {1, 0}, {2, 1}, {65, 0}, {65, 63}, {65, 64}};
  for (const auto& [n, w] : shapes) {
    Network net(DeliveryPolicy{}, 1, 1);
    for (NodeId i = 0; i < n; ++i) {
      if (i == w) {
        net.add_node(std::make_unique<WakePlanNode>());
      } else {
        net.add_node(std::make_unique<RecorderNode>());
      }
    }
    net.start();
    for (int r = 1; r <= 12; ++r) {
      // A delivery in a wake round runs the node once, not twice.
      if (r == 7) net.inject(Message{0, w, 1, {}, 0});  // delivered in 7
      net.run_round();
    }
    const auto& node = dynamic_cast<WakePlanNode&>(net.node(w));
    EXPECT_EQ(node.turns, (std::vector<std::uint64_t>{3, 5, 7, 9}))
        << n << " nodes, waker " << w;
    const std::vector<std::pair<std::uint64_t, std::size_t>> batches{
        {3, 0}, {5, 0}, {7, 1}, {9, 0}};
    EXPECT_EQ(node.batches, batches) << n << " nodes, waker " << w;
  }
}

/// One handler turn: its round, its node and its batch's tags.
struct Turn {
  std::uint64_t round = 0;
  NodeId node = 0;
  std::vector<std::uint64_t> tags;
  std::uint64_t seq = 0;  ///< global turn number (not compared)

  friend bool operator==(const Turn& a, const Turn& b) {
    return a.round == b.round && a.node == b.node && a.tags == b.tags;
  }
  friend void PrintTo(const Turn& t, std::ostream* os) {
    *os << "{round " << t.round << ", node " << t.node << ", tags "
        << ::testing::PrintToString(t.tags) << "}";
  }
};

/// Logs every turn into its own list (numbered from a shared
/// counter), wakes in the rounds it is given, and answers a round-1
/// batch with one message to its mirror node n - 1 - self.
class TurnLogNode final : public Node {
 public:
  TurnLogNode(std::atomic<std::uint64_t>* seq, NodeId mirror,
              std::vector<std::uint64_t> wakes)
      : seq_(seq), mirror_(mirror), wakes_(std::move(wakes)) {}
  void on_start(Context& ctx) override {
    for (const std::uint64_t r : wakes_) ctx.wake_at(r);
  }
  void on_message(const Message&, Context&) override {}
  void on_messages(std::span<Message> batch, Context& ctx) override {
    Turn turn{ctx.round(), ctx.self(), {}, seq_->fetch_add(1)};
    for (const Message& m : batch) turn.tags.push_back(m.tag);
    if (ctx.round() == 1 && !batch.empty()) {
      ctx.send(mirror_, 5000 + ctx.self());
    }
    turns.push_back(std::move(turn));
  }

  std::vector<Turn> turns;

 private:
  std::atomic<std::uint64_t>* seq_;
  NodeId mirror_;
  std::vector<std::uint64_t> wakes_;
};

TEST(SparseEngine, ActiveSetFollowsNodeIdAcrossBitmapWords) {
  // The boundary nodes 0, 63, 64 and n - 1 get two injected messages
  // each (injected in descending order) for round 1 and wake in rounds
  // 2 and 3.  Round 2 adds the mirror nodes' deliveries to the
  // wake-only turns; round 3 adds deliveries to nodes 0 and n - 1,
  // which also wake then.  Every active node runs exactly once per
  // round, in NodeId order, with its batch in push order.
  for (const std::size_t n : {1u, 65u, 130u}) {
    std::vector<NodeId> boundary;
    for (const std::size_t id : {std::size_t{0}, std::size_t{63},
                                 std::size_t{64}, n - 1}) {
      if (id < n && std::find(boundary.begin(), boundary.end(), id) ==
                        boundary.end()) {
        boundary.push_back(static_cast<NodeId>(id));
      }
    }
    std::sort(boundary.begin(), boundary.end());
    const auto last = static_cast<NodeId>(n - 1);

    // The expected turns, round by round, from a map keyed by node.
    std::vector<Turn> want;
    const auto emit = [&](std::uint64_t round,
                          std::map<NodeId, std::vector<std::uint64_t>> by) {
      for (auto& [node, tags] : by) want.push_back({round, node, tags});
    };
    std::map<NodeId, std::vector<std::uint64_t>> round1, round2, round3;
    for (const NodeId b : boundary) {
      round1[b] = {1000 + b, 2000 + b};
      round2[b];
      round3[b];
    }
    for (const NodeId b : boundary) round2[last - b].push_back(5000 + b);
    round3[last].push_back(3000);
    round3[0].push_back(3001);
    emit(1, round1);
    emit(2, round2);
    emit(3, round3);

    for (const std::size_t threads : {1u, 4u}) {
      std::atomic<std::uint64_t> seq{0};
      Network net(DeliveryPolicy{}, 1, threads);
      for (NodeId i = 0; i < n; ++i) {
        const bool wakes = std::find(boundary.begin(), boundary.end(), i) !=
                           boundary.end();
        net.add_node(std::make_unique<TurnLogNode>(
            &seq, last - i,
            wakes ? std::vector<std::uint64_t>{2, 3}
                  : std::vector<std::uint64_t>{}));
      }
      net.start();
      for (auto it = boundary.rbegin(); it != boundary.rend(); ++it) {
        net.inject(Message{0, *it, 1000 + *it, {}, 0});
        net.inject(Message{0, *it, 2000 + *it, {}, 0});
      }
      EXPECT_EQ(net.run_round(), 2 * boundary.size());
      EXPECT_EQ(net.run_round(), boundary.size());
      net.inject(Message{0, last, 3000, {}, 0});
      net.inject(Message{0, 0, 3001, {}, 0});
      EXPECT_EQ(net.run_round(), 2u);
      EXPECT_EQ(net.run_round(), 0u);

      std::vector<Turn> got;
      for (NodeId i = 0; i < n; ++i) {
        const auto& turns = dynamic_cast<TurnLogNode&>(net.node(i)).turns;
        got.insert(got.end(), turns.begin(), turns.end());
      }
      // One thread runs the turns in activation order; at four the
      // lanes interleave, so only each node's own turns are ordered.
      const auto key = [threads](const Turn& t) {
        return threads == 1 ? std::make_pair(t.seq, std::uint64_t{0})
                            : std::make_pair(t.round, std::uint64_t{t.node});
      };
      std::sort(got.begin(), got.end(), [&](const Turn& a, const Turn& b) {
        return key(a) < key(b);
      });
      EXPECT_EQ(got, want) << n << " nodes, " << threads << " threads";
    }
  }
}

/// Deterministic fault plane keyed by message sequence number only:
/// seq % 4 == 0 duplicates, 1 reorders, 2 delays (1 or 2 rounds), 3
/// passes.
class SeqFaults final : public FaultInjector {
 public:
  FaultDecision decide(std::uint64_t, NodeId, NodeId,
                       std::uint64_t seq) const override {
    FaultDecision d;
    switch (seq % 4) {
      case 0: d.duplicates = 1; break;
      case 1: d.reorder = true; break;
      case 2: d.delay_rounds = 1 + static_cast<std::uint32_t>(seq / 4 % 2);
              break;
      default: break;
    }
    return d;
  }
};

/// Sends tag 10*self + k (+100 in round 2) to node 3 (k = 0) and
/// node 4 (k = 1) in rounds 1 and 2.
class TwoRoundSender final : public Node {
 public:
  void on_start(Context& ctx) override { ctx.wake_at(1); }
  void on_message(const Message&, Context&) override {}
  void on_round_end(Context& ctx) override {
    const std::uint64_t base = ctx.round() == 1 ? 0 : 100;
    ctx.send(3, base + 10 * ctx.self(), {ctx.round()});
    ctx.send(4, base + 10 * ctx.self() + 1, {ctx.round()});
    if (ctx.round() == 1) ctx.wake_at(2);
  }
};

TEST(SparseEngine, GoldenArrivalOrderUnderFaultsAndInject) {
  // Per destination, arrival order is push order: the routed merge in
  // node order (a duplicate lands before its original), then the
  // reorder-held messages in reverse, then inject()s made between
  // rounds, then the delayed messages released this round.
  const SeqFaults faults;
  Network net(DeliveryPolicy{}, 1, 1);
  for (int i = 0; i < 3; ++i) net.add_node(std::make_unique<TwoRoundSender>());
  net.add_node(std::make_unique<RecorderNode>());
  net.add_node(std::make_unique<RecorderNode>());
  net.set_fault_injector(&faults);
  net.start();
  net.run_round();
  net.inject(Message{0, 3, 99, {}, 0});
  net.run_round();
  net.inject(Message{0, 4, 98, {}, 0});
  net.run_round();
  net.run_round();
  EXPECT_EQ(net.run_round(), 0u);

  const auto arrivals = [&](NodeId id) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& [round, m] :
         dynamic_cast<RecorderNode&>(net.node(id)).received) {
      out.emplace_back(round, m.tag);
    }
    return out;
  };
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> to3{
      {2, 0},   {2, 0},   {2, 20},  {2, 20}, {2, 99},
      {2, 10},  {3, 110}, {3, 110}, {3, 120}, {4, 100}};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> to4{
      {2, 11}, {2, 21}, {2, 1}, {3, 101}, {3, 121}, {3, 111}, {3, 98}};
  EXPECT_EQ(arrivals(3), to3);
  EXPECT_EQ(arrivals(4), to4);
  EXPECT_EQ(net.stats().fault_duplicated, 3u);
  EXPECT_EQ(net.stats().fault_reordered, 3u);
  EXPECT_EQ(net.stats().fault_delayed, 3u);
}

/// A few nodes wake on their own period and send to pseudo-random
/// peers; everyone else only answers what it receives.
class SparseWaker final : public Node {
 public:
  SparseWaker(std::size_t n, std::uint64_t period)
      : n_(n), period_(period) {}
  void on_start(Context& ctx) override {
    if (period_ != 0) ctx.wake_at(period_);
  }
  void on_message(const Message& m, Context& ctx) override {
    state_ = state_ * 1099511628211ULL + m.payload.front();
    if (m.tag < 3) ctx.send(m.src, m.tag + 1, {state_});
  }
  void on_round_end(Context& ctx) override {
    if (period_ == 0 || ctx.round() % period_ != 0) return;
    const auto dst = static_cast<NodeId>(
        (ctx.self() * 7919 + ctx.round() * 104729) % n_);
    ctx.send(dst, 0, {state_ ^ ctx.round()});
    ctx.wake_at(ctx.round() + period_);
  }

 private:
  std::size_t n_;
  std::uint64_t period_;
  std::uint64_t state_ = 1;
};

std::pair<std::uint64_t, NetworkStats> run_sparse_wakers(
    std::size_t threads) {
  constexpr std::size_t kNodes = 10'000;
  DeliveryPolicy policy;
  policy.drop_prob = 0.05;
  policy.max_delay_rounds = 2;
  Network net(std::move(policy), /*seed=*/4242, threads);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::uint64_t period = i % 997 == 0 ? 1 + i % 5 : 0;
    net.add_node(std::make_unique<SparseWaker>(kNodes, period));
  }
  net.start();
  for (int r = 0; r < 60; ++r) net.run_round();
  return {net.trace_hash(), net.stats()};
}

TEST(SparseEngine, MostlyIdleNetworkIsThreadCountInvariant) {
  const auto [t1, s1] = run_sparse_wakers(1);
  const auto [t4, s4] = run_sparse_wakers(4);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(s1.delivered, s4.delivered);
  EXPECT_EQ(s1.dropped, s4.dropped);
  EXPECT_EQ(s1.delayed, s4.delayed);
  EXPECT_GT(s1.delivered, 100u);
  EXPECT_GT(s1.delayed, 0u);
}

TEST(SparseEngine, DelayWheelMemoryIsBoundedByPeakNotRunLength) {
  // 16 sends per round, each delayed up to 5 rounds, for 20k rounds:
  // the wheel keeps 6 reusable slots, so its retained capacity is set
  // by a few rounds' traffic (x2 for vector growth), not by the round
  // count.
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kMaxDelay = 5;
  DeliveryPolicy policy;
  policy.max_delay_rounds = kMaxDelay;
  Network net(std::move(policy), /*seed=*/9, 1);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node(std::make_unique<WidePayloadNode>(kNodes, 1));
  }
  net.start();
  for (int r = 0; r < 2'000; ++r) net.run_round();
  const std::size_t early = net.delay_wheel_capacity();
  for (int r = 0; r < 18'000; ++r) net.run_round();
  const std::size_t late = net.delay_wheel_capacity();
  // A slot collects at most kMaxDelay rounds of sends.
  const std::size_t per_slot = kMaxDelay * 2 * kNodes;  // 2 sends/node
  EXPECT_GT(net.stats().delayed, 100'000u);
  EXPECT_GT(early, 0u);
  EXPECT_LE(late, (kMaxDelay + 1) * 2 * per_slot);
  EXPECT_LE(late, 2 * early);
}

/// Delays every message by its destination id, in rounds.
class DelayByDst final : public FaultInjector {
 public:
  FaultDecision decide(std::uint64_t, NodeId, NodeId dst,
                       std::uint64_t) const override {
    FaultDecision d;
    d.delay_rounds = dst;
    return d;
  }
};

/// Sends one message to each of nodes 1, 3, 2, 5, 4 in rounds 1 and 2.
class DelaySpray final : public Node {
 public:
  void on_start(Context& ctx) override { ctx.wake_at(1); }
  void on_message(const Message&, Context&) override {}
  void on_round_end(Context& ctx) override {
    for (const NodeId dst : {1u, 3u, 2u, 5u, 4u}) {
      ctx.send(dst, ctx.round(), {});
    }
    if (ctx.round() == 1) ctx.wake_at(2);
  }
};

TEST(SparseEngine, DelayWheelGrowsWithoutMovingPendingMessages) {
  // The first pass grows the wheel twice (delays 1 -> 3 -> 5) while
  // earlier messages are parked; a message sent in round r with delay
  // d arrives in round r + d.
  const DelayByDst faults;
  Network net(DeliveryPolicy{}, 1, 1);
  net.add_node(std::make_unique<DelaySpray>());
  for (int i = 1; i <= 5; ++i) net.add_node(std::make_unique<RecorderNode>());
  net.set_fault_injector(&faults);
  net.start();
  for (int r = 0; r < 8; ++r) net.run_round();
  for (NodeId d = 1; d <= 5; ++d) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
    for (const auto& [round, m] :
         dynamic_cast<RecorderNode&>(net.node(d)).received) {
      got.emplace_back(round, m.tag);
    }
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> want{
        {1 + d, 1}, {2 + d, 2}};
    EXPECT_EQ(got, want) << "delay " << d;
  }
}

/// Sends to the relays 4..7 in rounds 1..6: payloads of 3 words
/// (inline) and 9 words (spilled), alternating by round.
class PayloadSource final : public Node {
 public:
  void on_start(Context& ctx) override { ctx.wake_at(1); }
  void on_message(const Message&, Context&) override {}
  void on_round_end(Context& ctx) override {
    const std::size_t words = ctx.round() % 2 == 0 ? 3 : 9;
    Words payload;
    for (std::size_t i = 0; i < words; ++i) {
      payload.push_back(ctx.self() * 1000 + ctx.round() * 10 + i);
    }
    ctx.send(static_cast<NodeId>(4 + (ctx.self() + ctx.round()) % 4),
             ctx.round(), std::move(payload));
    if (ctx.round() < 6) ctx.wake_at(ctx.round() + 1);
  }
};

/// How a relay treats the batch it forwards to the sinks 8..11.
enum class RelayMode { copy, move, mutate };

/// Forwards every delivery to sink 8 + (self + tag) % 4: by copy (the
/// const on_message default), by moving the payload out of the batch,
/// or by copy and then overwriting and shrinking the delivered one.
class BatchRelay final : public Node {
 public:
  explicit BatchRelay(RelayMode mode) : mode_(mode) {}
  void on_message(const Message& m, Context& ctx) override {
    ctx.send(sink(m, ctx), m.tag, m.payload);
  }
  void on_messages(std::span<Message> batch, Context& ctx) override {
    if (mode_ == RelayMode::copy) {
      Node::on_messages(batch, ctx);
      return;
    }
    for (Message& m : batch) {
      if (mode_ == RelayMode::move) {
        ctx.send(sink(m, ctx), m.tag, std::move(m.payload));
        continue;
      }
      ctx.send(sink(m, ctx), m.tag, m.payload);
      for (auto& word : m.payload) word = ~word;
      m.payload.resize(1);
    }
  }

 private:
  static NodeId sink(const Message& m, const Context& ctx) {
    return static_cast<NodeId>(8 + (ctx.self() + m.tag) % 4);
  }
  RelayMode mode_;
};

TEST(SparseEngine, ConsumedBatchesLeaveTraceAndOtherNodesUnchanged) {
  // A relay may move payloads out of its batch or overwrite them: the
  // trace hash was taken before handlers ran, and a fault duplicate is
  // its own deep copy, so neither the trace nor what the sinks receive
  // may change, at any executor width.
  const SeqFaults faults;  // duplicates, reorders and delays
  const auto run = [&](RelayMode mode, std::size_t threads) {
    Network net(DeliveryPolicy{}, 1, threads);
    for (int i = 0; i < 4; ++i) net.add_node(std::make_unique<PayloadSource>());
    for (int i = 0; i < 4; ++i) net.add_node(std::make_unique<BatchRelay>(mode));
    for (int i = 0; i < 4; ++i) net.add_node(std::make_unique<RecorderNode>());
    net.set_fault_injector(&faults);
    net.start();
    for (int r = 0; r < 12; ++r) net.run_round();
    std::vector<std::vector<std::pair<std::uint64_t, Message>>> sinks;
    for (NodeId d = 8; d < 12; ++d) {
      sinks.push_back(dynamic_cast<RecorderNode&>(net.node(d)).received);
    }
    return std::make_tuple(net.trace_hash(), net.stats().delivered, sinks);
  };
  const auto reference = run(RelayMode::copy, 1);
  EXPECT_GT(std::get<1>(reference), 48u);  // duplicates add deliveries
  for (const RelayMode mode :
       {RelayMode::copy, RelayMode::move, RelayMode::mutate}) {
    for (const std::size_t threads : {1u, 4u}) {
      EXPECT_EQ(run(mode, threads), reference)
          << "mode " << static_cast<int>(mode) << ", " << threads
          << " threads";
    }
  }
}

// ---------- Fig. 1 relay chain ----------

TEST(RelayChain, AllGoodDelivers) {
  RelayConfig cfg;
  cfg.chain_length = 5;
  cfg.group_size = 9;
  cfg.bad_per_group = 0;
  const auto run = run_relay_chain(cfg);
  EXPECT_TRUE(run.delivered);
  EXPECT_FALSE(run.corrupted);
  // Messages: (chain-1) hops of |G|^2 copies, all delivered.
  EXPECT_EQ(run.messages_delivered, 4u * 81u);
}

TEST(RelayChain, MinorityByzantineIsFiltered) {
  RelayConfig cfg;
  cfg.chain_length = 6;
  cfg.group_size = 9;
  cfg.bad_per_group = 4;  // 4 of 9: minority
  const auto run = run_relay_chain(cfg);
  EXPECT_TRUE(run.delivered);
  EXPECT_FALSE(run.corrupted);
}

TEST(RelayChain, MajorityByzantineGroupCorrupts) {
  RelayConfig cfg;
  cfg.chain_length = 4;
  cfg.group_size = 9;
  cfg.bad_per_group = 5;  // majority bad in EVERY group
  const auto run = run_relay_chain(cfg);
  EXPECT_FALSE(run.delivered);
}

TEST(RelayChain, SurvivesBoundedDelay) {
  RelayConfig cfg;
  cfg.chain_length = 5;
  cfg.group_size = 9;
  cfg.bad_per_group = 3;
  cfg.max_delay_rounds = 3;
  const auto run = run_relay_chain(cfg);
  EXPECT_TRUE(run.delivered);
  EXPECT_FALSE(run.corrupted);
}

TEST(RelayChain, HeavyDropStarvesButNeverForges) {
  RelayConfig cfg;
  cfg.chain_length = 8;
  cfg.group_size = 7;
  cfg.bad_per_group = 2;
  cfg.drop_prob = 0.6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const auto run = run_relay_chain(cfg);
    // With 60% loss the payload may starve, but a forgery majority
    // among good members must never form.
    EXPECT_FALSE(run.corrupted) << "seed " << seed;
  }
}

TEST(RelayChain, WidePayloadCopiesRelayAndFilterIdentically) {
  // Copies wide enough to spill to the heap must not change
  // the protocol outcome: word 0 still carries the value, and the
  // majority filter still rejects a Byzantine minority.
  RelayConfig cfg;
  cfg.chain_length = 5;
  cfg.group_size = 9;
  cfg.bad_per_group = 4;
  cfg.payload_words = 3 * Words::kInlineCapacity;
  const auto wide = run_relay_chain(cfg);
  EXPECT_TRUE(wide.delivered);
  EXPECT_FALSE(wide.corrupted);
  // Same outcome (and message count) as the single-word protocol.
  cfg.payload_words = 1;
  const auto narrow = run_relay_chain(cfg);
  EXPECT_EQ(wide.delivered, narrow.delivered);
  EXPECT_EQ(wide.messages_delivered, narrow.messages_delivered);
}

TEST(RelayChain, RoundsScaleWithChainLength) {
  RelayConfig cfg;
  cfg.group_size = 7;
  cfg.bad_per_group = 0;
  cfg.chain_length = 3;
  const auto short_run = run_relay_chain(cfg);
  cfg.chain_length = 12;
  const auto long_run = run_relay_chain(cfg);
  EXPECT_TRUE(short_run.delivered);
  EXPECT_TRUE(long_run.delivered);
  EXPECT_GT(long_run.rounds, short_run.rounds + 6);
}

}  // namespace
}  // namespace tg::net
