#include "workload/engine.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace tg::workload {
namespace {

// Op settle outcomes (args.outcome of the op span's 'e' event).
constexpr std::uint64_t kOutcomeCompleted = 0;
constexpr std::uint64_t kOutcomeFailed = 1;
constexpr std::uint64_t kOutcomeTimedOut = 2;

constexpr std::uint64_t kTagRequest = 1;
constexpr std::uint64_t kTagReply = 2;

// Reply status words.
constexpr std::uint64_t kStatusOk = 0;
constexpr std::uint64_t kStatusFailed = 1;
constexpr std::uint64_t kStatusCorrupted = 2;

// The retry lifecycle's fixed shape: an op's deadline falls
// kDeadlineTimeouts attempt timeouts after its first issue, the backoff
// before attempt k + 1 is kBackoffBaseRounds << (k - 1) rounds, and a
// re-attempt enters through the least-implicated of kFailoverCandidates
// drawn entry groups.
constexpr std::uint64_t kDeadlineTimeouts = 4;
constexpr std::uint64_t kBackoffBaseRounds = 2;
constexpr std::size_t kFailoverCandidates = 4;

// Request payload layout (reply layout: op_id, status, value), each
// followed by the padding.  The hop-count word is kFreshRequest on
// client-sent requests; the ENTRY group computes the H route once and
// embeds the remaining hop chain (matching the paper's search
// semantics — the route is fixed by the start, evaluated group by
// group; per-hop re-routing would loop on source-path overlays like
// de Bruijn).  One block carries an op from issue to reply: the issuer
// sizes it for the entry group's chain, the entry group moves the
// padding right past the chain, every later hop shifts the chain and
// the padding one word left, and the owner moves the padding left into
// the reply.  Padding word i is a function of the op id alone, so a
// shifted payload equals one rebuilt at the new offset.
enum : std::size_t {
  kReqOpId = 0,
  kReqReplyTo = 1,
  kReqKind = 2,
  kReqKey = 3,
  kReqValue = 4,
  kReqHopCount = 5,
  kReqHops = 6,  // kReqHopCount hop words follow, then padding
};
constexpr std::size_t kReplyWords = 3;
constexpr std::uint64_t kFreshRequest = ~std::uint64_t{0};

void send_request(net::Context& ctx, net::NodeId dst, const Operation& op,
                  std::uint64_t op_id, net::NodeId reply_to,
                  std::size_t padding_words) {
  // Room for the entry group's hop chain up front, so an op costs one
  // block: twice the request, which is what the entry group's regrowth
  // of an exactly-sized block would allocate.
  net::Words payload;
  payload.reserve(2 * (kReqHops + padding_words));
  payload = {op_id,
             reply_to,
             static_cast<std::uint64_t>(op.kind),
             op.key.raw(),
             op.value,
             kFreshRequest};
  // Synthetic certificate words (cf. RelayMember): deterministic
  // filler the trace hash covers.
  payload.resize(kReqHops + padding_words);
  for (std::size_t i = 0; i < padding_words; ++i) {
    payload[kReqHops + i] = mix64(op_id + i + 1);
  }
  ctx.send(dst, kTagRequest, std::move(payload));
}

/// One group's collective actor: forwards requests along the overlay
/// route, executes ops when responsible, and embodies the red-group
/// hazard (silent drop en route, garbage service when responsible).
/// A request's payload block travels with it: each hop rewrites the
/// delivered payload in place and moves it on, and the owner turns
/// the same block into the reply.  The node caches what every hop
/// reads of its own group (size, red flag) and reads the sender's size
/// from the world's compact size array.
class GroupNode final : public net::Node {
 public:
  GroupNode(std::size_t index, Service& service, std::size_t padding_words)
      : service_(&service),
        sizes_(service.world().group_sizes().data()),
        padding_words_(padding_words),
        index_(static_cast<net::NodeId>(index)),
        groups_(static_cast<net::NodeId>(service.world().groups())),
        size_(sizes_[index]),
        red_(service.world().is_red(index)) {}

  void on_message(const net::Message& m, net::Context& ctx) override {
    net::Message copy = m;
    on_messages({&copy, 1}, ctx);
  }

  void on_messages(std::span<net::Message> batch,
                   net::Context& ctx) override {
    // One guard per batch; the events below are pure functions of the
    // (deterministic) delivery stream, so counts and traces are
    // identical at any executor width.
    telemetry::Session* const telem = telemetry::active();
    for (net::Message& m : batch) handle(m, ctx, telem);
  }

  [[nodiscard]] std::uint64_t analytic_messages() const noexcept {
    return analytic_messages_;
  }

 private:
  void handle(net::Message& m, net::Context& ctx, telemetry::Session* telem) {
    net::Words& payload = m.payload;
    if (m.tag != kTagRequest || payload.size() < kReqHops + padding_words_) {
      return;
    }
    const std::uint64_t op_id = payload[kReqOpId];
    const auto reply_to = static_cast<net::NodeId>(payload[kReqReplyTo]);
    const ids::RingPoint key{payload[kReqKey]};

    // All-to-all accounting: a group-to-group hop costs |G_a| x |G_b|.
    if (m.src < groups_) {
      analytic_messages_ += std::uint64_t{sizes_[m.src]} * size_;
    }

    // The owner is asked of the world once per op, at the entry group.
    // A relayed request has reached its owner exactly when its hop
    // chain is exhausted: every overlay's route stops at its first
    // arrival at suc(key), so the owner is the chain's last hop and no
    // earlier one (overlay.route-ends-at-first-arrival).
    const std::uint64_t hop_word = payload[kReqHopCount];
    const bool fresh = hop_word == kFreshRequest;
    const bool responsible =
        fresh ? service_->world().responsible(key) == index_ : hop_word == 0;

    const auto src_group =
        telemetry::kSrcGroup + static_cast<std::uint32_t>(index_);
    if (red_) {
      if (!responsible) {
        if (telem != nullptr) {
          telem->count(telemetry::Probe::workload_red_drops);
          telem->event(telemetry::EventName::op_red_drop, src_group, 'n',
                       op_id, /*a=*/index_);
        }
        return;  // the search dies here; client times out
      }
      // Adversary-controlled owner: serve garbage.
      const std::uint64_t forged = ~payload[kReqValue];
      reply(ctx, reply_to, std::move(payload), kStatusCorrupted, forged);
      analytic_messages_ += size_;
      if (telem != nullptr) {
        telem->event(telemetry::EventName::op_serve, src_group, 'n', op_id,
                     /*a=*/index_, /*b=*/kStatusCorrupted);
      }
      return;
    }
    if (responsible) {
      Operation op;
      op.kind = static_cast<OpKind>(payload[kReqKind]);
      op.key = key;
      op.value = payload[kReqValue];
      const Execution exec = service_->execute(op, index_);
      reply(ctx, reply_to, std::move(payload),
            exec.ok ? kStatusOk : kStatusFailed, exec.value);
      // Each member returns its copy for majority filtering.
      analytic_messages_ += size_;
      if (telem != nullptr) {
        telem->event(telemetry::EventName::op_serve, src_group, 'n', op_id,
                     /*a=*/index_, /*b=*/exec.ok ? kStatusOk : kStatusFailed);
      }
      return;
    }

    // Forward along the hop chain; the entry group establishes it.
    std::size_t next;
    std::size_t chain;  // hop words after the next hop
    if (fresh) {
      // One scratch route per executor thread: handlers on a thread
      // run one at a time, and the route is consumed right here.
      thread_local overlay::Route route;
      service_->world().topology().route_unrecorded(route, index_, key);
      if (telem != nullptr) {
        overlay::record_route(*telem, route.ok, route.hops());
      }
      if (!route.ok || route.path.size() < 2) return;  // routing dead end
      next = route.path[1];
      chain = route.path.size() - 2;
      // Move the padding right past the chain, then write the chain.
      payload.resize(kReqHops + chain + padding_words_);
      std::uint64_t* const words = payload.begin();
      std::memmove(words + kReqHops + chain, words + kReqHops,
                   padding_words_ * sizeof(std::uint64_t));
      for (std::size_t i = 0; i < chain; ++i) {
        words[kReqHops + i] = route.path[i + 2];
      }
      if (telem != nullptr) {
        // Entry group: the op's full hop chain is fixed here.
        telem->event(telemetry::EventName::op_route, src_group, 'n', op_id,
                     /*a=*/index_, /*b=*/route.path.size() - 1);
      }
    } else {
      if (hop_word > payload.size() - kReqHops - padding_words_) {
        return;  // malformed chain
      }
      next = static_cast<std::size_t>(payload[kReqHops]);
      chain = static_cast<std::size_t>(hop_word) - 1;
      // Pop the next hop: the rest of the chain and the padding shift
      // one word left.
      std::uint64_t* const words = payload.begin();
      std::memmove(words + kReqHops, words + kReqHops + 1,
                   (payload.size() - kReqHops - 1) * sizeof(std::uint64_t));
      payload.resize(payload.size() - 1);
    }
    if (next >= groups_) return;  // malformed hop
    payload[kReqHopCount] = chain;
    if (telem != nullptr) {
      telem->event(telemetry::EventName::op_hop, src_group, 'n', op_id,
                   /*a=*/index_, /*b=*/next);
    }
    ctx.send(static_cast<net::NodeId>(next), kTagRequest, std::move(payload));
  }

  /// Turn a request payload at its owner (op_id, ..., hop count 0 or
  /// fresh, padding) into the reply (op_id, status, value, padding):
  /// the op id already sits in word 0 and the padding moves left.
  void reply(net::Context& ctx, net::NodeId reply_to, net::Words&& payload,
             std::uint64_t status, std::uint64_t value) {
    std::uint64_t* const words = payload.begin();
    words[1] = status;
    words[2] = value;
    std::memmove(words + kReplyWords, words + kReqHops,
                 padding_words_ * sizeof(std::uint64_t));
    payload.resize(kReplyWords + padding_words_);
    ctx.send(reply_to, kTagReply, std::move(payload));
  }

  Service* service_;
  const std::uint32_t* sizes_;  ///< every group's size, by group index
  std::size_t padding_words_;
  std::uint64_t analytic_messages_ = 0;
  net::NodeId index_;
  net::NodeId groups_;
  std::uint32_t size_;  ///< own group's size
  bool red_;            ///< own group's red flag
};

/// Shared issuing machinery: op numbering, start-group selection
/// (uniform, or steered by the current attack phase), reply matching,
/// and the op ledger every tracked op settles through.  The ledger
/// runs the RetryPolicy resolved here: deadline, backoff retries with
/// failover routing and an optional hedge when it is enabled, a single
/// attempt when it is not.
class IssuerBase : public net::Node {
 public:
  IssuerBase(const Spec& spec, Service& service, std::uint64_t seed)
      : spec_(&spec),
        service_(&service),
        rng_(seed),
        max_attempts_(spec.retry.enabled
                          ? std::max<std::size_t>(1, spec.retry.max_attempts)
                          : 1),
        hedge_(spec.retry.enabled && spec.retry.hedge) {}

  /// Issuers keep time (arrivals, timeouts, retries): they run every
  /// round, so each turn requests the next.
  void on_start(net::Context& ctx) override { ctx.wake_at(ctx.round() + 1); }

  void on_message(const net::Message& m, net::Context& ctx) override {
    if (m.tag == kTagReply && !m.payload.empty()) settle_reply(m, ctx);
  }

  /// Drive the ledger, then generate until the window closes (the
  /// drain rounds after it only settle what is open).
  void on_round_end(net::Context& ctx) final {
    ctx.wake_at(ctx.round() + 1);
    process_wakes(ctx);
    if (ctx.round() <= spec_->rounds) generate(ctx);
  }

  [[nodiscard]] const Recorder& recorder() const noexcept { return recorder_; }
  /// Ops open in the ledger: settling an op erases its entry.
  [[nodiscard]] std::size_t open_ops() const noexcept {
    return ledger_.size();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& completed_by_round()
      const noexcept {
    return completed_by_round_;
  }

 protected:
  /// This round's arrivals (open loop) or next op (closed loop).
  virtual void generate(net::Context& ctx) = 0;

  /// Loop-mode hook: fired exactly once per op as it settles.
  virtual void on_settle() {}

  /// Node id in the high bits keeps op ids globally unique.
  [[nodiscard]] std::uint64_t next_op_id(net::NodeId self) noexcept {
    return (static_cast<std::uint64_t>(self) << 40) | next_serial_++;
  }

  /// The phase governing `round`, or nullptr before the first phase.
  [[nodiscard]] const AttackPhase* phase_at(
      std::uint64_t round) const noexcept {
    const AttackPhase* current = nullptr;
    for (const AttackPhase& phase : spec_->phases) {
      if (phase.start_round > round) break;  // sorted by run()
      current = &phase;
    }
    return current;
  }

  [[nodiscard]] net::NodeId pick_start(std::uint64_t round) {
    const World& world = service_->world();
    const AttackPhase* phase = phase_at(round);
    const double eclipsed = phase != nullptr ? phase->eclipsed_fraction : 0.0;
    if (eclipsed > 0.0 && rng_.bernoulli(eclipsed)) {
      return static_cast<net::NodeId>(world.most_bad_group());
    }
    return static_cast<net::NodeId>(rng_.below(world.groups()));
  }

  /// Open a new op: ledger entry + first attempt.
  void open_op(net::Context& ctx) {
    self_id_ = ctx.self();
    const std::uint64_t round = ctx.round();
    OpState st;
    st.op = service_->next_operation(rng_);
    const std::uint64_t op_id = next_op_id(ctx.self());
    st.first_issue = st.last_issue = round;
    st.attempts = 1;
    st.last_start = pick_start(round);
    send_request(ctx, st.last_start, st.op, op_id, ctx.self(),
                 spec_->padding_words);
    ++recorder_.issued;
    if (auto* t = telemetry::active()) {  // open the op's async span
      t->count(telemetry::Probe::workload_ops_issued);
      t->event(telemetry::EventName::op, telem_source(), 'b', op_id,
               /*a=*/static_cast<std::uint64_t>(st.op.kind));
    }
    schedule_wake(round + spec_->timeout_rounds, op_id);
    if (hedge_) {
      const std::uint64_t at = round + hedge_delay();
      if (at < round + spec_->timeout_rounds) {
        st.hedge_at = at;
        schedule_wake(at, op_id);
      }
    }
    ledger_.emplace(op_id, std::move(st));
  }

  const Spec* spec_;
  Service* service_;
  Rng rng_;

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Per-op ledger entry, erased when the op settles.  The op id is
  /// STABLE across attempts and hedges: the first reply settles the
  /// op, and a later one finds no entry and is counted stale.
  struct OpState {
    Operation op;
    std::uint64_t first_issue = 0;
    std::uint64_t last_issue = 0;
    std::uint64_t retry_at = kNever;
    std::uint64_t hedge_at = kNever;
    std::uint32_t attempts = 0;
    net::NodeId last_start = 0;
    /// Hop groups implicated by this op's earlier timeouts; failover
    /// re-attempts route around them.
    std::vector<std::uint32_t> implicated;
  };
  using Ledger = std::unordered_map<std::uint64_t, OpState>;

  /// The per-issuer trace "thread" of this issuer's telemetry events.
  [[nodiscard]] std::uint32_t telem_source() const noexcept {
    return telemetry::kSrcClient + static_cast<std::uint32_t>(self_id_);
  }

  /// Hedge trigger: explicit knob, or this issuer's own p99 once it
  /// has data (bootstrap: half the timeout), clamped under the
  /// attempt timeout so hedging can ever help.
  [[nodiscard]] std::uint64_t hedge_delay() const noexcept {
    if (spec_->retry.hedge_delay_rounds != 0) {
      return spec_->retry.hedge_delay_rounds;
    }
    std::uint64_t delay = spec_->timeout_rounds / 2;
    if (recorder_.latency.count() >= 8) delay = recorder_.latency.p99();
    const std::uint64_t cap =
        std::max<std::uint64_t>(2, spec_->timeout_rounds - 1);
    return std::clamp<std::uint64_t>(delay, 2, cap);
  }

  void schedule_wake(std::uint64_t when, std::uint64_t op_id) {
    if (wake_.size() <= when) wake_.resize(when + 1);
    wake_[when].push_back(op_id);
  }

  /// Drive every op whose wake round arrived.  Wakes are scheduled in
  /// deterministic handler order and the ledger is consulted by id,
  /// never iterated, so the lifecycle inherits the runtime's
  /// any-thread-count determinism.
  void process_wakes(net::Context& ctx) {
    const std::uint64_t round = ctx.round();
    if (round >= wake_.size()) return;
    const std::vector<std::uint64_t> due =
        std::exchange(wake_[round], std::vector<std::uint64_t>{});
    for (const std::uint64_t op_id : due) {
      const auto it = ledger_.find(op_id);
      if (it == ledger_.end()) continue;  // stale wake: the op is closed
      OpState& st = it->second;
      const std::uint64_t limit =
          st.first_issue + kDeadlineTimeouts * spec_->timeout_rounds;
      if (round >= limit) {
        settle(it, round, kOutcomeTimedOut);
        continue;
      }
      if (st.retry_at == round) {
        st.retry_at = kNever;
        send_attempt(ctx, op_id, st, /*hedge=*/false);
        continue;
      }
      if (st.hedge_at == round) {
        st.hedge_at = kNever;
        send_attempt(ctx, op_id, st, /*hedge=*/true);
        continue;
      }
      if (round >= st.last_issue + spec_->timeout_rounds) {
        // The newest attempt timed out: remember its route for the
        // failover (only a re-attempt reads it), then back off and
        // fail over — or give up within the deadline.
        if (max_attempts_ > 1) implicate(st);
        if (st.attempts >= max_attempts_) {
          settle(it, round, kOutcomeTimedOut);
          continue;
        }
        const std::uint64_t when =
            round + (kBackoffBaseRounds << (st.attempts - 1));
        if (when + 1 >= limit) {
          settle(it, round, kOutcomeTimedOut);
          continue;
        }
        st.retry_at = when;
        schedule_wake(when, op_id);
      }
      // A wake that matches none of the above is a superseded
      // attempt-timeout check (a newer attempt reset the clock and
      // scheduled its own wake): nothing to do.
    }
  }

  /// The first reply settles its op; a reply that finds no entry (late,
  /// duplicate, hedge echo) only bumps the stale counter — the ledger
  /// is idempotent by design.
  void settle_reply(const net::Message& m, net::Context& ctx) {
    const auto it = ledger_.find(m.payload[0]);
    if (it == ledger_.end()) {
      ++recorder_.stale_replies;
      if (auto* t = telemetry::active()) {
        t->count(telemetry::Probe::workload_stale_replies);
        t->event(telemetry::EventName::op_stale, telem_source(), 'n',
                 m.payload[0], /*a=*/m.src);
      }
      return;
    }
    const bool ok = m.payload.size() >= 2 && m.payload[1] == kStatusOk;
    settle(it, ctx.round(), ok ? kOutcomeCompleted : kOutcomeFailed);
  }

  /// Record the op's outcome and its client-observed latency — rounds
  /// since the FIRST issue, at least 1, so delayed replies count their
  /// delay — close its span ('e') and erase its entry.
  void settle(Ledger::iterator it, std::uint64_t round,
              std::uint64_t outcome) {
    const std::uint64_t latency =
        std::max<std::uint64_t>(1, round - it->second.first_issue);
    recorder_.latency.record(latency);
    if (outcome == kOutcomeCompleted) {
      ++recorder_.completed;
      note_goodput(round);
    } else if (outcome == kOutcomeFailed) {
      ++recorder_.failed;
    } else {
      ++recorder_.timed_out;
    }
    if (auto* t = telemetry::active()) {
      using telemetry::Probe;
      t->count(outcome == kOutcomeCompleted ? Probe::workload_ops_completed
               : outcome == kOutcomeFailed  ? Probe::workload_ops_failed
                                            : Probe::workload_ops_timed_out);
      t->sample(Probe::workload_op_latency_rounds, latency);
      t->event(telemetry::EventName::op, telem_source(), 'e', it->first,
               /*a=*/0, /*b=*/outcome);
    }
    ledger_.erase(it);
    on_settle();
  }

  void send_attempt(net::Context& ctx, std::uint64_t op_id, OpState& st,
                    bool hedge) {
    const std::uint64_t round = ctx.round();
    const net::NodeId start =
        st.implicated.empty() ? pick_start(round) : pick_failover_start(st);
    st.last_start = start;
    st.last_issue = round;
    if (hedge) {
      ++recorder_.hedges;
    } else {
      ++st.attempts;
      ++recorder_.retries;
    }
    if (auto* t = telemetry::active()) {
      t->count(hedge ? telemetry::Probe::workload_hedges
                     : telemetry::Probe::workload_retries);
      t->event(telemetry::EventName::op_attempt, telem_source(), 'n', op_id,
               /*a=*/st.attempts, /*b=*/hedge ? 1 : 0);
    }
    send_request(ctx, start, st.op, op_id, ctx.self(), spec_->padding_words);
    schedule_wake(round + spec_->timeout_rounds, op_id);
  }

  /// A timed-out attempt implicates its en-route hop groups (a red
  /// OWNER answers — corrupted — rather than timing out), capped to
  /// keep per-op state tiny.
  void implicate(OpState& st) {
    const World& world = service_->world();
    world.route_into(route_scratch_, st.last_start, st.op.key);
    if (!route_scratch_.ok) return;
    const std::size_t hops = route_scratch_.path.size();
    for (std::size_t i = 0; i + 1 < hops && st.implicated.size() < 16; ++i) {
      const auto group = static_cast<std::uint32_t>(route_scratch_.path[i]);
      if (std::find(st.implicated.begin(), st.implicated.end(), group) ==
          st.implicated.end()) {
        st.implicated.push_back(group);
      }
    }
  }

  /// Failover entry selection: draw kFailoverCandidates entry groups,
  /// route them all in ONE route_many batch, take the route
  /// overlapping the implicated set least (ties: first drawn;
  /// same-entry re-use is penalized one point).
  [[nodiscard]] net::NodeId pick_failover_start(const OpState& st) {
    const World& world = service_->world();
    cand_queries_.clear();
    for (std::size_t i = 0; i < kFailoverCandidates; ++i) {
      cand_queries_.push_back(
          overlay::RouteQuery{rng_.below(world.groups()), st.op.key});
    }
    cand_routes_.resize(kFailoverCandidates);
    world.route_many(cand_queries_.data(), kFailoverCandidates,
                     cand_routes_.data());
    std::size_t best = 0;
    std::size_t best_score = ~std::size_t{0};
    for (std::size_t i = 0; i < kFailoverCandidates; ++i) {
      const overlay::Route& route = cand_routes_[i];
      if (!route.ok) continue;
      std::size_t score = 0;
      for (std::size_t h = 0; h + 1 < route.path.size(); ++h) {
        if (std::find(st.implicated.begin(), st.implicated.end(),
                      static_cast<std::uint32_t>(route.path[h])) !=
            st.implicated.end()) {
          ++score;
        }
      }
      if (cand_queries_[i].start == st.last_start) ++score;
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    return static_cast<net::NodeId>(cand_queries_[best].start);
  }

  void note_goodput(std::uint64_t round) {
    if (!spec_->track_round_goodput) return;
    if (completed_by_round_.size() <= round) {
      completed_by_round_.resize(round + 1, 0);
    }
    ++completed_by_round_[round];
  }

  /// The RetryPolicy, resolved: a disabled policy is one attempt and
  /// no hedge.
  std::size_t max_attempts_;
  bool hedge_;
  Recorder recorder_;
  std::uint64_t next_serial_ = 0;
  /// Own node id, captured at the first issue (Context is not stored);
  /// telemetry events use it as the per-issuer trace "thread".
  net::NodeId self_id_ = 0;
  Ledger ledger_;
  /// Wake slots by absolute round — the ONLY iteration over pending
  /// ops, appended in deterministic handler order (never a map walk).
  std::vector<std::vector<std::uint64_t>> wake_;
  std::vector<std::uint64_t> completed_by_round_;
  overlay::Route route_scratch_;
  std::vector<overlay::RouteQuery> cand_queries_;
  std::vector<overlay::Route> cand_routes_;
};

/// Open-loop generator: a deterministic arrival schedule, issued
/// whether or not earlier ops completed.  `bogus` turns it into the
/// flood attack's background traffic source: arrivals at the current
/// phase's background rate, sent but never tracked or recorded.
class GeneratorNode final : public IssuerBase {
 public:
  GeneratorNode(const Spec& spec, Service& service, std::uint64_t seed,
                bool bogus)
      : IssuerBase(spec, service, seed), bogus_(bogus) {}

  void on_message(const net::Message& m, net::Context& ctx) override {
    if (!bogus_) IssuerBase::on_message(m, ctx);
  }

 private:
  void generate(net::Context& ctx) override {
    const std::uint64_t round = ctx.round();
    double rate = spec_->rate;
    if (bogus_) {
      const AttackPhase* phase = phase_at(round);
      rate = phase != nullptr ? phase->background_rate : 0.0;
    }
    if (spec_->burst_every != 0 &&
        round % spec_->burst_every < spec_->burst_rounds) {
      rate *= spec_->burst_multiplier;
    }
    accumulator_ += rate;
    while (accumulator_ >= 1.0) {
      accumulator_ -= 1.0;
      if (!bogus_) {
        open_op(ctx);
        continue;
      }
      // Flood load: sent, never tracked or recorded.
      const Operation op = service_->next_operation(rng_);
      const std::uint64_t op_id = next_op_id(ctx.self());
      send_request(ctx, pick_start(round), op, op_id, ctx.self(),
                   spec_->padding_words);
    }
  }

  bool bogus_;
  double accumulator_ = 0.0;
};

/// Closed-loop client: one op in flight, then think, then the next.
class ClientNode final : public IssuerBase {
 public:
  using IssuerBase::IssuerBase;

  void on_start(net::Context& ctx) override {
    IssuerBase::on_start(ctx);
    open_op(ctx);
  }

 private:
  void generate(net::Context& ctx) override {
    if (open_ops() != 0) return;
    if (think_left_ > 0) {
      --think_left_;
      return;
    }
    open_op(ctx);
  }

  void on_settle() override { think_left_ = spec_->think_rounds; }

  std::size_t think_left_ = 0;
};

}  // namespace

std::string_view to_string(Mode mode) noexcept {
  return mode == Mode::open_loop ? "open" : "closed";
}

RunResult run(Service& service, const Spec& spec_in, std::uint64_t seed,
              std::size_t threads) {
  if (spec_in.timeout_rounds == 0) {
    throw std::invalid_argument("workload::run: timeout_rounds must be >= 1");
  }
  const World& world = service.world();
  // Build the overlay's finger rows from the main thread (the build
  // parallelizes on the global pool) before handlers start routing —
  // a pool worker routing first would build them inline.
  world.prepare_routing();

  // Normalize the spec the nodes will observe: phases sorted.
  Spec spec = spec_in;
  std::stable_sort(spec.phases.begin(), spec.phases.end(),
                   [](const AttackPhase& a, const AttackPhase& b) {
                     return a.start_round < b.start_round;
                   });
  if (!spec.faults.empty() && spec.faults.seed == 0) {
    spec.faults.seed = mix64(seed ^ 0x6661756c74ULL);  // "fault"
  }

  // With an empty plan the injector seam is never attached: the
  // delivery path is byte-identical to a fault-free build.
  std::optional<fault::PlanInjector> injector;
  net::DeliveryPolicy policy;
  net::Network network(std::move(policy), mix64(seed ^ 0x776b6c6f6164ULL),
                       threads);
  if (!spec.faults.empty()) {
    injector.emplace(spec.faults);
    network.set_fault_injector(&*injector);
  }

  std::vector<GroupNode*> groups;
  groups.reserve(world.groups());
  for (std::size_t g = 0; g < world.groups(); ++g) {
    auto node = std::make_unique<GroupNode>(g, service, spec.padding_words);
    groups.push_back(node.get());
    network.add_node(std::move(node));
  }

  // Issuer seeds derive from (seed, node index) so clients draw
  // decorrelated deterministic streams.
  std::vector<IssuerBase*> issuers;
  const auto issuer_seed = [&](std::size_t index) {
    return mix64(seed ^ (0x636c69656e74ULL + index * 0x9e3779b97f4a7c15ULL));
  };
  if (spec.mode == Mode::open_loop) {
    auto node = std::make_unique<GeneratorNode>(spec, service, issuer_seed(0),
                                                /*bogus=*/false);
    issuers.push_back(node.get());
    network.add_node(std::move(node));
  } else {
    const std::size_t clients = std::max<std::size_t>(1, spec.clients);
    for (std::size_t c = 0; c < clients; ++c) {
      auto node =
          std::make_unique<ClientNode>(spec, service, issuer_seed(c));
      issuers.push_back(node.get());
      network.add_node(std::move(node));
    }
  }
  if (std::any_of(spec.phases.begin(), spec.phases.end(),
                  [](const AttackPhase& phase) {
                    return phase.background_rate > 0.0;
                  })) {
    network.add_node(std::make_unique<GeneratorNode>(
        spec, service, issuer_seed(~std::size_t{0}), /*bogus=*/true));
  }

  const Stopwatch sw;
  network.start();
  for (std::size_t r = 0; r < spec.rounds; ++r) network.run_round();
  // Drain: every op settles by its deadline, or by its last attempt's
  // timeout when that attempt started just before the deadline.
  const std::size_t drain_cap =
      (kDeadlineTimeouts + 1) * spec.timeout_rounds + 8;
  std::size_t drain = 0;
  const auto any_open = [&] {
    return std::any_of(
        issuers.begin(), issuers.end(),
        [](const IssuerBase* issuer) { return issuer->open_ops() != 0; });
  };
  while (any_open() && drain < drain_cap) {
    network.run_round();
    ++drain;
  }

  RunResult out;
  out.seconds = sw.seconds();
  for (const IssuerBase* issuer : issuers) {
    out.recorder.merge(issuer->recorder());
    if (spec.track_round_goodput) {
      const auto& by_round = issuer->completed_by_round();
      if (out.completed_by_round.size() < by_round.size()) {
        out.completed_by_round.resize(by_round.size(), 0);
      }
      for (std::size_t r = 0; r < by_round.size(); ++r) {
        out.completed_by_round[r] += by_round[r];
      }
    }
  }
  out.recorder.rounds = spec.rounds;
  for (const GroupNode* group : groups) {
    out.recorder.analytic_messages += group->analytic_messages();
  }
  out.net = network.stats();
  out.trace_hash = network.trace_hash();
  out.rounds_run = spec.rounds + drain;
  return out;
}

}  // namespace tg::workload
