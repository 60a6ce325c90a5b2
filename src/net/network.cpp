#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::net {
namespace {

void default_corrupt(Message& m) {
  for (auto& word : m.payload) word ^= 1ULL;
}

}  // namespace

Network::Network(DeliveryPolicy policy, std::uint64_t seed,
                 std::size_t threads)
    : policy_(std::move(policy)),
      policy_rng_(seed),
      threads_(threads == 0 ? 1 : threads) {
  if (!policy_.corrupt) policy_.corrupt = default_corrupt;
}

NodeId Network::add_node(std::unique_ptr<Node> node) {
  if (started_)
    throw std::logic_error("Network: add_node after start()");
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::inject(Message m) {
  if (m.dst >= nodes_.size())
    throw std::out_of_range("Network: inject to unknown node");
  ++stats_.sent;
  m.sent_round = round_;
  inbox_.push_back(std::move(m));
}

void Network::absorb_trace(const Message& m) noexcept {
  const auto mix = [&](std::uint64_t word) {
    trace_hash_ ^= word;
    trace_hash_ *= 1099511628211ULL;  // FNV prime
  };
  mix(m.src);
  mix(m.dst);
  mix(m.tag);
  mix(m.sent_round);
  for (const auto w : m.payload) mix(w);
}

void Network::route_outbox(std::vector<Message>& outbox) {
  for (Message& m : outbox) {
    if (m.dst >= nodes_.size()) continue;  // misaddressed: dropped
    ++stats_.sent;
    const bool byz = m.src < policy_.byzantine.size() &&
                     policy_.byzantine[m.src] != 0;
    if (byz) {
      policy_.corrupt(m);
      ++stats_.corrupted;
    }
    if (policy_.drop_prob > 0.0 && policy_rng_.bernoulli(policy_.drop_prob)) {
      ++stats_.dropped;
      continue;
    }
    std::size_t delay_rounds = 0;
    if (policy_.max_delay_rounds > 0) {
      delay_rounds = policy_rng_.below(policy_.max_delay_rounds + 1);
    }
    if (fault_ != nullptr) {
      const FaultDecision fate =
          fault_->decide(round_, m.src, m.dst, fault_seq_++);
      if (fate.drop) {
        ++stats_.fault_dropped;
        continue;
      }
      // Duplicates are immediate extra copies; the original still
      // follows its (possibly delayed/reordered) fate below.
      for (std::uint32_t k = 0; k < fate.duplicates; ++k) {
        ++stats_.fault_duplicated;
        inbox_.push_back(m);
      }
      if (fate.delay_rounds > 0) {
        ++stats_.fault_delayed;
        delay_rounds += fate.delay_rounds;
      } else if (fate.reorder && delay_rounds == 0) {
        ++stats_.fault_reordered;
        reordered_.push_back(std::move(m));
        continue;
      }
    }
    if (delay_rounds == 0) {
      inbox_.push_back(std::move(m));
    } else {
      ++stats_.delayed;
      delay(std::move(m), delay_rounds);
    }
  }
  outbox.clear();  // consumed; capacity survives for the next round
}

void Network::delay(Message&& m, std::size_t delay_rounds) {
  if (delay_rounds >= wheel_.size()) {
    // Re-slot the pending messages: they are due in the rounds
    // (round_, round_ + old size), one per old slot.
    const std::size_t old = wheel_.size();
    std::vector<std::vector<Message>> grown(delay_rounds + 1);
    for (std::size_t slot = 0; slot < old; ++slot) {
      const std::uint64_t due =
          round_ + 1 + (slot + old - (round_ + 1) % old) % old;
      grown[due % grown.size()] = std::move(wheel_[slot]);
    }
    wheel_ = std::move(grown);
  }
  wheel_[(round_ + delay_rounds) % wheel_.size()].push_back(std::move(m));
  ++wheel_pending_;
}

std::size_t Network::delay_wheel_capacity() const noexcept {
  std::size_t slots = 0;
  for (const auto& slot : wheel_) slots += slot.capacity();
  return slots;
}

void Network::flush_reordered() {
  for (auto it = reordered_.rbegin(); it != reordered_.rend(); ++it) {
    inbox_.push_back(std::move(*it));
  }
  reordered_.clear();
}

void Network::schedule_wakes(std::vector<Wake>& wakes) {
  std::vector<NodeId>* bucket = nullptr;
  std::uint64_t bucket_round = 0;
  for (const Wake& w : wakes) {
    if (bucket == nullptr || w.round != bucket_round) {
      bucket = &wakes_[w.round];
      bucket_round = w.round;
    }
    if (bucket->empty() || bucket->back() != w.node) bucket->push_back(w.node);
  }
  wakes.clear();
}

void Network::start() {
  started_ = true;
  Lane lane;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    Context ctx(i, round_, lane.sends, lane.wakes);
    nodes_[i]->on_start(ctx);
    route_outbox(lane.sends);
    schedule_wakes(lane.wakes);
  }
  flush_reordered();
}

void Network::gather(std::vector<Message>& deliveries) {
  if (counts_.size() != nodes_.size()) {
    counts_.assign(nodes_.size(), 0);
    active_bits_.assign((nodes_.size() + 63) / 64, 0);
  }
  const auto mark = [this](NodeId id) {
    active_bits_[id / 64] |= std::uint64_t{1} << (id % 64);
  };
  for (const Message& m : inbox_) {
    ++counts_[m.dst];
    mark(m.dst);
  }
  if (!wakes_.empty() && wakes_.begin()->first == round_) {
    for (const NodeId id : wakes_.begin()->second) mark(id);
    wakes_.erase(wakes_.begin());
  }

  // One scan in NodeId order yields the active set (and clears the
  // bitmap); a destination's counter becomes its write cursor
  // (exclusive prefix sum).  Zero words are only read: on a mostly
  // idle network the scan is n/64 loads.
  active_.clear();
  std::uint32_t offset = 0;
  std::uint64_t* const words = active_bits_.data();
  for (std::size_t word = 0; word < active_bits_.size(); ++word) {
    if (words[word] == 0) continue;
    for (std::uint64_t bits = std::exchange(words[word], 0); bits != 0;
         bits &= bits - 1) {
      const auto id = static_cast<NodeId>(word * 64 + std::countr_zero(bits));
      const std::uint32_t count = counts_[id];
      counts_[id] = offset;
      active_.push_back({id, offset, offset + count});
      offset += count;
    }
  }

  // Scatter through a permutation: each message is move-constructed
  // once, written sequentially, into its destination's range.
  order_.resize(inbox_.size());
  for (std::uint32_t i = 0; i < inbox_.size(); ++i) {
    order_[counts_[inbox_[i].dst]++] = i;
  }
  deliveries.reserve(inbox_.size());
  for (const std::uint32_t i : order_) {
    deliveries.push_back(std::move(inbox_[i]));
  }
  for (const Active& a : active_) counts_[a.node] = 0;
  inbox_.clear();
}

void Network::run_lane(Lane& lane, Message* deliveries) {
  for (std::size_t k = lane.begin; k < lane.end; ++k) {
    const Active& a = active_[k];
    Node& node = *nodes_[a.node];
    Context ctx(a.node, round_, lane.sends, lane.wakes);
    node.on_messages(
        std::span<Message>(deliveries + a.begin, a.end - a.begin), ctx);
    node.on_round_end(ctx);
  }
}

std::size_t Network::run_round() {
  ++round_;
  ++stats_.rounds;
  // The session pointer is resolved once per round; with none active
  // this branch is the round loop's entire telemetry cost.
  telemetry::Session* const telem = telemetry::active();
  if (telem != nullptr) telem->set_round(static_cast<std::uint32_t>(round_));

  // Release messages whose delay expires this round.
  if (wheel_pending_ != 0) {
    auto& slot = wheel_[round_ % wheel_.size()];
    wheel_pending_ -= slot.size();
    for (Message& m : slot) inbox_.push_back(std::move(m));
    slot.clear();
  }

  // The network-owned buffers are reused (allocation-free once warm);
  // the last round's deliveries die here, before any handler runs.
  deliveries_.clear();
  gather(deliveries_);

  // Trace in delivery order: the determinism anchor (the trace hash and
  // the per-node delivery order are fixed here, before any parallelism
  // starts, so handlers may then consume their batches).
  for (const Message& m : deliveries_) absorb_trace(m);
  const std::size_t delivered = deliveries_.size();
  stats_.delivered += delivered;

  // Handler phase: node i's handlers touch only node i's state and its
  // lane's buffers, so sharding the active set into contiguous lanes is
  // race-free; lanes are routed in order afterwards, making results
  // independent of the lane split and worker count.  Runs on the
  // persistent global pool — no thread churn per round.
  const std::size_t active = active_.size();
  const std::size_t lane_count =
      threads_ <= 1 || active < 2 ? 1 : std::min(active, threads_ * 4);
  if (lanes_.size() < lane_count) lanes_.resize(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    lanes_[l].begin = active * l / lane_count;
    lanes_[l].end = active * (l + 1) / lane_count;
  }
  const auto run = [&](std::size_t l) {
    run_lane(lanes_[l], deliveries_.data());
  };
  if (lane_count == 1) {
    run(0);
  } else {
    ThreadPool::global().parallel_for(lane_count, run, threads_);
  }

  // Sequential merge in node order.
  for (std::size_t l = 0; l < lane_count; ++l) {
    route_outbox(lanes_[l].sends);
    schedule_wakes(lanes_[l].wakes);
  }
  flush_reordered();
  if (telem != nullptr) telem_flush_round(*telem, delivered);
  return delivered;
}

void Network::telem_flush_round(telemetry::Session& session,
                                std::size_t delivered) {
  using telemetry::Probe;
  const NetworkStats& s = stats_;
  const NetworkStats& p = telem_prev_stats_;
  session.count(Probe::net_messages_sent, s.sent - p.sent);
  session.count(Probe::net_messages_delivered, s.delivered - p.delivered);
  session.count(Probe::net_messages_dropped, s.dropped - p.dropped);
  session.count(Probe::net_messages_delayed, s.delayed - p.delayed);
  session.count(Probe::net_messages_corrupted, s.corrupted - p.corrupted);
  session.count(Probe::net_rounds, s.rounds - p.rounds);
  session.count(Probe::net_fault_dropped, s.fault_dropped - p.fault_dropped);
  session.count(Probe::net_fault_delayed, s.fault_delayed - p.fault_delayed);
  session.count(Probe::net_fault_duplicated,
                s.fault_duplicated - p.fault_duplicated);
  session.count(Probe::net_fault_reordered,
                s.fault_reordered - p.fault_reordered);
  session.sample(Probe::net_delivered_per_round, delivered);
  session.event(telemetry::EventName::net_round, telemetry::kSrcNet, 'C',
                /*id=*/0, /*a=*/delivered, /*b=*/s.sent - p.sent);
  telem_prev_stats_ = s;
}

std::size_t Network::run_until_quiescent(std::size_t max_rounds) {
  std::size_t rounds = 0;
  while (rounds < max_rounds) {
    const std::size_t delivered = run_round();
    ++rounds;
    if (delivered == 0 && inbox_.empty() && wheel_pending_ == 0) break;
  }
  return rounds;
}

}  // namespace tg::net
