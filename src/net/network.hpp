// The message-passing runtime: rounds, delivery policy, and a
// deterministic parallel executor.
//
// The simulator elsewhere in this repository counts messages
// analytically; this module EXECUTES protocols — real message buffers,
// real handler code, real threads — which is where a deployment of the
// paper would spend its engineering budget.
//
// Execution model: synchronous rounds (the paper's model, Section
// I-C), each costing O(messages + active nodes) plus a scan of n/64
// bitmap words — an idle node costs one bit.  Per round the runtime
//   1. appends the delay-wheel releases due now to the flat inbox (all
//      traffic for this round, in push order) and stably counting-sorts
//      it by destination into one delivery buffer with CSR ranges,
//   2. forms the active set — destinations plus nodes that asked for
//      this round via Context::wake_at, marked in a per-node bitmap and
//      read back in NodeId order — and folds each message into the
//      trace hash as the sort's scatter moves it into the delivery
//      buffer, so in delivery order with no pass of its own,
//   3. runs each active node's on_messages (its range, the node's to
//      consume: moved-out or rewritten payloads cannot reach the trace
//      or another node) and on_round_end, in parallel over contiguous
//      lanes of the active set on the persistent thread pool (a handler
//      touches only its node, its batch and its lane's buffers),
//   4. routes the lanes' sends in node order through the delivery
//      policy and fault plane into the next inbox or the delay wheel,
//      and files their wake requests.
// Every per-round buffer (inbox, deliveries, lane sends and wakes) is
// owned by the network and reused across rounds, so a warmed-up round
// loop allocates no containers; payloads allocate only when they spill
// past Words' inline capacity (see words.hpp).
//
// Determinism is load-bearing: tests assert byte-identical traces
// between 1-thread and N-thread executions, which is what makes the
// concurrent runtime trustworthy as an experimental instrument.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/node.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tg::telemetry {
class Session;
}

namespace tg::net {

/// Per-message delivery fate, decided by the policy RNG.
struct DeliveryPolicy {
  double drop_prob = 0.0;
  /// Uniform extra delay in [0, max_delay_rounds] rounds.
  std::size_t max_delay_rounds = 0;
  /// Messages FROM these nodes pass through corrupt() first (the
  /// Byzantine channel model: the adversary owns its members' links).
  std::vector<std::uint8_t> byzantine;  // indexed by NodeId; may be empty
  /// Payload corruption applied to Byzantine sources; default flips
  /// the low bit of every word.
  std::function<void(Message&)> corrupt;
};

/// What the fault plane does to one routed message.  The default
/// (all-zero) decision is exactly "deliver normally": an injector that
/// always returns `{}` is indistinguishable from no injector at all.
struct FaultDecision {
  bool drop = false;
  /// Extra delivery delay in rounds (additive with any policy delay).
  std::uint32_t delay_rounds = 0;
  /// Extra copies delivered alongside the original.
  std::uint32_t duplicates = 0;
  /// Hold the message and re-deliver it after all in-order traffic of
  /// this routing pass, in reverse hold order (a deterministic
  /// within-round reordering).  Ignored when the message is delayed.
  bool reorder = false;
};

/// The runtime seam the fault plane plugs into (see src/fault/).
///
/// Contract: `decide` must be a PURE function of its arguments — the
/// network calls it from the sequential routing pass with `msg_seq`, a
/// per-network counter of routed messages, so decisions are keyed by
/// (round, message id) and never by thread schedule.  Determinism at
/// any executor width follows from purity; implementations must not
/// keep mutable state across calls.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  [[nodiscard]] virtual FaultDecision decide(std::uint64_t round, NodeId src,
                                             NodeId dst,
                                             std::uint64_t msg_seq) const = 0;
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t rounds = 0;
  /// Fault-plane verdicts (zero unless an injector is attached).
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_delayed = 0;
  std::uint64_t fault_duplicated = 0;
  std::uint64_t fault_reordered = 0;
};

class Network {
 public:
  /// `threads` is the executor width; 1 = sequential.  Determinism
  /// holds for ANY width given the same seed.
  explicit Network(DeliveryPolicy policy, std::uint64_t seed,
                   std::size_t threads = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a node; returns its id.  All nodes must be added before
  /// the first run call.
  NodeId add_node(std::unique_ptr<Node> node);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  /// Inject a message from outside the node set (test harness, client).
  void inject(Message m);

  /// Run on_start for every node and route the resulting sends.
  void start();

  /// Execute one synchronous round; returns the number of messages
  /// delivered (0 = quiescent, if also no delayed messages remain).
  std::size_t run_round();

  /// Run rounds until quiescence or `max_rounds`; returns rounds run.
  /// Quiescence is a round that delivers nothing with no message in
  /// flight (next round's inbox and the delay wheel both empty);
  /// pending wake requests do not keep the run going.
  std::size_t run_until_quiescent(std::size_t max_rounds = 1024);

  /// FNV-1a hash over every delivered message in delivery order —
  /// the determinism fingerprint used by tests.
  [[nodiscard]] std::uint64_t trace_hash() const noexcept {
    return trace_hash_;
  }

  /// Attach (or detach, with nullptr) the fault plane.  The injector
  /// is not owned and must outlive the network.  With no injector the
  /// routing path is byte-identical to a build without the seam; the
  /// injector is consulted once per routed message, after Byzantine
  /// corruption and the delivery policy's own drop/delay draws.
  /// `inject()` bypasses the fault plane (harness traffic is exempt).
  void set_fault_injector(const FaultInjector* injector) noexcept {
    fault_ = injector;
  }
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept {
    return fault_;
  }

  /// Message slots the delay wheel retains (sum of its slot
  /// capacities): at most (longest delay + 1) slots, each sized by the
  /// most messages ever due in one round, whatever the run length.
  [[nodiscard]] std::size_t delay_wheel_capacity() const noexcept;

 private:
  /// An active node and its range in the delivery buffer.
  struct Active {
    NodeId node = 0;
    std::uint32_t begin = 0, end = 0;
  };
  /// A contiguous range of active_ run by one executor task, with the
  /// buffers its nodes' Contexts append to.
  struct Lane {
    std::size_t begin = 0, end = 0;
    std::vector<Message> sends;
    std::vector<Wake> wakes;
  };

  /// Move the inbox into `deliveries` grouped by destination (stable:
  /// each destination keeps push order), folding each message into the
  /// trace hash as it moves, and set active_ to the destinations and
  /// this round's wakes, in NodeId order.
  void gather(std::vector<Message>& deliveries);
  /// Run the handlers of active_[lane.begin, lane.end); each node gets
  /// its own range of `deliveries` to consume.
  void run_lane(Lane& lane, Message* deliveries);
  /// Route every message out of `outbox` (delivery policy, inbox push
  /// or delay scheduling), then clear it with capacity kept.
  void route_outbox(std::vector<Message>& outbox);
  /// Release reorder-held messages (reverse hold order) into the
  /// inbox.  Called after every full routing pass so held traffic
  /// still lands in the same round's inbox, merely out of order.
  void flush_reordered();
  void schedule_wakes(std::vector<Wake>& wakes);
  /// Park `m` in the delay wheel until round_ + delay.
  void delay(Message&& m, std::size_t delay);
  /// End-of-round telemetry flush (only called with a session active):
  /// publishes this round's stats deltas as counters, samples
  /// the delivery histogram, and emits the per-round counter event.
  /// Runs at a sequential point, after the outbox merge.
  void telem_flush_round(telemetry::Session& session, std::size_t delivered);

  DeliveryPolicy policy_;
  Rng policy_rng_;
  std::size_t threads_;  ///< executor width cap on the global pool
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Next round's messages in push order: routed sends, reorder-held
  /// releases, inject()s, then this round's delay-wheel releases.
  std::vector<Message> inbox_;
  /// The last round's deliveries grouped by destination, kept until
  /// the next round starts (the buffer is reused across rounds).
  std::vector<Message> deliveries_;
  std::vector<Lane> lanes_;
  /// This round's active nodes, in NodeId order.
  std::vector<Active> active_;
  /// Counting-sort scratch: one counter per node, nonzero only for
  /// this round's destinations while gather() runs; order_ is the
  /// inbox permutation that groups messages by destination.
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> order_;
  /// One bit per node, set by gather() for this round's destinations
  /// and wakes and cleared by its NodeId-order scan.
  std::vector<std::uint64_t> active_bits_;
  /// Wake requests by round (unsorted, possibly repeated).
  std::map<std::uint64_t, std::vector<NodeId>> wakes_;
  /// Delay wheel: slot r % size holds the messages released in round
  /// r.  Sized (longest delay + 1), grown on demand; slots are reused,
  /// so retained memory tracks the peak delayed traffic of one round.
  std::vector<std::vector<Message>> wheel_;
  std::size_t wheel_pending_ = 0;
  /// Reorder-held messages of the current routing pass.
  std::vector<Message> reordered_;
  /// Unowned fault plane; nullptr = pristine delivery path.
  const FaultInjector* fault_ = nullptr;
  /// Routed-message counter: the (round, msg_seq) key of fault draws.
  std::uint64_t fault_seq_ = 0;
  NetworkStats stats_;
  /// Snapshots of the counters already published to telemetry, so each
  /// round reports deltas (start()'s traffic folds into round 1).
  NetworkStats telem_prev_stats_;
  std::uint64_t round_ = 0;
  std::uint64_t trace_hash_ = 1469598103934665603ULL;  // FNV offset
  bool started_ = false;
};

}  // namespace tg::net
