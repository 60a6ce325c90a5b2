// The load-generation engine: deterministic open/closed-loop client
// traffic executed over the message runtime.
//
// Every op is REAL net::Network traffic: a request message hops
// group-to-group along the overlay route toward the key's responsible
// group (one node per group — the group's collective actor), which
// executes the op against the service's per-group state and replies
// to the issuing client node.  Each group rewrites the request it was
// delivered in place and moves it on, so one payload block serves the
// whole route and the reply.  Red groups on the route silently drop
// the request (the Section II search semantics: the search dies at
// the first red group), so the client times out; a red RESPONSIBLE
// group serves garbage, which the harness flags as a corrupted reply.
//
// Two generation modes, both driven entirely by the run seed:
//   * OPEN LOOP — a deterministic arrival schedule (fixed-rate via an
//     integer-emitting accumulator, optional bursty phases) issues
//     ops regardless of completions: the mode that exposes queueing
//     collapse under overload.
//   * CLOSED LOOP — N concurrent clients, each issue -> wait ->
//     think -> reissue: the mode that models interactive users.
// Both issue through one request lifecycle: every op opens an entry in
// its issuer's op ledger and settles through it exactly once, by reply
// or by timeout, whether or not the RetryPolicy is enabled.
//
// Determinism contract: (service spec, engine spec, seed) fully
// determine every op outcome, the network trace hash, and every
// histogram bucket — at ANY executor thread count.  Client state is
// per-node (the runtime's actor discipline), recorders merge in node
// order, and histogram counts are integers, so tests assert
// bit-identical percentiles between 1-thread and N-thread runs.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "workload/histogram.hpp"
#include "workload/service.hpp"

namespace tg::workload {

enum class Mode {
  open_loop,
  closed_loop,
};

[[nodiscard]] std::string_view to_string(Mode mode) noexcept;

/// The self-healing request lifecycle.  Every op opens an entry in its
/// issuer's op ledger and settles through it, by reply or by timeout;
/// the policy only sets how many attempts that takes.  Enabled, an op
/// gets a deadline of 4 x Spec::timeout_rounds, exponential-backoff
/// retries (2 << (k - 1) rounds before attempt k + 1) that fail over
/// through the least-implicated of 4 drawn entry groups, and an
/// optional hedged second attempt.  Disabled, it gets one attempt and
/// no hedge, and times out after Spec::timeout_rounds.  The op id stays
/// stable across attempts, so the ledger is idempotent: the first reply
/// settles the op and erases its entry, and every later (duplicate,
/// hedged, post-timeout) reply finds no entry and is counted stale,
/// without touching the histogram.
struct RetryPolicy {
  bool enabled = false;
  /// Total send attempts per op, the first included.
  std::size_t max_attempts = 4;
  /// Launch a hedged second attempt if no reply after hedge_delay.
  bool hedge = false;
  /// 0 = derive per issue from the issuer's own p99 (bootstrap: half
  /// the timeout until 8 latencies are recorded).
  std::size_t hedge_delay_rounds = 0;
};

/// A scripted adversary posture from a round boundary on: the
/// fraction of ops whose start group is steered to the bad-heaviest
/// group (the eclipse attack observed from the service side) and the
/// rate of bogus background requests per round that consume service
/// and network capacity but are never recorded (the flood attack).
/// Phases are sorted by start_round; each applies until the next
/// begins, and before the first the posture is benign.  The scenario
/// bridge compiles the eclipse and flood adversaries into one phase
/// from round 0, and the adaptive adversary's campaign into one per
/// epoch (plus a fault::FaultPlan).
struct AttackPhase {
  std::uint64_t start_round = 0;
  double eclipsed_fraction = 0.0;
  double background_rate = 0.0;
};

struct Spec {
  Mode mode = Mode::open_loop;
  /// Rounds of traffic generation; the run then drains in-flight ops
  /// (every op resolves: reply or timeout).
  std::size_t rounds = 256;
  /// Rounds an attempt waits for its reply; at least 1 (run() throws
  /// std::invalid_argument on 0).
  std::size_t timeout_rounds = 48;

  // Open loop.
  double rate = 4.0;  ///< mean arrivals per round
  /// Bursty phases: every `burst_every` rounds the first `burst_rounds`
  /// run at rate * burst_multiplier (0 = steady rate).
  std::size_t burst_every = 0;
  std::size_t burst_rounds = 0;
  double burst_multiplier = 4.0;

  // Closed loop.
  std::size_t clients = 8;
  std::size_t think_rounds = 2;

  /// The deterministic fault plane for this run — the single source of
  /// message hazards (empty = pristine
  /// delivery; the injector seam is then never attached and traffic
  /// is byte-identical to a fault-free build).  A zero plan seed is
  /// replaced with a run-seed derivation.
  fault::FaultPlan faults;
  /// The self-healing lifecycle (see RetryPolicy).
  RetryPolicy retry;
  /// Adversary postures over the run (see AttackPhase; empty =
  /// benign).
  std::vector<AttackPhase> phases;
  /// Record per-delivery-round completion counts into
  /// RunResult::completed_by_round (recovery-time measurement).
  bool track_round_goodput = false;

  /// Synthetic certificate words padding every request/reply (above
  /// net::Words::kInlineCapacity every payload spills to the heap).
  std::size_t padding_words = 4;
};

struct RunResult {
  Recorder recorder;
  net::NetworkStats net;
  std::uint64_t trace_hash = 0;  ///< runtime determinism fingerprint
  std::uint64_t rounds_run = 0;  ///< generation + drain
  double seconds = 0.0;          ///< wall clock (perf reporting only)
  /// Completed ops per delivery round (empty unless
  /// Spec::track_round_goodput): the recovery trajectory.
  std::vector<std::uint64_t> completed_by_round;
};

/// Drive `spec` traffic for `service` over its world.  The service
/// must be freshly built per run (its per-group state mutates).
/// `threads` is the network executor width; results are identical for
/// any value.
[[nodiscard]] RunResult run(Service& service, const Spec& spec,
                            std::uint64_t seed, std::size_t threads = 1);

}  // namespace tg::workload
