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

/// The self-healing request lifecycle (off by default — the
/// issue-once/time-out path).  When enabled, every op gets:
/// per-op deadline -> exponential-backoff retries through an
/// ALTERNATE entry group -> optional hedged second attempt after a
/// p99-derived delay.  The op id stays stable across attempts, so the
/// op ledger is idempotent: the first reply settles the op, every
/// later (duplicate, hedged, post-timeout) reply is counted stale and
/// dropped without touching the histogram.
struct RetryPolicy {
  bool enabled = false;
  /// Total send attempts per op, the first included.
  std::size_t max_attempts = 4;
  /// Backoff before attempt k+1 = base << (k - 1) rounds.
  std::size_t backoff_base_rounds = 2;
  /// Client-observed deadline per op; 0 = 4 x Spec::timeout_rounds.
  std::size_t deadline_rounds = 0;
  /// Launch a hedged second attempt if no reply after hedge_delay.
  bool hedge = false;
  /// 0 = derive per issue from the issuer's own p99 (bootstrap: half
  /// the timeout until 8 latencies are recorded).
  std::size_t hedge_delay_rounds = 0;
  /// Failover routing: re-attempts avoid hop groups implicated by
  /// this op's earlier timeouts, scored over `failover_candidates`
  /// alternate entry groups via one route_many batch.
  bool avoid_implicated = true;
  std::size_t failover_candidates = 4;
};

/// A scripted change of adversary posture at a round boundary (the
/// adaptive adversary's campaign compiles into these plus a
/// fault::FaultPlan).  Phases are sorted by start_round; each applies
/// until the next begins.  An empty phase list preserves the scalar
/// eclipsed_fraction / background_rate knobs exactly.
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

  // Adversary-facing knobs (set by the scenario bridge).
  /// Fraction of ops whose start group is steered to the bad-heaviest
  /// group (the eclipse attack observed from the service side).
  double eclipsed_fraction = 0.0;
  /// Bogus background requests per round that consume service and
  /// network capacity but are never recorded (the flood attack).
  double background_rate = 0.0;

  /// The deterministic fault plane for this run — the single source of
  /// message hazards (empty = pristine
  /// delivery; the injector seam is then never attached and traffic
  /// is byte-identical to a fault-free build).  A zero plan seed is
  /// replaced with a run-seed derivation.
  fault::FaultPlan faults;
  /// The self-healing lifecycle (see RetryPolicy).
  RetryPolicy retry;
  /// Scripted adversary posture changes (see AttackPhase).
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
