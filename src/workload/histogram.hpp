// Latency recording for the workload engine: the per-run operation
// ledger, whose latency distribution is the shared log-scale
// `telemetry::LogHistogram` (see telemetry/histogram.hpp for its
// determinism and accuracy contract).
#pragma once

#include <cstdint>

#include "telemetry/histogram.hpp"

namespace tg::workload {

/// Per-run (or per-shard) record of settled ops: the latency
/// distribution plus the outcome counters the service reports.
/// Failed ops are ones the service answered negatively (corrupted or
/// not-found replies); timed-out ops never got an answer (dropped at
/// a red group or lost in flight).  Every settled op records one
/// latency, counted from its first issue: to the reply for completed
/// and failed ops, to the moment the client gave up for timeouts (the
/// client-observed truth: that is how long the client waited).
struct Recorder {
  /// Log-scale histogram over u64 latencies in ROUNDS.
  telemetry::LogHistogram latency;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  /// Rounds of traffic generation this recorder covers (summed on
  /// merge so ops_per_round stays an average over the merged window).
  std::uint64_t rounds = 0;
  /// All-to-all message cost of the same hops (|G_a| x |G_b| per
  /// group-to-group edge) — the paper's accounting, for comparing
  /// against the analytic benches.
  std::uint64_t analytic_messages = 0;
  /// Request-lifecycle counters.  retries and hedges stay zero with
  /// the RetryPolicy disabled; stale_replies counts the late and
  /// duplicate replies the ledger discards either way.
  std::uint64_t retries = 0;       ///< backoff re-attempts issued
  std::uint64_t hedges = 0;        ///< hedged second attempts issued
  std::uint64_t stale_replies = 0; ///< replies to already-settled ops

  void merge(const Recorder& other) noexcept;

  [[nodiscard]] std::uint64_t finished() const noexcept {
    return completed + failed + timed_out;
  }
  [[nodiscard]] double ops_per_round() const noexcept {
    return rounds ? static_cast<double>(completed) /
                        static_cast<double>(rounds)
                  : 0.0;
  }
  [[nodiscard]] double completed_fraction() const noexcept {
    return finished() ? static_cast<double>(completed) /
                            static_cast<double>(finished())
                      : 0.0;
  }
  [[nodiscard]] double failed_fraction() const noexcept {
    return finished() ? static_cast<double>(failed) /
                            static_cast<double>(finished())
                      : 0.0;
  }
  [[nodiscard]] double timeout_fraction() const noexcept {
    return finished() ? static_cast<double>(timed_out) /
                            static_cast<double>(finished())
                      : 0.0;
  }
  /// Attempts per op: (first attempts + retries + hedges) / ops.
  /// 1.0 exactly with the RetryPolicy disabled.
  [[nodiscard]] double retry_amplification() const noexcept {
    return issued ? static_cast<double>(issued + retries + hedges) /
                        static_cast<double>(issued)
                  : 1.0;
  }
};

}  // namespace tg::workload
