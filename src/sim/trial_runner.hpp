// Deterministic Monte-Carlo fan-out.
//
// for_each_trial is the one fan-out every trial runner shares (the
// campaign's run_trials_multi and the traffic bridge's
// workload::run_traffic_cell).  Trials are sharded across the thread
// pool; each trial gets an Rng seeded from (experiment_seed,
// trial_index) and, under a telemetry capture, its own session, so
// per-trial values and telemetry never depend on scheduling.
// Aggregated statistics are a pure function of (seed, trials,
// shard_count) — the shard count fixes the float-merge grouping — so
// bit-identical cross-machine results require the same `threads`
// argument (0 pins the default shard count, which is why campaign runs
// default to it).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tg::sim {

/// Shards a fan-out of `trials` uses: `threads`, or 8 when 0, capped
/// at the trial count.
[[nodiscard]] std::size_t trial_shards(std::size_t trials,
                                       std::size_t threads) noexcept;

/// Run `trial(shard, index, rng)` for every index in [0, trials):
/// index t runs on shard t % trial_shards(trials, threads) with an Rng
/// seeded from (seed, t) alone, bound to the session keyed
/// (scope << 32) | t of the registered telemetry::Capture, if any (one
/// scope per call).  Callers keep per-shard accumulators indexed by
/// `shard` and merge them in shard order after the call.
void for_each_trial(
    std::size_t trials, std::uint64_t seed, std::size_t threads,
    const std::function<void(std::size_t, std::size_t, Rng&)>& trial);

/// Run `trials` independent evaluations of `trial(rng, index)` and
/// aggregate the scalar results.
[[nodiscard]] RunningStats run_trials(
    std::size_t trials, std::uint64_t seed,
    const std::function<double(Rng&, std::size_t)>& trial,
    std::size_t threads = 0);

/// Multi-metric variant: `trial` fills a fixed-size vector of metric
/// values; one RunningStats per metric is returned.
[[nodiscard]] std::vector<RunningStats> run_trials_multi(
    std::size_t trials, std::size_t metric_count, std::uint64_t seed,
    const std::function<void(Rng&, std::size_t, std::vector<double>&)>& trial,
    std::size_t threads = 0);

}  // namespace tg::sim
