#include "sim/trial_runner.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::sim {

RunningStats run_trials(std::size_t trials, std::uint64_t seed,
                        const std::function<double(Rng&, std::size_t)>& trial,
                        std::size_t threads) {
  const auto multi = run_trials_multi(
      trials, 1, seed,
      [&trial](Rng& rng, std::size_t index, std::vector<double>& out) {
        out[0] = trial(rng, index);
      },
      threads);
  return multi.front();
}

std::size_t trial_shards(std::size_t trials, std::size_t threads) noexcept {
  return std::min<std::size_t>(trials, threads == 0 ? 8 : threads);
}

void for_each_trial(
    std::size_t trials, std::uint64_t seed, std::size_t threads,
    const std::function<void(std::size_t, std::size_t, Rng&)>& trial) {
  const std::size_t shards = trial_shards(trials, threads);
  // Telemetry capture: one scope per fan-out call, one session per
  // trial keyed (scope, trial) — the merged export is a pure function
  // of the trial sequence, independent of shard count or schedule.
  telemetry::Capture* const cap = telemetry::capture();
  const std::uint64_t scope = cap != nullptr ? cap->next_scope() : 0;
  parallel_for_shards(
      shards,
      [&](std::size_t shard) {
        for (std::size_t t = shard; t < trials; t += shards) {
          telemetry::ThreadBind bind(
              cap != nullptr ? &cap->session_for((scope << 32) | t)
                             : nullptr);
          // Seed depends only on (seed, t): sharding-invariant.
          Rng rng(mix64(seed ^ (0x9e3779b97f4a7c15ULL * (t + 1))));
          trial(shard, t, rng);
        }
      },
      threads);
}

std::vector<RunningStats> run_trials_multi(
    std::size_t trials, std::size_t metric_count, std::uint64_t seed,
    const std::function<void(Rng&, std::size_t, std::vector<double>&)>& trial,
    std::size_t threads) {
  std::vector<RunningStats> totals(metric_count);
  if (trials == 0 || metric_count == 0) return totals;

  // Per-shard accumulators merged in shard order AFTER the parallel
  // region: results are a pure function of (seed, trials, shard_count),
  // independent of scheduling — repeated runs are bit-identical.
  const std::size_t shards = trial_shards(trials, threads);
  std::vector<std::vector<RunningStats>> locals(
      shards, std::vector<RunningStats>(metric_count));
  for_each_trial(trials, seed, threads,
                 [&](std::size_t shard, std::size_t t, Rng& rng) {
                   std::vector<double> values(metric_count, 0.0);
                   trial(rng, t, values);
                   for (std::size_t m = 0; m < metric_count; ++m) {
                     locals[shard][m].add(values[m]);
                   }
                 });
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t m = 0; m < metric_count; ++m) {
      totals[m].merge(locals[shard][m]);
    }
  }
  return totals;
}

}  // namespace tg::sim
