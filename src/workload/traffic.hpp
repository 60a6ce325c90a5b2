// Campaign bridge: run adversary x topology scenario cells UNDER
// client traffic.
//
// The scenario registry's cells measure protocol internals (capture
// rates, placement skew).  This module gives every cell a second
// read-out: build the cell's world — its topology under its
// adversary's placement/steering effect, from the same world builders
// and attack strengths as the analytic trial (scenario/world.hpp) —
// and drive the workload engine's open- or closed-loop traffic over
// it, reporting service metrics (latency percentiles, throughput,
// loss) instead.  The adversary mapping is:
//
//   target_group   regions churned by the concentration attack
//                  (graph worlds: u.a.r. placements — PoW forces it)
//   omit_ids       clustered subset-omission population (Lemma 5)
//   precompute     stockpile burst deployed as an elevated beta
//   eclipse        client start groups steered into the bad-heaviest
//                  group for a fraction of ops (Appendix IX)
//   flood          bogus background request load sharing the network
//   late_release   delivery delay (withheld-information latency)
//
// Determinism: a traffic trial derives ALL randomness (world, oracle
// seeds, arrival draws) from the trial rng, and run_traffic_cell fans
// trials out through the campaign's own sim::for_each_trial, so cell
// traffic metrics are a pure function of (spec, seed) exactly like
// every other cell.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "workload/engine.hpp"

namespace tg::workload {

/// Names of the metrics a traffic trial fills, in order.
[[nodiscard]] const std::vector<std::string>& traffic_metric_names();

/// The world one trial serves: the spec's topology under its
/// adversary's placement effect.  `with_adversary == false` builds
/// the benign control: a uniform population at the spec's beta.
[[nodiscard]] World world_for_trial(const scenario::ScenarioSpec& spec,
                                    bool with_adversary, Rng& rng);

[[nodiscard]] std::unique_ptr<Service> make_service(
    scenario::WorkloadAxis::Service kind, const World& world,
    std::size_t key_space, std::uint64_t salt);

/// Engine spec for a cell: the workload axis plus the adversary's
/// traffic-level posture (eclipse steering or flood background) as one
/// attack phase from round 0.  The late-release delay is a fault-plane
/// rule the trial runners append after any fault preset.
[[nodiscard]] Spec engine_spec(const scenario::ScenarioSpec& spec,
                               bool with_adversary);

/// One traffic trial (TrialFn-shaped): world + service + engine run,
/// metrics into `out` (sized to traffic_metric_names().size()).
void run_traffic_trial(const scenario::ScenarioSpec& spec, Rng& rng,
                       std::vector<double>& out);

/// Shard-merged traffic over spec.trials trials, fanned out by
/// sim::for_each_trial: recorders merge in shard order (bucket counts
/// are integers, so the merged histogram — and hence every percentile
/// — is bit-identical at any thread count); trace hashes fold in trial
/// order.
struct CellTraffic {
  Recorder recorder;
  std::uint64_t trace_hash = 0;
  std::size_t trials = 0;
};

[[nodiscard]] CellTraffic run_traffic_cell(const scenario::ScenarioSpec& spec,
                                           bool with_adversary,
                                           std::size_t threads = 0);

}  // namespace tg::workload
