// The campaign bridge's trial runners.  A cell's world comes from the
// scenario layer's world builders (scenario/world.hpp), the same ones
// its analytic trial uses; this file adds only what traffic needs on
// top: the service, the engine spec and the adversary's traffic-level
// posture.
#include "workload/traffic.hpp"

#include <algorithm>
#include <utility>

#include "adversary/adaptive.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "crypto/oracle.hpp"
#include "scenario/world.hpp"
#include "sim/trial_runner.hpp"

namespace tg::workload {
namespace {

using scenario::AdversaryKind;
using scenario::ScenarioSpec;
using scenario::WorkloadAxis;

// Traffic-level attack knobs (the strengths shared with the analytic
// cells live in scenario/world.hpp).
constexpr double kFloodBackgroundMultiplier = 2.0;
constexpr std::size_t kLateReleaseDelayRounds = 2;

/// Graph worlds draw the oracle seed and a uniform population first;
/// a placement adversary then replaces the population.
World graph_world(const ScenarioSpec& spec, bool with_adversary, Rng& rng) {
  core::Params p = scenario::graph_params(spec, rng);
  core::Population pop = core::Population::uniform(p.n, p.beta, rng);
  if (with_adversary && spec.adversary == AdversaryKind::omit_ids) {
    pop = scenario::omitted_population(spec, rng);
    p.n = pop.size();
  } else if (with_adversary && spec.adversary == AdversaryKind::precompute) {
    scenario::StockpileBurst burst = scenario::stockpile_burst(spec, rng);
    p.beta = burst.beta;
    pop = std::move(burst.population);
  }
  const crypto::OracleSuite oracles(p.seed);
  auto graph = std::make_shared<core::GroupGraph>(core::GroupGraph::pristine(
      p, std::make_shared<const core::Population>(std::move(pop)),
      oracles.h1));
  return World::from_graph(std::move(graph));
}

World region_world(const ScenarioSpec& spec, bool with_adversary, Rng& rng) {
  if (with_adversary) {
    // Every region cell serves from the structure its join-leave
    // campaign produced (the attack IS the churn).
    return World::from_regions(scenario::churn_regions(spec, rng).groups);
  }
  const core::Population pop =
      core::Population::uniform(spec.n, spec.beta, rng);
  return World::from_regions(
      scenario::bucket_population(pop, scenario::tiny_group_size(spec.n)));
}

void fill_metrics(const Recorder& r, std::vector<double>& out) {
  out[0] = static_cast<double>(r.latency.p50());
  out[1] = static_cast<double>(r.latency.p90());
  out[2] = static_cast<double>(r.latency.p99());
  out[3] = static_cast<double>(r.latency.p999());
  out[4] = r.ops_per_round();
  out[5] = r.completed_fraction();
  out[6] = r.failed_fraction();
  out[7] = r.timeout_fraction();
  out[8] = r.finished() ? static_cast<double>(r.analytic_messages) /
                              static_cast<double>(r.finished())
                        : 0.0;
  out[9] = r.retry_amplification();
}

/// The public campaign state the adaptive adversary conditions on:
/// structure facts from the world, the keyspace hot spot from the
/// same key derivation the services use.
adversary::AdaptiveObservation observe_world(const World& world,
                                             const ScenarioSpec& spec,
                                             std::size_t key_space,
                                             std::uint64_t salt) {
  adversary::AdaptiveObservation obs;
  obs.groups = world.groups();
  obs.red_fraction = world.red_fraction();
  obs.most_bad_group = world.most_bad_group();
  const auto& heaviest = world.composition(obs.most_bad_group);
  obs.max_bad_fraction =
      heaviest.size ? static_cast<double>(heaviest.bad) /
                          static_cast<double>(heaviest.size)
                    : 0.0;
  obs.churn_epochs = spec.churn.epochs;
  std::vector<std::uint32_t> owned(world.groups(), 0);
  for (std::size_t k = 0; k < key_space; ++k) {
    ++owned[world.responsible(KvService::key_point(k, salt))];
  }
  const auto hottest = std::max_element(owned.begin(), owned.end());
  obs.hot_group = static_cast<std::size_t>(hottest - owned.begin());
  obs.hot_share = key_space ? static_cast<double>(*hottest) /
                                  static_cast<double>(key_space)
                            : 0.0;
  return obs;
}

/// Layer `extra` onto `base` (rules/windows append; an unseeded base
/// adopts the extra plan's seed).
void merge_plan(fault::FaultPlan& base, const fault::FaultPlan& extra) {
  if (base.seed == 0) base.seed = extra.seed;
  base.rules.insert(base.rules.end(), extra.rules.begin(), extra.rules.end());
  base.partitions.insert(base.partitions.end(), extra.partitions.begin(),
                         extra.partitions.end());
  base.crashes.insert(base.crashes.end(), extra.crashes.begin(),
                      extra.crashes.end());
}

RunResult run_one(const ScenarioSpec& spec, bool with_adversary, Rng& rng) {
  World world = world_for_trial(spec, with_adversary, rng);
  const std::size_t key_space = std::max<std::size_t>(64, spec.n / 4);
  const std::uint64_t service_salt = rng();
  const auto service =
      make_service(spec.workload.service, world, key_space, service_salt);
  Spec engine = engine_spec(spec, with_adversary);
  if (with_adversary && spec.adversary == AdversaryKind::adaptive) {
    // Observe, plan, lower: message-level actions into the fault
    // plane, traffic-level postures into attack phases.  All draws
    // come from the trial rng AFTER the legacy draw positions, so
    // non-adaptive cells reproduce their pre-fault-plane traffic.
    const adversary::AdaptiveObservation obs =
        observe_world(world, spec, key_space, service_salt);
    const std::size_t epochs = std::clamp<std::size_t>(spec.churn.epochs,
                                                       2, 8);
    const std::size_t rounds_per_epoch =
        std::max<std::size_t>(8, engine.rounds / epochs);
    const adversary::AdaptivePlan plan = adversary::plan_adaptive_campaign(
        obs, epochs, rounds_per_epoch, rng());
    engine.faults = adversary::compile_faults(plan);
    for (const adversary::EpochAction& action : plan.actions) {
      engine.phases.push_back(AttackPhase{action.begin_round,
                                          action.eclipsed_fraction,
                                          action.background_rate});
    }
  }
  if (!spec.workload.faults_preset.empty()) {
    const auto preset =
        fault::fault_preset(spec.workload.faults_preset, world.groups(),
                            engine.rounds, rng());
    if (preset.has_value()) merge_plan(engine.faults, *preset);
  }
  if (with_adversary && spec.adversary == AdversaryKind::late_release) {
    // Late release holds messages back: an always-on rule delaying
    // with probability M/(M+1) by a uniform 1..M rounds (a uniform
    // extra delay in [0, M]).  Appended after the preset so the
    // preset's rules keep their indices, which key FaultPlan draws.
    fault::HazardRule rule;
    rule.delay_prob = static_cast<double>(kLateReleaseDelayRounds) /
                      (static_cast<double>(kLateReleaseDelayRounds) + 1.0);
    rule.max_delay_rounds =
        static_cast<std::uint32_t>(kLateReleaseDelayRounds);
    engine.faults.rules.push_back(rule);
  }
  return run(*service, engine, rng(), /*threads=*/1);
}

}  // namespace

const std::vector<std::string>& traffic_metric_names() {
  static const std::vector<std::string> names = {
      "p50_rounds",        "p90_rounds",       "p99_rounds",
      "p999_rounds",       "ops_per_round",    "completed_fraction",
      "failed_fraction",   "timeout_fraction", "analytic_messages_per_op",
      "retry_amplification",
  };
  return names;
}

World world_for_trial(const ScenarioSpec& spec, bool with_adversary,
                      Rng& rng) {
  return scenario::is_region(spec.topology)
             ? region_world(spec, with_adversary, rng)
             : graph_world(spec, with_adversary, rng);
}

std::unique_ptr<Service> make_service(WorkloadAxis::Service kind,
                                      const World& world,
                                      std::size_t key_space,
                                      std::uint64_t salt) {
  if (kind == WorkloadAxis::Service::lookup) {
    return std::make_unique<LookupService>(world, key_space, salt);
  }
  // kv is also the fallback for `none` (callers gate on enabled()).
  return std::make_unique<KvService>(world, key_space, salt);
}

Spec engine_spec(const ScenarioSpec& spec, bool with_adversary) {
  const WorkloadAxis& axis = spec.workload;
  Spec out;
  out.mode = axis.loop == WorkloadAxis::Loop::closed ? Mode::closed_loop
                                                     : Mode::open_loop;
  out.rounds = axis.rounds;
  out.timeout_rounds = axis.timeout_rounds;
  out.rate = axis.rate;
  out.clients = axis.clients;
  out.retry.enabled = axis.retries;
  if (!with_adversary) return out;
  switch (spec.adversary) {
    case AdversaryKind::eclipse:
      out.phases.push_back(AttackPhase{0, scenario::kEclipsedFraction, 0.0});
      break;
    case AdversaryKind::flood:
      out.phases.push_back(AttackPhase{
          0, 0.0, std::max(2.0, axis.rate * kFloodBackgroundMultiplier)});
      break;
    default:
      // Placement adversaries act through the world; late release
      // acts through the fault plane (see run_one).
      break;
  }
  return out;
}

void run_traffic_trial(const ScenarioSpec& spec, Rng& rng,
                       std::vector<double>& out) {
  fill_metrics(run_one(spec, /*with_adversary=*/true, rng).recorder, out);
}

CellTraffic run_traffic_cell(const ScenarioSpec& spec, bool with_adversary,
                             std::size_t threads) {
  CellTraffic out;
  out.trials = std::max<std::size_t>(1, spec.trials);
  std::vector<Recorder> shard_recorders(
      sim::trial_shards(out.trials, threads));
  std::vector<std::uint64_t> trace(out.trials);
  sim::for_each_trial(
      out.trials, spec.seed, threads,
      [&](std::size_t shard, std::size_t t, Rng& rng) {
        const RunResult res = run_one(spec, with_adversary, rng);
        shard_recorders[shard].merge(res.recorder);
        trace[t] = res.trace_hash;
      });
  for (const Recorder& shard : shard_recorders) out.recorder.merge(shard);
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const std::uint64_t t : trace) {
    h ^= t;
    h *= 1099511628211ULL;
  }
  out.trace_hash = h;
  return out;
}

}  // namespace tg::workload
