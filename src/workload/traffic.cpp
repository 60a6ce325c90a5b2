#include "workload/traffic.hpp"

#include <algorithm>
#include <utility>

#include "adversary/adaptive.hpp"
#include "adversary/omit_ids.hpp"
#include "adversary/precompute.hpp"
#include "baseline/commensal_cuckoo.hpp"
#include "baseline/cuckoo.hpp"
#include "baseline/logn_groups.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "crypto/oracle.hpp"
#include "pow/puzzle.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::workload {
namespace {

using scenario::AdversaryKind;
using scenario::ScenarioSpec;
using scenario::Topology;
using scenario::WorkloadAxis;

// Attack knobs mirroring the analytic cells (src/scenario/cells.cpp)
// so a cell's traffic read-out faces the same adversary strength.
constexpr double kEclipsedFraction = 0.25;
constexpr double kFloodBackgroundMultiplier = 2.0;
constexpr std::size_t kLateReleaseDelayRounds = 2;
constexpr std::uint64_t kPuzzleAttemptsPerEpoch = 1 << 14;
constexpr double kPuzzleExpectedAttempts = 2048.0;

[[nodiscard]] bool is_region(Topology t) noexcept {
  return t == Topology::cuckoo || t == Topology::commensal_cuckoo;
}

[[nodiscard]] std::size_t tiny_group_size(std::size_t n) noexcept {
  core::Params p;
  p.n = n;
  return p.group_size();
}

/// Contiguous-region bucketing of a population (the region baselines'
/// group structure at join time; cf. cells.cpp).
[[nodiscard]] std::vector<baseline::GroupComposition> bucket_population(
    const core::Population& pop, std::size_t group_size) {
  const std::size_t groups = std::max<std::size_t>(
      1, pop.size() / std::max<std::size_t>(1, group_size));
  std::vector<baseline::GroupComposition> out(groups);
  const auto& points = pop.table().points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto g = std::min(
        groups - 1, static_cast<std::size_t>(points[i].to_double() *
                                             static_cast<double>(groups)));
    ++out[g].size;
    if (pop.is_bad(i)) ++out[g].bad;
  }
  return out;
}

[[nodiscard]] std::vector<baseline::GroupComposition> churned_regions(
    const ScenarioSpec& spec, Rng& rng) {
  const std::size_t rounds = spec.churn.total_rounds();
  const std::size_t group_size = tiny_group_size(spec.n);
  if (spec.topology == Topology::cuckoo) {
    baseline::CuckooParams cp;
    cp.n = spec.n;
    cp.beta = spec.beta;
    cp.group_size = group_size;
    baseline::CuckooSimulation sim(cp, rng);
    (void)sim.run(rounds, rng);
    return sim.compositions();
  }
  baseline::CommensalParams cp;
  cp.n = spec.n;
  cp.beta = spec.beta;
  cp.group_size = group_size;
  baseline::CommensalCuckooSimulation sim(cp, rng);
  (void)sim.run(rounds, rng);
  return sim.compositions();
}

/// The stockpile burst's effective beta (cf. run_precompute).
[[nodiscard]] double burst_beta(const ScenarioSpec& spec, Rng& rng) {
  const std::uint64_t tau =
      pow::tau_for_expected_attempts(kPuzzleExpectedAttempts);
  const auto rep = adversary::simulate_stockpile(
      kPuzzleAttemptsPerEpoch, spec.churn.epochs, tau, rng);
  const double burst = static_cast<double>(rep.ids_without_strings);
  return std::min(0.49, burst / (burst + static_cast<double>(spec.n)));
}

World graph_world(const ScenarioSpec& spec, bool with_adversary, Rng& rng) {
  core::Params p;
  p.n = spec.n;
  p.beta = spec.beta;
  p.seed = rng();  // fresh oracles per trial, derived from the trial RNG
  if (spec.topology == Topology::logn_groups) p = baseline::logn_baseline(p);

  core::Population pop = core::Population::uniform(p.n, p.beta, rng);
  if (with_adversary) {
    if (spec.adversary == AdversaryKind::omit_ids) {
      const auto n_bad =
          static_cast<std::size_t>(spec.beta * static_cast<double>(spec.n));
      pop = adversary::build_omitted_population(
          spec.n - n_bad, n_bad, adversary::OmissionStrategy::keep_clustered,
          rng);
      p.n = pop.size();
    } else if (spec.adversary == AdversaryKind::precompute) {
      p.beta = burst_beta(spec, rng);
      pop = core::Population::uniform(spec.n, p.beta, rng);
    }
  }
  const crypto::OracleSuite oracles(p.seed);
  auto graph = std::make_shared<core::GroupGraph>(core::GroupGraph::pristine(
      p, std::make_shared<const core::Population>(std::move(pop)),
      oracles.h1));
  return World::from_graph(std::move(graph));
}

World region_traffic_world(const ScenarioSpec& spec, bool with_adversary,
                           Rng& rng) {
  if (with_adversary) {
    // Every region cell serves from the structure its join-leave
    // campaign produced (the attack IS the churn).
    return World::from_regions(churned_regions(spec, rng));
  }
  const core::Population pop =
      core::Population::uniform(spec.n, spec.beta, rng);
  return World::from_regions(bucket_population(pop, tiny_group_size(spec.n)));
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
  return is_region(spec.topology)
             ? region_traffic_world(spec, with_adversary, rng)
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
      out.phases.push_back(AttackPhase{0, kEclipsedFraction, 0.0});
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

void run_benign_traffic_trial(const ScenarioSpec& spec, Rng& rng,
                              std::vector<double>& out) {
  fill_metrics(run_one(spec, /*with_adversary=*/false, rng).recorder, out);
}

CellTraffic run_traffic_cell(const ScenarioSpec& spec, bool with_adversary,
                             std::size_t threads) {
  const std::size_t trials = std::max<std::size_t>(1, spec.trials);
  const std::size_t shard_count =
      std::min<std::size_t>(trials, threads == 0 ? 8 : threads);
  std::vector<Recorder> shard_recorders(shard_count);
  std::vector<std::uint64_t> trace(trials);
  // Telemetry capture: same (scope, trial) track keying as
  // sim::run_trials_multi, so the merged export never depends on the
  // shard count or schedule.
  telemetry::Capture* const cap = telemetry::capture();
  const std::uint64_t telem_scope = cap != nullptr ? cap->next_scope() : 0;
  parallel_for_shards(
      shard_count,
      [&](std::size_t shard) {
        for (std::size_t t = shard; t < trials; t += shard_count) {
          telemetry::Session* session = nullptr;
          if (cap != nullptr) {
            session = &cap->session_for((telem_scope << 32) | t);
          }
          telemetry::ThreadBind bind(session);
          // Same sharding-invariant per-trial seeding as
          // sim::run_trials_multi: results never depend on the shard
          // count or schedule.
          Rng rng(mix64(spec.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1))));
          const RunResult res = run_one(spec, with_adversary, rng);
          shard_recorders[shard].merge(res.recorder);
          trace[t] = res.trace_hash;
        }
      },
      threads);
  CellTraffic out;
  out.trials = trials;
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
