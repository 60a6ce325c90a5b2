// The builtin campaign grid: every ported adversary strategy expanded
// against every group topology.
//
// Cells build their worlds from the shared builders in world.hpp:
//   * graph worlds (tinygroups / logn_groups) — a pristine GroupGraph
//     at the topology's group size,
//   * region worlds (cuckoo / commensal_cuckoo) — the respective
//     join-leave simulation churned for the spec's schedule, then
//     snapshotted as per-group compositions,
// so each adversary runs the SAME attack against every structure, and
// a cell's traffic read-out (workload/traffic.cpp) faces the same
// world — which is the paper's comparative argument, mechanized.
//
// Every trial derives all randomness (oracle seeds included) from the
// trial RNG handed in by sim::run_trials_multi, so a cell's statistics
// are a pure function of (spec, seed).
#include <algorithm>
#include <cmath>
#include <memory>

#include "adversary/eclipse.hpp"
#include "adversary/flood.hpp"
#include "adversary/late_release.hpp"
#include "adversary/target_group.hpp"
#include "baseline/composition.hpp"
#include "baseline/logn_groups.hpp"
#include "core/bootstrap.hpp"
#include "core/group_graph.hpp"
#include "crypto/oracle.hpp"
#include "pow/gossip.hpp"
#include "scenario/scenario.hpp"
#include "scenario/world.hpp"
#include "workload/traffic.hpp"

namespace tg::scenario {
namespace {

// Attack knobs of the analytic cells alone (the shared ones live in
// world.hpp).
constexpr std::size_t kFloodVictims = 32;
constexpr std::size_t kFloodRequestsPerVictim = 8;
constexpr std::size_t kLateStrings = 4;  ///< injected lottery strings

/// The groups a placement attack's population lands in: contiguous
/// regions on region worlds; on graph worlds, a pristine graph over it
/// built for its size and the given beta.
[[nodiscard]] std::vector<baseline::GroupComposition> placed_groups(
    const ScenarioSpec& spec, core::Population pop, double beta,
    Rng& rng) {
  if (is_region(spec.topology)) {
    return bucket_population(pop, tiny_group_size(spec.n));
  }
  core::Params p = graph_params(spec, rng);
  p.n = pop.size();  // omission shrinks the injected population
  p.beta = beta;
  const crypto::OracleSuite oracles(p.seed);
  return baseline::graph_compositions(core::GroupGraph::pristine(
      p, std::make_shared<const core::Population>(std::move(pop)),
      oracles.h1));
}

// ---------------------------------------------------------------------------
// The six adversary cells.
// ---------------------------------------------------------------------------

/// target_group — the targeted join-leave attack.  On graph worlds the
/// adversary spends its per-epoch ID budget on u.a.r. placements
/// (PoW); on region worlds the simulation's adversarial_round IS the
/// classic concentration attack the cuckoo rules were designed for.
void run_target_group(const ScenarioSpec& spec, Rng& rng,
                      std::vector<double>& out) {
  if (is_region(spec.topology)) {
    const RegionChurn churn = churn_regions(spec, rng);
    out[0] = churn.captured ? 1.0 : 0.0;
    out[1] = churn.max_bad_fraction;
    return;
  }
  // Graph worlds: one targeted-join budget per churn epoch; the
  // adversary keeps the best concentration it ever achieved.
  const std::size_t epochs = std::max<std::size_t>(1, spec.churn.epochs);
  double captured = 0.0;
  double worst = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const core::Params p = graph_params(spec, rng);
    const auto rep = adversary::targeted_join_uar(p, rng);
    captured = std::max(captured, rep.victim_captured ? 1.0 : 0.0);
    worst = std::max(worst, rep.best_group_bad_fraction);
  }
  out[0] = captured;
  out[1] = worst;
}

/// eclipse — bootstrap contact steering (Appendix IX).
void run_eclipse(const ScenarioSpec& spec, Rng& rng,
                 std::vector<double>& out) {
  adversary::EclipseReport rep;
  if (is_region(spec.topology)) {
    const auto regions = churn_regions(spec, rng).groups;
    const std::size_t contacts = core::bootstrap_group_count(regions.size());
    rep = adversary::eclipsed_bootstrap_regions(regions, contacts,
                                                kEclipsedFraction, rng);
  } else {
    const core::Params p = graph_params(spec, rng);
    const crypto::OracleSuite oracles(p.seed);
    auto pop = std::make_shared<const core::Population>(
        core::Population::uniform(p.n, p.beta, rng));
    const auto graph = core::GroupGraph::pristine(p, pop, oracles.h1);
    rep = adversary::eclipsed_bootstrap(graph, kEclipsedFraction, rng);
  }
  out[0] = rep.good_majority ? 0.0 : 1.0;
  out[1] = rep.ids_collected
               ? static_cast<double>(rep.bad_ids) /
                     static_cast<double>(rep.ids_collected)
               : 0.0;
}

/// flood — bogus membership requests against dual-search verification.
void run_flood(const ScenarioSpec& spec, Rng& rng, std::vector<double>& out) {
  adversary::FloodReport rep;
  if (is_region(spec.topology)) {
    rep = adversary::flood_membership_requests_regions(
        churn_regions(spec, rng).groups, kFloodVictims,
        kFloodRequestsPerVictim, rng);
  } else {
    const core::Params p = graph_params(spec, rng);
    const crypto::OracleSuite oracles(p.seed);
    auto pop = std::make_shared<const core::Population>(
        core::Population::uniform(p.n, p.beta, rng));
    const auto g1 = core::GroupGraph::pristine(p, pop, oracles.h1);
    const auto g2 = core::GroupGraph::pristine(p, pop, oracles.h2);
    rep = adversary::flood_membership_requests(
        g1, g2, kFloodVictims, kFloodRequestsPerVictim, rng);
  }
  out[0] = rep.acceptance_rate;
  out[1] = rep.expected_extra_state;
}

/// omit_ids — subset-omission placement skew (Lemma 5): the adversary
/// mints a u.a.r. pool but injects only a clustered subset.
void run_omit_ids(const ScenarioSpec& spec, Rng& rng,
                  std::vector<double>& out) {
  const auto groups =
      placed_groups(spec, omitted_population(spec, rng), spec.beta, rng);
  out[0] = baseline::majority_bad_fraction(groups);
  out[1] = baseline::max_bad_fraction(groups);
}

/// precompute — stockpiled puzzle solutions deployed as a Sybil burst
/// (Section IV-B); the burst's damage depends on the group structure.
void run_precompute(const ScenarioSpec& spec, Rng& rng,
                    std::vector<double>& out) {
  StockpileBurst burst = stockpile_burst(spec, rng);
  const auto groups =
      placed_groups(spec, std::move(burst.population), burst.beta, rng);
  out[0] = burst.amplification;
  out[1] = baseline::majority_bad_fraction(groups);
}

/// late_release — withheld lottery strings against the three-phase
/// gossip (Appendix VIII).  The topology sets the gossip degree: group
/// graphs flood across |G|-size neighbor links, the region baselines
/// only along the ring (sparse).
void run_late_release(const ScenarioSpec& spec, Rng& rng,
                      std::vector<double>& out) {
  std::size_t degree = 3;  // region baselines: ring adjacency + slack
  if (spec.topology == Topology::tinygroups) {
    degree = tiny_group_size(spec.n);
  } else if (spec.topology == Topology::logn_groups) {
    core::Params p;
    p.n = spec.n;
    degree = baseline::logn_baseline(p).group_size();
  }

  const auto adjacency = pow::make_gossip_topology(spec.n, degree, rng);
  pow::GossipParams gp;
  gp.nodes = spec.n;
  gp.phase1_attempts = 1 << 12;
  const auto phase2 = static_cast<std::size_t>(
      std::ceil(gp.d_prime * std::log(static_cast<double>(spec.n))));
  // A longer banking horizon hands the adversary more winning strings
  // to release late (the churn axis of the pow campaign).
  const std::size_t strings = kLateStrings + spec.churn.epochs / 2;
  const auto attacks = adversary::worst_case_late_release(
      strings, spec.n, phase2, /*honest_minimum_estimate=*/1e-9, rng);
  const auto o = pow::run_string_protocol(adjacency, gp, attacks, rng);
  out[0] = o.agreement ? 1.0 : 0.0;
  out[1] = o.mean_solution_set;
}

/// adaptive — the strategy-switching adversary only exists at the
/// traffic level (it compiles into a fault plan + attack phases), so
/// its cells register with a pre-enabled workload axis and run_cell
/// routes them through workload::run_traffic_trial.  This fallback
/// covers a caller that strips the axis from the spec: force it back
/// on so the cell still measures service behavior under attack.
void run_adaptive_cell(const ScenarioSpec& spec, Rng& rng,
                       std::vector<double>& out) {
  ScenarioSpec forced = spec;
  if (!forced.workload.enabled()) {
    forced.workload.service = WorkloadAxis::Service::kv;
    forced.workload.retries = true;
  }
  workload::run_traffic_trial(forced, rng, out);
}

struct CellFamily {
  AdversaryKind adversary;
  std::string campaign;
  std::vector<std::string> metrics;
  TrialFn trial;
};

}  // namespace

namespace detail {

void register_builtin_grid(Registry& registry) {
  const std::vector<CellFamily> families = {
      {AdversaryKind::target_group, "dynamic",
       {"captured", "max_bad_fraction"}, run_target_group},
      {AdversaryKind::eclipse, "static",
       {"capture", "bad_id_fraction"}, run_eclipse},
      {AdversaryKind::flood, "static",
       {"acceptance_rate", "extra_state"}, run_flood},
      {AdversaryKind::omit_ids, "static",
       {"majority_bad_fraction", "max_bad_fraction"}, run_omit_ids},
      {AdversaryKind::precompute, "pow",
       {"amplification", "burst_majority_bad"}, run_precompute},
      {AdversaryKind::late_release, "pow",
       {"agreement", "mean_solution_set"}, run_late_release},
  };
  const Topology topologies[] = {
      Topology::tinygroups,
      Topology::logn_groups,
      Topology::cuckoo,
      Topology::commensal_cuckoo,
  };
  // Names the cell "<adversary>/<topology>" and seeds it from the name
  // (FNV-1a, not std::hash: the seed must be identical across standard
  // libraries) so sibling cells never share trial streams.
  const auto add = [&registry](Scenario cell) {
    cell.spec.name = std::string(to_string(cell.spec.adversary)) + "/" +
                     std::string(to_string(cell.spec.topology));
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : cell.spec.name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    cell.spec.seed = mix64(h);
    registry.add(std::move(cell));
  };

  for (const CellFamily& family : families) {
    for (const Topology topology : topologies) {
      Scenario cell;
      cell.spec.campaign = family.campaign;
      cell.spec.adversary = family.adversary;
      cell.spec.topology = topology;
      if (family.campaign == "pow") cell.spec.churn.epochs = 8;
      cell.metrics = family.metrics;
      cell.trial = family.trial;
      add(std::move(cell));
    }
  }

  // The adaptive family: the strategy-switching adversary measured
  // under client traffic with the self-healing lifecycle on.  These
  // cells carry their own workload axis — run_cell sees it enabled and
  // reports workload::traffic_metric_names() instead of cell.metrics.
  for (const Topology topology : topologies) {
    Scenario cell;
    cell.spec.campaign = "faults";
    cell.spec.adversary = AdversaryKind::adaptive;
    cell.spec.topology = topology;
    cell.spec.n = 1024;
    cell.spec.trials = 4;
    cell.spec.workload.service = WorkloadAxis::Service::kv;
    cell.spec.workload.loop = WorkloadAxis::Loop::open;
    cell.spec.workload.rate = 2.0;
    cell.spec.workload.rounds = 96;
    cell.spec.workload.timeout_rounds = 16;
    cell.spec.workload.retries = true;
    cell.metrics = workload::traffic_metric_names();
    cell.trial = run_adaptive_cell;
    add(std::move(cell));
  }
}

}  // namespace detail
}  // namespace tg::scenario
