#include "scenario/world.hpp"

#include <algorithm>
#include <cstdint>

#include "adversary/omit_ids.hpp"
#include "adversary/precompute.hpp"
#include "baseline/commensal_cuckoo.hpp"
#include "baseline/cuckoo.hpp"
#include "baseline/logn_groups.hpp"
#include "pow/puzzle.hpp"

namespace tg::scenario {
namespace {

// The precompute adversary's hash budget per epoch and the puzzle's
// expected attempts per solved ID.
constexpr std::uint64_t kPuzzleAttemptsPerEpoch = 1 << 14;
constexpr double kPuzzleExpectedAttempts = 2048.0;

/// One join-leave run of either region baseline (their params and
/// outcomes share these field names).
template <class Simulation, class Params>
RegionChurn churn(const ScenarioSpec& spec, Rng& rng) {
  Params cp;
  cp.n = spec.n;
  cp.beta = spec.beta;
  cp.group_size = tiny_group_size(spec.n);
  Simulation sim(cp, rng);
  const auto o = sim.run(spec.churn.total_rounds(), rng);
  return {o.first_failure_round.has_value(), o.max_bad_fraction_seen,
          sim.compositions()};
}

}  // namespace

bool is_region(Topology t) noexcept {
  return t == Topology::cuckoo || t == Topology::commensal_cuckoo;
}

std::size_t tiny_group_size(std::size_t n) noexcept {
  core::Params p;
  p.n = n;
  return p.group_size();
}

core::Params graph_params(const ScenarioSpec& spec, Rng& rng) {
  core::Params p;
  p.n = spec.n;
  p.beta = spec.beta;
  p.seed = rng();
  if (spec.topology == Topology::logn_groups) p = baseline::logn_baseline(p);
  return p;
}

std::vector<baseline::GroupComposition> bucket_population(
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

core::Population omitted_population(const ScenarioSpec& spec, Rng& rng) {
  const auto n_bad =
      static_cast<std::size_t>(spec.beta * static_cast<double>(spec.n));
  return adversary::build_omitted_population(
      spec.n - n_bad, n_bad, adversary::OmissionStrategy::keep_clustered, rng);
}

StockpileBurst stockpile_burst(const ScenarioSpec& spec, Rng& rng) {
  const std::uint64_t tau =
      pow::tau_for_expected_attempts(kPuzzleExpectedAttempts);
  const auto rep = adversary::simulate_stockpile(
      kPuzzleAttemptsPerEpoch, spec.churn.epochs, tau, rng);
  StockpileBurst out;
  out.amplification = rep.amplification;
  const double burst = static_cast<double>(rep.ids_without_strings);
  out.beta = std::min(0.49, burst / (burst + static_cast<double>(spec.n)));
  out.population = core::Population::uniform(spec.n, out.beta, rng);
  return out;
}

RegionChurn churn_regions(const ScenarioSpec& spec, Rng& rng) {
  if (spec.topology == Topology::cuckoo) {
    return churn<baseline::CuckooSimulation, baseline::CuckooParams>(spec,
                                                                     rng);
  }
  return churn<baseline::CommensalCuckooSimulation,
               baseline::CommensalParams>(spec, rng);
}

}  // namespace tg::scenario
