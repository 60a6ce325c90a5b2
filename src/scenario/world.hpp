// How a ScenarioSpec becomes a world: the builders and attack
// strengths behind both read-outs of a campaign cell, its analytic
// trial (cells.cpp) and its client-traffic trial
// (workload/traffic.cpp).  Each read-out composes the pieces in its
// own RNG draw order, but each piece exists once, so the two read-outs
// cannot face different worlds.
#pragma once

#include <cstddef>
#include <vector>

#include "baseline/composition.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace tg::scenario {

/// Share of a victim's contact slots (analytic) or of client start
/// groups (traffic) the eclipse adversary steers.
inline constexpr double kEclipsedFraction = 0.25;

/// The cuckoo-rule baselines, whose groups are contiguous ring regions.
[[nodiscard]] bool is_region(Topology t) noexcept;

/// The tiny |G| both region baselines run at — the paper's point is
/// that the cuckoo rules need |G| far above this.
[[nodiscard]] std::size_t tiny_group_size(std::size_t n) noexcept;

/// Graph-world params with a fresh oracle seed drawn from the trial
/// RNG; tinygroups and logn_groups differ only in group size.
[[nodiscard]] core::Params graph_params(const ScenarioSpec& spec, Rng& rng);

/// Contiguous regions of expected size `group_size`: the region
/// baselines' groups at join time, before any churn.
[[nodiscard]] std::vector<baseline::GroupComposition> bucket_population(
    const core::Population& pop, std::size_t group_size);

/// omit_ids (Lemma 5): beta * n IDs minted u.a.r., only a clustered
/// subset injected.
[[nodiscard]] core::Population omitted_population(const ScenarioSpec& spec,
                                                  Rng& rng);

/// precompute (Section IV-B): puzzle solutions stockpiled over the
/// spec's epochs, deployed at once against n fresh honest IDs.
struct StockpileBurst {
  double amplification = 0.0;   ///< IDs without / with epoch strings
  double beta = 0.0;            ///< the burst's effective beta
  core::Population population;  ///< n IDs at that beta
};
[[nodiscard]] StockpileBurst stockpile_burst(const ScenarioSpec& spec,
                                             Rng& rng);

/// A region cell's cuckoo or Commensal Cuckoo run: the spec's schedule
/// of adversarial join-leave rounds at the tiny group size.
struct RegionChurn {
  bool captured = false;          ///< some group lost its good majority
  double max_bad_fraction = 0.0;  ///< the worst concentration seen
  std::vector<baseline::GroupComposition> groups;  ///< the end state
};
[[nodiscard]] RegionChurn churn_regions(const ScenarioSpec& spec, Rng& rng);

}  // namespace tg::scenario
