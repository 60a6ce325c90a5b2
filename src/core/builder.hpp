// Building new group graphs each epoch (Section III-A).
//
// In epoch j the n incoming IDs assemble the two new group graphs
// G^j_1, G^j_2 by performing searches in BOTH old graphs G^{j-1}_1,
// G^{j-1}_2 ("dual searches"):
//
//   * membership:  member i of G_w is suc(h1(w,i)) (h2 for graph 2)
//     among the old, soon-passive IDs; a dual search locates it, the
//     member verifies the request with its own dual search;
//   * neighbors:   for every linking-rule target of w in the new
//     topology, a dual search locates the neighbor, which verifies
//     with its own dual search; any failed final neighbor resolution
//     leaves the group CONFUSED (Lemma 8);
//   * a dual failure (both searches hit red groups) hands the decision
//     to the adversary — it injects a bad member / wrong neighbor.
//
// The ablation of the "naive approach" (one group graph; Section III's
// intuition for why errors then accumulate) is expressed by running
// the same pipeline with g1 == g2 (single mode), which makes every
// dual search degenerate to a single search.
//
// Execution: every boot index comes from the build's one RNG, so the
// build speculates a window of leaders at a time.  Pool tasks derive
// each leader's request keys (membership hashes, link targets), run
// its dual searches (one pass over each route for both old graphs'
// red sets and message charges) and assemble the group they predict:
// sorted members, counters, confusion and messages.  The calling
// thread keeps only what is sequential: it draws the boots, saves the
// speculative RNG state at each leader, hands the RNG over, and
// appends the groups; a misprediction falls back to search-by-search
// commits from the first mispredicted leader's saved state (see
// builder.cpp and docs/ARCHITECTURE.md, "Epoch representation").
#pragma once

#include <memory>

#include "core/group_graph.hpp"
#include "core/search.hpp"
#include "sim/metrics.hpp"

namespace tg::core {

/// A generation of the system: one ID population and its two group
/// graphs.  In single-graph mode g1 and g2 alias the same graph.
struct EpochGraphs {
  std::shared_ptr<const Population> pop;
  std::shared_ptr<GroupGraph> g1;
  std::shared_ptr<GroupGraph> g2;

  [[nodiscard]] bool dual() const noexcept { return g1 != g2; }
};

enum class BuildMode {
  dual_graph,   ///< the paper's construction
  single_graph  ///< ablation: the naive design (errors accumulate)
};

struct BuilderConfig {
  BuildMode mode = BuildMode::dual_graph;

  /// Omission adversary (Lemma 5): fraction of its beta*n IDs the
  /// adversary actually injects this epoch.
  double bad_present_fraction = 1.0;

  /// On a dual failure the adversary substitutes a bad member / wrong
  /// neighbor (true, the paper's worst case) or the slot is simply
  /// lost (false).
  bool adversary_corrupts_on_failure = true;

  /// Per-epoch population growth: the next generation has
  /// round(growth_factor * previous size) IDs, clamped to [n/2, 2n].
  /// This implements the paper's omitted Theta(n) size-variation
  /// detail ("our results hold when the system size is Theta(n)...
  /// but we omit these details in this extended abstract").
  double growth_factor = 1.0;
};

struct BuildStats {
  std::size_t membership_requests = 0;
  std::size_t membership_dual_failures = 0;  ///< adversary chose the member
  std::size_t membership_rejects = 0;        ///< erroneous rejection (Lemma 7)
  std::size_t neighbor_requests = 0;
  std::size_t neighbor_dual_failures = 0;
  std::size_t neighbor_rejects = 0;
  std::size_t confused_groups = 0;  ///< across both new graphs
  std::size_t bad_groups = 0;       ///< across both new graphs
  sim::MessageLedger messages;
};

class EpochBuilder {
 public:
  explicit EpochBuilder(const Params& params, BuilderConfig config = {});

  /// Trusted epoch-0 graphs (Appendix X's initialization assumption).
  [[nodiscard]] EpochGraphs initial(Rng& rng) const;

  /// Run the construction of Section III-A for one epoch: returns the
  /// new generation built from `old` via (dual) searches.  The searches
  /// and group assembly run speculatively on ThreadPool::global(); the
  /// result, the stats and the telemetry are byte-identical at any pool
  /// width.
  [[nodiscard]] EpochGraphs build_next(const EpochGraphs& old, Rng& rng,
                                       BuildStats* stats = nullptr) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] const BuilderConfig& config() const noexcept { return config_; }

 private:
  /// Assemble the groups of one new graph (membership + neighbors),
  /// a speculated window of leaders at a time.
  [[nodiscard]] std::shared_ptr<GroupGraph> build_graph(
      const EpochGraphs& old, std::shared_ptr<const Population> new_pop,
      const crypto::RandomOracle& membership_oracle, Rng& rng,
      BuildStats* stats) const;

  /// Fresh population of `target_n` IDs for the next epoch (good IDs
  /// regenerate; the adversary injects up to beta*target_n u.a.r. IDs,
  /// possibly withholding some under the omission strategy).
  [[nodiscard]] Population next_population(std::size_t target_n,
                                           Rng& rng) const;

  Params params_;
  BuilderConfig config_;
  crypto::OracleSuite oracles_;
};

}  // namespace tg::core
