// Tests for the dynamic construction (Section III): the epoch builder,
// dual-search verification, churn, bootstrap, and the epoch manager.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "baseline/composition.hpp"
#include "baseline/single_graph.hpp"
#include "core/bootstrap.hpp"
#include "core/builder.hpp"
#include "core/churn.hpp"
#include "core/epoch_manager.hpp"
#include "core/robustness.hpp"
#include "core/self_heal.hpp"
#include "crypto/oracle.hpp"
#include "util/rng.hpp"

namespace tg::core {
namespace {

Params small_params(std::size_t n = 1024, double beta = 0.05,
                    std::uint64_t seed = 5) {
  Params p;
  p.n = n;
  p.beta = beta;
  p.seed = seed;
  p.overlay_kind = overlay::Kind::debruijn;  // cheap routes for tests
  return p;
}

TEST(EpochBuilder, InitialGraphsShareLeaders) {
  const auto p = small_params();
  EpochBuilder builder(p);
  Rng rng(p.seed);
  const EpochGraphs g = builder.initial(rng);
  EXPECT_TRUE(g.dual());
  EXPECT_EQ(g.g1->size(), p.n);
  EXPECT_EQ(g.g2->size(), p.n);
  EXPECT_EQ(&g.g1->leaders(), &g.g2->leaders());
  EXPECT_EQ(&g.g1->leaders(), g.pop.get());
  // Different membership hashes -> different groups.
  std::size_t differ = 0;
  for (std::size_t i = 0; i < g.g1->size(); ++i) {
    if (g.g1->group(i).members != g.g2->group(i).members) ++differ;
  }
  EXPECT_GT(differ, g.g1->size() / 2);
}

TEST(EpochBuilder, SingleModeAliasesGraphs) {
  BuilderConfig cfg;
  cfg.mode = BuildMode::single_graph;
  EpochBuilder builder(small_params(), cfg);
  Rng rng(1);
  const EpochGraphs g = builder.initial(rng);
  EXPECT_FALSE(g.dual());
  EXPECT_EQ(g.g1.get(), g.g2.get());
}

TEST(EpochBuilder, BuildNextProducesFreshPopulation) {
  const auto p = small_params();
  EpochBuilder builder(p);
  Rng rng(p.seed);
  const EpochGraphs old = builder.initial(rng);
  const EpochGraphs next = builder.build_next(old, rng, nullptr);
  EXPECT_EQ(next.pop->size(), p.n);
  EXPECT_NE(next.pop.get(), old.pop.get());
  // Members of new groups are OLD ids (member pool = old population).
  EXPECT_EQ(&next.g1->member_pool(), old.pop.get());
  EXPECT_EQ(&next.g1->leaders(), next.pop.get());
}

TEST(EpochBuilder, StatsAreConsistent) {
  const auto p = small_params(512);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  const EpochGraphs old = builder.initial(rng);
  BuildStats stats;
  const EpochGraphs next = builder.build_next(old, rng, &stats);
  // Membership requests: group_size per group per graph.
  EXPECT_EQ(stats.membership_requests, 2 * p.n * p.group_size());
  EXPECT_LE(stats.membership_dual_failures, stats.membership_requests);
  EXPECT_GT(stats.neighbor_requests, 0u);
  EXPECT_GT(stats.messages.total(), 0u);
  EXPECT_GT(stats.messages.get(sim::MsgCat::membership), 0u);
  EXPECT_GT(stats.messages.get(sim::MsgCat::neighbor_setup), 0u);
  (void)next;
}

TEST(EpochBuilder, DualFailuresAreRareAtDefaults) {
  const auto p = small_params(1024);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  const EpochGraphs old = builder.initial(rng);
  BuildStats stats;
  (void)builder.build_next(old, rng, &stats);
  const double failure_rate =
      static_cast<double>(stats.membership_dual_failures) /
      static_cast<double>(stats.membership_requests);
  // q_f^2 with q_f of a few percent: well under 1%.
  EXPECT_LT(failure_rate, 0.01);
}

TEST(EpochBuilder, OmissionReducesPresentBad) {
  auto p = small_params(512, 0.1);
  BuilderConfig cfg;
  cfg.bad_present_fraction = 0.5;
  EpochBuilder builder(p, cfg);
  Rng rng(3);
  const EpochGraphs g = builder.initial(rng);
  EXPECT_LT(g.pop->size(), p.n);  // withheld IDs are absent
  EXPECT_NEAR(g.pop->bad_fraction(), 0.05 / 0.95, 0.02);
}

TEST(EpochBuilder, RejectsOutOfRangeParameters) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const double beta : {-0.1, 1.0, 1.5, nan}) {
    EXPECT_THROW(EpochBuilder(small_params(64, beta)), std::invalid_argument)
        << "beta=" << beta;
  }
  for (const double growth : {0.0, -1.0, nan, inf}) {
    BuilderConfig cfg;
    cfg.growth_factor = growth;
    EXPECT_THROW(EpochBuilder(small_params(64), cfg), std::invalid_argument)
        << "growth_factor=" << growth;
  }
  for (const double present : {-0.1, 1.5, nan}) {
    BuilderConfig cfg;
    cfg.bad_present_fraction = present;
    EXPECT_THROW(EpochBuilder(small_params(64), cfg), std::invalid_argument)
        << "bad_present_fraction=" << present;
  }
  // The ends of each range are valid.
  BuilderConfig edges;
  edges.bad_present_fraction = 0.0;
  EXPECT_NO_THROW(EpochBuilder(small_params(64, 0.0), edges));
  edges.bad_present_fraction = 1.0;
  EXPECT_NO_THROW(EpochBuilder(small_params(64, 0.0), edges));
}

TEST(EpochBuilder, HugeGrowthFactorClampsToTwiceTheDesignSize) {
  const auto p = small_params(64);
  BuilderConfig cfg;
  cfg.growth_factor = 1e30;
  EpochBuilder builder(p, cfg);
  Rng rng(p.seed);
  const EpochGraphs next = builder.build_next(builder.initial(rng), rng);
  EXPECT_LE(next.pop->size(), 2 * p.n);
  EXPECT_GT(next.pop->size(), p.n);
}

TEST(EpochManager, DualKeepsRobustnessOverEpochs) {
  const auto p = small_params(1024);
  EpochManager mgr(p);
  Rng rng(p.seed);
  const auto records = mgr.run(/*epochs=*/3, /*probe_searches=*/3000, rng);
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    // epsilon-robustness: red fraction stays o(1) every epoch.
    EXPECT_LT(rec.red_fraction_g1, 0.05) << "epoch " << rec.epoch;
    EXPECT_GT(rec.search_success, 0.8) << "epoch " << rec.epoch;
    // Dual failure is (roughly) the square of single failure.
    EXPECT_LE(rec.dual_failure, rec.q_f + 0.01) << "epoch " << rec.epoch;
  }
}

TEST(EpochManager, SingleGraphDegradesFasterThanDual) {
  const auto p = small_params(1024, 0.08, 17);
  auto dual_mgr = baseline::make_dual_graph_manager(p);
  auto single_mgr = baseline::make_single_graph_manager(p);
  Rng rng_a(100), rng_b(100);
  const auto dual = dual_mgr.run(4, 2000, rng_a);
  const auto single = single_mgr.run(4, 2000, rng_b);
  // The ablation: by the last epoch the single-graph pipeline has
  // accumulated at least as many red groups as the dual one.
  EXPECT_GE(single.back().red_fraction_g1 + 1e-9,
            dual.back().red_fraction_g1);
  EXPECT_LE(single.back().search_success,
            dual.back().search_success + 0.02);
}

TEST(Churn, MajorityRetainedUnderBound) {
  const auto p = small_params(1024);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  EpochGraphs g = builder.initial(rng);
  auto graph = std::make_unique<GroupGraph>(std::move(*g.g1));
  // Departures up to eps'/2 (the paper's bound) keep every initially
  // good group in the majority.
  const double bound = p.epsilon_prime() / 2.0;
  const ChurnReport report = apply_good_departures(*graph, bound, rng);
  EXPECT_GT(report.departed_good, 0u);
  EXPECT_EQ(report.groups_lost_majority, 0u);
  EXPECT_GT(report.min_good_fraction, 0.5);
}

TEST(Churn, ExcessiveDeparturesBreakMajority) {
  const auto p = small_params(1024, 0.15, 23);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  EpochGraphs g = builder.initial(rng);
  auto graph = std::make_unique<GroupGraph>(std::move(*g.g1));
  // Remove 90% of good IDs: far past the bound; some group must lose
  // its majority.
  const ChurnReport report = apply_good_departures(*graph, 0.9, rng);
  EXPECT_GT(report.groups_lost_majority, 0u);
}

TEST(Churn, EmptiedGroupsAreCounted) {
  const auto p = small_params(256, 0.0, 29);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  EpochGraphs g = builder.initial(rng);
  auto graph = std::make_unique<GroupGraph>(std::move(*g.g1));
  const ChurnReport report = apply_good_departures(*graph, 1.0, rng);
  // All members were good and all departed.
  EXPECT_EQ(report.groups_emptied, graph->size());
}

TEST(Bootstrap, GroupCountFormula) {
  EXPECT_EQ(bootstrap_group_count(2), 1u);
  const std::size_t n = 1 << 16;
  const double expect = std::ceil(std::log(static_cast<double>(n)) /
                                  std::log(std::log(static_cast<double>(n))));
  EXPECT_EQ(bootstrap_group_count(n), static_cast<std::size_t>(expect));
}

TEST(Bootstrap, CollectsGoodMajorityWhp) {
  const auto p = small_params(2048, 0.05, 31);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  const EpochGraphs g = builder.initial(rng);
  std::size_t good_majorities = 0;
  for (int i = 0; i < 50; ++i) {
    const BootstrapReport rep = bootstrap_join(*g.g1, rng);
    EXPECT_EQ(rep.groups_contacted, bootstrap_group_count(2048));
    EXPECT_GT(rep.ids_collected, rep.groups_contacted);
    good_majorities += rep.good_majority;
  }
  EXPECT_EQ(good_majorities, 50u);  // beta = 0.05: always a good majority
}

TEST(Bootstrap, FailsUnderMassiveAdversary) {
  const auto p = small_params(512, 0.45, 37);
  EpochBuilder builder(p);
  Rng rng(p.seed);
  const EpochGraphs g = builder.initial(rng);
  std::size_t failures = 0;
  for (int i = 0; i < 50; ++i) {
    failures += !bootstrap_join(*g.g1, rng).good_majority;
  }
  // At beta = 0.45 some bootstrap unions lose the majority.
  EXPECT_GT(failures, 0u);
}

TEST(GraphCompositions, CountersEqualARecount) {
  // graph_compositions reads each group's size and bad count from the
  // table's counters; they must equal a recount of the members against
  // the member pool after every way a graph is built or mutated.
  const auto expect_recount = [](const GroupGraph& graph,
                                 const std::string& label) {
    const auto comps = baseline::graph_compositions(graph);
    EXPECT_EQ(comps.size(), graph.size()) << label;
    std::size_t bad_total = 0;
    for (std::size_t i = 0; i < std::min(comps.size(), graph.size()); ++i) {
      std::size_t bad = 0;
      for (const auto m : graph.members(i)) {
        if (graph.member_pool().is_bad(m)) ++bad;
      }
      EXPECT_EQ(comps[i].size, graph.members(i).size()) << label << " " << i;
      EXPECT_EQ(comps[i].bad, bad) << label << " " << i;
      bad_total += bad;
    }
    return bad_total;
  };

  for (const double beta : {0.05, 0.35}) {
    for (const BuildMode mode :
         {BuildMode::dual_graph, BuildMode::single_graph}) {
      const auto p = small_params(512, beta, 11);
      BuilderConfig cfg;
      cfg.mode = mode;
      EpochBuilder builder(p, cfg);
      Rng rng(p.seed);
      const EpochGraphs initial = builder.initial(rng);
      const std::string label =
          "beta " + std::to_string(beta) +
          (mode == BuildMode::dual_graph ? " dual" : " single");
      expect_recount(*initial.g1, label + " pristine");
      const EpochGraphs next = builder.build_next(initial, rng);
      EXPECT_GT(expect_recount(*next.g1, label + " build_next g1"), 0u);
      expect_recount(*next.g2, label + " build_next g2");
    }
  }

  const auto p = small_params(512, 0.22, 23);
  Rng rng(p.seed);
  const auto pop =
      std::make_shared<const Population>(Population::uniform(p.n, p.beta, rng));
  const crypto::OracleSuite oracles(p.seed);
  GroupGraph churned = GroupGraph::pristine(p, pop, oracles.h1);
  (void)apply_good_departures(churned, 0.3, rng);
  expect_recount(churned, "churned");

  GroupGraph healed = GroupGraph::pristine(p, pop, oracles.h1);
  const GroupGraph partner = GroupGraph::pristine(p, pop, oracles.h2);
  ASSERT_GT(healed.red_fraction(), 0.0);
  for (int round = 0; round < 3; ++round) {
    const HealReport report =
        self_heal_round(healed, partner, oracles.h1, 0x100 + round, 800, rng);
    EXPECT_GT(report.rebuilds, 0u) << round;
  }
  expect_recount(healed, "self-healed");
}

}  // namespace
}  // namespace tg::core
