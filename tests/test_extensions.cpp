// Tests for the extension modules: Viceroy overlay, iterative search,
// quarantine (footnote 2), in-group RNG, replicated storage with epoch
// handoff, and the latency model.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "tinygroups/tinygroups.hpp"

namespace tg {
namespace {

// --- Viceroy overlay ---

TEST(Viceroy, RoutesTerminateCorrectly) {
  Rng rng(1);
  const auto table = ids::RingTable::uniform(2048, rng);
  const overlay::ViceroyOverlay graph(table);
  for (int i = 0; i < 300; ++i) {
    const std::size_t start = rng.below(2048);
    const ids::RingPoint key{rng.u64()};
    const auto route = graph.route(start, key);
    ASSERT_TRUE(route.ok);
    EXPECT_EQ(route.path.back(), table.successor_index(key));
  }
}

TEST(Viceroy, ConstantExpectedDegree) {
  Rng rng(2);
  const auto table = ids::RingTable::uniform(4096, rng);
  const overlay::ViceroyOverlay graph(table);
  RunningStats degree;
  for (std::size_t i = 0; i < 300; ++i) {
    degree.add(static_cast<double>(graph.neighbors(i).size()));
  }
  EXPECT_LT(degree.mean(), 8.0);  // O(1), independent of n
}

TEST(Viceroy, LevelsAreDeterministicAndInRange) {
  Rng rng(3);
  const auto table = ids::RingTable::uniform(1024, rng);
  const overlay::ViceroyOverlay graph(table);
  for (std::size_t i = 0; i < 100; ++i) {
    const int level = graph.level_of(table.at(i));
    EXPECT_GE(level, 1);
    EXPECT_LE(level, graph.levels());
    EXPECT_EQ(level, graph.level_of(table.at(i)));
  }
}

TEST(Viceroy, HopsLogarithmic) {
  Rng rng(4);
  const auto table = ids::RingTable::uniform(4096, rng);
  const overlay::ViceroyOverlay graph(table);
  RunningStats hops;
  for (int i = 0; i < 300; ++i) {
    const auto route = graph.route(rng.below(4096), ids::RingPoint{rng.u64()});
    ASSERT_TRUE(route.ok);
    hops.add(static_cast<double>(route.hops()));
  }
  EXPECT_LT(hops.mean(), 3.0 * std::log2(4096.0));
}

// --- Iterative search (Appendix VI) ---

struct SearchFixture {
  core::Params params;
  std::shared_ptr<const core::Population> pop;
  std::unique_ptr<core::GroupGraph> graph;
  SearchFixture() {
    params.n = 1024;
    params.beta = 0.05;
    params.seed = 5;
    Rng rng(params.seed);
    pop = std::make_shared<const core::Population>(
        core::Population::uniform(params.n, params.beta, rng));
    const crypto::OracleSuite oracles(params.seed);
    graph = std::make_unique<core::GroupGraph>(
        core::GroupGraph::pristine(params, pop, oracles.h1));
  }
};

TEST(IterativeSearch, SameOutcomeDifferentCost) {
  SearchFixture f;
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const std::size_t start = rng.below(f.params.n);
    const ids::RingPoint key{rng.u64()};
    const auto rec =
        core::secure_search(*f.graph, start, key, core::SearchMode::recursive);
    const auto it =
        core::secure_search(*f.graph, start, key, core::SearchMode::iterative);
    EXPECT_EQ(rec.success, it.success);
    EXPECT_EQ(rec.path_groups, it.path_groups);
    if (rec.path_groups > 1) {
      // Iterative pays round trips with the initiator.
      EXPECT_GT(it.messages, rec.messages);
    }
  }
}

TEST(IterativeSearch, CostRatioIsAboutTwo) {
  SearchFixture f;
  Rng rng(7);
  RunningStats rec_msgs, it_msgs;
  for (int i = 0; i < 500; ++i) {
    const std::size_t start = rng.below(f.params.n);
    const ids::RingPoint key{rng.u64()};
    rec_msgs.add(static_cast<double>(
        core::secure_search(*f.graph, start, key, core::SearchMode::recursive)
            .messages));
    it_msgs.add(static_cast<double>(
        core::secure_search(*f.graph, start, key, core::SearchMode::iterative)
            .messages));
  }
  EXPECT_NEAR(it_msgs.mean() / rec_msgs.mean(), 2.0, 0.4);
}

// --- Quarantine (footnote 2) ---

TEST(Quarantine, MajorityThreshold) {
  core::QuarantineTracker tracker(9);
  for (std::size_t r = 0; r < 4; ++r) tracker.report(r, 42);
  EXPECT_FALSE(tracker.is_quarantined(42));
  tracker.report(4, 42);
  EXPECT_TRUE(tracker.is_quarantined(42));
  EXPECT_EQ(tracker.quarantined_count(), 1u);
}

TEST(Quarantine, DuplicateReportsDontDoubleCount) {
  core::QuarantineTracker tracker(9);
  for (int i = 0; i < 100; ++i) tracker.report(0, 42);
  EXPECT_EQ(tracker.report_count(42), 1u);
  EXPECT_FALSE(tracker.is_quarantined(42));
}

TEST(Quarantine, OutOfRangeReporterIgnored) {
  core::QuarantineTracker tracker(5);
  tracker.report(7, 42);
  EXPECT_EQ(tracker.report_count(42), 0u);
}

TEST(Quarantine, SpamIsBoundedInGoodGroups) {
  Rng rng(8);
  auto pop = core::Population::uniform(100, 0.2, rng);
  core::Group grp;
  grp.leader = 0;
  std::size_t good = 0;
  for (std::uint32_t m = 0; m < 100 && grp.members.size() < 15; ++m) {
    grp.members.push_back(m);
    good += !pop.is_bad(m);
  }
  const auto outcome = core::simulate_spam_campaign(grp, pop, 999, 1000);
  if (2 * good > grp.size()) {
    EXPECT_TRUE(outcome.quarantined);
    // One delivery is enough for the good majority to convict.
    EXPECT_LE(outcome.processed_before_quarantine, 2u);
  }
}

TEST(Quarantine, BadMinorityCannotFrame) {
  Rng rng(9);
  auto pop = core::Population::uniform(100, 0.3, rng);
  core::Group grp;
  grp.leader = 0;
  for (std::uint32_t m = 0; m < 15; ++m) grp.members.push_back(m);
  grp.bad_members = 0;
  for (const auto m : grp.members) grp.bad_members += pop.is_bad(m);
  if (grp.has_good_majority()) {
    EXPECT_FALSE(core::bad_minority_can_frame(grp, pop, 12345));
  }
}

// --- In-group RNG ---

TEST(GroupRng, AllGoodIsUnbiasedAndAbortFree) {
  Rng rng(10);
  auto pop = core::Population::uniform(64, 0.0, rng);
  core::Group grp;
  grp.leader = 0;
  for (std::uint32_t m = 0; m < 9; ++m) grp.members.push_back(m);
  std::size_t ones = 0;
  const std::size_t rounds = 4000;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto result = bft::group_random(grp, pop, true, rng);
    EXPECT_EQ(result.aborts, 0u);
    EXPECT_TRUE(result.commitments_valid);
    ones += (result.value & 1ULL) != 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / rounds, 0.5, 0.03);
}

TEST(GroupRng, SelectiveAbortBiasesOneRound) {
  // A mixed group: the abort lever gives the colluders a choice
  // between two XOR outcomes, so the preferred bit wins with
  // probability 3/4 (bias 1/4) on a single un-retried round.
  Rng rng(11);
  auto pop = core::Population::uniform(64, 0.5, rng);
  core::Group grp;
  grp.leader = 0;
  std::size_t bad = 0, good = 0;
  for (std::uint32_t m = 0; m < 64 && grp.members.size() < 9; ++m) {
    if (pop.is_bad(m) && bad < 4) {
      grp.members.push_back(m);
      ++bad;
    } else if (!pop.is_bad(m) && good < 5) {
      grp.members.push_back(m);
      ++good;
    }
  }
  ASSERT_EQ(bad, 4u);
  ASSERT_EQ(good, 5u);
  grp.bad_members = bad;
  const double bias = bft::measure_abort_bias(grp, pop, 6000, rng);
  EXPECT_NEAR(bias, 0.25, 0.05);
}

TEST(GroupRng, MessageAccounting) {
  Rng rng(12);
  auto pop = core::Population::uniform(64, 0.0, rng);
  core::Group grp;
  grp.leader = 0;
  for (std::uint32_t m = 0; m < 7; ++m) grp.members.push_back(m);
  const auto result = bft::group_random(grp, pop, false, rng);
  EXPECT_EQ(result.messages, 2u * 7u * 6u);  // two all-to-all rounds
}

// --- Replicated storage ---

TEST(Storage, PutGetRoundTrip) {
  core::Params p;
  p.n = 512;
  p.beta = 0.05;
  p.seed = 13;
  core::EpochBuilder builder(p);
  Rng rng(p.seed);
  const core::EpochGraphs gen = builder.initial(rng);
  core::ReplicatedStore store(gen);

  std::vector<ids::RingPoint> keys;
  for (int i = 0; i < 200; ++i) {
    const ids::RingPoint key{rng.u64()};
    if (store.put(key, mix64(key.raw()))) keys.push_back(key);
  }
  EXPECT_GT(keys.size(), 195u);

  std::size_t correct = 0;
  for (const auto key : keys) {
    const auto got = store.get(key, rng);
    correct += got.found && got.correct;
  }
  EXPECT_GT(correct, keys.size() * 95 / 100);
}

TEST(Storage, MissingKeyNotFound) {
  core::Params p;
  p.n = 256;
  p.seed = 14;
  core::EpochBuilder builder(p);
  Rng rng(p.seed);
  const core::EpochGraphs gen = builder.initial(rng);
  core::ReplicatedStore store(gen);
  EXPECT_FALSE(store.get(ids::RingPoint{123}, rng).found);
}

TEST(Storage, HandoffRetainsItems) {
  core::Params p;
  // n = 1024 is the smallest size comfortably inside the dynamic
  // pipeline's stability region at beta = 0.05 ("sufficiently large
  // n"); n = 512 sits below the knee the E9 bench maps out.
  p.n = 1024;
  p.beta = 0.05;
  p.seed = 15;
  p.overlay_kind = overlay::Kind::chord;
  core::EpochBuilder builder(p);
  Rng rng(p.seed);
  std::vector<core::EpochGraphs> gens;
  gens.reserve(4);
  gens.push_back(builder.initial(rng));
  core::ReplicatedStore store(gens.back());
  for (int i = 0; i < 300; ++i) {
    const ids::RingPoint key{rng.u64()};
    store.put(key, mix64(key.raw()));
  }
  const std::size_t before = store.size();
  for (int e = 0; e < 3; ++e) {
    gens.push_back(builder.build_next(gens.back(), rng, nullptr));
    const auto rep = store.handoff(gens.back());
    EXPECT_GT(rep.retention(), 0.97) << "epoch " << e;
    EXPECT_GT(rep.messages, 0u);
  }
  EXPECT_GT(store.size(), before * 9 / 10);
}

// --- Latency model ---

TEST(Latency, MessageDelaysArePositiveLogNormal) {
  sim::LatencyModel model;
  Rng rng(16);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(model.sample_message_ms(rng));
  EXPECT_GT(stats.min(), 0.0);
  // Median ~ exp(mu): mean of the log should be close to mu_log.
  EXPECT_NEAR(std::log(stats.mean()), model.mu_log + 0.18, 0.25);
}

TEST(Latency, HopGrowsWithGroupSize) {
  sim::LatencyModel model;
  Rng rng(17);
  RunningStats small, large;
  for (int i = 0; i < 500; ++i) {
    small.add(model.sample_hop_ms(9, 9, rng));
    large.add(model.sample_hop_ms(65, 65, rng));
  }
  // The [51] effect: per-copy endpoint work makes big groups slower.
  EXPECT_GT(large.mean(), small.mean() + 20.0);
}

TEST(Latency, SearchScalesWithHops) {
  sim::LatencyModel model;
  Rng rng(18);
  const auto short_search = sim::measure_search_latency(model, 3, 17, 400, rng);
  const auto long_search = sim::measure_search_latency(model, 9, 17, 400, rng);
  EXPECT_NEAR(long_search.mean_ms / short_search.mean_ms, 3.0, 0.5);
  EXPECT_GE(long_search.p99_ms, long_search.p50_ms);
}

}  // namespace
}  // namespace tg
