// Integration tests: full pipelines across modules.
//
//  * PoW -> Population -> group graphs -> secure search (the complete
//    system of Theorem 3 exercised end to end),
//  * storage/retrieval through groups (the paper's name-service
//    motivation),
//  * the open-compute-platform flow (groups as reliable processors),
//  * gossip-backed ID credential lifecycle across an epoch boundary.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "tinygroups/tinygroups.hpp"

namespace tg {
namespace {

TEST(Integration, PowToSearchPipeline) {
  // Mint good IDs with real puzzles, adversary IDs via the oracle,
  // assemble a population and verify searches work on it.
  const std::uint64_t seed = 21;
  const crypto::OracleSuite oracles(seed);
  Rng rng(seed);

  const std::size_t n_good = 512;
  const std::uint64_t tau = pow::tau_for_expected_attempts(30.0);
  const auto good_solutions =
      pow::solve_real_batch(oracles, n_good, /*r=*/0x99, tau, 10000, rng);
  ASSERT_EQ(good_solutions.size(), n_good);

  std::vector<ids::RingPoint> good_pts;
  good_pts.reserve(n_good);
  for (const auto& s : good_solutions) good_pts.emplace_back(s.id);
  const auto bad_pts = pow::PuzzleOracle::draw_ids(25, rng);

  auto pop = std::make_shared<const core::Population>(
      core::Population::from_points(good_pts, bad_pts));
  EXPECT_NEAR(pop->bad_fraction(), 25.0 / 537.0, 1e-9);

  core::Params params;
  params.n = pop->size();
  params.seed = seed;
  auto graph = core::GroupGraph::pristine(params, pop, oracles.h1);
  Rng probe(22);
  const auto rob = core::measure_robustness(graph, 4000, probe);
  EXPECT_GT(rob.search_success, 0.97);
}

TEST(Integration, KeyValueStoreOverGroups) {
  // Store keys at their responsible groups; retrieval = secure search.
  const std::uint64_t seed = 23;
  core::Params params;
  params.n = 1024;
  params.beta = 0.05;
  params.seed = seed;
  core::EpochBuilder builder(params);
  Rng rng(seed);
  const core::EpochGraphs graphs = builder.initial(rng);

  // "Store": map each key to the leader index owning it.
  std::unordered_map<std::uint64_t, std::size_t> store;
  std::vector<ids::RingPoint> keys;
  for (int i = 0; i < 500; ++i) {
    const ids::RingPoint key{rng.u64()};
    keys.push_back(key);
    store[key.raw()] = graphs.pop->table().successor_index(key);
  }

  // "Retrieve": dual search must land on the stored owner.
  std::size_t retrieved = 0;
  for (const auto key : keys) {
    const std::size_t start = rng.below(params.n);
    const auto out = core::dual_secure_search(*graphs.g1, *graphs.g2,
                                              start, key);
    if (out.success) {
      ++retrieved;
      // The H route terminates at the responsible leader.
      const auto route = graphs.g1->topology().route(start, key);
      EXPECT_EQ(route.path.back(), store[key.raw()]);
    }
  }
  // epsilon-robustness: all but a vanishing fraction retrievable.
  EXPECT_GT(retrieved, 490u);
}

TEST(Integration, ComputePlatformJobCorrectness) {
  // Run one job per group; the fraction of corrupted jobs must match
  // the majority-bad group fraction (the paper's o(1) error rate).
  const std::uint64_t seed = 25;
  core::Params params;
  params.n = 2048;
  params.beta = 0.1;
  params.seed = seed;
  core::EpochBuilder builder(params);
  Rng rng(seed);
  const core::EpochGraphs graphs = builder.initial(rng);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < graphs.g1->size(); ++i) {
    const auto result =
        bft::execute_job(graphs.g1->group(i), graphs.g1->member_pool(),
                         rng.u64());
    correct += result.correct;
  }
  const double correct_frac =
      static_cast<double>(correct) / static_cast<double>(graphs.g1->size());
  EXPECT_GT(correct_frac, 0.99);
  EXPECT_NEAR(1.0 - correct_frac, graphs.g1->majority_bad_fraction(), 0.01);
}

TEST(Integration, EpochTurnoverPreservesRetrievability) {
  // Keys stored before an epoch turnover remain retrievable after it
  // (new owners, same key space).
  const std::uint64_t seed = 27;
  core::Params params;
  params.n = 512;
  params.beta = 0.05;
  params.seed = seed;
  params.overlay_kind = overlay::Kind::debruijn;
  core::EpochBuilder builder(params);
  Rng rng(seed);
  core::EpochGraphs graphs = builder.initial(rng);

  std::vector<ids::RingPoint> keys;
  for (int i = 0; i < 200; ++i) keys.emplace_back(rng.u64());

  graphs = builder.build_next(graphs, rng, nullptr);
  std::size_t retrievable = 0;
  for (const auto key : keys) {
    const auto out = core::dual_secure_search(*graphs.g1, *graphs.g2,
                                              rng.below(graphs.g1->size()), key);
    retrievable += out.success;
  }
  EXPECT_GT(retrievable, 195u);
}

TEST(Integration, CredentialLifecycleAcrossEpochs) {
  // String lottery -> solve puzzle signed by the winning string ->
  // credential verifies this epoch, expires next epoch.
  const std::uint64_t seed = 29;
  const crypto::OracleSuite oracles(seed);
  Rng rng(seed);

  const auto adj = pow::make_gossip_topology(128, 6, rng);
  pow::GossipParams gp;
  gp.nodes = 128;
  const auto epoch_i = pow::run_string_protocol(adj, gp, {}, rng);
  ASSERT_TRUE(epoch_i.agreement);

  // Reconstruct a solution set holding the epoch's winning string.
  pow::BinTable table(40, 100);
  const pow::LotteryString winner{epoch_i.global_minimum, 0, 7777};
  ASSERT_TRUE(table.accept(winner));
  const auto r_set = table.solution_set(8);

  const pow::PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = pow::tau_for_expected_attempts(100.0);
  const std::uint64_t r_tag = pow::string_tag(winner);
  const auto sol = solver.solve(r_tag, tau, 100000, rng);
  ASSERT_TRUE(sol.has_value());

  const auto cred = pow::make_credential(*sol, winner, r_tag, tau, rng.u64());
  EXPECT_TRUE(pow::verify_credential(cred, r_set));

  // Next epoch: fresh lottery, fresh solution sets; the old credential
  // is rejected (ID expiry, Section IV-A).
  const auto epoch_next = pow::run_string_protocol(adj, gp, {}, rng);
  pow::BinTable next_table(40, 100);
  EXPECT_TRUE(next_table.accept({epoch_next.global_minimum, 1, 8888}));
  EXPECT_FALSE(pow::verify_credential(cred, next_table.solution_set(8)));
}

TEST(Integration, StateCostScalesWithGroupSizeNotN) {
  // Corollary 1's state claim, end to end: growing n 4x leaves the
  // per-ID state nearly flat (it tracks (log log n)^2, not log n).
  core::Params small;
  small.n = 1024;
  small.seed = 31;
  small.overlay_kind = overlay::Kind::debruijn;
  core::Params large = small;
  large.n = 4096;

  Rng rng_a(31), rng_b(31);
  core::EpochBuilder ba(small), bb(large);
  const auto ga = ba.initial(rng_a);
  const auto gb = bb.initial(rng_b);
  const auto sa = core::measure_state_cost(*ga.g1);
  const auto sb = core::measure_state_cost(*gb.g1);
  EXPECT_LT(sb.member_links.mean(), 1.6 * sa.member_links.mean());
}

}  // namespace
}  // namespace tg
