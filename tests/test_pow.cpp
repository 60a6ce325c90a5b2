// Tests for the PoW machinery (Section IV): puzzles, ID generation
// (Lemma 11), bins/counters, the string gossip protocol (Lemma 12),
// and ID credential verification.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dispatch_seams.hpp"
#include "pow/epoch_string.hpp"
#include "pow/gossip.hpp"
#include "pow/id_generation.hpp"
#include "pow/puzzle.hpp"
#include "pow/verification.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace tg::pow {
namespace {

TEST(Puzzle, TauCalibration) {
  EXPECT_EQ(tau_for_expected_attempts(0.5), ~0ULL);
  const std::uint64_t tau = tau_for_expected_attempts(1000.0);
  EXPECT_NEAR(attempt_success_probability(tau), 1e-3, 1e-6);
}

TEST(Puzzle, RealSolverFindsSolutions) {
  const crypto::OracleSuite oracles(1);
  const PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = tau_for_expected_attempts(100.0);
  Rng rng(2);
  std::size_t solved = 0;
  RunningStats attempts;
  for (int i = 0; i < 30; ++i) {
    if (const auto s = solver.solve(0xbeef, tau, 10000, rng)) {
      ++solved;
      attempts.add(static_cast<double>(s->attempts));
      // Solution satisfies the public relation.
      EXPECT_LE(s->g_output, tau);
      EXPECT_TRUE(solver.check(s->sigma, 0xbeef, tau));
      EXPECT_EQ(solver.evaluate(s->sigma, 0xbeef).id, s->id);
    }
  }
  EXPECT_EQ(solved, 30u);
  EXPECT_NEAR(attempts.mean(), 100.0, 60.0);  // geometric mean ~ 100
}

TEST(Puzzle, SolveBatchMatchesSequentialSolve) {
  // The batched, lane-interleaved attempt-stream path is an
  // optimization only: with the same rng fork order it must produce
  // byte-identical solutions to one solve() call per machine — under
  // EVERY forcible hash-kernel dispatch combination (scalar, SHA-NI,
  // and each multi-lane tier; seams are no-ops without the hardware).
  const crypto::OracleSuite oracles(17);
  const PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = tau_for_expected_attempts(200.0);

  Rng rng_seq(99);
  std::vector<Solution> sequential;
  for (std::size_t i = 0; i < 32; ++i) {
    Rng machine_rng = rng_seq.fork();
    if (const auto s = solver.solve(0x5151, tau, 4096, machine_rng)) {
      sequential.push_back(*s);
    }
  }
  ASSERT_FALSE(sequential.empty());

  const crypto::seams::DispatchGuard guard;
  crypto::seams::for_each_dispatch([&](int combo) {
    Rng rng_batch(99);
    const auto batched = solver.solve_batch(0x5151, tau, 32, 4096, rng_batch);

    ASSERT_EQ(batched.size(), sequential.size()) << "combo=" << combo;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].sigma, sequential[i].sigma) << "combo=" << combo;
      EXPECT_EQ(batched[i].g_output, sequential[i].g_output)
          << "combo=" << combo;
      EXPECT_EQ(batched[i].id, sequential[i].id) << "combo=" << combo;
      EXPECT_EQ(batched[i].attempts, sequential[i].attempts)
          << "combo=" << combo;
    }
  });
}

TEST(Puzzle, SolveBatchEdgeCases) {
  const crypto::OracleSuite oracles(18);
  const PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = tau_for_expected_attempts(10.0);
  Rng rng(5);
  EXPECT_TRUE(solver.solve_batch(1, tau, 0, 100, rng).empty());
  EXPECT_TRUE(solver.solve_batch(1, tau, 8, 0, rng).empty());
  // Machine counts straddling the lane-group width, incl. ragged tails.
  for (const std::size_t machines : {1u, 3u, 15u, 16u, 17u, 33u}) {
    Rng seq_rng(41);
    std::vector<Solution> sequential;
    for (std::size_t i = 0; i < machines; ++i) {
      Rng machine_rng = seq_rng.fork();
      if (const auto s = solver.solve(0x77, tau, 64, machine_rng)) {
        sequential.push_back(*s);
      }
    }
    Rng batch_rng(41);
    const auto batched = solver.solve_batch(0x77, tau, machines, 64, batch_rng);
    ASSERT_EQ(batched.size(), sequential.size()) << "machines=" << machines;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].sigma, sequential[i].sigma)
          << "machines=" << machines;
      EXPECT_EQ(batched[i].attempts, sequential[i].attempts)
          << "machines=" << machines;
    }
  }
}

TEST(Puzzle, SolutionInvalidUnderDifferentEpochString) {
  const crypto::OracleSuite oracles(3);
  const PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = tau_for_expected_attempts(50.0);
  Rng rng(4);
  const auto s = solver.solve(111, tau, 100000, rng);
  ASSERT_TRUE(s.has_value());
  // The same sigma almost surely fails against a different r — this is
  // ID expiry (Section IV-A).
  EXPECT_FALSE(solver.check(s->sigma, 222, tau));
}

TEST(Puzzle, OracleCountMatchesBinomialMean) {
  Rng rng(5);
  const std::uint64_t tau = tau_for_expected_attempts(1000.0);
  RunningStats counts;
  for (int i = 0; i < 3000; ++i) {
    counts.add(static_cast<double>(
        PuzzleOracle::solution_count(100000, tau, rng)));
  }
  EXPECT_NEAR(counts.mean(), 100.0, 1.0);
}

TEST(IdGeneration, CalibratedTauTargetsHalfEpochPerSubPuzzle) {
  GenerationConfig cfg;
  cfg.half_epoch_steps = 1 << 12;
  cfg.attempts_per_step = 8;
  const std::uint64_t tau = calibrate_tau(cfg);
  // K sub-solutions expected over the half epoch.
  EXPECT_NEAR(attempt_success_probability(tau) *
                  static_cast<double>(cfg.half_epoch_steps) *
                  static_cast<double>(cfg.attempts_per_step),
              static_cast<double>(cfg.sub_puzzles),
              0.01 * static_cast<double>(cfg.sub_puzzles));
}

TEST(IdGeneration, Lemma11CountWithinBound) {
  GenerationConfig cfg;
  cfg.n = 4096;
  cfg.beta = 0.1;
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const GenerationReport rep = simulate_generation(cfg, rng);
    EXPECT_TRUE(rep.within_bound)
        << "adv=" << rep.adversary_ids << " bound=" << rep.adversary_bound;
    // Puzzle composition concentrates solve times: essentially every
    // good machine completes within the (1+eps) window.
    EXPECT_GT(rep.good_ids, static_cast<std::size_t>(
                                0.9 * (1.0 - cfg.beta) *
                                static_cast<double>(cfg.n)));
  }
}

TEST(IdGeneration, AdversaryMeanMatchesBetaN) {
  GenerationConfig cfg;
  cfg.n = 8192;
  cfg.beta = 0.1;
  Rng rng(61);
  RunningStats counts;
  for (int trial = 0; trial < 30; ++trial) {
    counts.add(static_cast<double>(simulate_generation(cfg, rng).adversary_ids));
  }
  // Lemma 11's mean: beta * n IDs per half-epoch of adversary compute.
  EXPECT_NEAR(counts.mean(), cfg.beta * static_cast<double>(cfg.n),
              0.05 * cfg.beta * static_cast<double>(cfg.n));
}

TEST(IdGeneration, Lemma11AdversaryIdsUniform) {
  GenerationConfig cfg;
  cfg.n = 1 << 14;
  cfg.beta = 0.2;  // plenty of adversary IDs for the KS test
  Rng rng(7);
  std::vector<double> positions;
  for (int trial = 0; trial < 20; ++trial) {
    const auto rep = simulate_generation(cfg, rng);
    positions.insert(positions.end(), rep.adversary_positions.begin(),
                     rep.adversary_positions.end());
  }
  ASSERT_GT(positions.size(), 1000u);
  EXPECT_LT(ks_statistic_uniform(positions),
            ks_critical_value(positions.size(), 0.01));
}

TEST(IdGeneration, RealBatchEndToEnd) {
  const crypto::OracleSuite oracles(8);
  Rng rng(9);
  const auto solutions = solve_real_batch(
      oracles, 10, /*r=*/0xabc, tau_for_expected_attempts(200.0), 40000, rng);
  EXPECT_EQ(solutions.size(), 10u);
  // IDs should look uniform-ish (no clustering in a half).
  std::size_t low = 0;
  for (const auto& s : solutions) low += (s.id < ids::kHalfRing);
  EXPECT_GT(low, 0u);
  EXPECT_LT(low, 10u);
}

// --- Bins and counters ---

TEST(Bins, BinOfBoundaries) {
  EXPECT_EQ(bin_of(0.6, 40), 1u);     // [1/2, 1)
  EXPECT_EQ(bin_of(0.5, 40), 1u);     // exactly 2^-1
  EXPECT_EQ(bin_of(0.3, 40), 2u);     // [1/4, 1/2)
  EXPECT_EQ(bin_of(0.25, 40), 2u);
  EXPECT_EQ(bin_of(1e-30, 40), 40u);  // clamps to max bin
  EXPECT_EQ(bin_of(0.0, 40), 40u);
}

TEST(Bins, BinOfClampsEveryDouble) {
  // Outputs >= 1 go to bin 1; zero, negatives and NaN to the deepest.
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double top : {1.0, 4.0, 1e300, inf}) {
    EXPECT_EQ(bin_of(top, 45), 1u) << top;
  }
  for (const double deepest :
       {std::numeric_limits<double>::denorm_min(), -1.0, -inf, nan}) {
    EXPECT_EQ(bin_of(deepest, 45), 45u) << deepest;
  }
  EXPECT_EQ(bin_of(4.0, 0), 0u);  // a table without bins
  EXPECT_EQ(bin_of(0.3, 0), 0u);
}

TEST(BinTable, RetainsBoundedMinSetPerBin) {
  BinTable table(10, 2);
  EXPECT_TRUE(table.accept({0.6, 0, 1}));
  EXPECT_TRUE(table.accept({0.7, 0, 2}));   // bin not full yet
  EXPECT_FALSE(table.accept({0.8, 0, 3}));  // full, and larger than max
  EXPECT_TRUE(table.accept({0.55, 0, 4}));  // evicts 0.7
  EXPECT_FALSE(table.accept({0.55, 0, 4})); // duplicate delivery ignored
  EXPECT_TRUE(table.accept({0.3, 0, 5}));   // different bin
  EXPECT_EQ(table.minimum().value().output, 0.3);
}

TEST(BinTable, SpamCannotEvictSmallStrings) {
  BinTable table(10, 3);
  ASSERT_TRUE(table.accept({0.51, 0, 1}));  // the genuine minimum of bin 1
  // Adversarial spam of larger same-bin strings.
  std::uint32_t uid = 10;
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    accepted += table.accept({0.9 - 0.001 * i, 0, uid++});
  }
  EXPECT_LE(accepted, 20);
  // The minimum survives regardless of spam volume.
  EXPECT_EQ(table.minimum().value().uid, 1u);
  const auto rset = table.solution_set(1);
  ASSERT_EQ(rset.size(), 1u);
  EXPECT_EQ(rset[0].uid, 1u);
}

TEST(BinTable, SolutionSetCollectsSmallestFirst) {
  BinTable table(20, 100);
  EXPECT_TRUE(table.accept({0.6, 0, 1}));
  EXPECT_TRUE(table.accept({0.3, 0, 2}));
  EXPECT_TRUE(table.accept({0.01, 0, 3}));
  EXPECT_TRUE(table.accept({0.001, 0, 4}));
  const auto rset = table.solution_set(3);
  ASSERT_EQ(rset.size(), 3u);
  EXPECT_EQ(rset[0].uid, 4u);  // smallest output first
  EXPECT_EQ(rset[1].uid, 3u);
  EXPECT_EQ(rset[2].uid, 2u);
}

TEST(BinTable, MinimumEmptyIsNull) {
  BinTable table(5, 5);
  EXPECT_FALSE(table.minimum().has_value());
}

TEST(BinTable, OutputAboveOneIsNeverTheMinimum) {
  BinTable table(45, 2);
  EXPECT_TRUE(table.accept({1e-4, 0, 1}));
  EXPECT_TRUE(table.accept({4.0, 0, 2}));  // bin 1, not the deepest bin
  EXPECT_EQ(table.minimum().value().uid, 1u);
  const auto rset = table.solution_set(1);
  ASSERT_EQ(rset.size(), 1u);
  EXPECT_EQ(rset[0].uid, 1u);
}

TEST(BinTable, ZeroCapRetainsNothing) {
  BinTable table(10, 0);
  EXPECT_FALSE(table.accept({0.3, 0, 1}));
  EXPECT_FALSE(table.accept({1e-9, 0, 2}));
  EXPECT_FALSE(table.minimum().has_value());
  EXPECT_TRUE(table.solution_set(4).empty());
}

// --- Gossip protocol (Lemma 12) ---

TEST(Gossip, TopologyIsConnectedAndSymmetric) {
  Rng rng(10);
  const auto adj = make_gossip_topology(256, 6, rng);
  ASSERT_EQ(adj.size(), 256u);
  for (std::size_t i = 0; i < adj.size(); ++i) {
    EXPECT_GE(adj[i].size(), 2u);
    for (const auto nb : adj[i]) {
      const auto& back = adj[nb];
      EXPECT_NE(std::find(back.begin(), back.end(),
                          static_cast<std::uint32_t>(i)),
                back.end());
    }
  }
}

TEST(Gossip, TopologyDrawsArePinned) {
  // Golden hash of the rows plus the next draw: any rewrite of the
  // builder must keep both the rng.below draws and the sorted rows.
  Rng rng(2024);
  const auto adj = make_gossip_topology(200, 7, rng);
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& row : adj) {
    mix(row.size());
    for (const auto nb : row) mix(nb);
  }
  mix(rng.u64());
  EXPECT_EQ(h, 0x70bef77fced148a3ull);
}

TEST(Gossip, TopologyDegreeAtLeastNodesIsComplete) {
  // A node has at most nodes-1 neighbours: asking for more yields K_n.
  for (const auto& [nodes, degree] :
       {std::pair<std::size_t, std::size_t>{8, 13}, {13, 13}, {3, 3},
        {2, 5}}) {
    Rng rng(nodes);
    const auto adj = make_gossip_topology(nodes, degree, rng);
    ASSERT_EQ(adj.size(), nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      std::vector<std::uint32_t> others;
      for (std::uint32_t j = 0; j < nodes; ++j) {
        if (j != i) others.push_back(j);
      }
      EXPECT_EQ(adj[i], others) << nodes << " nodes, degree " << degree;
    }
  }
}

TEST(Gossip, GlobalMinimumCoversNodesPastADisagreement) {
  // Two disconnected 4-cliques; a 1e-12 string released at node 5
  // wins the second clique only, so agreement fails at node 0 — and
  // the network-wide minimum is still the released string.
  std::vector<std::vector<std::uint32_t>> adj(8);
  for (std::uint32_t a = 0; a < 8; ++a) {
    for (std::uint32_t b = 0; b < 8; ++b) {
      if (a != b && a / 4 == b / 4) adj[a].push_back(b);
    }
  }
  GossipParams params;
  params.nodes = 8;
  Rng rng(3);
  const GossipOutcome out =
      run_string_protocol(adj, params, {{1e-12, 0, 5}}, rng);
  EXPECT_FALSE(out.agreement);
  EXPECT_EQ(out.global_minimum, 1e-12);
}

TEST(Gossip, AdjacencyNamingNoNodeThrows) {
  Rng rng(4);
  EXPECT_THROW((void)run_string_protocol({{1}, {2}}, GossipParams{}, {}, rng),
               std::out_of_range);
}

TEST(Gossip, ReleaseOutputOutsideUnitIntervalThrows) {
  // LotteryString outputs lie in [0, 1); every release is checked,
  // including one whose step lies past the run.
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<std::uint32_t>> adj = {{1}, {0}};
  for (const double bad : {-1e-300, 1.0, 4.0, inf, -inf,
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::size_t step : {std::size_t{0}, std::size_t{1000}}) {
      Rng rng(5);
      EXPECT_THROW((void)run_string_protocol(adj, GossipParams{},
                                             {{bad, step, 0}}, rng),
                   std::invalid_argument)
          << bad << " at step " << step;
    }
  }
  Rng rng(5);
  EXPECT_TRUE(
      run_string_protocol(adj, GossipParams{}, {{0.0, 0, 1}}, rng).agreement);
}

TEST(Gossip, NonFiniteOrNegativeMultipliersThrow) {
  // d', c0, d0 and b are cast to step, cap, set and bin counts; a
  // value the cast cannot take is refused before any draw.
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<std::uint32_t>> adj = {{1}, {0}};
  for (double GossipParams::*field :
       {&GossipParams::d_prime, &GossipParams::c0, &GossipParams::d0,
        &GossipParams::b}) {
    for (const double bad : {-1.0, -1e-300, inf, -inf,
                             std::numeric_limits<double>::quiet_NaN()}) {
      GossipParams params;
      params.phase2_steps = 4;  // d' = bad must not pass as "no Phase 2"
      params.*field = bad;
      Rng rng(5);
      const std::uint64_t next = Rng(5).u64();
      EXPECT_THROW((void)run_string_protocol(adj, params, {}, rng),
                   std::invalid_argument)
          << bad;
      EXPECT_EQ(rng.u64(), next) << bad;
    }
  }
  // Zero is a valid multiplier wherever a step count is still set.
  GossipParams zero;
  zero.phase2_steps = 2;
  zero.d_prime = zero.c0 = zero.d0 = zero.b = 0.0;
  Rng rng(5);
  EXPECT_NO_THROW((void)run_string_protocol(adj, zero, {}, rng));
}

TEST(Gossip, NoPhase2StepThrows) {
  // Nodes select at the end of Phase 2; with no step none would, and
  // agreement would ask whether uid 0 is held everywhere.
  const std::vector<std::vector<std::uint32_t>> adj = {{1}, {0}};
  GossipParams params;
  params.d_prime = 0.0;
  params.phase2_steps = 0;
  params.phase3_steps = 8;
  Rng rng(5);
  EXPECT_THROW((void)run_string_protocol(adj, params, {}, rng),
               std::invalid_argument);
  params.phase2_steps = 1;
  EXPECT_NO_THROW((void)run_string_protocol(adj, params, {}, rng));
}

TEST(Gossip, NoAdversaryReachesAgreement) {
  Rng rng(11);
  const auto adj = make_gossip_topology(512, 8, rng);
  GossipParams params;
  params.nodes = 512;
  const GossipOutcome out = run_string_protocol(adj, params, {}, rng);
  EXPECT_TRUE(out.agreement);
  // Lemma 12(ii): solution sets are Theta(ln n).
  const double ln_n = std::log(512.0);
  EXPECT_LE(out.max_solution_set, static_cast<std::size_t>(4.0 * ln_n));
  EXPECT_GT(out.mean_solution_set, 1.0);
  EXPECT_GT(out.forward_events, 0u);
  EXPECT_LT(out.global_minimum, 1e-3);  // min of ~512*2^16 draws is tiny
}

TEST(Gossip, LateReleaseAbsorbedByPhase3) {
  Rng rng(12);
  const auto adj = make_gossip_topology(512, 8, rng);
  GossipParams params;
  params.nodes = 512;
  const double ln_n = std::log(512.0);
  const auto phase2 = static_cast<std::size_t>(std::ceil(params.d_prime * ln_n));
  std::vector<LateRelease> attacks;
  for (std::uint32_t i = 0; i < 8; ++i) {
    attacks.push_back({1e-12 / (i + 1), phase2 - 1, static_cast<std::uint32_t>(i * 37)});
  }
  const GossipOutcome out = run_string_protocol(adj, params, attacks, rng);
  // The adversary's tiny strings win the lottery but CANNOT cause
  // disagreement: whoever selected them still has Phase 3 to flood.
  EXPECT_TRUE(out.agreement);
  EXPECT_LT(out.global_minimum, 1e-11);
}

TEST(Gossip, MessageBoundIsNearLinear) {
  Rng rng(13);
  GossipParams params;
  std::uint64_t msgs_small = 0, msgs_large = 0;
  {
    const auto adj = make_gossip_topology(256, 6, rng);
    params.nodes = 256;
    msgs_small = run_string_protocol(adj, params, {}, rng).forward_events;
  }
  {
    const auto adj = make_gossip_topology(1024, 6, rng);
    params.nodes = 1024;
    msgs_large = run_string_protocol(adj, params, {}, rng).forward_events;
  }
  // Lemma 12(iii): ~ n polylog n — 4x nodes must cost << 16x messages.
  EXPECT_LT(msgs_large, 10 * msgs_small);
  EXPECT_GT(msgs_large, msgs_small);
}

/// FNV-1a over a whole GossipOutcome plus the rng's next draw.
std::uint64_t outcome_digest(const GossipOutcome& out, Rng& rng) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v :
       {std::uint64_t{out.agreement},
        std::bit_cast<std::uint64_t>(out.mean_solution_set),
        std::uint64_t{out.max_solution_set}, out.forward_events,
        std::uint64_t{out.steps_run},
        std::bit_cast<std::uint64_t>(out.global_minimum), rng.u64()}) {
    h ^= v;
    h *= 1099511628211ull;
  }
  return h;
}

/// One flood on make_gossip_topology(n, 8): late releases at nodes 0,
/// 63, 64 and n - 1 (those past n never fire), at step 0 and at the
/// last Phase-2 step, two of them at one (node, step).  `tight` shrinks
/// bins and counters so most first sightings are rejected or evict.
std::uint64_t pinned_flood(std::size_t n, bool tight) {
  Rng rng(4000 + n);
  const auto adj = make_gossip_topology(n, 8, rng);
  GossipParams params;
  params.nodes = n;
  params.phase1_attempts = 1 << 12;
  if (tight) {
    params.c0 = 0.5;
    params.b = 0.5;
  }
  const auto phase2 = static_cast<std::size_t>(std::ceil(
      params.d_prime *
      std::log(static_cast<double>(std::max<std::size_t>(n, 3)))));
  const auto last = static_cast<std::uint32_t>(n - 1);
  const std::vector<LateRelease> attacks = {
      {1e-12, 0, 0},
      {3e-12, phase2 - 1, 63},
      {0.3, 0, 64},
      {2e-12, phase2 - 1, last},
      {5e-13, phase2 - 1, last},
      {0.01, 0, 63},
      {4e-12, phase2 - 1, 64},
  };
  const GossipOutcome out = run_string_protocol(adj, params, attacks, rng);
  return outcome_digest(out, rng);
}

TEST(Gossip, FloodsArePinned) {
  // Recorded before the flood's destination loop moved onto the pool:
  // n = 63, 64, 65 and 130 sit on either side of the block edges at
  // 64 and 128.
  struct Case {
    std::size_t n;
    std::uint64_t pin, tight_pin;
  };
  const Case cases[] = {
      {1, 0x6efc7f7cfb8365b7ull, 0xf68f15e13084a1f1ull},
      {63, 0xf470ff86e18beda6ull, 0x920739c74e2b9cafull},
      {64, 0xc92323a531db0176ull, 0x2b89e3f07e1aa911ull},
      {65, 0x7c5c0730b852c698ull, 0x3fc4bf6d678b6a95ull},
      {130, 0x812295e3ec0772a2ull, 0xb64c05a8e0d00a58ull},
      {1000, 0xdef2bf0d61ddb592ull, 0x8b64e8af66cb75c4ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(pinned_flood(c.n, false), c.pin) << "n=" << c.n;
    EXPECT_EQ(pinned_flood(c.n, true), c.tight_pin) << "tight n=" << c.n;
  }
}

TEST(Gossip, PoolAndInlineFloodsAgree) {
  // A fan-out nested in pool work runs inline: the flood run inside
  // parallel_for(1, ...) is the one-thread reference for the same
  // flood run from the main thread across the whole pool.
  const auto run = [] {
    return std::pair{pinned_flood(1000, false), pinned_flood(1000, true)};
  };
  const auto outside = run();
  std::pair<std::uint64_t, std::uint64_t> inside;
  ThreadPool::global().parallel_for(1, [&](std::size_t) { inside = run(); });
  EXPECT_EQ(inside, outside);
}

// --- ID credentials ---

TEST(Credential, HonestAcceptForgedReject) {
  const crypto::OracleSuite oracles(14);
  const PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = tau_for_expected_attempts(50.0);
  Rng rng(15);
  const auto sol = solver.solve(0x77, tau, 100000, rng);
  ASSERT_TRUE(sol.has_value());

  const LotteryString signer{1e-6, 3, 42};
  const std::vector<LotteryString> r_set = {{0.5, 1, 7}, signer, {0.2, 2, 9}};

  const auto honest = make_credential(*sol, signer, 0x77, tau, rng.u64());
  EXPECT_TRUE(verify_credential(honest, r_set));

  const auto forged = forge_credential(0xdeadbeef, signer, 0x77, tau);
  EXPECT_FALSE(verify_credential(forged, r_set));
}

TEST(Credential, ExpiredStringRejected) {
  const crypto::OracleSuite oracles(16);
  const PuzzleSolver solver(oracles.f, oracles.g);
  const std::uint64_t tau = tau_for_expected_attempts(50.0);
  Rng rng(17);
  const auto sol = solver.solve(0x88, tau, 100000, rng);
  ASSERT_TRUE(sol.has_value());

  const LotteryString old_epoch_string{1e-6, 3, 42};
  const auto cred =
      make_credential(*sol, old_epoch_string, 0x88, tau, rng.u64());
  // Verifier's solution set is from the NEXT epoch: the signing string
  // is absent, so the ID has expired.
  const std::vector<LotteryString> fresh_r_set = {{0.4, 1, 100}, {0.1, 2, 101}};
  EXPECT_FALSE(verify_credential(cred, fresh_r_set));
}

TEST(Credential, StringTagsDistinguishStrings) {
  EXPECT_NE(string_tag({0.5, 1, 2}), string_tag({0.5, 1, 3}));
  EXPECT_NE(string_tag({0.5, 1, 2}), string_tag({0.25, 1, 2}));
  EXPECT_EQ(string_tag({0.5, 1, 2}), string_tag({0.5, 1, 2}));
}

}  // namespace
}  // namespace tg::pow
