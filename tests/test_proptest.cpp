// Tests OF the property harness itself: generator determinism, the
// env-var replay contract (TG_PROP_SEED / TG_PROP_ITERS /
// TG_PROP_ARTIFACT_DIR), shrinker convergence to known minimal cases,
// byte-identical failure-report replay, failing-seed artifacts — and
// the acceptance end-to-end: a divergence injected into an epoch
// equivalence property is caught, shrunk to the minimal world, and
// reproduced bit-identically from TG_PROP_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/group_graph.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "crypto/oracle.hpp"
#include "proptest_domains.hpp"
#include "proptest_gtest.hpp"

namespace tg::proptest {
namespace {

/// Scoped environment override (restores the previous value, or
/// unsets, on destruction) — the harness reads its env per check()
/// call, so scoping the variable scopes the behavior.
class ScopedEnv {
 public:
  /// value == nullptr unsets the variable for the scope.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

/// Options for intentionally-failing checks: no artifact spam.
Options quiet(std::size_t iters = 20) {
  Options opt;
  opt.iters = iters;
  opt.write_seed_file = false;
  return opt;
}

/// Clears the harness env vars for tests whose expectations (exact
/// iteration counts, multi-case sweeps) an ambient TG_PROP_SEED /
/// TG_PROP_ITERS — e.g. someone replaying a different property in this
/// binary — would otherwise distort.
struct CleanPropEnv {
  ScopedEnv seed{"TG_PROP_SEED", nullptr};
  ScopedEnv iters{"TG_PROP_ITERS", nullptr};
};

// ---------- Source / generator determinism ----------

TEST(PropSource, RecordsAndReplays) {
  Source rec(42);
  const std::uint64_t a = rec.draw();
  const std::uint64_t b = rec.below(1000);
  ASSERT_EQ(rec.consumed().size(), 2u);

  Source replay(std::span<const std::uint64_t>(rec.consumed()));
  EXPECT_EQ(replay.draw(), a);
  EXPECT_EQ(replay.below(1000), b);
  // Past the tape end a replay source serves zeros.
  EXPECT_EQ(replay.draw(), 0u);
  EXPECT_EQ(replay.consumed().size(), 3u);
}

TEST(PropGen, DeterministicPerSeed) {
  const auto gen = tuple_of(u64(), in_range(10, 99), boolean());
  Source a(7), b(7), c(8);
  EXPECT_EQ(gen.run(a), gen.run(b));
  EXPECT_NE(gen.run(c), [&] { Source d(7); return gen.run(d); }());
}

TEST(PropGen, BoundsRespected) {
  Source src(3);
  for (int i = 0; i < 200; ++i) {
    const auto v = in_range(5, 9).run(src);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
  const auto vec = vector_of(below(10), 2, 6).run(src);
  EXPECT_GE(vec.size(), 2u);
  EXPECT_LE(vec.size(), 6u);
  for (const auto v : vec) EXPECT_LT(v, 10u);
}

TEST(PropGen, ZeroTapeYieldsMinimalValues) {
  // The shrinker's fixed point: an all-zero tape must decode to every
  // generator's smallest / most-default value.
  const std::uint64_t zeros[4] = {0, 0, 0, 0};
  Source a{std::span<const std::uint64_t>(zeros)};
  EXPECT_EQ(in_range(32, 96).run(a), 32u);
  Source b{std::span<const std::uint64_t>(zeros)};
  EXPECT_FALSE(boolean().run(b));
  Source c{std::span<const std::uint64_t>(zeros)};
  EXPECT_TRUE(vector_of(u64(), 0, 8).run(c).empty());
}

TEST(PropDomains, ZeroTapeSeamConfigIsTheDefaultConfiguration) {
  const std::uint64_t zeros[8] = {};
  Source src{std::span<const std::uint64_t>(zeros)};
  const auto c = proptest_domains::seam_config().run(src);
  EXPECT_EQ(c.kernel_combo, 15);
  EXPECT_EQ(c.threads, 1u);
  EXPECT_EQ(c.describe(), "kernels=15 threads=1");
}

// ---------- check(): iteration & env contract ----------

TEST(PropCheck, TautologyPassesAndRunsExactlyTheBaseCount) {
  const CleanPropEnv clean;
  std::size_t runs = 0;
  Options opt = quiet(37);
  const auto failure = check<std::uint64_t>(
      "tautology", u64(), [&](const std::uint64_t&) { return ++runs, true; },
      opt);
  EXPECT_FALSE(failure.has_value());
  EXPECT_EQ(runs, 37u);
}

TEST(PropCheck, ItersEnvMultipliesTheBaseCount) {
  const CleanPropEnv clean;
  const ScopedEnv iters("TG_PROP_ITERS", "3");
  std::size_t runs = 0;
  (void)check<std::uint64_t>(
      "iters-scaled", u64(), [&](const std::uint64_t&) { return ++runs, true; },
      quiet(10));
  EXPECT_EQ(runs, 30u);
}

TEST(PropCheck, FractionalItersEnvShrinksButNeverBelowOne) {
  const CleanPropEnv clean;
  {
    const ScopedEnv iters("TG_PROP_ITERS", "0.2");
    std::size_t runs = 0;
    (void)check<std::uint64_t>(
        "iters-frac", u64(), [&](const std::uint64_t&) { return ++runs, true; },
        quiet(10));
    EXPECT_EQ(runs, 2u);
  }
  {
    const ScopedEnv iters("TG_PROP_ITERS", "0.0001");
    std::size_t runs = 0;
    (void)check<std::uint64_t>(
        "iters-floor", u64(),
        [&](const std::uint64_t&) { return ++runs, true; }, quiet(10));
    EXPECT_EQ(runs, 1u);
  }
}

TEST(PropCheck, SeedEnvRunsExactlyOneCaseWithThatSeed) {
  const CleanPropEnv clean;
  const ScopedEnv seed("TG_PROP_SEED", "0x1234");
  Options opt = quiet(50);
  opt.max_shrink_evals = 0;  // so `runs` counts cases, not shrink evals
  std::size_t runs = 0;
  const auto failure = check<std::uint64_t>(
      "seed-replay", u64(),
      [&](const std::uint64_t&) { return ++runs, false; }, opt);
  EXPECT_EQ(runs, 1u);  // one case despite iters=50: the forced seed
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->case_seed, 0x1234u);
  EXPECT_NE(failure->report.find("0x0000000000001234"), std::string::npos);

  // A passing property under a forced seed also runs exactly once.
  runs = 0;
  const auto ok = check<std::uint64_t>(
      "seed-pass", u64(), [&](const std::uint64_t&) { return ++runs, true; },
      quiet(50));
  EXPECT_FALSE(ok.has_value());
  EXPECT_EQ(runs, 1u);
}

// ---------- Shrinker convergence (satellite: known minimal seeds) ----------

TEST(PropShrink, ConvergesToTheExactThresholdBoundary) {
  // fails iff v >= 1000: the minimal failing case is exactly 1000, and
  // the per-word bisection must land on it, not merely near it.
  const CleanPropEnv clean;
  const auto failure = check<std::uint64_t>(
      "threshold", u64(), [](const std::uint64_t& v) { return v < 1000; },
      quiet());
  ASSERT_TRUE(failure.has_value());
  ASSERT_EQ(failure->minimal_tape.size(), 1u);
  EXPECT_EQ(failure->minimal_tape[0], 1000u);
  EXPECT_GT(failure->shrink_steps, 0u);
}

TEST(PropShrink, DropsIrrelevantElementsAndMinimizesTheRest) {
  // fails iff any element >= 5.  Minimal: the one-element vector {5} —
  // tape {1 (continue flag), 5}; the stop flag is an implicit zero.
  const CleanPropEnv clean;
  const auto gen = vector_of(u64(), 0, 10);
  const auto failure = check<std::vector<std::uint64_t>>(
      "any-ge-5", gen,
      [](const std::vector<std::uint64_t>& v) {
        for (const auto x : v) {
          if (x >= 5) return false;
        }
        return true;
      },
      quiet());
  ASSERT_TRUE(failure.has_value());
  const std::vector<std::uint64_t> expected{1, 5};
  EXPECT_EQ(failure->minimal_tape, expected);
}

TEST(PropShrink, RespectsTheEvalBudget) {
  const CleanPropEnv clean;
  Options opt = quiet();
  opt.max_shrink_evals = 7;
  std::size_t evals = 0;
  const auto failure = check<std::uint64_t>(
      "budget", u64(),
      [&](const std::uint64_t& v) {
        ++evals;
        return v < 1000;
      },
      opt);
  ASSERT_TRUE(failure.has_value());
  EXPECT_LE(failure->shrink_evals, 7u);
}

TEST(PropShrink, PropertyThrowingCountsAsFailure) {
  const CleanPropEnv clean;
  const auto failure = check<std::uint64_t>(
      "throws", u64(),
      [](const std::uint64_t& v) -> bool {
        if (v >= 10) throw std::runtime_error("boom");
        return true;
      },
      quiet());
  ASSERT_TRUE(failure.has_value());
  ASSERT_EQ(failure->minimal_tape.size(), 1u);
  EXPECT_EQ(failure->minimal_tape[0], 10u);
}

// ---------- Replay determinism (satellite) ----------

TEST(PropReplay, SameSeedGivesByteIdenticalFailureReports) {
  const CleanPropEnv clean;
  const auto gen = vector_of(u64(), 0, 8);
  const auto prop = [](const std::vector<std::uint64_t>& v) {
    std::uint64_t sum = 0;
    for (const auto x : v) sum += x;
    return sum < 100;
  };
  const auto show = [](const std::vector<std::uint64_t>& v) {
    std::ostringstream out;
    out << "vec[" << v.size() << "]";
    return out.str();
  };
  const auto first = check<std::vector<std::uint64_t>>(
      "replay-deterministic", gen, prop, quiet(), show);
  const auto second = check<std::vector<std::uint64_t>>(
      "replay-deterministic", gen, prop, quiet(), show);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->report, second->report);  // byte-identical
  EXPECT_EQ(first->minimal_tape, second->minimal_tape);
  EXPECT_EQ(first->case_seed, second->case_seed);

  // And replaying the case seed through the env path regenerates the
  // same report: the repro line a CI log prints is sufficient.
  std::ostringstream seed_text;
  seed_text << first->case_seed;
  const ScopedEnv seed("TG_PROP_SEED", seed_text.str().c_str());
  const auto replayed = check<std::vector<std::uint64_t>>(
      "replay-deterministic", gen, prop, quiet(), show);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->report, first->report);
}

// ---------- Failing-seed artifacts ----------

TEST(PropArtifacts, SeedFileWrittenWithReproCommand) {
  const CleanPropEnv clean;
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "tg_propseed_artifacts";
  fs::remove_all(dir);
  const ScopedEnv artifact_dir("TG_PROP_ARTIFACT_DIR", dir.string().c_str());

  Options opt;
  opt.iters = 5;
  opt.write_seed_file = true;  // the behavior under test
  const auto failure = check<std::uint64_t>(
      "artifact-prop", u64(), [](const std::uint64_t&) { return false; }, opt);
  ASSERT_TRUE(failure.has_value());
  ASSERT_FALSE(failure->seed_file.empty());
  EXPECT_TRUE(fs::exists(failure->seed_file));
  EXPECT_EQ(fs::path(failure->seed_file).filename().string(),
            "artifact-prop.propseed");

  std::ifstream in(failure->seed_file);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("TG_PROP_SEED=0x"), std::string::npos);
  EXPECT_NE(content.str().find("property: artifact-prop"), std::string::npos);
  fs::remove_all(dir);
}

// ---------- Acceptance: injected divergence, end to end ----------

/// The pristine-epoch property: GroupGraph::pristine must agree, group
/// by group, with a from-scratch reference that draws every membership
/// point through RandomOracle::value_pair and resolves it with a
/// binary search.  `inject` breaks the REFERENCE on purpose (group 0's
/// bad count off by one), so the harness faces a real divergence.
bool pristine_matches_reference(std::uint64_t n, std::uint64_t seed,
                                bool inject) {
  core::Params params;
  params.n = n;
  params.seed = seed;
  params.beta = 0.10;
  Rng rng(params.seed);
  const auto pop = std::make_shared<const core::Population>(
      core::Population::uniform(params.n, params.beta, rng));
  const crypto::OracleSuite oracles(params.seed);
  const core::GroupGraph graph =
      core::GroupGraph::pristine(params, pop, oracles.h1);
  if (graph.size() != pop->size()) return false;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    std::vector<std::uint32_t> members;
    const std::uint64_t w = pop->table().at(i).raw();
    for (std::size_t slot = 0; slot < params.group_size(); ++slot) {
      const ids::RingPoint point{oracles.h1.value_pair(w, slot)};
      members.push_back(
          static_cast<std::uint32_t>(pop->table().successor_index(point)));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    std::size_t bad = 0;
    for (const auto m : members) bad += pop->is_bad(m) ? 1 : 0;
    if (inject && i == 0) ++bad;

    const core::GroupView g = graph.group(i);
    if (g.leader != i || !(g.members == core::MemberSpan(members)) ||
        g.bad_members != bad || g.confused) {
      return false;
    }
  }
  return true;
}

Gen<std::pair<std::uint64_t, std::uint64_t>> small_world() {
  return pair_of(in_range(32, 96), u64());
}

std::string show_world(const std::pair<std::uint64_t, std::uint64_t>& w) {
  std::ostringstream out;
  out << "world{n=" << w.first << " seed=0x" << std::hex << w.second << '}';
  return out.str();
}

TEST(PropAcceptance, InjectedEpochDivergenceCaughtShrunkAndReplayed) {
  const CleanPropEnv clean;
  using Case = std::pair<std::uint64_t, std::uint64_t>;

  // Healthy library: the property holds.
  const auto prop = [](const Case& w) {
    return pristine_matches_reference(w.first, w.second, /*inject=*/false);
  };
  EXPECT_FALSE(
      check<Case>("pristine-equivalence", small_world(), prop, quiet(4),
                  show_world)
          .has_value());

  // Inject a divergence: the harness must catch it and shrink to the
  // MINIMAL world — n at the generator floor, seed zeroed (the fault
  // diverges every case, so the zero tape fails and is the global
  // minimum: the empty canonical tape).
  const auto broken = [](const Case& w) {
    return pristine_matches_reference(w.first, w.second, /*inject=*/true);
  };
  const auto failure = check<Case>("pristine-equivalence", small_world(),
                                   broken, quiet(4), show_world);
  ASSERT_TRUE(failure.has_value());
  EXPECT_TRUE(failure->minimal_tape.empty());
  EXPECT_NE(failure->minimal_show.find("world{n=32 seed=0x0}"),
            std::string::npos);
  EXPECT_NE(failure->report.find("TG_PROP_SEED="), std::string::npos);

  // Replay the printed seed through the env contract: bit-identical
  // failure report, exactly as a developer pasting the CI repro line
  // would see locally.
  std::ostringstream seed_text;
  seed_text << "0x" << std::hex << failure->case_seed;
  const ScopedEnv seed("TG_PROP_SEED", seed_text.str().c_str());
  const auto replayed = check<Case>("pristine-equivalence", small_world(),
                                    broken, quiet(4), show_world);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->report, failure->report);
}

}  // namespace
}  // namespace tg::proptest
