// Tests for the simulation scaffolding: epoch clock, message ledgers,
// and the deterministic Monte-Carlo trial runner.
#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/metrics.hpp"
#include "sim/trial_runner.hpp"
#include "util/log.hpp"

namespace tg::sim {
namespace {

TEST(EpochClock, TickAndEpochArithmetic) {
  EpochClock clock(100);
  EXPECT_EQ(clock.epoch(), 0u);
  EXPECT_EQ(clock.step_in_epoch(), 0u);
  EXPECT_FALSE(clock.past_half_epoch());
  clock.advance(49);
  EXPECT_FALSE(clock.past_half_epoch());
  clock.tick();
  EXPECT_TRUE(clock.past_half_epoch());  // step 50 of 100
  EXPECT_EQ(clock.remaining_in_epoch(), 50u);
  clock.advance(50);
  EXPECT_EQ(clock.epoch(), 1u);
  EXPECT_EQ(clock.step_in_epoch(), 0u);
  EXPECT_EQ(clock.step(), 100u);
}

TEST(EpochClock, EpochBoundaries) {
  EpochClock clock(7);
  for (int i = 0; i < 21; ++i) clock.tick();
  EXPECT_EQ(clock.epoch(), 3u);
  EXPECT_EQ(clock.epoch_length(), 7u);
}

TEST(MessageLedger, AddGetTotal) {
  MessageLedger ledger;
  ledger.add(MsgCat::secure_routing, 10);
  ledger.add(MsgCat::secure_routing, 5);
  ledger.add(MsgCat::gossip, 3);
  EXPECT_EQ(ledger.get(MsgCat::secure_routing), 15u);
  EXPECT_EQ(ledger.get(MsgCat::gossip), 3u);
  EXPECT_EQ(ledger.get(MsgCat::pow), 0u);
  EXPECT_EQ(ledger.total(), 18u);
}

TEST(MessageLedger, MergeAndReset) {
  MessageLedger a, b;
  a.add(MsgCat::membership, 7);
  b.add(MsgCat::membership, 3);
  b.add(MsgCat::neighbor_setup, 2);
  a.merge(b);
  EXPECT_EQ(a.get(MsgCat::membership), 10u);
  EXPECT_EQ(a.get(MsgCat::neighbor_setup), 2u);
  a.reset();
  EXPECT_EQ(a.total(), 0u);
}

TEST(MessageLedger, CategoryNames) {
  EXPECT_EQ(msg_cat_name(MsgCat::group_communication), "group_comm");
  EXPECT_EQ(msg_cat_name(MsgCat::secure_routing), "secure_routing");
  EXPECT_EQ(msg_cat_name(MsgCat::membership), "membership");
  EXPECT_EQ(msg_cat_name(MsgCat::neighbor_setup), "neighbor_setup");
  EXPECT_EQ(msg_cat_name(MsgCat::gossip), "gossip");
  EXPECT_EQ(msg_cat_name(MsgCat::pow), "pow");
}

TEST(TrialRunner, AggregatesAllTrials) {
  const auto stats = run_trials(
      100, /*seed=*/5,
      [](Rng&, std::size_t index) { return static_cast<double>(index); },
      /*threads=*/4);
  EXPECT_EQ(stats.count(), 100u);
  EXPECT_DOUBLE_EQ(stats.mean(), 49.5);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 99.0);
}

TEST(TrialRunner, DeterministicAcrossThreadCounts) {
  const auto trial = [](Rng& rng, std::size_t) { return rng.uniform(); };
  const auto one = run_trials(64, 9, trial, 1);
  const auto four = run_trials(64, 9, trial, 4);
  EXPECT_DOUBLE_EQ(one.mean(), four.mean());
  EXPECT_DOUBLE_EQ(one.min(), four.min());
  EXPECT_DOUBLE_EQ(one.max(), four.max());
}

TEST(TrialRunner, SeedChangesResults) {
  const auto trial = [](Rng& rng, std::size_t) { return rng.uniform(); };
  const auto a = run_trials(32, 1, trial, 2);
  const auto b = run_trials(32, 2, trial, 2);
  EXPECT_NE(a.mean(), b.mean());
}

TEST(TrialRunner, RepeatedRunsAreBitIdentical) {
  // Shard-local accumulation merged in shard order: the result is a
  // pure function of (seed, trials, threads), independent of worker
  // scheduling, so repeated runs agree to the last bit.
  const auto trial = [](Rng& rng, std::size_t) {
    double acc = 0.0;
    for (int i = 0; i < 16; ++i) acc += rng.uniform();
    return acc;
  };
  const auto a = run_trials(500, 31337, trial, 4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto b = run_trials(500, 31337, trial, 4);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_DOUBLE_EQ(a.variance(), b.variance());
    EXPECT_DOUBLE_EQ(a.min(), b.min());
    EXPECT_DOUBLE_EQ(a.max(), b.max());
  }
}

TEST(TrialRunner, ThreadCountDoesNotChangeTheTrialSet) {
  // Each trial's rng depends only on (seed, index), so min/max/count —
  // order-independent aggregates — agree across thread counts.
  const auto trial = [](Rng& rng, std::size_t) { return rng.uniform(); };
  const auto t1 = run_trials(200, 5, trial, 1);
  const auto t8 = run_trials(200, 5, trial, 8);
  EXPECT_EQ(t1.count(), t8.count());
  EXPECT_DOUBLE_EQ(t1.min(), t8.min());
  EXPECT_DOUBLE_EQ(t1.max(), t8.max());
  EXPECT_NEAR(t1.mean(), t8.mean(), 1e-12);
}

TEST(TrialRunner, MultiMetricVariant) {
  const auto stats = run_trials_multi(
      50, 2, 7,
      [](Rng&, std::size_t index, std::vector<double>& out) {
        out[0] = static_cast<double>(index);
        out[1] = 2.0 * static_cast<double>(index);
      },
      4);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[1].mean(), 2.0 * stats[0].mean());
}

TEST(TrialRunner, ForEachTrialRunsEveryIndexOnceOnItsShard) {
  // The fan-out under both trial runners: trial t runs once, on shard
  // t % shards, with an rng that depends on (seed, t) alone.
  EXPECT_EQ(trial_shards(10, 0), 8u);
  EXPECT_EQ(trial_shards(3, 0), 3u);
  EXPECT_EQ(trial_shards(10, 4), 4u);
  for (const std::size_t threads : {1u, 3u, 0u}) {
    constexpr std::size_t kTrials = 10;
    const std::size_t shards = trial_shards(kTrials, threads);
    std::vector<std::size_t> shard_of(kTrials, kTrials);
    std::vector<std::size_t> runs(kTrials, 0);
    std::vector<std::uint64_t> first_draw(kTrials, 0);
    for_each_trial(kTrials, /*seed=*/77, threads,
                   [&](std::size_t shard, std::size_t t, Rng& rng) {
                     shard_of[t] = shard;
                     ++runs[t];
                     first_draw[t] = rng();
                   });
    for (std::size_t t = 0; t < kTrials; ++t) {
      EXPECT_EQ(runs[t], 1u) << threads << " threads, trial " << t;
      EXPECT_EQ(shard_of[t], t % shards) << threads << " threads, trial " << t;
      Rng expected(mix64(77 ^ (0x9e3779b97f4a7c15ULL * (t + 1))));
      EXPECT_EQ(first_draw[t], expected()) << threads << " threads, trial "
                                           << t;
    }
  }
}

TEST(TrialRunner, EmptyInputsAreSafe) {
  const auto none = run_trials(
      0, 1, [](Rng&, std::size_t) { return 1.0; }, 2);
  EXPECT_EQ(none.count(), 0u);
  const auto no_metrics = run_trials_multi(
      10, 0, 1, [](Rng&, std::size_t, std::vector<double>&) {}, 2);
  EXPECT_TRUE(no_metrics.empty());
}

TEST(Log, LevelGateIsRespected) {
  const auto previous = log::level();
  log::set_level(log::Level::error);
  EXPECT_EQ(log::level(), log::Level::error);
  // These must not crash nor print (visually) below the gate.
  log::debug("hidden ", 1);
  log::info("hidden ", 2);
  log::warn("hidden ", 3);
  log::set_level(previous);
}

}  // namespace
}  // namespace tg::sim
