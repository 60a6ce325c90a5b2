// Workload engine: histogram bucket math and merge determinism, the
// engine's bit-reproducibility contract (same (spec, seed) =>
// identical op outcomes and percentiles at any thread count, both
// loop modes, benign and adversary cells), service semantics, and the
// campaign integration (workload axis, churn presets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/engine.hpp"
#include "workload/histogram.hpp"
#include "workload/service.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace tg;
using workload::KvService;
using telemetry::LogHistogram;
using workload::LookupService;
using workload::Recorder;
using workload::World;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, SmallValuesAreExact) {
  // Below the overflow threshold every value owns its own bucket.
  for (std::uint64_t v = 0; v < LogHistogram::overflow_threshold(); ++v) {
    const std::size_t index = LogHistogram::bucket_index(v);
    EXPECT_EQ(LogHistogram::bucket_lower_bound(index), v) << v;
    EXPECT_EQ(LogHistogram::bucket_upper_bound(index), v) << v;
  }
}

TEST(LogHistogram, BucketBoundariesBracketEveryValue) {
  const std::uint64_t probes[] = {
      0,   1,   15,  16,  31,  32,  33,  63,  64,   100,  1000, 4095, 4096,
      1ull << 20, (1ull << 20) + 17, 1ull << 40, ~std::uint64_t{0} - 1,
      ~std::uint64_t{0}};
  for (const std::uint64_t v : probes) {
    const std::size_t index = LogHistogram::bucket_index(v);
    ASSERT_LT(index, LogHistogram::kBuckets) << v;
    EXPECT_LE(LogHistogram::bucket_lower_bound(index), v) << v;
    EXPECT_GE(LogHistogram::bucket_upper_bound(index), v) << v;
    // Buckets tile the axis: the next bucket starts right after.
    if (index + 1 < LogHistogram::kBuckets) {
      EXPECT_EQ(LogHistogram::bucket_lower_bound(index + 1),
                LogHistogram::bucket_upper_bound(index) + 1)
          << v;
    }
    // Bounded relative error: bucket width <= value / kSubBuckets + 1.
    const double width =
        static_cast<double>(LogHistogram::bucket_upper_bound(index) -
                            LogHistogram::bucket_lower_bound(index));
    EXPECT_LE(width, static_cast<double>(v) / LogHistogram::kSubBuckets + 1)
        << v;
  }
}

TEST(LogHistogram, QuantilesOfKnownSequence) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // 50 and 96 are exact bucket lower bounds (see bucket math); the
  // quantile reports the bucket floor of the order statistic.
  EXPECT_EQ(h.p50(), 50u);
  EXPECT_EQ(h.value_at_quantile(0.99), 96u);
  EXPECT_EQ(h.value_at_quantile(0.0), 1u);
  EXPECT_EQ(h.value_at_quantile(1.0), 100u);
}

TEST(LogHistogram, EmptyAndOverflowEdges) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.p50(), 0u);

  h.record(0);
  EXPECT_EQ(h.p50(), 0u);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  // The top bucket clamps to the recorded max, not the bucket bound.
  EXPECT_EQ(h.value_at_quantile(1.0), ~std::uint64_t{0});

  LogHistogram zero_counts;
  zero_counts.record(7, 0);  // zero-count record is a no-op
  EXPECT_TRUE(zero_counts.empty());
}

TEST(LogHistogram, ShardMergeIsOrderAndShardCountInvariant) {
  // The determinism contract behind parallel recording: counts are
  // integers, so ANY shard split, merged in ANY order, reproduces the
  // reference percentiles bit-for-bit.
  Rng rng(99);
  std::vector<std::uint64_t> values(10000);
  for (auto& v : values) v = rng.below(1u << 20);

  LogHistogram reference;
  for (const auto v : values) reference.record(v);

  for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    std::vector<LogHistogram> shard_hists(shards);
    for (std::size_t i = 0; i < values.size(); ++i) {
      shard_hists[i % shards].record(values[i]);
    }
    LogHistogram forward;
    for (const auto& h : shard_hists) forward.merge(h);
    LogHistogram backward;
    for (auto it = shard_hists.rbegin(); it != shard_hists.rend(); ++it) {
      backward.merge(*it);
    }
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(forward.value_at_quantile(q), reference.value_at_quantile(q))
          << shards << " shards @ q=" << q;
      EXPECT_EQ(backward.value_at_quantile(q), reference.value_at_quantile(q))
          << shards << " shards reversed @ q=" << q;
    }
    EXPECT_EQ(forward.count(), reference.count());
    EXPECT_EQ(forward.min(), reference.min());
    EXPECT_EQ(forward.max(), reference.max());
  }
}

TEST(RecorderTest, MergeSumsLedger) {
  Recorder a;
  a.latency.record(5);
  a.issued = 3;
  a.completed = 1;
  a.failed = 1;
  a.timed_out = 1;
  a.rounds = 10;
  Recorder b;
  b.latency.record(7);
  b.issued = 2;
  b.completed = 2;
  b.rounds = 10;
  a.merge(b);
  EXPECT_EQ(a.issued, 5u);
  EXPECT_EQ(a.completed, 3u);
  EXPECT_EQ(a.finished(), 5u);
  EXPECT_EQ(a.rounds, 20u);
  EXPECT_EQ(a.latency.count(), 2u);
  EXPECT_DOUBLE_EQ(a.ops_per_round(), 3.0 / 20.0);
}

// ---------------------------------------------------------------------------
// Engine determinism
// ---------------------------------------------------------------------------

scenario::ScenarioSpec small_traffic_spec(
    scenario::WorkloadAxis::Service service, scenario::WorkloadAxis::Loop loop,
    scenario::AdversaryKind adversary = scenario::AdversaryKind::omit_ids,
    scenario::Topology topology = scenario::Topology::tinygroups) {
  scenario::ScenarioSpec spec;
  spec.adversary = adversary;
  spec.topology = topology;
  spec.n = 256;
  spec.beta = 0.08;
  spec.trials = 3;
  spec.seed = 4242;
  spec.churn = {1, 64};
  spec.workload.service = service;
  spec.workload.loop = loop;
  spec.workload.rate = 2.0;
  spec.workload.clients = 4;
  spec.workload.rounds = 64;
  spec.workload.timeout_rounds = 24;
  return spec;
}

struct RunSnapshot {
  std::uint64_t trace = 0;
  std::uint64_t issued = 0, completed = 0, failed = 0, timed_out = 0;
  std::uint64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0;

  static RunSnapshot of(const workload::Recorder& r, std::uint64_t trace) {
    return {trace,    r.issued,         r.completed,     r.failed,
            r.timed_out, r.latency.p50(), r.latency.p90(), r.latency.p99(),
            r.latency.p999()};
  }

  friend bool operator==(const RunSnapshot&, const RunSnapshot&) = default;
};

RunSnapshot run_engine(const scenario::ScenarioSpec& spec, std::uint64_t seed,
                       std::size_t threads) {
  Rng rng(seed);
  const World world = workload::world_for_trial(spec, false, rng);
  const auto service =
      workload::make_service(spec.workload.service, world, 128, rng());
  const workload::RunResult res = workload::run(
      *service, workload::engine_spec(spec, false), rng(), threads);
  return RunSnapshot::of(res.recorder, res.trace_hash);
}

TEST(WorkloadEngine, OpenLoopBitIdenticalAcrossThreadCounts) {
  const auto spec = small_traffic_spec(scenario::WorkloadAxis::Service::kv,
                                       scenario::WorkloadAxis::Loop::open);
  const RunSnapshot t1 = run_engine(spec, 11, 1);
  const RunSnapshot t8 = run_engine(spec, 11, 8);
  EXPECT_EQ(t1, t8);
  EXPECT_GT(t1.issued, 0u);
  // Rerun reproduces; a different seed does not.
  EXPECT_EQ(run_engine(spec, 11, 1), t1);
  EXPECT_NE(run_engine(spec, 12, 1).trace, t1.trace);
}

TEST(WorkloadEngine, ClosedLoopBitIdenticalAcrossThreadCounts) {
  const auto spec = small_traffic_spec(scenario::WorkloadAxis::Service::lookup,
                                       scenario::WorkloadAxis::Loop::closed);
  const RunSnapshot t1 = run_engine(spec, 21, 1);
  const RunSnapshot t8 = run_engine(spec, 21, 8);
  EXPECT_EQ(t1, t8);
  EXPECT_GT(t1.issued, 0u);
  EXPECT_GT(t1.completed, 0u);
}

TEST(WorkloadEngine, KvTrafficIsPinned) {
  // Recorded while the network still had switchable buffer recycling
  // and pooled payload storage; all four combinations gave these pins,
  // with padding inline (4 words) and spilled (12 words).
  const auto spec = small_traffic_spec(scenario::WorkloadAxis::Service::kv,
                                       scenario::WorkloadAxis::Loop::open);
  struct Pin {
    std::size_t padding;
    std::uint64_t trace;
  };
  // Paddings 0, 1, 5 and 24 were added later, recorded while every hop
  // still rebuilt its payload.  At 0 a request is inline at the issuer
  // and spills once the entry group adds the hop chain, at 1 it spills
  // at the issuer, and at both the reply fits inline (3 or 4 words);
  // at 5 and 24 every message spills.
  for (const Pin pin : {Pin{4, 0xee64938e2c9961b0ULL},
                        Pin{12, 0xb42b50e57befe803ULL},
                        Pin{0, 0x1735a007fcc9ab36ULL},
                        Pin{1, 0x8d5d01906e74c704ULL},
                        Pin{5, 0xefd0685ead3a5876ULL},
                        Pin{24, 0x94fee7f71c7cd977ULL}}) {
    Rng rng(31);
    const World world = workload::world_for_trial(spec, false, rng);
    const auto svc =
        workload::make_service(spec.workload.service, world, 128, rng());
    workload::Spec engine = workload::engine_spec(spec, false);
    engine.padding_words = pin.padding;
    const auto run = workload::run(*svc, engine, 77, 1);
    EXPECT_EQ(run.trace_hash, pin.trace) << pin.padding;
    EXPECT_EQ(run.recorder.completed, 117u) << pin.padding;
    EXPECT_EQ(run.net.delivered, 825u) << pin.padding;
  }
}

std::uint64_t text_digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(WorkloadEngine, RedHeavyKvTrafficIsPinned) {
  // Six of 16 groups are red: requests die at red hop groups and red
  // owners serve corrupted replies, so both red paths see every
  // payload shape.  Recorded with a session bound (its metrics and
  // trace exports count the red drops and the corrupted serves) while
  // every hop still rebuilt its payload; padding 0 keeps requests
  // inline at the issuer, 12 spills them.
  std::vector<baseline::GroupComposition> regions(16);
  for (std::size_t i = 0; i < regions.size(); ++i) {
    regions[i].size = 9;
    regions[i].bad = i % 8 < 3 ? 6 : 1;
  }
  const World world = World::from_regions(std::move(regions));
  ASSERT_DOUBLE_EQ(world.red_fraction(), 6.0 / 16.0);
  struct Pin {
    std::size_t padding;
    std::uint64_t trace, metrics, events;
  };
  for (const Pin pin :
       {Pin{0, 0x36141aafe4ec74ccULL, 0x51f4873e8245da69ULL,
            0xb46d5a6fc220d177ULL},
        Pin{12, 0x8239ee26faf67cc8ULL, 0xba1fce01aa961431ULL,
            0x4fd927724cfeaa7eULL}}) {
    KvService service(world, 64, /*salt=*/5);
    workload::Spec spec;
    spec.rate = 3.0;
    spec.rounds = 64;
    spec.timeout_rounds = 16;
    spec.padding_words = pin.padding;
    telemetry::Session session;
    telemetry::set_active(&session);
    const auto run = workload::run(service, spec, 41, 1);
    telemetry::set_active(nullptr);
    EXPECT_EQ(run.trace_hash, pin.trace) << pin.padding;
    EXPECT_EQ(text_digest(session.metrics_json()), pin.metrics)
        << pin.padding;
    EXPECT_EQ(text_digest(session.chrome_trace_json()), pin.events)
        << pin.padding;
    EXPECT_EQ(run.recorder.completed, 23u) << pin.padding;
    EXPECT_EQ(run.recorder.failed, 24u) << pin.padding;
    EXPECT_EQ(run.recorder.timed_out, 145u) << pin.padding;
    EXPECT_EQ(run.net.delivered, 511u) << pin.padding;
    EXPECT_GT(session.metrics().counter(telemetry::Probe::workload_red_drops),
              0u);
  }
}

TEST(WorkloadEngine, LookupTrafficIsPinned) {
  // Lookup-only traffic in both loop modes, over the small tinygroups
  // world and over the 6-of-16-red region world above, with requests
  // inline at the issuer (padding 0) and spilled (12).  Recorded while
  // every hop still asked the world for the key's owner and each
  // group kept its own binding map.
  using Loop = scenario::WorkloadAxis::Loop;
  struct Pin {
    bool region;
    Loop loop;
    std::size_t padding;
    std::uint64_t trace, issued, completed, failed, timed_out, analytic;
  };
  const Pin pins[] = {
      {false, Loop::open, 0, 0xe6d480e38fc7b882ULL, 128, 118, 2, 8, 218109},
      {false, Loop::open, 12, 0x592cd1d29a752436ULL, 128, 118, 2, 8, 218109},
      {false, Loop::closed, 0, 0x40a25943b0618682ULL, 28, 26, 0, 2, 51001},
      {false, Loop::closed, 12, 0xb4f413f019a29c2aULL, 28, 26, 0, 2, 51001},
      {true, Loop::open, 0, 0x799cf833bc093c6cULL, 192, 15, 23, 154, 23751},
      {true, Loop::open, 12, 0xfa66ce9f3d817bf4ULL, 192, 15, 23, 154, 23751},
      {true, Loop::closed, 0, 0xe380895c0283c47cULL, 17, 1, 1, 15, 1962},
      {true, Loop::closed, 12, 0x8f5737a818f9758fULL, 17, 1, 1, 15, 1962},
  };
  for (const Pin& pin : pins) {
    const std::string label = std::string(pin.region ? "region" : "graph") +
                              (pin.loop == Loop::open ? " open" : " closed") +
                              " padding " + std::to_string(pin.padding);
    workload::RunResult run;
    if (pin.region) {
      std::vector<baseline::GroupComposition> regions(16);
      for (std::size_t i = 0; i < regions.size(); ++i) {
        regions[i].size = 9;
        regions[i].bad = i % 8 < 3 ? 6 : 1;
      }
      const World world = World::from_regions(std::move(regions));
      LookupService service(world, 64, /*salt=*/5);
      workload::Spec spec;
      spec.mode = pin.loop == Loop::open ? workload::Mode::open_loop
                                         : workload::Mode::closed_loop;
      spec.rate = 3.0;
      spec.clients = 4;
      spec.rounds = 64;
      spec.timeout_rounds = 16;
      spec.padding_words = pin.padding;
      run = workload::run(service, spec, 41, 1);
    } else {
      const auto spec = small_traffic_spec(
          scenario::WorkloadAxis::Service::lookup, pin.loop);
      Rng rng(31);
      const World world = workload::world_for_trial(spec, false, rng);
      const auto svc =
          workload::make_service(spec.workload.service, world, 128, rng());
      workload::Spec engine = workload::engine_spec(spec, false);
      engine.padding_words = pin.padding;
      run = workload::run(*svc, engine, 77, 1);
    }
    const Recorder& r = run.recorder;
    EXPECT_EQ(run.trace_hash, pin.trace)
        << label << " trace 0x" << std::hex << run.trace_hash;
    EXPECT_EQ(r.issued, pin.issued) << label;
    EXPECT_EQ(r.completed, pin.completed) << label;
    EXPECT_EQ(r.failed, pin.failed) << label;
    EXPECT_EQ(r.timed_out, pin.timed_out) << label;
    EXPECT_EQ(r.analytic_messages, pin.analytic) << label;
    EXPECT_EQ(r.finished(), r.issued) << label;
  }
}

TEST(WorkloadEngine, AdversaryCellTrafficBitIdenticalAcrossShardCounts) {
  // One adversary cell under traffic, trials sharded 1-wide vs 4-wide:
  // merged histograms, counters and the trial-ordered trace fold must
  // all be bit-identical (the acceptance criterion's core clause).
  // Every row is pinned too.  The eclipse/tinygroups and
  // flood/tinygroups rows cover the traffic-level postures (steered
  // start groups, bogus background load), with retries off and on;
  // recorded while those postures were still Spec scalars.
  using scenario::AdversaryKind;
  using Loop = scenario::WorkloadAxis::Loop;
  struct Row {
    AdversaryKind adversary;
    Loop loop;
    bool retries;
    std::uint64_t trace, issued, completed, failed, timed_out, retried;
  };
  const Row rows[] = {
      {AdversaryKind::omit_ids, Loop::open, false, 0x653a03f2aabe410cULL,
       384, 374, 0, 10, 0},
      {AdversaryKind::omit_ids, Loop::closed, false, 0x077f56dc37a5fbbdULL,
       86, 82, 0, 4, 0},
      {AdversaryKind::eclipse, Loop::open, false, 0xdabbf850509bfdfbULL,
       384, 309, 6, 69, 0},
      {AdversaryKind::eclipse, Loop::closed, false, 0xcf6a11df1f12eb95ULL,
       72, 55, 1, 16, 0},
      {AdversaryKind::eclipse, Loop::open, true, 0xf6ba139b37395513ULL,
       384, 366, 8, 10, 90},
      {AdversaryKind::flood, Loop::open, false, 0xb9b45b780080d4faULL,
       384, 331, 13, 40, 0},
      {AdversaryKind::flood, Loop::closed, false, 0x95eda0d9169b7c2cULL,
       85, 79, 0, 6, 0},
      {AdversaryKind::flood, Loop::closed, true, 0x34ff4d74914086efULL,
       82, 82, 0, 0, 5},
  };
  for (const Row& row : rows) {
    auto spec = small_traffic_spec(scenario::WorkloadAxis::Service::kv,
                                   row.loop, row.adversary);
    spec.workload.retries = row.retries;
    const std::string label = std::string(scenario::to_string(row.adversary)) +
                              (row.loop == Loop::open ? " open" : " closed") +
                              (row.retries ? " retries" : "");
    const auto one = workload::run_traffic_cell(spec, true, 1);
    const auto four = workload::run_traffic_cell(spec, true, 4);
    EXPECT_EQ(one.trace_hash, four.trace_hash) << label;
    EXPECT_EQ(one.recorder.issued, four.recorder.issued) << label;
    EXPECT_EQ(one.recorder.completed, four.recorder.completed) << label;
    EXPECT_EQ(one.recorder.failed, four.recorder.failed) << label;
    EXPECT_EQ(one.recorder.timed_out, four.recorder.timed_out) << label;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(one.recorder.latency.value_at_quantile(q),
                four.recorder.latency.value_at_quantile(q))
          << label;
    }
    EXPECT_GT(one.recorder.issued, 0u) << label;
    EXPECT_EQ(one.trace_hash, row.trace) << label;
    EXPECT_EQ(one.recorder.issued, row.issued) << label;
    EXPECT_EQ(one.recorder.completed, row.completed) << label;
    EXPECT_EQ(one.recorder.failed, row.failed) << label;
    EXPECT_EQ(one.recorder.timed_out, row.timed_out) << label;
    EXPECT_EQ(one.recorder.retries + one.recorder.hedges, row.retried)
        << label;
  }
}

TEST(WorkloadEngine, RegionTopologyServesTraffic) {
  const auto spec = small_traffic_spec(
      scenario::WorkloadAxis::Service::kv, scenario::WorkloadAxis::Loop::open,
      scenario::AdversaryKind::target_group, scenario::Topology::cuckoo);
  const auto cell = workload::run_traffic_cell(spec, true, 0);
  EXPECT_GT(cell.recorder.issued, 0u);
  EXPECT_GT(cell.recorder.finished(), 0u);
}

TEST(WorkloadEngine, RegionCellTrafficIsPinned) {
  // With the adversary on, a region cell serves from the structure its
  // cuckoo or Commensal Cuckoo join-leave run produced.  Recorded
  // while the traffic bridge kept its own copy of that churn.
  using scenario::Topology;
  struct Row {
    Topology topology;
    std::uint64_t trace, issued, completed, failed, timed_out, rounds,
        analytic, stale;
  };
  const Row rows[] = {
      {Topology::cuckoo, 0xeba89826606670bcULL, 384, 384, 0, 0, 192, 774403,
       0},
      {Topology::commensal_cuckoo, 0x1c26ee873d455bf5ULL, 384, 299, 11, 74,
       192, 622947, 0},
  };
  for (const Row& row : rows) {
    const auto spec = small_traffic_spec(
        scenario::WorkloadAxis::Service::kv, scenario::WorkloadAxis::Loop::open,
        scenario::AdversaryKind::target_group, row.topology);
    const std::string label(scenario::to_string(row.topology));
    const auto cell = workload::run_traffic_cell(spec, true, 0);
    const Recorder& r = cell.recorder;
    EXPECT_EQ(cell.trace_hash, row.trace)
        << label << " trace 0x" << std::hex << cell.trace_hash;
    EXPECT_EQ(r.issued, row.issued) << label;
    EXPECT_EQ(r.completed, row.completed) << label;
    EXPECT_EQ(r.failed, row.failed) << label;
    EXPECT_EQ(r.timed_out, row.timed_out) << label;
    EXPECT_EQ(r.rounds, row.rounds) << label;
    EXPECT_EQ(r.analytic_messages, row.analytic) << label;
    EXPECT_EQ(r.retries, 0u) << label;
    EXPECT_EQ(r.hedges, 0u) << label;
    EXPECT_EQ(r.stale_replies, row.stale) << label;
    EXPECT_EQ(r.latency.count(), r.finished()) << label;
  }
}

// ---------------------------------------------------------------------------
// Service semantics
// ---------------------------------------------------------------------------

/// Hand-built region world: 8 groups, two with a bad majority (red).
World synthetic_world(std::size_t red_groups = 2) {
  std::vector<baseline::GroupComposition> regions(8);
  for (std::size_t i = 0; i < regions.size(); ++i) {
    regions[i].size = 9;
    regions[i].bad = i < red_groups ? 6 : 1;
  }
  return World::from_regions(std::move(regions));
}

TEST(WorkloadWorld, RegionWorldClassifiesAndRoutes) {
  const World world = synthetic_world();
  EXPECT_EQ(world.groups(), 8u);
  EXPECT_TRUE(world.is_red(0));
  EXPECT_TRUE(world.is_red(1));
  EXPECT_FALSE(world.is_red(5));
  EXPECT_DOUBLE_EQ(world.red_fraction(), 0.25);
  EXPECT_LT(world.most_bad_group(), 2u);
  EXPECT_EQ(world.pair_messages(0, 1), 81u);
  // Routes terminate at the responsible group.
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const ids::RingPoint key{rng()};
    const auto route = world.route(rng.below(world.groups()), key);
    ASSERT_TRUE(route.ok);
    EXPECT_EQ(route.path.back(), world.responsible(key));
  }
}

TEST(WorkloadService, AllBlueWorldServesEverything) {
  const World world = synthetic_world(/*red_groups=*/0);
  KvService service(world, 64, /*salt=*/3);
  EXPECT_EQ(service.preloaded(), 64u);
  workload::Spec spec;
  spec.mode = workload::Mode::closed_loop;
  spec.clients = 4;
  spec.rounds = 64;
  spec.timeout_rounds = 16;
  const auto res = workload::run(service, spec, 9, 1);
  EXPECT_GT(res.recorder.completed, 0u);
  EXPECT_EQ(res.recorder.failed, 0u);
  EXPECT_EQ(res.recorder.timed_out, 0u);
  EXPECT_EQ(res.recorder.finished(),
            res.recorder.completed);
}

TEST(WorkloadService, ZeroTimeoutIsRejected) {
  // An attempt's timeout wake falls timeout_rounds after its issue, so
  // 0 would put it in the round that is already running.
  const World world = synthetic_world(/*red_groups=*/0);
  KvService service(world, 64, /*salt=*/3);
  workload::Spec spec;
  spec.timeout_rounds = 0;
  EXPECT_THROW((void)workload::run(service, spec, 9, 1),
               std::invalid_argument);
}

TEST(WorkloadService, RedGroupsDropOrCorrupt) {
  const World world = synthetic_world(/*red_groups=*/4);
  KvService service(world, 64, /*salt=*/3);
  EXPECT_LT(service.preloaded(), 64u);  // red owners hold no data
  workload::Spec spec;
  spec.mode = workload::Mode::open_loop;
  spec.rate = 2.0;
  spec.rounds = 96;
  spec.timeout_rounds = 16;
  const auto res = workload::run(service, spec, 9, 1);
  EXPECT_GT(res.recorder.issued, 0u);
  // Half the world is adversarial: some ops die en route (timeout)
  // and some reach red owners (corrupted replies count as failed).
  EXPECT_GT(res.recorder.failed + res.recorder.timed_out, 0u);
}

TEST(WorkloadService, KvStoreServesEdgeKeys) {
  // The replica table's edges, driven through execute at each key's
  // owner: the raw key 0, keys sharing their low 32 bits (one probe
  // chain at any table size up to 2^32 slots; all-ones low bits start
  // it in the last slot, so it wraps), a get after a put, a get of a
  // key never stored, and far more stored keys than the key space.
  const World world = synthetic_world(/*red_groups=*/0);
  constexpr std::size_t kKeys = 64;
  constexpr std::uint64_t kSalt = 3;
  KvService service(world, kKeys, kSalt);
  ASSERT_EQ(service.preloaded(), kKeys);
  const auto exec = [&](workload::OpKind kind, std::uint64_t raw,
                        std::uint64_t value) {
    workload::Operation op;
    op.kind = kind;
    op.key = ids::RingPoint{raw};
    op.value = value;
    return service.execute(op, world.responsible(op.key));
  };
  const auto get = [&](std::uint64_t raw) {
    return exec(workload::OpKind::get, raw, 0);
  };
  const auto put = [&](std::uint64_t raw, std::uint64_t value) {
    const workload::Execution e = exec(workload::OpKind::put, raw, value);
    EXPECT_TRUE(e.ok) << raw;
    EXPECT_EQ(e.value, value) << raw;
  };

  // The full key space answers its preloaded checksums.
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::uint64_t raw = KvService::key_point(k, kSalt).raw();
    const workload::Execution e = get(raw);
    EXPECT_TRUE(e.ok) << k;
    EXPECT_EQ(e.value, mix64(raw ^ kSalt)) << k;
  }
  // Key 0 is a key like any other.
  EXPECT_FALSE(get(0).ok);
  put(0, 7);
  EXPECT_EQ(get(0).value, 7u);
  EXPECT_TRUE(get(0).ok);

  const auto colliding = [](std::uint64_t j) {
    return (j << 32) | 0xffffffffULL;
  };
  for (std::uint64_t j = 1; j <= 40; ++j) put(colliding(j), 100 + j);
  for (std::uint64_t j = 1; j <= 40; ++j) {
    const workload::Execution e = get(colliding(j));
    EXPECT_TRUE(e.ok) << j;
    EXPECT_EQ(e.value, 100 + j) << j;
  }
  EXPECT_FALSE(get(colliding(41)).ok);
  EXPECT_FALSE(get(0xffffffffULL).ok);

  // A put overwrites: the later value is served.
  const std::uint64_t first = KvService::key_point(0, kSalt).raw();
  put(first, 11);
  EXPECT_EQ(get(first).value, 11u);
  put(colliding(3), 5);
  EXPECT_EQ(get(colliding(3)).value, 5u);

  // Sixteen times the key space in fresh keys: everything stored is
  // still served, and a key never stored is not.
  Rng rng(8);
  std::vector<std::uint64_t> fresh(16 * kKeys);
  for (auto& raw : fresh) raw = rng.u64();
  for (std::size_t i = 0; i < fresh.size(); ++i) put(fresh[i], i);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const workload::Execution e = get(fresh[i]);
    EXPECT_TRUE(e.ok) << i;
    EXPECT_EQ(e.value, i) << i;
  }
  EXPECT_EQ(get(0).value, 7u);
  EXPECT_EQ(get(colliding(40)).value, 140u);
  EXPECT_FALSE(get(rng.u64()).ok);
}

TEST(WorkloadService, LookupRegistersOnlyOnBlueOwners) {
  const World world = synthetic_world(/*red_groups=*/4);
  LookupService service(world, 200, /*salt=*/17);
  EXPECT_LT(service.registered(), 200u);
  EXPECT_GT(service.registered(), 0u);
}

// ---------------------------------------------------------------------------
// Self-healing lifecycle regressions: late and duplicate replies must
// not corrupt the op ledger or double-count the histogram, with
// retries off and on.
// ---------------------------------------------------------------------------

TEST(WorkloadLifecycle, ReplyAfterTimeoutIsStaleNotDoubleCounted) {
  for (const bool retry : {false, true}) {
    const World world = synthetic_world(/*red_groups=*/0);
    KvService service(world, 64, /*salt=*/3);
    workload::Spec spec;
    spec.mode = workload::Mode::open_loop;
    spec.rate = 2.0;
    spec.rounds = 64;
    spec.timeout_rounds = 4;
    spec.retry.enabled = retry;
    spec.retry.max_attempts = 2;
    // Every hop delayed 1..12 rounds with certainty: most replies land
    // AFTER the client's timeout already resolved the op.
    fault::HazardRule delay_all;
    delay_all.delay_prob = 1.0;
    delay_all.max_delay_rounds = 12;
    spec.faults.seed = 99;
    spec.faults.rules.push_back(delay_all);
    const auto res = workload::run(service, spec, 13, 1);
    const Recorder& r = res.recorder;
    ASSERT_GT(r.issued, 0u) << "retry=" << retry;
    // Ledger integrity: every op resolves exactly once...
    EXPECT_EQ(r.finished(), r.issued) << "retry=" << retry;
    // ...and records exactly one latency (no double count from the
    // late replies)...
    EXPECT_EQ(r.latency.count(), r.issued) << "retry=" << retry;
    // ...while the post-timeout replies are visible as stale.
    EXPECT_GT(r.stale_replies, 0u) << "retry=" << retry;
    EXPECT_GT(r.timed_out, 0u) << "retry=" << retry;
  }
}

TEST(WorkloadLifecycle, DuplicateRepliesSettleOnceAndCountStale) {
  for (const bool retry : {false, true}) {
    const World world = synthetic_world(/*red_groups=*/0);
    KvService service(world, 64, /*salt=*/3);
    workload::Spec spec;
    spec.mode = workload::Mode::open_loop;
    spec.rate = 2.0;
    spec.rounds = 64;
    spec.timeout_rounds = 16;
    spec.retry.enabled = retry;
    // Every message duplicated: each op's reply arrives (at least)
    // twice.  The idempotent ledger settles on the first copy.
    fault::HazardRule dup_all;
    dup_all.duplicate_prob = 1.0;
    spec.faults.seed = 99;
    spec.faults.rules.push_back(dup_all);
    const auto res = workload::run(service, spec, 13, 1);
    const Recorder& r = res.recorder;
    ASSERT_GT(r.issued, 0u) << "retry=" << retry;
    // All-blue world, lossless links: every op completes, exactly once.
    EXPECT_EQ(r.completed, r.issued) << "retry=" << retry;
    EXPECT_EQ(r.latency.count(), r.issued) << "retry=" << retry;
    EXPECT_EQ(r.failed, 0u) << "retry=" << retry;
    EXPECT_GT(r.stale_replies, 0u) << "retry=" << retry;
    EXPECT_GT(res.net.fault_duplicated, 0u) << "retry=" << retry;
  }
}

TEST(WorkloadLifecycle, RetriesRecoverGoodputUnderDrops) {
  const auto run_with = [](bool retry) {
    const World world = synthetic_world(/*red_groups=*/0);
    KvService service(world, 64, /*salt=*/3);
    workload::Spec spec;
    spec.mode = workload::Mode::open_loop;
    spec.rate = 2.0;
    spec.rounds = 96;
    spec.timeout_rounds = 8;
    spec.retry.enabled = retry;
    fault::HazardRule drops;
    drops.drop_prob = 0.4;
    spec.faults.seed = 7;
    spec.faults.rules.push_back(drops);
    return workload::run(service, spec, 21, 1);
  };
  const auto noretry = run_with(false);
  const auto retry = run_with(true);
  EXPECT_GT(retry.recorder.retries, 0u);
  EXPECT_EQ(noretry.recorder.retries, 0u);
  // Same arrivals (the schedule is seed-driven), more completions.
  EXPECT_EQ(retry.recorder.issued, noretry.recorder.issued);
  EXPECT_GT(retry.recorder.completed, noretry.recorder.completed);
  EXPECT_GT(retry.recorder.retry_amplification(), 1.0);
  EXPECT_DOUBLE_EQ(noretry.recorder.retry_amplification(), 1.0);
}

TEST(WorkloadLifecycle, HedgedAttemptsFireAndStayDeterministic) {
  const auto run_once = [](std::size_t threads) {
    const World world = synthetic_world(/*red_groups=*/0);
    KvService service(world, 64, /*salt=*/3);
    workload::Spec spec;
    spec.mode = workload::Mode::closed_loop;
    spec.clients = 6;
    spec.rounds = 96;
    spec.timeout_rounds = 16;
    spec.retry.enabled = true;
    spec.retry.hedge = true;
    spec.retry.hedge_delay_rounds = 2;
    fault::HazardRule drops;
    drops.drop_prob = 0.3;
    spec.faults.seed = 7;
    spec.faults.rules.push_back(drops);
    return workload::run(service, spec, 33, threads);
  };
  const auto one = run_once(1);
  const auto four = run_once(4);
  EXPECT_GT(one.recorder.hedges, 0u);
  EXPECT_EQ(one.trace_hash, four.trace_hash);
  EXPECT_EQ(one.recorder.hedges, four.recorder.hedges);
  EXPECT_EQ(one.recorder.completed, four.recorder.completed);
  EXPECT_EQ(one.recorder.finished(), one.recorder.issued);
}

TEST(WorkloadLifecycle, ClosedLoopKvTrafficIsPinned) {
  // Closed-loop kv clients with retries off and with retries and hedges
  // on, under a rule that drops and delays: timeouts, retries, hedges
  // and stale replies all occur, and one red group drops requests and
  // corrupts replies.  Recorded with a session bound while retries off
  // still ran a separate fire-once path beside the op ledger.
  struct Pin {
    bool retry;
    std::uint64_t trace, metrics, events;
    std::uint64_t issued, completed, failed, timed_out, analytic, retries,
        hedges, stale, delivered;
  };
  for (const Pin& pin :
       {Pin{false, 0x8627ac7e2715919cULL, 0x5284a91c68aae74fULL,
            0x7f48e6ce0342e656ULL, 52, 19, 3, 30, 7029, 0, 0, 1, 156},
        Pin{true, 0xa4d010fcbdf54e90ULL, 0xf735faabadf91181ULL,
            0x65fe8734011ed07eULL, 37, 34, 2, 1, 8964, 19, 29, 3, 225}}) {
    const World world = synthetic_world(/*red_groups=*/1);
    KvService service(world, 64, /*salt=*/3);
    workload::Spec spec;
    spec.mode = workload::Mode::closed_loop;
    spec.clients = 6;
    spec.rounds = 96;
    spec.timeout_rounds = 12;
    spec.retry.enabled = pin.retry;
    spec.retry.hedge = pin.retry;
    fault::HazardRule rule;
    rule.drop_prob = 0.1;
    rule.delay_prob = 0.3;
    rule.max_delay_rounds = 4;
    spec.faults.seed = 7;
    spec.faults.rules.push_back(rule);
    telemetry::Session session;
    telemetry::set_active(&session);
    const auto run = workload::run(service, spec, 33, 1);
    telemetry::set_active(nullptr);
    const Recorder& r = run.recorder;
    EXPECT_EQ(run.trace_hash, pin.trace) << "retry=" << pin.retry;
    EXPECT_EQ(text_digest(session.metrics_json()), pin.metrics)
        << "retry=" << pin.retry;
    EXPECT_EQ(text_digest(session.chrome_trace_json()), pin.events)
        << "retry=" << pin.retry;
    EXPECT_EQ(r.issued, pin.issued) << "retry=" << pin.retry;
    EXPECT_EQ(r.completed, pin.completed) << "retry=" << pin.retry;
    EXPECT_EQ(r.failed, pin.failed) << "retry=" << pin.retry;
    EXPECT_EQ(r.timed_out, pin.timed_out) << "retry=" << pin.retry;
    EXPECT_EQ(r.rounds, 96u) << "retry=" << pin.retry;
    EXPECT_EQ(r.analytic_messages, pin.analytic) << "retry=" << pin.retry;
    EXPECT_EQ(r.retries, pin.retries) << "retry=" << pin.retry;
    EXPECT_EQ(r.hedges, pin.hedges) << "retry=" << pin.retry;
    EXPECT_EQ(r.stale_replies, pin.stale) << "retry=" << pin.retry;
    EXPECT_EQ(r.latency.count(), r.finished()) << "retry=" << pin.retry;
    EXPECT_EQ(run.net.delivered, pin.delivered) << "retry=" << pin.retry;
  }
}

// ---------------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------------

TEST(WorkloadCampaign, ChurnPresetsResolveByName) {
  EXPECT_FALSE(scenario::churn_presets().empty());
  for (const auto& preset : scenario::churn_presets()) {
    const auto schedule = scenario::churn_schedule_by_name(preset.name);
    ASSERT_TRUE(schedule.has_value()) << preset.name;
    EXPECT_EQ(*schedule, preset.schedule);
  }
  EXPECT_FALSE(scenario::churn_schedule_by_name("no-such-churn").has_value());
  const auto heavy = scenario::churn_schedule_by_name("epoch-heavy");
  ASSERT_TRUE(heavy.has_value());
  EXPECT_GT(heavy->epochs, scenario::ChurnSchedule{}.epochs);
}

TEST(WorkloadCampaign, WorkloadServiceAndLoopParseByName) {
  EXPECT_EQ(scenario::workload_service_by_name("kv"),
            scenario::WorkloadAxis::Service::kv);
  EXPECT_EQ(scenario::workload_service_by_name("lookup"),
            scenario::WorkloadAxis::Service::lookup);
  EXPECT_FALSE(scenario::workload_service_by_name("bogus").has_value());
  EXPECT_EQ(scenario::workload_loop_by_name("closed"),
            scenario::WorkloadAxis::Loop::closed);
  EXPECT_FALSE(scenario::workload_loop_by_name("bogus").has_value());
}

TEST(WorkloadCampaign, RunnerAppliesWorkloadAndChurnAxes) {
  scenario::CampaignOptions options;
  options.filter = "omit_ids/tinygroups";
  options.trials_override = 2;
  options.n_override = 256;
  options.churn_override = scenario::ChurnSchedule{1, 64};
  options.workload.service = scenario::WorkloadAxis::Service::kv;
  options.workload.rounds = 48;
  options.workload.timeout_rounds = 16;
  const auto results = scenario::CampaignRunner(options).run();
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results.front();
  EXPECT_EQ(r.spec.churn, (scenario::ChurnSchedule{1, 64}));
  EXPECT_TRUE(r.spec.workload.enabled());
  ASSERT_EQ(r.metric_names, workload::traffic_metric_names());
  ASSERT_EQ(r.metrics.size(), r.metric_names.size());
  for (const auto& m : r.metrics) {
    EXPECT_EQ(m.count(), 2u);
    EXPECT_TRUE(std::isfinite(m.mean()));
  }
}

TEST(WorkloadCampaign, CellUnderTrafficIsBitIdenticalAcrossRuns) {
  const auto* cell =
      scenario::Registry::instance().find("eclipse/tinygroups");
  ASSERT_NE(cell, nullptr);
  auto spec = small_traffic_spec(scenario::WorkloadAxis::Service::lookup,
                                 scenario::WorkloadAxis::Loop::closed,
                                 cell->spec.adversary, cell->spec.topology);
  spec.name = cell->spec.name;
  const auto a = scenario::CampaignRunner::run_cell(*cell, spec);
  const auto b = scenario::CampaignRunner::run_cell(*cell, spec);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    EXPECT_EQ(a.metrics[m].mean(), b.metrics[m].mean());
    EXPECT_EQ(a.metrics[m].stddev(), b.metrics[m].stddev());
  }
}

}  // namespace
