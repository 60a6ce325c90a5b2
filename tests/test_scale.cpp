// Epoch construction pins and GroupTable storage properties.
//
// The pins are golden FNV-1a digests of everything a built epoch
// observably holds (memberships, counters, confusion, red sets), for
// pristine graphs, dual-graph build_next calls, churn + self-heal and
// the client traffic served over them.  They were recorded before the
// array-of-structs group layout was deleted, and held under both
// layouts, so a changed digest means the epoch construction itself
// changed.  The build-config and telemetry pins were recorded with the
// sequential epoch builder, before the speculative one replaced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "core/churn.hpp"
#include "core/group_graph.hpp"
#include "core/group_table.hpp"
#include "core/self_heal.hpp"
#include "crypto/oracle.hpp"
#include "scenario/campaign.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/traffic.hpp"

namespace tg::core {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

/// FNV-1a over per-group leader, membership, counters, confusion and
/// red classification (bench_scale's epoch fingerprint).
std::uint64_t fingerprint(const GroupGraph& graph) {
  Fnv f;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const GroupView g = graph.group(i);
    f.mix(g.leader);
    f.mix(g.members.size());
    for (const auto m : g.members) f.mix(m);
    f.mix(g.bad_members);
    f.mix(g.corrupted_slots);
    f.mix(g.rejected_slots);
    f.mix(g.confused ? 1 : 0);
    f.mix(graph.is_red(i) ? 1 : 0);
  }
  return f.h;
}

/// Digest of one build_next call's dual-search ledger.
std::uint64_t stats_digest(const BuildStats& stats) {
  Fnv f;
  f.mix(stats.membership_requests);
  f.mix(stats.membership_dual_failures);
  f.mix(stats.membership_rejects);
  f.mix(stats.neighbor_requests);
  f.mix(stats.neighbor_dual_failures);
  f.mix(stats.neighbor_rejects);
  f.mix(stats.confused_groups);
  f.mix(stats.bad_groups);
  return f.h;
}

GroupGraph build_pristine(std::size_t n, std::uint64_t seed) {
  Params params;
  params.n = n;
  params.seed = seed;
  params.beta = 0.05;
  Rng rng(seed);
  const auto pop = std::make_shared<const Population>(
      Population::uniform(n, params.beta, rng));
  const crypto::OracleSuite oracles(seed);
  return GroupGraph::pristine(params, pop, oracles.h1);
}

// ---------- epoch construction pins ----------

TEST(Epoch, BuildsArePinned) {
  // bench_scale's pristine build at n = 10^4, then two dual-graph
  // build_next calls from the builder's own initial epoch: per call the
  // g1 and g2 fingerprints and the stats ledger.
  struct Pins {
    double beta;
    std::uint64_t pristine;
    std::uint64_t next[2][3];  // {g1, g2, stats} per build_next call
  };
  const Pins pins[] = {
      {0.05,
       0xd2b7d6309ae5a6f4ULL,
       {{0x46f0feee056c41efULL, 0xe1153a963b96db3dULL, 0xc2aa8a0d4fa0dce3ULL},
        {0x524dba2768a08879ULL, 0x55a2c55694c8f574ULL,
         0xc2aa8a0d4fa0dce3ULL}}},
      {0.2,
       0x612b527372002a94ULL,
       {{0x63b5d0038aae7676ULL, 0x1c29102de05312cbULL, 0xb7c90a410bdbdc70ULL},
        {0x00a91dfc3da01a94ULL, 0x87aeb0fbd8b73664ULL,
         0xff82a6fa681498a3ULL}}},
  };
  for (const Pins& pin : pins) {
    Params params;
    params.n = 10'000;
    params.seed = 2024;
    params.beta = pin.beta;
    {
      Rng rng(params.seed);
      const auto pop = std::make_shared<const Population>(
          Population::uniform(params.n, params.beta, rng));
      const crypto::OracleSuite oracles(params.seed);
      EXPECT_EQ(fingerprint(GroupGraph::pristine(params, pop, oracles.h1)),
                pin.pristine)
          << "beta=" << pin.beta;
    }
    const EpochBuilder builder(params);
    Rng rng(params.seed);
    EpochGraphs epoch = builder.initial(rng);
    for (int step = 0; step < 2; ++step) {
      BuildStats stats;
      epoch = builder.build_next(epoch, rng, &stats);
      EXPECT_EQ(fingerprint(*epoch.g1), pin.next[step][0])
          << "beta=" << pin.beta << " step " << step;
      EXPECT_EQ(fingerprint(*epoch.g2), pin.next[step][1])
          << "beta=" << pin.beta << " step " << step;
      EXPECT_EQ(stats_digest(stats), pin.next[step][2])
          << "beta=" << pin.beta << " step " << step;
    }
  }
}

TEST(Epoch, ChurnAndHealingArePinned) {
  // Departures compact spans in place; healing redraws relocate them
  // to the slab tail.
  Params params;
  params.n = 1024;
  params.seed = 7;
  params.beta = 0.10;
  Rng rng(params.seed);
  const auto pop = std::make_shared<const Population>(
      Population::uniform(params.n, params.beta, rng));
  const crypto::OracleSuite oracles(params.seed);
  GroupGraph graph = GroupGraph::pristine(params, pop, oracles.h1);
  const GroupGraph partner = GroupGraph::pristine(params, pop, oracles.h2);

  Rng churn_rng(11);
  const ChurnReport churn = apply_good_departures(graph, 0.10, churn_rng);
  Rng heal_rng(13);
  const HealReport heal = self_heal_round(graph, partner, oracles.h1,
                                          /*salt=*/0xFEED, /*probes=*/64,
                                          heal_rng);
  Fnv f;
  f.mix(fingerprint(graph));
  f.mix(churn.groups_lost_majority);
  f.mix(heal.healed);
  EXPECT_EQ(f.h, 0x59317e1de5d2aae2ULL);
}

/// Digest of one build_next result: both graphs, the counters and the
/// per-category message ledger.
std::uint64_t build_digest(const EpochGraphs& epoch, const BuildStats& stats) {
  Fnv f;
  f.mix(fingerprint(*epoch.g1));
  f.mix(epoch.dual() ? fingerprint(*epoch.g2) : 0);
  f.mix(stats_digest(stats));
  f.mix(stats.messages.get(sim::MsgCat::membership));
  f.mix(stats.messages.get(sim::MsgCat::neighbor_setup));
  return f.h;
}

Params pin_params(double beta) {
  Params params;
  params.n = 2000;
  params.seed = 99;
  params.beta = beta;
  return params;
}

/// FNV-1a over the bytes of an export.
std::uint64_t text_digest(const std::string& text) {
  Fnv f;
  for (const char c : text) f.mix(static_cast<unsigned char>(c));
  return f.h;
}

TEST(Epoch, BuildConfigsArePinned) {
  // What BuildsArePinned leaves out: every BuilderConfig axis and the
  // per-category message ledger, over the initial epoch and two
  // build_next calls.  At beta = 0.2 dual failures are common, so the
  // adversary-replacement and single-graph branches run often.
  struct Case {
    const char* name;
    BuilderConfig config;
    std::uint64_t pin[2];  // beta = 0.05, 0.2
  };
  const Case cases[] = {
      {"dual", {}, {0x095f28ee58f51466ULL, 0x1e63672ec6dcc6b9ULL}},
      {"single_graph",
       {.mode = BuildMode::single_graph},
       {0x05f838553ccfe6efULL, 0x9a8900abe6073af0ULL}},
      {"no_corruption",
       {.adversary_corrupts_on_failure = false},
       {0x095f28ee58f51466ULL, 0x1c552ce1676a277fULL}},
      {"half_present",
       {.bad_present_fraction = 0.5},
       {0xf3050eef1c586963ULL, 0x2ef0a6a1e8807b46ULL}},
      {"growth_0.7",
       {.growth_factor = 0.7},
       {0xb3d33814364f75a4ULL, 0x4802dab908d955f8ULL}},
      {"growth_1.2",
       {.growth_factor = 1.2},
       {0x1bbd3a54a0565c1fULL, 0xe12c7a07e6c7342cULL}},
  };
  const double betas[] = {0.05, 0.2};
  for (const Case& c : cases) {
    for (std::size_t b = 0; b < 2; ++b) {
      const EpochBuilder builder(pin_params(betas[b]), c.config);
      Rng rng(99);
      EpochGraphs epoch = builder.initial(rng);
      Fnv f;
      for (int step = 0; step < 2; ++step) {
        BuildStats stats;
        epoch = builder.build_next(epoch, rng, &stats);
        f.mix(build_digest(epoch, stats));
      }
      EXPECT_EQ(f.h, c.pin[b]) << c.name << " beta=" << betas[b];
    }
  }
}

/// Stable metrics export of one build_next, recorded through the
/// process-wide binding so that routes recorded on pool workers would
/// count too.
std::string build_metrics(const EpochBuilder& builder,
                          const EpochGraphs& epoch, Rng& rng,
                          EpochGraphs* next, BuildStats* stats) {
  telemetry::Session session;
  telemetry::set_active(&session);
  *next = builder.build_next(epoch, rng, stats);
  telemetry::set_active(nullptr);
  return session.metrics_json();
}

TEST(Epoch, BuildTelemetryIsPinned) {
  // One committed route per dual search: overlay.routes, overlay.hops,
  // overlay.route_failures and every core.* counter.
  const std::pair<double, std::uint64_t> pins[] = {
      {0.05, 0x27186b6f3cd86594ULL},
      {0.2, 0x786ad7ffd2d0d979ULL},
  };
  for (const auto& [beta, pin] : pins) {
    const EpochBuilder builder(pin_params(beta));
    Rng rng(99);
    const EpochGraphs epoch = builder.initial(rng);
    EpochGraphs next;
    BuildStats stats;
    EXPECT_EQ(text_digest(build_metrics(builder, epoch, rng, &next, &stats)),
              pin)
        << "beta=" << beta;
  }
}

TEST(Epoch, PristineSlabLayoutIsPinned) {
  // What the fingerprints leave out: where the slab puts each group.
  // Per n, the digest covers memory_bytes(), the member count and
  // every group's span start as an offset from group 0's.  The sizes
  // straddle the 64-leader block and the 8192-leader wave edges.
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {1, 0x78372750d1c9e5a5ULL},     {63, 0xfa052dee50839c73ULL},
      {64, 0xbc2b163e8f612b8aULL},    {65, 0xb0fcc7c530f6f7cfULL},
      {8192, 0x50ba0c352b9ccc6bULL},  {8193, 0xb6f0a78aba4d2899ULL},
      {20000, 0xbb18284dd8d03390ULL},
  };
  for (const auto& [n, pin] : pins) {
    const GroupGraph graph = build_pristine(n, 5);
    const std::uint32_t* const base = graph.members(0).data();
    Fnv f;
    f.mix(graph.memory_bytes());
    std::uint64_t members = 0;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      f.mix(static_cast<std::uint64_t>(graph.members(i).data() - base));
      members += graph.group_size(i);
    }
    f.mix(members);
    EXPECT_EQ(f.h, pin) << "n=" << n;
  }
}

TEST(Epoch, MispredictedWindowsArePinned) {
  // Builds whose speculated windows come out other than predicted:
  // a failure-heavy beta (dual and single-graph); beta = 0.1, whose
  // windows mispredict on their first leader (5 windows), a middle one
  // (76) and their last (3); and small populations at beta = 0.2,
  // whose windows mispredict on their first or last leader, or stay
  // under the 16-leader fan-out (all of n = 15).  Per case, two
  // build_next calls, each folding build_digest and the digest of its
  // stable metrics export.
  struct Case {
    const char* name;
    double beta;
    std::size_t n;
    BuildMode mode;
    std::uint64_t pin;
  };
  const Case cases[] = {
      {"beta0.35_dual", 0.35, 2000, BuildMode::dual_graph,
       0xf6318517b00adef0ULL},
      {"beta0.35_single", 0.35, 2000, BuildMode::single_graph,
       0x9d1eec2d799200caULL},
      {"beta0.1", 0.1, 2000, BuildMode::dual_graph, 0x2926f2b43f2f8624ULL},
      {"n15", 0.2, 15, BuildMode::dual_graph, 0xb1afd5087272fbdbULL},
      {"n16", 0.2, 16, BuildMode::dual_graph, 0x297dc9d1e23f55beULL},
      {"n17", 0.2, 17, BuildMode::dual_graph, 0x62eceb26d7ce1ed4ULL},
      {"n257", 0.2, 257, BuildMode::dual_graph, 0x1fcb0e721322e5c5ULL},
  };
  for (const Case& c : cases) {
    Params params = pin_params(c.beta);
    params.n = c.n;
    const EpochBuilder builder(params, {.mode = c.mode});
    Rng rng(99);
    EpochGraphs epoch = builder.initial(rng);
    Fnv f;
    for (int step = 0; step < 2; ++step) {
      EpochGraphs next;
      BuildStats stats;
      f.mix(text_digest(build_metrics(builder, epoch, rng, &next, &stats)));
      f.mix(build_digest(next, stats));
      epoch = std::move(next);
    }
    EXPECT_EQ(f.h, c.pin) << c.name;
  }
}

TEST(Epoch, PoolAndInlineBuildsAgree) {
  // ThreadPool::global() is as wide as the machine, but a fan-out
  // nested in a pool task runs inline: the same calls made inside
  // parallel_for(1, ...) are the one-thread reference for the calls
  // made from the main thread.
  struct Result {
    std::uint64_t pristine = 0;
    std::uint64_t build = 0;
    std::string metrics;
  };
  const auto run = [](double beta) {
    Result r;
    {
      Params params = pin_params(beta);
      params.n = 5000;  // several pristine waves
      Rng rng(params.seed);
      const auto pop = std::make_shared<const Population>(
          Population::uniform(params.n, params.beta, rng));
      const crypto::OracleSuite oracles(params.seed);
      r.pristine = fingerprint(GroupGraph::pristine(params, pop, oracles.h2));
    }
    const EpochBuilder builder(pin_params(beta));
    Rng rng(99);
    const EpochGraphs epoch = builder.initial(rng);
    EpochGraphs next;
    BuildStats stats;
    r.metrics = build_metrics(builder, epoch, rng, &next, &stats);
    r.build = build_digest(next, stats);
    return r;
  };
  for (const double beta : {0.05, 0.2}) {
    const Result outside = run(beta);
    Result inside;
    ThreadPool::global().parallel_for(1,
                                      [&](std::size_t) { inside = run(beta); });
    EXPECT_EQ(inside.pristine, outside.pristine) << "beta=" << beta;
    EXPECT_EQ(inside.build, outside.build) << "beta=" << beta;
    EXPECT_EQ(inside.metrics, outside.metrics) << "beta=" << beta;
  }
}

// ---------- GroupTable representation properties ----------

/// Lay `groups` (leaders 0, 1, ...) into a table the way the builders
/// do: close them in one append_groups run, then fill each span.
GroupTable table_of(const std::vector<Group>& groups) {
  std::vector<std::uint32_t> lengths;
  for (const Group& g : groups) {
    lengths.push_back(static_cast<std::uint32_t>(g.members.size()));
  }
  GroupTable table;
  const GroupId first = table.append_groups(0, lengths);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupId id{first.index() + i};
    std::copy(groups[i].members.begin(), groups[i].members.end(),
              table.mutable_members(id).begin());
    table.set_bad_members(id,
                          static_cast<std::uint32_t>(groups[i].bad_members));
    table.set_confused(id, groups[i].confused);
  }
  return table;
}

TEST(GroupTableStorage, AppendGroupsLaysSpansBackToBack) {
  // Each run closes at the slab tail: spans back to back in leader
  // order (empty ones included), counters zeroed until set.
  GroupTable table;
  const std::vector<std::uint32_t> run1{2, 0, 3};
  const std::vector<std::uint32_t> run2{1};
  EXPECT_EQ(table.append_groups(4, run1).index(), 0u);
  EXPECT_EQ(table.append_groups(7, run2).index(), 3u);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table.slab_size(), 6u);
  const std::uint32_t* const base = table.members(GroupId{0u}).data();
  const std::size_t starts[] = {0, 2, 2, 5};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const GroupView v = table.view(GroupId{i});
    EXPECT_EQ(v.leader, i < 3 ? 4 + i : 7u) << i;
    EXPECT_EQ(v.members.data() - base, static_cast<std::ptrdiff_t>(starts[i]))
        << i;
    EXPECT_EQ(v.members.size(), i < 3 ? run1[i] : run2[0]) << i;
    EXPECT_EQ(v.bad_members, 0u) << i;
    EXPECT_FALSE(v.confused) << i;
  }
  const std::vector<std::uint32_t> third{1, 5, 9};
  std::copy(third.begin(), third.end(),
            table.mutable_members(GroupId{2u}).begin());
  table.set_bad_members(GroupId{2u}, 1);
  EXPECT_EQ(table.members(GroupId{2u}), MemberSpan(third));
  EXPECT_EQ(table.view(GroupId{2u}).bad_members, 1u);
  EXPECT_EQ(table.member_count(), 6u);
}

TEST(GroupTableStorage, AssignMembersRelocatesWithoutCorruptingNeighbors) {
  // Growing a group past its span capacity moves it to the slab tail;
  // every other group's membership must read back untouched.
  std::vector<Group> groups(3);
  for (std::size_t i = 0; i < 3; ++i) {
    groups[i].leader = i;
    groups[i].members = {static_cast<std::uint32_t>(10 * i),
                         static_cast<std::uint32_t>(10 * i + 1)};
  }
  GroupTable table = table_of(groups);
  const std::vector<std::uint32_t> grown{1, 2, 3, 4, 5, 6};
  table.assign_members(GroupId{std::uint32_t{1}}, grown.data(), grown.size());
  EXPECT_EQ(table.view(GroupId{std::uint32_t{1}}).members, MemberSpan(grown));
  EXPECT_EQ(table.view(GroupId{std::uint32_t{0}}).members, MemberSpan(groups[0].members));
  EXPECT_EQ(table.view(GroupId{std::uint32_t{2}}).members, MemberSpan(groups[2].members));

  // Shrinking stays in place and truncation keeps a prefix.
  table.truncate_members(GroupId{std::uint32_t{1}}, 2);
  const std::vector<std::uint32_t> prefix{1, 2};
  EXPECT_EQ(table.view(GroupId{std::uint32_t{1}}).members, MemberSpan(prefix));
}

// ---------- slab compaction ----------

TEST(GroupTableCompaction, CompactReclaimsChurnGapsWithByteIdenticalViews) {
  // Repeated grow-relocations (the self-heal rebuild pattern) leave a
  // dead gap behind every moved span; compact() must slide the live
  // spans back together without disturbing one observable byte.
  std::vector<Group> groups(64);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i].leader = i;
    groups[i].members = {static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(i + 1000)};
    groups[i].bad_members = i % 3;
    groups[i].confused = (i % 7) == 0;
  }
  GroupTable table = table_of(groups);

  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      auto& m = groups[i].members;
      m.push_back(static_cast<std::uint32_t>(rng.below(100000)));
      m.push_back(static_cast<std::uint32_t>(rng.below(100000)));
      table.assign_members(GroupId{i}, m.data(), m.size());
    }
  }
  ASSERT_GT(table.slab_size(), table.member_count());

  const std::size_t dead = table.slab_size() - table.member_count();
  const std::size_t reclaimed = table.compact();
  EXPECT_EQ(reclaimed, dead * sizeof(std::uint32_t));
  EXPECT_EQ(table.slab_size(), table.member_count());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupView v = table.view(GroupId{i});
    EXPECT_EQ(v.members, MemberSpan(groups[i].members)) << "group " << i;
    EXPECT_EQ(v.leader, groups[i].leader) << "group " << i;
    EXPECT_EQ(v.bad_members, groups[i].bad_members) << "group " << i;
    EXPECT_EQ(v.confused, groups[i].confused) << "group " << i;
  }
  // Already dense: a second pass moves nothing and reclaims nothing.
  EXPECT_EQ(table.compact(), 0u);
}

TEST(GroupTableCompaction, GraphCompactStorageIsThresholdGatedAndSafe) {
  GroupGraph graph = build_pristine(1024, 31);
  // Freshly built: no dead slab words, so the gate keeps it a no-op.
  EXPECT_EQ(graph.compact_storage(), 0u);

  // Deep departures strand >25% of the slab as span slack; the gate
  // opens, and compaction must be invisible to every observable.
  Rng churn_rng(5);
  (void)apply_good_departures(graph, 0.30, churn_rng);
  const std::uint64_t print = fingerprint(graph);
  const std::size_t bytes_before = graph.memory_bytes();
  const std::size_t reclaimed = graph.compact_storage();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(graph.memory_bytes(), bytes_before);
  EXPECT_EQ(fingerprint(graph), print);
  EXPECT_EQ(graph.compact_storage(), 0u);
}

}  // namespace
}  // namespace tg::core

namespace tg {
namespace {

// ---------- delivered traffic ----------

TEST(Epoch, ClientTrafficIsPinnedAtOneAndFourThreads) {
  // The workload engine builds its worlds through GroupGraph::pristine,
  // so an epoch change would surface here as a diverging trace.
  scenario::ScenarioSpec spec;
  spec.adversary = scenario::AdversaryKind::omit_ids;
  spec.topology = scenario::Topology::tinygroups;
  spec.n = 256;
  spec.beta = 0.08;
  spec.trials = 3;
  spec.seed = 4242;
  spec.churn = {1, 64};
  spec.workload.service = scenario::WorkloadAxis::Service::kv;
  spec.workload.loop = scenario::WorkloadAxis::Loop::open;
  spec.workload.rate = 2.0;
  spec.workload.clients = 4;
  spec.workload.rounds = 64;
  spec.workload.timeout_rounds = 24;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const workload::CellTraffic cell =
        workload::run_traffic_cell(spec, /*with_adversary=*/true, threads);
    EXPECT_EQ(cell.trace_hash, 0x653a03f2aabe410cULL) << threads;
    EXPECT_EQ(cell.recorder.completed, 374u) << threads;
  }
}

}  // namespace
}  // namespace tg
