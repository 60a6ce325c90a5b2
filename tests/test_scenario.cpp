// Scenario campaign engine: registry lookup, grid expansion, seed
// determinism, and route_outbox under an active delivery policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace tg;
using scenario::AdversaryKind;
using scenario::CampaignRunner;
using scenario::Registry;
using scenario::ScenarioSpec;
using scenario::Topology;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, BuiltinGridCoversAdversariesTimesTopologies) {
  const auto& registry = Registry::instance();
  // The acceptance floor: 6 ported adversaries x at least 3 topologies.
  EXPECT_GE(registry.scenarios().size(), 18u);

  const AdversaryKind adversaries[] = {
      AdversaryKind::target_group, AdversaryKind::eclipse,
      AdversaryKind::flood,        AdversaryKind::omit_ids,
      AdversaryKind::precompute,   AdversaryKind::late_release,
  };
  const Topology topologies[] = {Topology::tinygroups, Topology::logn_groups,
                                 Topology::cuckoo,
                                 Topology::commensal_cuckoo};
  for (const auto adversary : adversaries) {
    for (const auto topology : topologies) {
      const std::string name = std::string(to_string(adversary)) + "/" +
                               std::string(to_string(topology));
      const auto* cell = registry.find(name);
      ASSERT_NE(cell, nullptr) << name;
      EXPECT_EQ(cell->spec.name, name);
      EXPECT_EQ(cell->spec.adversary, adversary);
      EXPECT_EQ(cell->spec.topology, topology);
      EXPECT_FALSE(cell->metrics.empty());
      EXPECT_TRUE(static_cast<bool>(cell->trial));
    }
  }
}

TEST(ScenarioRegistry, LookupAndFilter) {
  const auto& registry = Registry::instance();
  EXPECT_EQ(registry.find("no/such/cell"), nullptr);

  // Empty filter selects everything, in registration order.
  const auto all = registry.match("");
  EXPECT_EQ(all.size(), registry.scenarios().size());

  // Campaign tags partition the grid.
  std::size_t tagged = 0;
  std::set<std::string> campaigns;
  for (const char* tag : {"static", "dynamic", "pow", "faults"}) {
    const auto slice = registry.match(tag);
    EXPECT_FALSE(slice.empty()) << tag;
    for (const auto* cell : slice) {
      EXPECT_EQ(cell->spec.campaign, tag);
      campaigns.insert(cell->spec.name);
    }
    tagged += slice.size();
  }
  EXPECT_EQ(tagged, all.size());
  EXPECT_EQ(campaigns.size(), all.size());

  // Name-substring filtering crosses campaigns.
  const auto cuckoo = registry.match("cuckoo");
  EXPECT_FALSE(cuckoo.empty());
  for (const auto* cell : cuckoo) {
    EXPECT_NE(cell->spec.name.find("cuckoo"), std::string::npos);
  }

  // Cell seeds are decorrelated per cell.
  std::set<std::uint64_t> seeds;
  for (const auto& cell : registry.scenarios()) seeds.insert(cell.spec.seed);
  EXPECT_EQ(seeds.size(), registry.scenarios().size());
}

TEST(ScenarioRegistry, RejectsDuplicatesAndEmptyCells) {
  // Operate on a COPY-like local registry path: the process-wide
  // instance must reject a name collision with a builtin.
  auto& registry = Registry::instance();
  scenario::Scenario duplicate;
  duplicate.spec.name = "target_group/tinygroups";
  duplicate.metrics = {"x"};
  duplicate.trial = [](const ScenarioSpec&, Rng&, std::vector<double>&) {};
  EXPECT_THROW(registry.add(duplicate), std::invalid_argument);

  scenario::Scenario no_trial;
  no_trial.spec.name = "test/no_trial";
  no_trial.metrics = {"x"};
  EXPECT_THROW(registry.add(no_trial), std::invalid_argument);

  scenario::Scenario no_metrics;
  no_metrics.spec.name = "test/no_metrics";
  no_metrics.trial = [](const ScenarioSpec&, Rng&, std::vector<double>&) {};
  EXPECT_THROW(registry.add(no_metrics), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Campaign execution
// ---------------------------------------------------------------------------

ScenarioSpec small_spec(const scenario::Scenario& cell) {
  ScenarioSpec spec = cell.spec;
  spec.n = 256;
  spec.trials = 3;
  spec.churn.epochs = 1;
  spec.churn.rounds_per_epoch = 64;
  return spec;
}

TEST(ScenarioCampaign, EveryBuiltinCellRunsAtReducedScale) {
  for (const auto& cell : Registry::instance().scenarios()) {
    ScenarioSpec spec = small_spec(cell);
    spec.trials = 1;
    const auto result = CampaignRunner::run_cell(cell, spec);
    ASSERT_EQ(result.metrics.size(), cell.metrics.size()) << spec.name;
    for (std::size_t m = 0; m < result.metrics.size(); ++m) {
      EXPECT_EQ(result.metrics[m].count(), spec.trials) << spec.name;
      EXPECT_TRUE(std::isfinite(result.metrics[m].mean()))
          << spec.name << "." << cell.metrics[m];
    }
  }
}

TEST(ScenarioCampaign, LateReleaseRunsBelowTheGroupSize) {
  // The tinygroups gossip degree is the group size (13 here), more
  // neighbours than these networks have nodes.
  const auto* cell = Registry::instance().find("late_release/tinygroups");
  ASSERT_NE(cell, nullptr);
  for (std::size_t n = 8; n <= 13; ++n) {
    ScenarioSpec spec = small_spec(*cell);
    spec.n = n;
    spec.trials = 1;
    const auto result = CampaignRunner::run_cell(*cell, spec);
    ASSERT_EQ(result.metrics.size(), cell->metrics.size()) << n;
    EXPECT_EQ(result.metrics[0].count(), 1u) << n;
  }
}

TEST(ScenarioCampaign, SameSpecAndSeedIsBitIdentical) {
  const auto* cell = Registry::instance().find("omit_ids/tinygroups");
  ASSERT_NE(cell, nullptr);
  const ScenarioSpec spec = small_spec(*cell);

  const auto a = CampaignRunner::run_cell(*cell, spec);
  const auto b = CampaignRunner::run_cell(*cell, spec);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    // Bit-identical, not approximately equal: the campaign's
    // determinism contract.
    EXPECT_EQ(a.metrics[m].mean(), b.metrics[m].mean());
    EXPECT_EQ(a.metrics[m].stddev(), b.metrics[m].stddev());
    EXPECT_EQ(a.metrics[m].min(), b.metrics[m].min());
    EXPECT_EQ(a.metrics[m].max(), b.metrics[m].max());
  }

  ScenarioSpec reseeded = spec;
  reseeded.seed ^= 0xdecafbadULL;
  const auto c = CampaignRunner::run_cell(*cell, reseeded);
  bool any_difference = false;
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    any_difference |= a.metrics[m].mean() != c.metrics[m].mean();
  }
  EXPECT_TRUE(any_difference) << "seed is not reaching the trials";
}

TEST(ScenarioCampaign, RunnerAppliesOverridesAndFilter) {
  scenario::CampaignOptions options;
  options.filter = "flood/";
  options.trials_override = 2;
  options.n_override = 256;
  options.seed_override = 99;
  const auto results = scenario::CampaignRunner(options).run();
  ASSERT_GE(results.size(), 3u);  // flood against every topology
  for (const auto& r : results) {
    EXPECT_EQ(r.spec.adversary, AdversaryKind::flood);
    EXPECT_EQ(r.spec.trials, 2u);
    EXPECT_EQ(r.spec.n, 256u);
    EXPECT_EQ(r.spec.seed, 99u);
    for (const auto& m : r.metrics) EXPECT_EQ(m.count(), 2u);
  }
}

TEST(ScenarioCampaign, ReportEmitsOneRowPerMetricPlusSummary) {
  const auto* cell = Registry::instance().find("flood/cuckoo");
  ASSERT_NE(cell, nullptr);
  ScenarioSpec spec = small_spec(*cell);
  spec.trials = 1;
  const std::vector<scenario::ScenarioResult> results = {
      CampaignRunner::run_cell(*cell, spec)};

  bench::JsonReporter reporter("scenarios_test");
  CampaignRunner::report(results, reporter);
  EXPECT_EQ(reporter.rows(), cell->metrics.size() + 1);  // + summary row
}

/// Digest of the bit pattern of every RunningStats field of a result,
/// metric by metric (the Welford m2 read back as variance()).
std::uint64_t stats_digest(const scenario::ScenarioResult& result) {
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t word) { h = mix64(h ^ word); };
  for (const RunningStats& s : result.metrics) {
    fold(s.count());
    for (const double v : {s.mean(), s.variance(), s.min(), s.max()}) {
      fold(std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

TEST(ScenarioCampaign, EveryCellIsPinnedAnalyticAndUnderTraffic) {
  // Every builtin cell at a reduced spec, through its own trial and
  // under kv traffic (the campaign's `--workload kv` axis).  Recorded
  // while the traffic bridge still kept its own copies of the cells'
  // world builders, so the region churn, bucketing, omission and
  // burst worlds of both read-outs are held to one value each.
  struct Pin {
    const char* cell;
    std::uint64_t analytic, kv;
  };
  const Pin pins[] = {
      {"target_group/tinygroups", 0x2cd2058846ae17e8ULL, 0x25426c17a1cdc6c0ULL},
      {"target_group/logn_groups",
       0xa72f03967494af32ULL, 0x57e702a7e7a6117fULL},
      {"target_group/cuckoo", 0xe13833f1821e6577ULL, 0x7816459e880b604aULL},
      {"target_group/commensal_cuckoo",
       0x1f44328f2ba3301dULL, 0xc7e04baa47fd8680ULL},
      {"eclipse/tinygroups", 0xd1e63905635d7c97ULL, 0x2991f4e3ae637bc6ULL},
      {"eclipse/logn_groups", 0x2bfaf412721cb0afULL, 0x8eadaf4b36ae75a7ULL},
      {"eclipse/cuckoo", 0x71ce4e3f50ff40acULL, 0xa7c0aca8dcfe57f9ULL},
      {"eclipse/commensal_cuckoo",
       0x1ac0b6e563d3f588ULL, 0x648ad6cf8f60ac3cULL},
      {"flood/tinygroups", 0xb5bdad6a8430e835ULL, 0xf738e13908066cf7ULL},
      {"flood/logn_groups", 0xefdc2f5d20b9d5f3ULL, 0xbfcf18c5b7987207ULL},
      {"flood/cuckoo", 0x3876c388346ac17bULL, 0xc765566973ddf814ULL},
      {"flood/commensal_cuckoo", 0x4cc3f1e4cac4cff1ULL, 0xea029776f8da2fc8ULL},
      {"omit_ids/tinygroups", 0x154b9f6bc8715222ULL, 0x4f29fe25eba8d2ceULL},
      {"omit_ids/logn_groups", 0x64418145b9479020ULL, 0x35138cb99eccb2a1ULL},
      {"omit_ids/cuckoo", 0x39d2c02cf323e9c4ULL, 0xba74af310764ff35ULL},
      {"omit_ids/commensal_cuckoo",
       0xcdfd4f7d574c0d62ULL, 0x9b674217a5f78a62ULL},
      {"precompute/tinygroups", 0xba93b8f867b67331ULL, 0x91d590a88535019fULL},
      {"precompute/logn_groups", 0x21aa91056bd79fc4ULL, 0xae54399949aafaa5ULL},
      {"precompute/cuckoo", 0x841f65f487712568ULL, 0x78db7e10196ff586ULL},
      {"precompute/commensal_cuckoo",
       0x12dd845b76dbd00ULL, 0x8b7c1307689da08dULL},
      {"late_release/tinygroups", 0x5f106da3bec12384ULL, 0x8ab6d46eb3293ed6ULL},
      {"late_release/logn_groups",
       0x5f106da3bec12384ULL, 0x1bd5799c2aba54e4ULL},
      {"late_release/cuckoo", 0x5f106da3bec12384ULL, 0x6b5a663e8a237ec0ULL},
      {"late_release/commensal_cuckoo",
       0x5f106da3bec12384ULL, 0x553a33ad9eced0d2ULL},
      {"adaptive/tinygroups", 0x5ba86266cf466fc8ULL, 0x96263495348d53e6ULL},
      {"adaptive/logn_groups", 0x371ff2565da24fccULL, 0x9a0f707d3e9088deULL},
      {"adaptive/cuckoo", 0x46d18148fd1bc15aULL, 0xb944fc96bc2bc0d8ULL},
      {"adaptive/commensal_cuckoo",
       0x92c26cd1d5ceaad8ULL, 0x9a16cd39119af4d4ULL},
  };
  for (const Pin& pin : pins) {
    const auto* cell = Registry::instance().find(pin.cell);
    ASSERT_NE(cell, nullptr) << pin.cell;
    ScenarioSpec spec = cell->spec;
    spec.n = 256;
    spec.trials = 3;
    spec.churn = {2, 64};
    // An empty axis runs the cell's own trial, the adaptive cells'
    // forced-kv fallback included.
    spec.workload = {};
    const std::uint64_t analytic =
        stats_digest(CampaignRunner::run_cell(*cell, spec));
    EXPECT_EQ(analytic, pin.analytic)
        << pin.cell << " analytic: 0x" << std::hex << analytic;
    spec.workload.service = scenario::WorkloadAxis::Service::kv;
    const std::uint64_t kv =
        stats_digest(CampaignRunner::run_cell(*cell, spec));
    EXPECT_EQ(kv, pin.kv) << pin.cell << " kv: 0x" << std::hex << kv;
  }
}

// ---------------------------------------------------------------------------
// route_outbox under an active delivery policy
// ---------------------------------------------------------------------------

/// Deterministic chatter: every node fans out each round; some
/// payloads vary with received traffic so corruption/drops propagate
/// into later sends (any divergence amplifies into the trace hash).
class EchoNode final : public net::Node {
 public:
  explicit EchoNode(std::size_t n) : n_(n) {}

  void on_start(net::Context& ctx) override { ctx.wake_at(1); }

  void on_message(const net::Message& m, net::Context& ctx) override {
    (void)ctx;
    state_ = state_ * 1099511628211ULL + m.tag;
    for (const auto w : m.payload) state_ += w;
  }

  void on_round_end(net::Context& ctx) override {
    ctx.wake_at(ctx.round() + 1);
    const auto dst =
        static_cast<net::NodeId>((ctx.self() + 1 + ctx.round()) % n_);
    ctx.send(dst, /*tag=*/ctx.round(), {state_, ctx.round()});
    ctx.send(static_cast<net::NodeId>((dst * 7 + 3) % n_), /*tag=*/7,
             {state_ ^ 0xffULL});
  }

 private:
  std::size_t n_;
  std::uint64_t state_ = 1;
};

net::NetworkStats run_chatter(std::uint64_t* trace, std::size_t threads) {
  constexpr std::size_t kNodes = 24;
  constexpr std::size_t kRounds = 40;
  net::DeliveryPolicy policy;
  policy.drop_prob = 0.1;
  policy.max_delay_rounds = 2;
  policy.byzantine.assign(kNodes, 0);
  policy.byzantine[3] = policy.byzantine[11] = 1;
  net::Network network(policy, /*seed=*/1234, threads);
  for (std::size_t i = 0; i < kNodes; ++i) {
    network.add_node(std::make_unique<EchoNode>(kNodes));
  }
  network.start();
  for (std::size_t r = 0; r < kRounds; ++r) network.run_round();
  *trace = network.trace_hash();
  return network.stats();
}

TEST(RouteOutbox, PolicyTrafficIsThreadCountInvariant) {
  std::uint64_t t1 = 0;
  std::uint64_t t8 = 0;
  const auto one = run_chatter(&t1, 1);
  const auto eight = run_chatter(&t8, 8);

  // Byte-identical delivered traffic: same trace hash (covers source,
  // destination, tag, round and every payload word of every delivered
  // message in order) and identical ledger.
  EXPECT_EQ(t1, t8);
  EXPECT_EQ(one.sent, eight.sent);
  EXPECT_EQ(one.delivered, eight.delivered);
  EXPECT_EQ(one.dropped, eight.dropped);
  EXPECT_EQ(one.delayed, eight.delayed);
  EXPECT_EQ(one.corrupted, eight.corrupted);
  EXPECT_GT(one.delivered, 0u);
  EXPECT_GT(one.dropped, 0u);    // the policy actually engaged
  EXPECT_GT(one.delayed, 0u);
}

}  // namespace
