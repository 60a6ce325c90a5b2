// The deterministic fault plane: PlanInjector purity and keyed-draw
// determinism, each fault behavior observed through a small network
// (drop windows, duplication, reordering, crash and partition
// windows), the off-path byte-identity contract, the legacy hazard
// alias promotion, preset resolution, and the adaptive adversary's
// plan compilation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/adaptive.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "scenario/scenario.hpp"
#include "workload/engine.hpp"
#include "workload/service.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace tg;
using fault::CrashWindow;
using fault::FaultPlan;
using fault::HazardRule;
using fault::PartitionWindow;
using fault::PlanInjector;

// ---------------------------------------------------------------------------
// PlanInjector: purity and keying
// ---------------------------------------------------------------------------

TEST(FaultPlan, DecideIsPureAndSeedKeyed) {
  FaultPlan plan;
  plan.seed = 42;
  HazardRule rule;
  rule.drop_prob = 0.5;
  rule.duplicate_prob = 0.25;
  rule.delay_prob = 0.25;
  rule.max_delay_rounds = 3;
  plan.rules.push_back(rule);
  const PlanInjector a(plan);
  const PlanInjector b(plan);  // fresh instance, same plan
  plan.seed = 43;
  const PlanInjector other(plan);

  bool any_differs = false;
  for (std::uint64_t round = 0; round < 16; ++round) {
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      const auto da = a.decide(round, 0, 1, seq);
      // Purity: the verdict is a function of (round, seq) alone —
      // identical across instances, across repeated calls, and
      // independent of any call-order state.
      const auto db = b.decide(round, 0, 1, seq);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.delay_rounds, db.delay_rounds);
      EXPECT_EQ(da.duplicates, db.duplicates);
      EXPECT_EQ(da.reorder, db.reorder);
      const auto dc = a.decide(round, 0, 1, seq);
      EXPECT_EQ(da.drop, dc.drop);
      const auto dd = other.decide(round, 0, 1, seq);
      any_differs = any_differs || da.drop != dd.drop ||
                    da.delay_rounds != dd.delay_rounds ||
                    da.duplicates != dd.duplicates;
    }
  }
  // A different plan seed is a different fault universe.
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, RuleWindowsAndNodeRangesAreHalfOpen) {
  FaultPlan plan;
  plan.seed = 7;
  HazardRule rule;
  rule.begin_round = 2;
  rule.end_round = 4;
  rule.node_lo = 10;
  rule.node_hi = 12;
  rule.drop_prob = 1.0;
  plan.rules.push_back(rule);
  const PlanInjector inj(plan);
  // In-window rounds, node 10 or 11 as src OR dst: certain drop.
  EXPECT_TRUE(inj.decide(2, 10, 0, 0).drop);
  EXPECT_TRUE(inj.decide(3, 0, 11, 1).drop);
  // Outside the round window or the node range: untouched.
  EXPECT_FALSE(inj.decide(1, 10, 0, 2).drop);
  EXPECT_FALSE(inj.decide(4, 10, 0, 3).drop);
  EXPECT_FALSE(inj.decide(3, 0, 12, 4).drop);
  EXPECT_FALSE(inj.decide(3, 9, 9, 5).drop);
}

TEST(FaultPlan, CrashAndPartitionWindowsAreCertainDrops) {
  FaultPlan plan;
  plan.seed = 7;
  plan.crashes.push_back(CrashWindow{5, 8, 0, 2});
  plan.partitions.push_back(PartitionWindow{10, 20, 0, 4});
  const PlanInjector inj(plan);
  // Crashed nodes neither send nor receive inside the window.
  EXPECT_TRUE(inj.decide(5, 1, 9, 0).drop);
  EXPECT_TRUE(inj.decide(7, 9, 0, 1).drop);
  EXPECT_FALSE(inj.decide(8, 1, 9, 2).drop);
  // Partition: only CROSSING messages drop.
  EXPECT_TRUE(inj.decide(10, 2, 6, 3).drop);
  EXPECT_TRUE(inj.decide(19, 6, 2, 4).drop);
  EXPECT_FALSE(inj.decide(15, 1, 3, 5).drop);   // within the side
  EXPECT_FALSE(inj.decide(15, 6, 7, 6).drop);   // within the rest
  EXPECT_FALSE(inj.decide(20, 2, 6, 7).drop);   // healed
}

TEST(FaultPlan, PresetsResolveByNameAndScaleToShape) {
  for (const auto& name : fault::fault_preset_names()) {
    const auto plan = fault::fault_preset(name, 64, 96, 11);
    ASSERT_TRUE(plan.has_value()) << name;
    EXPECT_FALSE(plan->empty()) << name;
    EXPECT_NE(plan->seed, 0u) << name;
    for (const auto& w : plan->partitions) {
      EXPECT_LT(w.begin_round, w.end_round);
      EXPECT_LE(w.end_round, 96u);
      EXPECT_LE(w.side_hi, 64u);
    }
    for (const auto& w : plan->crashes) {
      EXPECT_LT(w.begin_round, w.end_round);
      EXPECT_LE(w.node_hi, 64u);
    }
  }
  EXPECT_FALSE(fault::fault_preset("no-such-preset", 64, 96, 11).has_value());
  // A preset plan is itself pure in (shape, seed).
  EXPECT_EQ(fault::fault_preset("chaos", 64, 96, 11),
            fault::fault_preset("chaos", 64, 96, 11));
  EXPECT_NE(fault::fault_preset("chaos", 64, 96, 11),
            fault::fault_preset("chaos", 64, 96, 12));
}

// ---------------------------------------------------------------------------
// Network seam behavior
// ---------------------------------------------------------------------------

/// Sends one tagged message per round to a fixed peer and records the
/// tag order of everything received — enough to observe drops,
/// duplicates, and reordering exactly.
class StreamNode final : public net::Node {
 public:
  StreamNode(net::NodeId peer, std::size_t per_round, std::size_t rounds)
      : peer_(peer), per_round_(per_round), rounds_(rounds) {}

  void on_start(net::Context& ctx) override { ctx.wake_at(1); }

  void on_message(const net::Message& m, net::Context&) override {
    received_.push_back(m.tag);
  }

  void on_round_end(net::Context& ctx) override {
    if (ctx.round() >= rounds_) return;
    for (std::size_t k = 0; k < per_round_; ++k) {
      ctx.send(peer_, ctx.round() * per_round_ + k, {ctx.round()});
    }
    ctx.wake_at(ctx.round() + 1);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& received() const noexcept {
    return received_;
  }

 private:
  net::NodeId peer_;
  std::size_t per_round_;
  std::size_t rounds_;
  std::vector<std::uint64_t> received_;
};

struct StreamRun {
  net::NetworkStats stats;
  std::uint64_t trace = 0;
  std::vector<std::uint64_t> received;
};

StreamRun run_stream(const FaultPlan* plan, std::size_t per_round = 1,
                     std::size_t rounds = 8) {
  net::Network net(net::DeliveryPolicy{}, /*seed=*/5, /*threads=*/1);
  const auto a = net.add_node(
      std::make_unique<StreamNode>(1, per_round, rounds));
  const auto b = net.add_node(
      std::make_unique<StreamNode>(0, /*per_round=*/0, rounds));
  (void)a;
  std::unique_ptr<PlanInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<PlanInjector>(*plan);
    net.set_fault_injector(injector.get());
  }
  net.start();
  for (std::size_t r = 0; r < rounds + 4; ++r) net.run_round();
  StreamRun out;
  out.stats = net.stats();
  out.trace = net.trace_hash();
  out.received = dynamic_cast<StreamNode&>(net.node(b)).received();
  return out;
}

TEST(FaultSeam, WindowedDropSuppressesExactlyTheWindow) {
  FaultPlan plan;
  plan.seed = 3;
  HazardRule rule;
  rule.begin_round = 2;
  rule.end_round = 5;
  rule.drop_prob = 1.0;
  plan.rules.push_back(rule);
  const StreamRun faulted = run_stream(&plan);
  const StreamRun clean = run_stream(nullptr);
  // One send per round 1..7 (on_round_end first fires at round 1);
  // rounds 2..4 are eaten.
  EXPECT_EQ(clean.received.size(), 7u);
  EXPECT_EQ(faulted.received.size(), 4u);
  EXPECT_EQ(faulted.stats.fault_dropped, 3u);
  for (const std::uint64_t tag : faulted.received) {
    EXPECT_TRUE(tag < 2 || tag >= 5) << tag;
  }
}

TEST(FaultSeam, DuplicationDeliversExtraCopies) {
  FaultPlan plan;
  plan.seed = 3;
  HazardRule rule;
  rule.duplicate_prob = 1.0;
  plan.rules.push_back(rule);
  const StreamRun faulted = run_stream(&plan);
  EXPECT_EQ(faulted.received.size(), 14u);  // every message twice
  EXPECT_EQ(faulted.stats.fault_duplicated, 7u);
  // Copies are exact: each tag appears exactly twice.
  auto tags = faulted.received;
  std::sort(tags.begin(), tags.end());
  for (std::size_t i = 0; i + 1 < tags.size(); i += 2) {
    EXPECT_EQ(tags[i], tags[i + 1]);
  }
}

TEST(FaultSeam, ReorderReversesWithinRoundDeliveryOrder) {
  FaultPlan plan;
  plan.seed = 3;
  HazardRule rule;
  rule.reorder_prob = 1.0;
  plan.rules.push_back(rule);
  const StreamRun clean = run_stream(nullptr, /*per_round=*/3, /*rounds=*/3);
  const StreamRun faulted = run_stream(&plan, /*per_round=*/3, /*rounds=*/3);
  ASSERT_EQ(clean.received.size(), 6u);
  ASSERT_EQ(faulted.received.size(), 6u);
  EXPECT_EQ(faulted.stats.fault_reordered, 6u);
  // Same multiset of messages, different arrival order: each round's
  // batch is re-delivered in reverse hold order.
  EXPECT_NE(faulted.received, clean.received);
  EXPECT_EQ(faulted.received[0], clean.received[2]);
  EXPECT_EQ(faulted.received[2], clean.received[0]);
  auto a = clean.received;
  auto b = faulted.received;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(FaultSeam, DelayPostponesButDelivers) {
  FaultPlan plan;
  plan.seed = 3;
  HazardRule rule;
  rule.delay_prob = 1.0;
  rule.max_delay_rounds = 3;
  plan.rules.push_back(rule);
  const StreamRun faulted = run_stream(&plan);
  const StreamRun clean = run_stream(nullptr);
  // Nothing is lost — the extra drain rounds absorb every delay.
  EXPECT_EQ(faulted.received.size(), clean.received.size());
  EXPECT_EQ(faulted.stats.fault_delayed, 7u);
  EXPECT_EQ(faulted.stats.fault_dropped, 0u);
}

TEST(FaultSeam, ZeroProbabilityPlanIsByteIdenticalToNoInjector) {
  FaultPlan plan;
  plan.seed = 0xfeed;
  plan.rules.push_back(HazardRule{});  // structurally present, all-zero
  const StreamRun armed = run_stream(&plan, /*per_round=*/3);
  const StreamRun clean = run_stream(nullptr, /*per_round=*/3);
  EXPECT_EQ(armed.trace, clean.trace);
  EXPECT_EQ(armed.received, clean.received);
  EXPECT_EQ(armed.stats.delivered, clean.stats.delivered);
  EXPECT_EQ(armed.stats.fault_dropped, 0u);
  EXPECT_EQ(armed.stats.fault_delayed, 0u);
  EXPECT_EQ(armed.stats.fault_duplicated, 0u);
  EXPECT_EQ(armed.stats.fault_reordered, 0u);
}

TEST(FaultSeam, InjectBypassesTheFaultPlane) {
  FaultPlan plan;
  plan.seed = 3;
  HazardRule drop_all;
  drop_all.drop_prob = 1.0;
  plan.rules.push_back(drop_all);
  const PlanInjector injector(plan);
  net::Network net(net::DeliveryPolicy{}, 5, 1);
  const auto a = net.add_node(std::make_unique<StreamNode>(1, 0, 0));
  const auto b = net.add_node(std::make_unique<StreamNode>(0, 0, 0));
  net.set_fault_injector(&injector);
  net.start();
  net.inject(net::Message{a, b, 77, {1}, 0});
  net.run_round();
  // Harness-injected seed traffic is exempt; only node sends fault.
  EXPECT_EQ(dynamic_cast<StreamNode&>(net.node(b)).received().size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine integration: alias promotion and faulted thread invariance
// ---------------------------------------------------------------------------

workload::World blue_world() {
  std::vector<baseline::GroupComposition> regions(8);
  for (auto& g : regions) {
    g.size = 9;
    g.bad = 1;
  }
  return workload::World::from_regions(std::move(regions));
}

TEST(FaultEngine, LateReleaseTrafficIsPinned) {
  // The late_release adversary delays traffic through an always-on
  // fault rule appended after any fault preset (rule indices key the
  // plan's draws).  Pinned with no preset and under two presets;
  // recorded when the rule was still compiled from Spec hazard fields.
  struct Pin {
    const char* preset;
    std::uint64_t trace;
    std::uint64_t completed, timed_out;
  };
  const Pin pins[] = {
      {"", 0xb0fe6a1149779166ULL, 222, 22},
      {"drops", 0x05a9506d3a4f9cf9ULL, 172, 80},
      {"chaos", 0x23e3f7882d422f81ULL, 140, 115},
  };
  for (const Pin& pin : pins) {
    scenario::ScenarioSpec spec;
    spec.adversary = scenario::AdversaryKind::late_release;
    spec.topology = scenario::Topology::tinygroups;
    spec.n = 256;
    spec.beta = 0.08;
    spec.trials = 2;
    spec.seed = 4242;
    spec.churn = {1, 64};
    spec.workload.service = scenario::WorkloadAxis::Service::kv;
    spec.workload.loop = scenario::WorkloadAxis::Loop::open;
    spec.workload.rate = 2.0;
    spec.workload.rounds = 64;
    spec.workload.timeout_rounds = 24;
    spec.workload.faults_preset = pin.preset;
    const auto cell = workload::run_traffic_cell(spec, true, 1);
    EXPECT_EQ(cell.trace_hash, pin.trace) << "preset '" << pin.preset << "'";
    EXPECT_EQ(cell.recorder.issued, 256u) << "preset '" << pin.preset << "'";
    EXPECT_EQ(cell.recorder.completed, pin.completed)
        << "preset '" << pin.preset << "'";
    EXPECT_EQ(cell.recorder.timed_out, pin.timed_out)
        << "preset '" << pin.preset << "'";
  }
}

TEST(FaultEngine, ChaosWithRetriesBitIdenticalAcrossThreadCounts) {
  const auto run_once = [](std::size_t threads) {
    const workload::World world = blue_world();
    workload::KvService service(world, 64, /*salt=*/3);
    workload::Spec spec;
    spec.mode = workload::Mode::open_loop;
    spec.rate = 2.0;
    spec.rounds = 64;
    spec.timeout_rounds = 12;
    spec.retry.enabled = true;
    spec.retry.hedge = true;
    spec.faults = *fault::fault_preset("chaos", world.groups(), spec.rounds,
                                       /*seed=*/23);
    return workload::run(service, spec, 17, threads);
  };
  const auto one = run_once(1);
  const auto four = run_once(4);
  // Pinned too, so a change that alters both widths alike is caught;
  // recorded while every hop still rebuilt its payload.
  EXPECT_EQ(one.trace_hash, 0x1b16009f14b0c74bULL);
  EXPECT_EQ(one.recorder.issued, 128u);
  EXPECT_EQ(one.recorder.completed, 126u);
  EXPECT_EQ(one.recorder.timed_out, 2u);
  EXPECT_EQ(one.recorder.retries, 20u);
  EXPECT_EQ(one.recorder.hedges, 50u);
  EXPECT_EQ(one.recorder.stale_replies, 29u);
  EXPECT_EQ(one.net.delivered, 813u);
  EXPECT_EQ(one.net.fault_duplicated, 29u);
  EXPECT_EQ(one.trace_hash, four.trace_hash);
  EXPECT_EQ(one.recorder.completed, four.recorder.completed);
  EXPECT_EQ(one.recorder.timed_out, four.recorder.timed_out);
  EXPECT_EQ(one.recorder.retries, four.recorder.retries);
  EXPECT_EQ(one.recorder.hedges, four.recorder.hedges);
  EXPECT_EQ(one.recorder.stale_replies, four.recorder.stale_replies);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(one.recorder.latency.value_at_quantile(q),
              four.recorder.latency.value_at_quantile(q));
  }
  EXPECT_GT(one.recorder.issued, 0u);
  // Replayability: the same seed reproduces the faulted run exactly.
  EXPECT_EQ(run_once(1).trace_hash, one.trace_hash);
}

// ---------------------------------------------------------------------------
// Adaptive adversary
// ---------------------------------------------------------------------------

adversary::AdaptiveObservation sample_observation() {
  adversary::AdaptiveObservation obs;
  obs.groups = 64;
  obs.red_fraction = 0.05;
  obs.max_bad_fraction = 0.4;
  obs.most_bad_group = 12;
  obs.hot_group = 30;
  obs.hot_share = 0.1;
  obs.churn_epochs = 4;
  return obs;
}

TEST(AdaptiveAdversary, CampaignIsPureInObservationAndSeed) {
  const auto obs = sample_observation();
  const auto a = adversary::plan_adaptive_campaign(obs, 6, 32, 9);
  const auto b = adversary::plan_adaptive_campaign(obs, 6, 32, 9);
  ASSERT_EQ(a.actions.size(), 6u);
  ASSERT_EQ(b.actions.size(), 6u);
  for (std::size_t e = 0; e < a.actions.size(); ++e) {
    EXPECT_EQ(a.actions[e].strategy, b.actions[e].strategy) << e;
    EXPECT_EQ(a.actions[e].begin_round, b.actions[e].begin_round) << e;
    EXPECT_EQ(a.actions[e].drop_prob, b.actions[e].drop_prob) << e;
  }
  // Epoch 0 always probes (the observation phase), windows tile.
  EXPECT_EQ(a.actions[0].strategy, adversary::AdaptiveStrategy::probe);
  for (std::size_t e = 0; e < a.actions.size(); ++e) {
    EXPECT_EQ(a.actions[e].begin_round, e * 32);
    EXPECT_EQ(a.actions[e].end_round, (e + 1) * 32);
  }
  // A different seed eventually picks a different schedule.
  bool differs = false;
  for (std::uint64_t s = 10; s < 20 && !differs; ++s) {
    const auto c = adversary::plan_adaptive_campaign(obs, 6, 32, s);
    for (std::size_t e = 0; e < c.actions.size(); ++e) {
      differs = differs || c.actions[e].strategy != a.actions[e].strategy;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(AdaptiveAdversary, CompiledFaultsHealBeforeTheEpochEnds) {
  const auto plan =
      adversary::plan_adaptive_campaign(sample_observation(), 8, 48, 9);
  const fault::FaultPlan faults = adversary::compile_faults(plan);
  EXPECT_NE(faults.seed, 0u);
  // Recovery is measurable inside the campaign: every partition and
  // crash window heals strictly before its epoch's end.
  for (const auto& w : faults.partitions) {
    EXPECT_LT(w.begin_round, w.end_round);
    bool inside = false;
    for (const auto& action : plan.actions) {
      inside = inside || (w.begin_round >= action.begin_round &&
                          w.end_round < action.end_round);
    }
    EXPECT_TRUE(inside);
  }
  for (const auto& w : faults.crashes) {
    EXPECT_LT(w.begin_round, w.end_round);
  }
}

TEST(AdaptiveAdversary, RegistersInScenarioVocabulary) {
  EXPECT_EQ(to_string(scenario::AdversaryKind::adaptive), "adaptive");
  EXPECT_EQ(scenario::adversary_kind_by_name("adaptive"),
            scenario::AdversaryKind::adaptive);
  EXPECT_EQ(scenario::adversary_kind_by_name("eclipse"),
            scenario::AdversaryKind::eclipse);
  EXPECT_FALSE(scenario::adversary_kind_by_name("bogus").has_value());
  // The builtin grid grew the adaptive "faults" family, workload-armed.
  const auto* cell =
      scenario::Registry::instance().find("adaptive/tinygroups");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->spec.campaign, "faults");
  EXPECT_TRUE(cell->spec.workload.enabled());
  EXPECT_TRUE(cell->spec.workload.retries);
}

}  // namespace
