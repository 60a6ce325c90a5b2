// Domain generators for the tinygroups property harness: the
// dispatch-seam cross-product (hash-kernel x thread-count), churn
// sequences, adversary schedules, and workload/payload shapes.  Every
// generator shrinks toward the system's DEFAULT configuration (zero
// tape = every kernel tier enabled + 1 thread), so a minimal failing
// case names the smallest deviation from the default that still fails.
//
// Test-side on purpose: the generators reach into scenario/workload
// specs and the dispatch seams (dispatch_seams.hpp), which the
// library-side framework header must not depend on.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch_seams.hpp"
#include "fault/fault_plan.hpp"
#include "scenario/scenario.hpp"
#include "util/proptest.hpp"

namespace tg::proptest_domains {

using proptest::Gen;
using proptest::Source;

// ---- Dispatch-seam cross-product -----------------------------------------

/// One point of the seam cross-product the determinism contracts
/// must be invisible across.
struct SeamConfig {
  int kernel_combo = 15;   ///< dispatch_seams bit combo (15 = all tiers)
  std::size_t threads = 1;

  [[nodiscard]] std::string describe() const {
    std::ostringstream out;
    out << "kernels=" << kernel_combo << " threads=" << threads;
    return out.str();
  }
};

[[nodiscard]] inline Gen<SeamConfig> seam_config(std::size_t max_threads = 8) {
  return {[max_threads](Source& src) {
    SeamConfig c;
    c.kernel_combo = 15 - static_cast<int>(src.below(16));
    c.threads = 1 + src.below(max_threads);
    return c;
  }};
}

/// Forces a SeamConfig's hash-kernel dispatch for the current scope
/// and restores the previous seams on exit.  The thread count is
/// carried in the config for callers to pass to their runs.
struct SeamScope {
  crypto::seams::DispatchGuard dispatch;  // restores kernel seams

  explicit SeamScope(const SeamConfig& c) {
    crypto::detail::set_shani_enabled((c.kernel_combo & 1) != 0);
    crypto::detail::set_sse2_enabled((c.kernel_combo & 2) != 0);
    crypto::detail::set_avx2_enabled((c.kernel_combo & 4) != 0);
    crypto::detail::set_avx512_enabled((c.kernel_combo & 8) != 0);
  }

  SeamScope(const SeamScope&) = delete;
  SeamScope& operator=(const SeamScope&) = delete;
};

// ---- Churn sequences ------------------------------------------------------

/// One churn event: a good-ID departure wave plus the salt seeding its
/// departure stream.  Fractions are quantized to 5% notches so the
/// shrinker walks discrete, meaningful steps.
struct ChurnStep {
  double departure_fraction = 0.0;
  std::uint64_t salt = 0;
};

[[nodiscard]] inline Gen<std::vector<ChurnStep>> churn_sequence(
    std::size_t max_steps) {
  Gen<ChurnStep> step{[](Source& src) {
    ChurnStep s;
    s.departure_fraction = 0.05 * static_cast<double>(src.below(11));
    s.salt = src.draw();
    return s;
  }};
  return proptest::vector_of(std::move(step), 0, max_steps);
}

[[nodiscard]] inline std::string show_churn(
    const std::vector<ChurnStep>& seq) {
  std::ostringstream out;
  out << "churn[" << seq.size() << "]{";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i != 0) out << ' ';
    out << seq[i].departure_fraction << "@0x" << std::hex << seq[i].salt
        << std::dec;
  }
  out << '}';
  return out.str();
}

// ---- Adversary / topology schedules --------------------------------------

/// Shrinks toward the first entry (omit_ids — the cheapest cell).
[[nodiscard]] inline Gen<scenario::AdversaryKind> adversary_kind() {
  return proptest::element_of(std::vector<scenario::AdversaryKind>{
      scenario::AdversaryKind::omit_ids, scenario::AdversaryKind::flood,
      scenario::AdversaryKind::eclipse, scenario::AdversaryKind::target_group,
      scenario::AdversaryKind::precompute,
      scenario::AdversaryKind::late_release});
}

[[nodiscard]] inline Gen<scenario::Topology> topology_kind() {
  return proptest::element_of(std::vector<scenario::Topology>{
      scenario::Topology::tinygroups, scenario::Topology::logn_groups,
      scenario::Topology::cuckoo, scenario::Topology::commensal_cuckoo});
}

// ---- Workload / payload shapes -------------------------------------------

/// A small-but-varied traffic cell spec: service x loop x rate x
/// client population x window, over the traffic-capable adversaries.
/// Sizes are bounded so one case stays test-cheap; nightly depth comes
/// from iteration count, not case size.
[[nodiscard]] inline Gen<scenario::ScenarioSpec> traffic_spec() {
  return {[](Source& src) {
    scenario::ScenarioSpec spec;
    spec.topology = scenario::Topology::tinygroups;
    const scenario::AdversaryKind kinds[] = {scenario::AdversaryKind::omit_ids,
                                             scenario::AdversaryKind::flood,
                                             scenario::AdversaryKind::eclipse};
    spec.adversary = kinds[src.below(3)];
    spec.n = 96 + 32 * src.below(4);
    spec.beta = 0.02 * static_cast<double>(src.below(5));
    spec.trials = 1 + src.below(2);
    spec.seed = src.draw() | 1;
    spec.churn = {1, 32};
    spec.workload.service = src.below(2) == 0
                                ? scenario::WorkloadAxis::Service::kv
                                : scenario::WorkloadAxis::Service::lookup;
    spec.workload.loop = src.below(2) == 0 ? scenario::WorkloadAxis::Loop::open
                                           : scenario::WorkloadAxis::Loop::closed;
    spec.workload.rate = 1.0 + static_cast<double>(src.below(3));
    spec.workload.clients = 2 + src.below(3);
    spec.workload.rounds = 32 + 16 * src.below(3);
    spec.workload.timeout_rounds = 16;
    return spec;
  }};
}

[[nodiscard]] inline std::string show_spec(const scenario::ScenarioSpec& s) {
  std::ostringstream out;
  out << "spec{" << scenario::to_string(s.adversary) << '/'
      << scenario::to_string(s.topology) << " n=" << s.n << " beta=" << s.beta
      << " trials=" << s.trials << " seed=0x" << std::hex << s.seed << std::dec
      << ' ' << scenario::to_string(s.workload.service) << '/'
      << scenario::to_string(s.workload.loop) << " rate=" << s.workload.rate
      << " clients=" << s.workload.clients << " rounds=" << s.workload.rounds
      << '}';
  return out.str();
}

// ---- Fault plans ----------------------------------------------------------

/// Seeded fault schedules over a bounded shape: up to two hazard
/// rules (probabilities quantized to 10% notches, delays <= 3 rounds),
/// at most one partition window and one crash window inside
/// [0, rounds) x [0, groups).  Shrinks toward the EMPTY plan (zero
/// tape = no rules, no windows, seed 0 — the explicit "no faults"
/// value), so a minimal counterexample names the single hazard that
/// still breaks the property.
[[nodiscard]] inline Gen<fault::FaultPlan> fault_plan(std::size_t groups,
                                                      std::size_t rounds) {
  return {[groups, rounds](Source& src) {
    fault::FaultPlan plan;
    const std::size_t n_rules = src.below(3);
    for (std::size_t i = 0; i < n_rules; ++i) {
      fault::HazardRule rule;
      rule.begin_round = src.below(rounds);
      rule.end_round = rule.begin_round + 1 + src.below(rounds);
      rule.drop_prob = 0.1 * static_cast<double>(src.below(4));
      rule.duplicate_prob = 0.1 * static_cast<double>(src.below(4));
      rule.reorder_prob = 0.1 * static_cast<double>(src.below(4));
      rule.delay_prob = 0.1 * static_cast<double>(src.below(4));
      rule.max_delay_rounds = static_cast<std::uint32_t>(1 + src.below(3));
      plan.rules.push_back(rule);
    }
    if (src.below(2) != 0) {
      fault::PartitionWindow w;
      w.begin_round = src.below(rounds / 2 + 1);
      w.end_round = w.begin_round + 1 + src.below(rounds / 2 + 1);
      w.side_lo = 0;
      w.side_hi = static_cast<std::uint32_t>(1 + src.below(groups / 2 + 1));
      plan.partitions.push_back(w);
    }
    if (src.below(2) != 0) {
      fault::CrashWindow w;
      w.begin_round = src.below(rounds / 2 + 1);
      w.end_round = w.begin_round + 1 + src.below(rounds / 4 + 1);
      w.node_lo = 0;
      w.node_hi = static_cast<std::uint32_t>(1 + src.below(groups / 4 + 1));
      plan.crashes.push_back(w);
    }
    if (!plan.empty()) plan.seed = src.draw() | 1;
    return plan;
  }};
}

[[nodiscard]] inline std::string show_fault_plan(const fault::FaultPlan& p) {
  std::ostringstream out;
  out << "faults{seed=0x" << std::hex << p.seed << std::dec;
  for (const auto& r : p.rules) {
    out << " rule[" << r.begin_round << ',' << r.end_round << ")d=" <<
        r.drop_prob << "/u=" << r.duplicate_prob << "/o=" << r.reorder_prob
        << "/y=" << r.delay_prob << "x" << r.max_delay_rounds;
  }
  for (const auto& w : p.partitions) {
    out << " part[" << w.begin_round << ',' << w.end_round << ")<"
        << w.side_hi;
  }
  for (const auto& w : p.crashes) {
    out << " crash[" << w.begin_round << ',' << w.end_round << ")<"
        << w.node_hi;
  }
  out << '}';
  return out.str();
}

/// Payload word vectors sized to straddle the Words SBO boundary
/// (6 inline words), so both the inline and the spilled representation
/// appear in every sweep.
[[nodiscard]] inline Gen<std::vector<std::uint64_t>> payload_words(
    std::size_t max_len = 12) {
  return proptest::vector_of(proptest::u64(), 0, max_len);
}

}  // namespace tg::proptest_domains
