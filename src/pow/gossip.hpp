// The string-propagation protocol (Appendix VIII, Lemma 12).
//
// Synchronous gossip over the giant component of good groups:
//   Phase 1  — nodes generate strings locally (modelled by drawing
//              each node's minimum output: min of A uniforms),
//   Phase 2  — d' ln n steps: everyone floods its minimum; bins and
//              counters throttle forwarding,
//   Phase 3  — d' ln n more steps: no new generation, propagation
//              continues (this is what defeats the late-release
//              attack: anything a node selected by the end of Phase 2
//              still has d' ln n steps to reach everyone).
// The adversary may inject strings with very small outputs at chosen
// steps and locations ("late release").
//
// Engine (docs/ARCHITECTURE.md, "String protocol engine"): each step,
// every node pulls its in-neighbours' previous-step outboxes, sources
// ascending and once per edge, which is the order a push flood over
// `adjacency` offers them.  A per-node first-sight bitset over string
// uids (n * (n + |attacks|) bits) rejects a repeat offer with one bit
// test; only first sightings reach BinTable::accept_fresh.  A step's
// destinations drain in blocks of 16 consecutive nodes on
// ThreadPool::global().  A destination writes only its own state and
// reads only the previous step's outboxes, so the outcome and the rng
// state after the call are the same at any pool width; called from
// inside pool work, the flood runs inline.  Each block writes its
// nodes' outboxes into one uid buffer per step, which the next step
// reads in place.
#pragma once

#include <cstdint>
#include <vector>

#include "pow/epoch_string.hpp"
#include "util/rng.hpp"

namespace tg::pow {

struct GossipParams {
  std::size_t nodes = 1024;
  std::uint64_t phase1_attempts = 1 << 16;  ///< A: hash attempts per node
  std::size_t phase2_steps = 0;  ///< 0 -> auto: ceil(d_prime * ln n)
  std::size_t phase3_steps = 0;  ///< 0 -> auto: ceil(d_prime * ln n)
  double d_prime = 2.0;
  double c0 = 4.0;   ///< counter cap multiplier (c0 ln n)
  double d0 = 2.0;   ///< solution set size multiplier (d0 ln n)
  double b = 2.0;    ///< bin count multiplier (b ln (n T))
  std::uint64_t epoch_T = 1 << 20;  ///< only enters the bin count
};

/// Adversarial late release: a string with `output` injected at
/// `release_step` (global step index across phases 2+3) at `at_node`.
struct LateRelease {
  double output = 0.0;
  std::size_t release_step = 0;
  std::uint32_t at_node = 0;
};

struct GossipOutcome {
  /// Lemma 12(i): every node's selected s^{i*} is in every other
  /// node's solution set.
  bool agreement = true;
  /// Lemma 12(ii): |R_w| statistics.
  double mean_solution_set = 0.0;
  std::size_t max_solution_set = 0;
  /// Lemma 12(iii): node-level forward events (multiply by the
  /// group-level factor |G|^2 deg for wire messages).
  std::uint64_t forward_events = 0;
  std::size_t steps_run = 0;
  /// Smallest output selected network-wide (over all n selections,
  /// whether or not agreement holds).
  double global_minimum = 1.0;
};

/// Run the protocol on an explicit adjacency (the giant component).
/// Rows may be asymmetric and hold duplicates or self-loops; an entry
/// >= adjacency.size() throws std::out_of_range.  std::invalid_argument
/// is thrown, before any draw, for a release whose output is NaN or
/// outside [0, 1), for a d_prime, c0, d0 or b that is NaN, infinite or
/// negative, and when Phase 2 has no step (phase2_steps = 0 and
/// ceil(d_prime ln n) = 0), since no node would ever select.
[[nodiscard]] GossipOutcome run_string_protocol(
    const std::vector<std::vector<std::uint32_t>>& adjacency,
    const GossipParams& params, const std::vector<LateRelease>& attacks,
    Rng& rng);

/// Convenience: a connected random d-regular-ish gossip topology
/// standing in for the giant component of blue groups.  Rows are
/// sorted and symmetric; each node gets at least min(degree, nodes - 1)
/// neighbours.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> make_gossip_topology(
    std::size_t nodes, std::size_t degree, Rng& rng);

}  // namespace tg::pow
