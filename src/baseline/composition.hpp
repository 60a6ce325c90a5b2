// Per-group composition snapshots: the common denominator between the
// contiguous-region baselines (the cuckoo rules partition the ring
// into regions) and the group-graph world.
//
// The scenario campaign engine runs the same adversary cells against
// both structures; attacks that only need to know "how bad is each
// group" (eclipse bootstrapping, flood verification) take a
// composition vector, so one implementation covers every topology.
#pragma once

#include <cstddef>
#include <vector>

namespace tg::core {
class GroupGraph;
}

namespace tg::baseline {

struct GroupComposition {
  std::size_t size = 0;
  std::size_t bad = 0;

  [[nodiscard]] double bad_fraction() const noexcept {
    return size ? static_cast<double>(bad) / static_cast<double>(size) : 0.0;
  }
  /// Good majority lost (the failure event of every baseline): ties
  /// count as lost, matching the "non-faulty majority" criterion.
  [[nodiscard]] bool majority_bad() const noexcept {
    return size != 0 && 2 * bad >= size;
  }
};

/// Composition snapshot of a group graph, one entry per group: the
/// same shape the region baselines expose, so cross-topology metrics
/// share one code path.  Sizes and bad counts are read from the
/// group table's length and bad-member columns, not recounted.
[[nodiscard]] std::vector<GroupComposition> graph_compositions(
    const core::GroupGraph& graph);

/// Fraction of groups that lost their good majority.
[[nodiscard]] double majority_bad_fraction(
    const std::vector<GroupComposition>& groups) noexcept;

/// Largest per-group bad fraction (the adversary's best concentration).
[[nodiscard]] double max_bad_fraction(
    const std::vector<GroupComposition>& groups) noexcept;

}  // namespace tg::baseline
