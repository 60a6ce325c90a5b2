#include "baseline/composition.hpp"

#include "core/group_graph.hpp"

namespace tg::baseline {

std::vector<GroupComposition> graph_compositions(
    const core::GroupGraph& graph) {
  // Every builder and mutator keeps a group's bad-member counter equal
  // to a recount of its members against the member pool, so the
  // snapshot reads the table's columns instead of the pool.
  std::vector<GroupComposition> out(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const core::GroupView group = graph.group(i);
    out[i].size = group.members.size();
    out[i].bad = group.bad_members;
  }
  return out;
}

double majority_bad_fraction(
    const std::vector<GroupComposition>& groups) noexcept {
  if (groups.empty()) return 0.0;
  std::size_t lost = 0;
  for (const auto& g : groups) {
    if (g.majority_bad()) ++lost;
  }
  return static_cast<double>(lost) / static_cast<double>(groups.size());
}

double max_bad_fraction(const std::vector<GroupComposition>& groups) noexcept {
  double worst = 0.0;
  for (const auto& g : groups) {
    const double f = g.bad_fraction();
    if (f > worst) worst = f;
  }
  return worst;
}

}  // namespace tg::baseline
