#include "baseline/composition.hpp"

#include "core/group_graph.hpp"

namespace tg::baseline {

std::vector<GroupComposition> graph_compositions(
    const core::GroupGraph& graph) {
  std::vector<GroupComposition> out(graph.size());
  const core::Population& pool = graph.member_pool();
  for (std::size_t i = 0; i < graph.size(); ++i) {
    for (const auto m : graph.group(i).members) {
      ++out[i].size;
      if (pool.is_bad(m)) ++out[i].bad;
    }
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
