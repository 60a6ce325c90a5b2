#include "core/builder.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace tg::core {

namespace {

/// Does this route, evaluated against `graph`, reach its target
/// without touching a red group?  (Search-path semantics.)
bool route_succeeds(const GroupGraph& graph, const overlay::Route& route) {
  if (!route.ok) return false;
  for (const std::size_t idx : route.path) {
    if (graph.is_red(idx)) return false;
  }
  return true;
}

/// Message cost of the traversed portion of the search path.
std::uint64_t route_messages(const GroupGraph& graph,
                             const overlay::Route& route) {
  std::uint64_t messages = 0;
  for (std::size_t k = 1; k < route.path.size(); ++k) {
    messages += graph.pair_messages(route.path[k - 1], route.path[k]);
    if (graph.is_red(route.path[k])) break;
  }
  return messages;
}

}  // namespace

EpochBuilder::EpochBuilder(const Params& params, BuilderConfig config)
    : params_(params), config_(config), oracles_(params.seed) {}

Population EpochBuilder::next_population(std::size_t target_n,
                                         Rng& rng) const {
  const auto total_bad =
      static_cast<std::size_t>(params_.beta * static_cast<double>(target_n));
  const auto present_bad = static_cast<std::size_t>(
      config_.bad_present_fraction * static_cast<double>(total_bad));
  const std::size_t good = target_n - total_bad;

  std::vector<RingPoint> good_pts, bad_pts;
  good_pts.reserve(good);
  bad_pts.reserve(present_bad);
  for (std::size_t i = 0; i < good; ++i) good_pts.emplace_back(rng.u64());
  for (std::size_t i = 0; i < present_bad; ++i) bad_pts.emplace_back(rng.u64());
  return Population::from_points(good_pts, bad_pts);
}

EpochGraphs EpochBuilder::initial(Rng& rng) const {
  EpochGraphs out;
  out.pop = std::make_shared<const Population>(next_population(params_.n, rng));
  out.g1 = std::make_shared<GroupGraph>(
      GroupGraph::pristine(params_, out.pop, oracles_.h1));
  if (config_.mode == BuildMode::dual_graph) {
    out.g2 = std::make_shared<GroupGraph>(
        GroupGraph::pristine(params_, out.pop, oracles_.h2));
  } else {
    out.g2 = out.g1;
  }
  return out;
}

std::shared_ptr<GroupGraph> EpochBuilder::build_graph(
    const EpochGraphs& old, std::shared_ptr<const Population> new_pop,
    const crypto::RandomOracle& membership_oracle, Rng& rng,
    BuildStats* stats) const {
  const Population& old_pop = *old.pop;
  const overlay::InputGraph& old_topology = old.g1->topology();
  const std::size_t n = new_pop->size();
  const std::size_t g = params_.group_size();

  // Collect the old population's bad indices once: the adversary's
  // replacement pool when a dual failure hands it a membership slot.
  std::vector<std::uint32_t> old_bad_indices;
  for (std::size_t i = 0; i < old_pop.size(); ++i) {
    if (old_pop.is_bad(i)) old_bad_indices.push_back(static_cast<std::uint32_t>(i));
  }

  // The new topology over the new leader set determines the linking
  // rule targets whose resolution we must attempt.
  const auto new_topology =
      overlay::make_overlay(params_.overlay_kind, new_pop->table());

  BuildStats local_stats;
  BuildStats& st = stats ? *stats : local_stats;
  // Callers may accumulate one BuildStats across several builds, so
  // telemetry publishes before/after deltas of this build only.
  const BuildStats st_before = st;

  // Streaming assembly: each group's accepted members are appended
  // straight into the slab's open span (finish_group sorts and dedupes
  // in place), so the build never materializes a per-group candidate
  // vector.
  GroupTable table;
  table.reserve(n, n * g);

  // Membership-request keys h(w, slot) are independent single-block
  // oracle calls; draw each leader's g keys through the multi-lane
  // engine in one batched sweep before walking the slots.
  auto h = membership_oracle.stream_pair();
  std::vector<std::uint64_t> slots(g), points(g);
  for (std::size_t slot = 0; slot < g; ++slot) slots[slot] = slot;

  // One dual search: a single H route in the (shared) old topology,
  // evaluated against both old graphs' red sets.  Returns success and
  // charges messages to `cat`.
  const auto dual_search = [&](std::size_t boot, ids::RingPoint key,
                               sim::MsgCat cat) -> bool {
    const overlay::Route route = old_topology.route(boot, key);
    const bool ok1 = route_succeeds(*old.g1, route);
    st.messages.add(cat, route_messages(*old.g1, route));
    if (old.dual()) {
      const bool ok2 = route_succeeds(*old.g2, route);
      st.messages.add(cat, route_messages(*old.g2, route));
      return ok1 || ok2;
    }
    return ok1;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = new_pop->table().at(i).raw();

    const GroupId id = table.begin_group(static_cast<std::uint32_t>(i));

    // ---- Group-membership requests (via the bootstrap group) ----
    std::size_t corrupted = 0;
    std::size_t rejected = 0;
    h.eval_many(w, slots.data(), points.data(), g);
    for (std::size_t slot = 0; slot < g; ++slot) {
      ++st.membership_requests;
      const ids::RingPoint target{points[slot]};
      const std::size_t boot = old_pop.random_good_index(rng);
      if (!dual_search(boot, target, sim::MsgCat::membership)) {
        ++st.membership_dual_failures;
        if (config_.adversary_corrupts_on_failure && !old_bad_indices.empty()) {
          // The adversary answers the search: it plants one of its own
          // old IDs as the member.
          table.add_member(
              old_bad_indices[rng.below(old_bad_indices.size())]);
          ++corrupted;
        }
        continue;
      }
      const std::size_t member = old_pop.table().successor_index(target);
      // Verification by the solicited member: it performs its own dual
      // search on the same key (Section III-A, "Verifying a Group-
      // Membership Request") and erroneously rejects iff both searches
      // fail — Lemma 7's third failure mode, probability ~ q_f^2.
      const std::size_t vboot = old_pop.random_good_index(rng);
      if (!dual_search(vboot, target, sim::MsgCat::membership)) {
        ++st.membership_rejects;
        ++rejected;
        continue;
      }
      table.add_member(static_cast<std::uint32_t>(member));
    }
    table.finish_group();  // sort + dedupe the open span in place
    std::size_t bad = 0;
    for (const auto m : table.members(id)) {
      if (old_pop.is_bad(m)) ++bad;
    }
    table.set_bad_members(id, static_cast<std::uint32_t>(bad));
    table.set_corrupted_slots(id, static_cast<std::uint32_t>(corrupted));
    table.set_rejected_slots(id, static_cast<std::uint32_t>(rejected));

    // ---- Neighbor requests (final link resolution; Lemma 8) ----
    bool confused = false;
    for (const ids::RingPoint target :
         new_topology->link_targets(new_pop->table().at(i))) {
      ++st.neighbor_requests;
      const std::size_t boot = old_pop.random_good_index(rng);
      if (!dual_search(boot, target, sim::MsgCat::neighbor_setup)) {
        ++st.neighbor_dual_failures;
        confused = true;  // adversary supplied a wrong neighbor
        continue;
      }
      // The located neighbor verifies the request through Gboot with
      // its own dual search on the same target.
      const std::size_t vboot = old_pop.random_good_index(rng);
      if (!dual_search(vboot, target, sim::MsgCat::neighbor_setup)) {
        ++st.neighbor_rejects;
        confused = true;  // erroneous rejection leaves the link unset
      }
    }
    table.set_confused(id, confused);
  }

  auto graph = std::make_shared<GroupGraph>(params_, new_pop, old.pop,
                                            std::move(table));
  for (std::size_t i = 0; i < graph->size(); ++i) {
    if (graph->group(i).confused) ++st.confused_groups;
    if (graph->group(i).is_bad(params_)) ++st.bad_groups;
  }
  if (auto* session = telemetry::active()) {
    using telemetry::Probe;
    const auto mem_requests = st.membership_requests - st_before.membership_requests;
    const auto mem_rejects = st.membership_rejects - st_before.membership_rejects;
    const auto nbr_requests = st.neighbor_requests - st_before.neighbor_requests;
    const auto nbr_rejects = st.neighbor_rejects - st_before.neighbor_rejects;
    session->count(Probe::core_membership_requests, mem_requests);
    session->count(Probe::core_membership_rejects, mem_rejects);
    session->count(Probe::core_membership_dual_failures,
                   st.membership_dual_failures -
                       st_before.membership_dual_failures);
    session->count(Probe::core_neighbor_requests, nbr_requests);
    session->count(Probe::core_neighbor_rejects, nbr_rejects);
    session->count(Probe::core_neighbor_dual_failures,
                   st.neighbor_dual_failures - st_before.neighbor_dual_failures);
    session->event(telemetry::EventName::epoch_membership, telemetry::kSrcCore,
                   'i', /*id=*/0, mem_requests, mem_rejects);
    session->event(telemetry::EventName::epoch_neighbors, telemetry::kSrcCore,
                   'i', /*id=*/0, nbr_requests, nbr_rejects);
  }
  return graph;
}

EpochGraphs EpochBuilder::build_next(const EpochGraphs& old, Rng& rng,
                                     BuildStats* stats) const {
  // Every search of this build routes over the old topology.  Build its
  // finger rows now, from the calling thread and before any table of
  // the new epoch: allocated first, they take back the storage the
  // previous epoch's rows freed instead of a hole a new table needs.
  old.g1->topology().prepare_rows();
  EpochGraphs out;
  // Theta(n) size variation: grow/shrink by the configured factor,
  // clamped to a constant factor of the design size n.
  auto target = static_cast<std::size_t>(
      config_.growth_factor * static_cast<double>(old.pop->size()));
  target = std::clamp(target, params_.n / 2, params_.n * 2);
  out.pop = std::make_shared<const Population>(next_population(target, rng));
  out.g1 = build_graph(old, out.pop, oracles_.h1, rng, stats);
  if (config_.mode == BuildMode::dual_graph) {
    out.g2 = build_graph(old, out.pop, oracles_.h2, rng, stats);
  } else {
    out.g2 = out.g1;
  }
  if (auto* session = telemetry::active()) {
    session->set_epoch(session->epoch() + 1);
    session->count(telemetry::Probe::core_epoch_builds);
    session->event(telemetry::EventName::epoch_build, telemetry::kSrcCore, 'i',
                   /*id=*/0, /*a=*/session->epoch());
  }
  return out;
}

}  // namespace tg::core
