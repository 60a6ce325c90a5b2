#include "core/builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

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

/// One dual search, reduced to what the build keeps of it.  It is a
/// pure function of (boot, key) over the old graphs, so an outcome
/// evaluated ahead of time on a pool worker is reused verbatim.
struct SearchResult {
  std::uint64_t messages = 0;  ///< charged against both old graphs
  std::uint32_t hops = 0;      ///< of the route (telemetry)
  bool ok = false;             ///< the dual search succeeded
  bool routed = false;         ///< the route reached its key (telemetry)
};

/// A single H route in the (shared) old topology, evaluated against
/// both old graphs' red sets.  Records no telemetry.
SearchResult dual_search(const EpochGraphs& old, std::size_t boot,
                          ids::RingPoint key, overlay::Route& route) {
  old.g1->topology().route_unrecorded(route, boot, key);
  SearchResult out;
  out.routed = route.ok;
  out.hops = static_cast<std::uint32_t>(route.hops());
  out.ok = route_succeeds(*old.g1, route);
  out.messages = route_messages(*old.g1, route);
  if (old.dual()) {
    out.ok = route_succeeds(*old.g2, route) || out.ok;
    out.messages += route_messages(*old.g2, route);
  }
  return out;
}

/// Boot index of a search that was not speculated.
constexpr std::uint32_t kNoBoot = std::numeric_limits<std::uint32_t>::max();

/// One membership or neighbor request of a window: its key, the boot
/// indices drawn for its search and its verifier's search on the
/// speculative RNG copy, and both outcomes.
struct Request {
  std::uint64_t key = 0;
  std::uint32_t boot = kNoBoot;
  std::uint32_t verifier_boot = kNoBoot;
  SearchResult search;
  SearchResult verify;
};

// Window bounds, in leaders.  Below kMinWindow a fan-out costs more
// than it saves, so the window is committed with inline searches only.
constexpr std::size_t kMinWindow = 16;
constexpr std::size_t kMaxWindow = 256;

}  // namespace

EpochBuilder::EpochBuilder(const Params& params, BuilderConfig config)
    : params_(params), config_(config), oracles_(params.seed) {
  if (!(params_.beta >= 0.0 && params_.beta < 1.0)) {
    throw std::invalid_argument("EpochBuilder: beta must lie in [0, 1)");
  }
  if (!(std::isfinite(config_.growth_factor) && config_.growth_factor > 0.0)) {
    throw std::invalid_argument(
        "EpochBuilder: growth_factor must be finite and positive");
  }
  if (!(config_.bad_present_fraction >= 0.0 &&
        config_.bad_present_fraction <= 1.0)) {
    throw std::invalid_argument(
        "EpochBuilder: bad_present_fraction must lie in [0, 1]");
  }
}

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
  const std::size_t n = new_pop->size();
  const std::size_t g = params_.group_size();

  // Collect the old population's bad indices once: the adversary's
  // replacement pool when a dual failure hands it a membership slot.
  std::vector<std::uint32_t> old_bad_indices;
  for (std::size_t i = 0; i < old_pop.size(); ++i) {
    if (old_pop.is_bad(i)) old_bad_indices.push_back(static_cast<std::uint32_t>(i));
  }
  const bool draws_replacement =
      config_.adversary_corrupts_on_failure && !old_bad_indices.empty();

  // The new topology over the new leader set determines the linking
  // rule targets whose resolution we must attempt.
  const auto new_topology =
      overlay::make_overlay(params_.overlay_kind, new_pop->table());

  BuildStats local_stats;
  BuildStats& st = stats ? *stats : local_stats;
  // Callers may accumulate one BuildStats across several builds, so
  // telemetry publishes before/after deltas of this build only.
  const BuildStats st_before = st;
  telemetry::Session* const session = telemetry::active();

  // Streaming assembly: each group's accepted members are appended
  // straight into the slab's open span (finish_group sorts and dedupes
  // in place), so the build never materializes a per-group candidate
  // vector.
  GroupTable table;
  table.reserve(n, n * g);

  // Membership-request keys h(w, slot) are independent single-block
  // oracle calls; draw each leader's g keys through the multi-lane
  // engine in one batched sweep.
  auto h = membership_oracle.stream_pair();
  std::vector<std::uint64_t> slots(g), points(g);
  for (std::size_t slot = 0; slot < g; ++slot) slots[slot] = slot;

  // The leaders are built a window at a time in three steps:
  //   1. speculate: list the window's requests and draw their boot
  //      indices on a COPY of rng, as if every request's first search
  //      came out `predict_ok`;
  //   2. evaluate every speculated search on the pool;
  //   3. commit in the sequential order with the real rng.  A search
  //      whose real boot equals its speculated boot reuses the stored
  //      outcome (a pure function of boot and key); any other search
  //      is routed inline.  The result is byte-identical to routing
  //      every search inline, at any pool width.
  // A first search that comes out other than predicted changes the
  // draws after it (a failure skips the verifier's draw and may draw
  // the adversary's replacement), so the rest of its window routes
  // inline; the next window shrinks to the leaders committed before
  // it.  A verifier's outcome changes no draw.
  std::vector<Request> requests;
  std::vector<std::size_t> leader_end;  // per window leader, into requests
  overlay::Route route;                 // inline searches' scratch
  std::size_t window = kMinWindow;
  bool predict_ok = true;  // Lemma 7: dual failures are rare

  const auto speculate = [&](std::size_t begin, Rng* spec) {
    requests.clear();
    leader_end.clear();
    const auto add = [&](std::uint64_t key, bool membership) {
      Request& q = requests.emplace_back();
      q.key = key;
      if (spec == nullptr) return;
      q.boot = static_cast<std::uint32_t>(old_pop.random_good_index(*spec));
      if (predict_ok) {
        q.verifier_boot =
            static_cast<std::uint32_t>(old_pop.random_good_index(*spec));
      } else if (membership && draws_replacement) {
        (void)spec->below(old_bad_indices.size());
      }
    };
    for (std::size_t i = begin; i < begin + window; ++i) {
      const RingPoint leader = new_pop->table().at(i);
      h.eval_many(leader.raw(), slots.data(), points.data(), g);
      for (std::size_t slot = 0; slot < g; ++slot) add(points[slot], true);
      for (const RingPoint target : new_topology->link_targets(leader)) {
        add(target.raw(), false);
      }
      leader_end.push_back(requests.size());
    }
  };

  const auto evaluate = [&] {
    ThreadPool::global().parallel_for(requests.size(), [&](std::size_t k) {
      Request& q = requests[k];
      overlay::Route scratch;  // inline storage: workers allocate nothing
      q.search = dual_search(old, q.boot, ids::RingPoint{q.key}, scratch);
      if (q.verifier_boot != kNoBoot) {
        q.verify =
            dual_search(old, q.verifier_boot, ids::RingPoint{q.key}, scratch);
      }
    });
  };

  // Commit one search: reuse the stored outcome when the real boot is
  // the speculated one, charge its messages and record its route.
  const auto commit_search = [&](std::uint32_t spec_boot,
                                 const SearchResult& stored,
                                 std::uint64_t key, sim::MsgCat cat) {
    const std::size_t boot = old_pop.random_good_index(rng);
    const SearchResult out = boot == spec_boot
                                  ? stored
                                  : dual_search(old, boot, ids::RingPoint{key},
                                                route);
    st.messages.add(cat, out.messages);
    if (session != nullptr) {
      overlay::record_route(*session, out.routed, out.hops);
    }
    return out.ok;
  };

  // Commits the window; returns the number of leaders before the first
  // one with a first search that did not come out predict_ok (== window
  // if none), and predicts the next window from the last first search.
  const auto commit = [&](std::size_t begin) {
    std::size_t aligned = window;
    std::size_t k = 0;
    const auto first_search = [&](std::size_t j, const Request& q,
                                  sim::MsgCat cat) {
      const bool ok = commit_search(q.boot, q.search, q.key, cat);
      if (ok != predict_ok && aligned == window) aligned = j;
      return ok;
    };
    bool last_ok = predict_ok;
    for (std::size_t j = 0; j < window; ++j) {
      const GroupId id =
          table.begin_group(static_cast<std::uint32_t>(begin + j));

      // ---- Group-membership requests (via the bootstrap group) ----
      std::uint32_t corrupted = 0;
      std::uint32_t rejected = 0;
      for (const std::size_t end = k + g; k < end; ++k) {
        const Request& q = requests[k];
        ++st.membership_requests;
        last_ok = first_search(j, q, sim::MsgCat::membership);
        if (!last_ok) {
          ++st.membership_dual_failures;
          if (draws_replacement) {
            // The adversary answers the search: it plants one of its own
            // old IDs as the member.
            table.add_member(
                old_bad_indices[rng.below(old_bad_indices.size())]);
            ++corrupted;
          }
          continue;
        }
        // Verification by the solicited member: it performs its own
        // dual search on the same key (Section III-A, "Verifying a
        // Group-Membership Request") and erroneously rejects iff both
        // searches fail — Lemma 7's third failure mode, probability
        // ~ q_f^2.
        if (!commit_search(q.verifier_boot, q.verify, q.key,
                           sim::MsgCat::membership)) {
          ++st.membership_rejects;
          ++rejected;
          continue;
        }
        table.add_member(static_cast<std::uint32_t>(
            old_pop.table().successor_index(ids::RingPoint{q.key})));
      }
      table.finish_group();  // sort + dedupe the open span in place
      std::uint32_t bad = 0;
      for (const auto m : table.members(id)) {
        if (old_pop.is_bad(m)) ++bad;
      }
      table.set_bad_members(id, bad);
      table.set_corrupted_slots(id, corrupted);
      table.set_rejected_slots(id, rejected);

      // ---- Neighbor requests (final link resolution; Lemma 8) ----
      bool confused = false;
      for (; k < leader_end[j]; ++k) {
        const Request& q = requests[k];
        ++st.neighbor_requests;
        last_ok = first_search(j, q, sim::MsgCat::neighbor_setup);
        if (!last_ok) {
          ++st.neighbor_dual_failures;
          confused = true;  // adversary supplied a wrong neighbor
          continue;
        }
        // The located neighbor verifies the request through Gboot with
        // its own dual search on the same target.
        if (!commit_search(q.verifier_boot, q.verify, q.key,
                           sim::MsgCat::neighbor_setup)) {
          ++st.neighbor_rejects;
          confused = true;  // erroneous rejection leaves the link unset
        }
      }
      table.set_confused(id, confused);
    }
    predict_ok = last_ok;
    return aligned;
  };

  for (std::size_t begin = 0; begin < n;) {
    window = std::min(window, n - begin);
    if (window >= kMinWindow) {
      Rng spec = rng;
      speculate(begin, &spec);
      evaluate();
    } else {
      speculate(begin, nullptr);
    }
    const std::size_t aligned = commit(begin);
    begin += window;
    // Grow after a window the prediction got right; otherwise shrink
    // to the prefix it got right.
    window = aligned == window ? std::min(2 * window, kMaxWindow)
                               : std::max<std::size_t>(aligned, 1);
  }

  auto graph = std::make_shared<GroupGraph>(params_, new_pop, old.pop,
                                            std::move(table));
  for (std::size_t i = 0; i < graph->size(); ++i) {
    if (graph->group(i).confused) ++st.confused_groups;
    if (graph->group(i).is_bad(params_)) ++st.bad_groups;
  }
  if (session != nullptr) {
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
  // Every search of this build routes over the old topology, most of
  // them on pool workers.  Build its finger rows now, from the calling
  // thread and before any table of the new epoch: allocated first, they
  // take back the storage the previous epoch's rows freed instead of a
  // hole a new table needs.
  old.g1->topology().prepare_rows();
  EpochGraphs out;
  // Theta(n) size variation: grow/shrink by the configured factor,
  // clamped to a constant factor of the design size n (in double, so a
  // huge factor cannot overflow the cast).
  const auto target = static_cast<std::size_t>(std::clamp(
      config_.growth_factor * static_cast<double>(old.pop->size()),
      static_cast<double>(params_.n / 2), static_cast<double>(params_.n * 2)));
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
