#include "core/builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::core {

namespace {

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
/// both old graphs' red sets in one pass over its path.  Per graph
/// (search-path semantics) the search succeeds iff the route arrives
/// without touching a red group, and it is charged the all-to-all
/// messages of every hop up to and including the first red group past
/// the start.  Records no telemetry.
SearchResult dual_search(const EpochGraphs& old, std::size_t boot,
                         ids::RingPoint key, overlay::Route& route) {
  old.g1->topology().route_unrecorded(route, boot, key);
  const overlay::RoutePath& path = route.path;
  const GroupGraph& g1 = *old.g1;
  const GroupGraph& g2 = *old.g2;
  const std::uint8_t* const red1 = g1.red_flags().data();
  const std::uint8_t* const red2 = g2.red_flags().data();
  // live: no red group met past the start (yet); a single-graph build
  // has no second graph to walk.
  bool live1 = true;
  bool live2 = old.dual();
  std::uint64_t messages1 = 0;
  std::uint64_t messages2 = 0;
  for (std::size_t k = 1; k < path.size() && (live1 || live2); ++k) {
    const std::uint32_t from = path[k - 1];
    const std::uint32_t to = path[k];
    if (live1) {
      messages1 += g1.pair_messages(from, to);
      live1 = red1[to] == 0;
    }
    if (live2) {
      messages2 += g2.pair_messages(from, to);
      live2 = red2[to] == 0;
    }
  }
  SearchResult out;
  out.routed = route.ok;
  out.hops = static_cast<std::uint32_t>(route.hops());
  out.ok = route.ok && live1 && red1[path[0]] == 0;
  out.messages = messages1;
  if (old.dual()) {
    out.ok = out.ok || (route.ok && live2 && red2[path[0]] == 0);
    out.messages += messages2;
  }
  return out;
}

/// Boot index of a search that was not speculated.
constexpr std::uint32_t kNoBoot = std::numeric_limits<std::uint32_t>::max();

/// One membership or neighbor request of a window: its key, the boot
/// indices drawn for its search and its verifier's search on the
/// speculative RNG copy, the adversary's member drawn when its
/// membership search fails, and both outcomes.  After the commit the
/// fields hold what the real RNG made of the request.
struct Request {
  std::uint64_t key = 0;
  std::uint32_t boot = kNoBoot;
  std::uint32_t verifier_boot = kNoBoot;
  std::uint32_t replacement = 0;
  SearchResult search;
  SearchResult verify;
};

/// What one leader's committed requests make of its group, apart from
/// its members: the table's counters and the build's charges.
struct Assembled {
  std::uint32_t bad = 0;
  std::uint32_t membership_failures = 0;
  std::uint32_t rejected = 0;  ///< membership verifier rejections
  std::uint32_t neighbor_failures = 0;
  std::uint32_t neighbor_rejects = 0;
  bool confused = false;
  std::uint64_t membership_messages = 0;
  std::uint64_t neighbor_messages = 0;
};

/// One window leader: its requests (membership slots first), the
/// speculative RNG as it stood before the leader's first draw, and its
/// assembled group, whose members live in the window's member buffer.
struct Leader {
  std::size_t first = 0;  ///< into the window's requests
  std::size_t end = 0;
  Rng state;
  bool as_predicted = false;  ///< every first search came out predicted
  Assembled group;
};

// Window bounds, in leaders.  Below kMinWindow a fan-out costs more
// than it saves, so the window is committed with inline searches only.
constexpr std::size_t kMinWindow = 16;
constexpr std::size_t kMaxWindow = 256;
// Request keys are derived on the pool kKeyChunk leaders at a time,
// kKeyBlock leaders (one oracle stream) per task.
constexpr std::size_t kKeyChunk = 1024;
constexpr std::size_t kKeyBlock = 64;

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

  GroupTable table;
  table.reserve(n, n * g);

  // Request keys: leader w's membership keys h(w, slot), then its
  // linking-rule targets, derived on the pool a chunk of leaders at a
  // time (pure functions of the leader).
  const std::size_t chunk_cap = std::min(n, kKeyChunk);
  std::vector<std::uint64_t> membership_keys(chunk_cap * g);
  std::vector<std::vector<RingPoint>> link_keys(chunk_cap);
  std::vector<std::uint64_t> slots(g);
  for (std::size_t slot = 0; slot < g; ++slot) slots[slot] = slot;
  const auto derive_keys = [&](std::size_t chunk, std::size_t count) {
    const std::size_t blocks = (count + kKeyBlock - 1) / kKeyBlock;
    ThreadPool::global().parallel_for(blocks, [&](std::size_t b) {
      auto h = membership_oracle.stream_pair();
      const std::size_t end = std::min((b + 1) * kKeyBlock, count);
      for (std::size_t j = b * kKeyBlock; j < end; ++j) {
        const RingPoint leader = new_pop->table().at(chunk + j);
        h.eval_many(leader.raw(), slots.data(),
                    membership_keys.data() + j * g, g);
        link_keys[j] = new_topology->link_targets(leader);
      }
    });
  };

  // The leaders are built a window at a time:
  //   1. speculate (calling thread): list the window's requests and
  //      draw their boot indices on a COPY of rng, as if every
  //      request's first search came out `predict_ok`, saving the
  //      copy's state before each leader's first draw;
  //   2. evaluate (pool): per leader, run every speculated search and,
  //      if its first searches all came out as predicted, assemble its
  //      group;
  //   3. commit (calling thread): if every leader came out as
  //      predicted, the speculative draws were the real ones, so rng
  //      adopts the copy.  Otherwise rng restarts from the state saved
  //      at the first mispredicted leader, which is the real one, and
  //      that leader and the rest of the window are committed search
  //      by search: a search whose real boot equals its speculated
  //      boot reuses the stored outcome (a pure function of boot and
  //      key), any other is routed inline, and the group is assembled
  //      as on the pool.  Then the window's groups are appended, their
  //      requests charged and their routes recorded in leader order.
  // A window under kMinWindow leaders skips steps 1-2 and commits every
  // leader search by search.  The result is byte-identical to routing
  // every search inline, at any pool width.  A first search that comes
  // out other than predicted changes the draws after it (a failure
  // skips the verifier's draw and may draw the adversary's
  // replacement), so the next window shrinks to the leaders committed
  // before it.  A verifier's outcome changes no draw.
  std::vector<Request> requests;
  std::vector<Leader> leaders(std::min(n, kMaxWindow));
  std::vector<std::uint32_t> kept(leaders.size());
  std::vector<std::uint32_t> members(leaders.size() * g);
  overlay::Route route;  // inline searches' scratch
  std::size_t window = kMinWindow;
  bool predict_ok = true;  // Lemma 7: dual failures are rare

  const auto speculate = [&](std::size_t chunk, std::size_t begin,
                             std::size_t count, Rng* spec) {
    requests.clear();
    for (std::size_t j = 0; j < count; ++j) {
      Leader& leader = leaders[j];
      leader.first = requests.size();
      if (spec != nullptr) leader.state = *spec;
      const std::size_t at = begin + j - chunk;
      const auto add = [&](std::uint64_t key, bool membership) {
        Request& q = requests.emplace_back();
        q.key = key;
        if (spec == nullptr) return;
        q.boot = static_cast<std::uint32_t>(old_pop.random_good_index(*spec));
        if (predict_ok) {
          q.verifier_boot =
              static_cast<std::uint32_t>(old_pop.random_good_index(*spec));
        } else if (membership && draws_replacement) {
          q.replacement =
              old_bad_indices[spec->below(old_bad_indices.size())];
        }
      };
      for (std::size_t slot = 0; slot < g; ++slot) {
        add(membership_keys[at * g + slot], true);
      }
      for (const RingPoint target : link_keys[at]) add(target.raw(), false);
      leader.end = requests.size();
    }
  };

  // Leader j's group from its requests' outcomes: the members the
  // membership slots yield (sorted, deduplicated), its counters and
  // its messages per category.
  const auto assemble = [&](std::size_t j) {
    const Leader& leader = leaders[j];
    Assembled& a = leaders[j].group;
    a = {};
    std::uint32_t* const out = members.data() + j * g;
    std::uint32_t count = 0;
    for (std::size_t k = leader.first; k < leader.end; ++k) {
      const Request& q = requests[k];
      const bool membership = k - leader.first < g;
      std::uint64_t& messages =
          membership ? a.membership_messages : a.neighbor_messages;
      messages += q.search.messages;
      if (!q.search.ok) {
        if (membership) {
          ++a.membership_failures;
          // The adversary answers the search: it plants one of its own
          // old IDs as the member.
          if (draws_replacement) out[count++] = q.replacement;
        } else {
          ++a.neighbor_failures;
          a.confused = true;  // adversary supplied a wrong neighbor
        }
        continue;
      }
      // Verification by the solicited member or the located neighbor:
      // its own dual search on the same key (Section III-A).  Both
      // searches failing is an erroneous rejection — Lemma 7's third
      // failure mode, probability ~ q_f^2 — and leaves a neighbor
      // link unset.
      messages += q.verify.messages;
      if (!q.verify.ok) {
        if (membership) {
          ++a.rejected;
        } else {
          ++a.neighbor_rejects;
          a.confused = true;
        }
        continue;
      }
      if (membership) {
        out[count++] = static_cast<std::uint32_t>(
            old_pop.table().successor_index(ids::RingPoint{q.key}));
      }
    }
    // Deduplicate: a physical ID holds one membership per group.
    std::sort(out, out + count);
    kept[j] = static_cast<std::uint32_t>(std::unique(out, out + count) - out);
    for (std::uint32_t k = 0; k < kept[j]; ++k) {
      if (old_pop.is_bad(out[k])) ++a.bad;
    }
  };

  const auto evaluate = [&](std::size_t count) {
    ThreadPool::global().parallel_for(count, [&](std::size_t j) {
      Leader& leader = leaders[j];
      overlay::Route scratch;  // inline storage: workers allocate nothing
      bool as_predicted = true;
      for (std::size_t k = leader.first; k < leader.end; ++k) {
        Request& q = requests[k];
        q.search = dual_search(old, q.boot, ids::RingPoint{q.key}, scratch);
        as_predicted = as_predicted && q.search.ok == predict_ok;
        if (q.verifier_boot != kNoBoot) {
          q.verify =
              dual_search(old, q.verifier_boot, ids::RingPoint{q.key}, scratch);
        }
      }
      leader.as_predicted = as_predicted;
      if (as_predicted) assemble(j);
    });
  };

  // Commit one search with the real rng: reuse the stored outcome when
  // the real boot is the speculated one.
  const auto commit_search = [&](std::uint32_t spec_boot, SearchResult& result,
                                 std::uint64_t key) {
    const std::size_t boot = old_pop.random_good_index(rng);
    if (boot != spec_boot) {
      result = dual_search(old, boot, ids::RingPoint{key}, route);
    }
    return result.ok;
  };

  // The per-search commit of leader j, then its assembly.
  const auto resolve = [&](std::size_t j) {
    Leader& leader = leaders[j];
    leader.as_predicted = true;
    for (std::size_t k = leader.first; k < leader.end; ++k) {
      Request& q = requests[k];
      const bool ok = commit_search(q.boot, q.search, q.key);
      leader.as_predicted = leader.as_predicted && ok == predict_ok;
      if (ok) {
        (void)commit_search(q.verifier_boot, q.verify, q.key);
      } else if (k - leader.first < g && draws_replacement) {
        q.replacement = old_bad_indices[rng.below(old_bad_indices.size())];
      }
    }
    assemble(j);
  };

  // Appends the window's groups and charges their requests; returns
  // the number of leaders before the first one not as predicted.
  const auto append = [&](std::size_t begin, std::size_t count) {
    const GroupId first_group = table.append_groups(
        static_cast<std::uint32_t>(begin), {kept.data(), count});
    std::size_t aligned = count;
    for (std::size_t j = 0; j < count; ++j) {
      const Leader& leader = leaders[j];
      const Assembled& a = leader.group;
      if (!leader.as_predicted && aligned == count) aligned = j;
      const GroupId id{first_group.index() + j};
      std::copy_n(members.data() + j * g, kept[j],
                  table.mutable_members(id).data());
      table.set_bad_members(id, a.bad);
      table.set_corrupted_slots(id,
                                draws_replacement ? a.membership_failures : 0);
      table.set_rejected_slots(id, a.rejected);
      table.set_confused(id, a.confused);
      st.membership_requests += g;
      st.membership_dual_failures += a.membership_failures;
      st.membership_rejects += a.rejected;
      st.neighbor_requests += leader.end - leader.first - g;
      st.neighbor_dual_failures += a.neighbor_failures;
      st.neighbor_rejects += a.neighbor_rejects;
      st.messages.add(sim::MsgCat::membership, a.membership_messages);
      st.messages.add(sim::MsgCat::neighbor_setup, a.neighbor_messages);
      if (session != nullptr) {
        // One route per committed search: a verifier searched only
        // after its first search succeeded.
        for (std::size_t k = leader.first; k < leader.end; ++k) {
          const Request& q = requests[k];
          overlay::record_route(*session, q.search.routed, q.search.hops);
          if (q.search.ok) {
            overlay::record_route(*session, q.verify.routed, q.verify.hops);
          }
        }
      }
    }
    return aligned;
  };

  for (std::size_t chunk = 0; chunk < n; chunk += kKeyChunk) {
    const std::size_t chunk_end = std::min(n, chunk + kKeyChunk);
    derive_keys(chunk, chunk_end - chunk);
    for (std::size_t begin = chunk; begin < chunk_end;) {
      const std::size_t count = std::min(window, chunk_end - begin);
      std::size_t mispredicted = 0;
      if (count >= kMinWindow) {
        Rng spec = rng;
        speculate(chunk, begin, count, &spec);
        evaluate(count);
        while (mispredicted < count && leaders[mispredicted].as_predicted) {
          ++mispredicted;
        }
        rng = mispredicted == count ? spec : leaders[mispredicted].state;
      } else {
        speculate(chunk, begin, count, nullptr);
      }
      for (std::size_t j = mispredicted; j < count; ++j) resolve(j);
      const std::size_t aligned = append(begin, count);
      predict_ok = requests.back().search.ok;
      begin += count;
      // Grow after a window the prediction got right; otherwise shrink
      // to the prefix it got right.
      window = aligned == count ? std::min(2 * window, kMaxWindow)
                                : std::max<std::size_t>(aligned, 1);
    }
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
