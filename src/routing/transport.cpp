#include "routing/transport.hpp"

#include <algorithm>
#include <numeric>

namespace tg::routing {
namespace {

/// State of a payload inside one group: which members currently hold
/// the TRUE value.  Bad members always push the forged value; good
/// members that decoded nothing hold nothing.
struct HoldState {
  std::size_t good_true = 0;   ///< good members holding the true value
  std::size_t good_none = 0;   ///< good members that starved
  std::size_t good_forged = 0; ///< good members deceived
  std::size_t good_total = 0;
  std::size_t bad_total = 0;

  [[nodiscard]] bool true_majority(std::size_t group_size) const noexcept {
    return 2 * good_true > group_size;
  }
  [[nodiscard]] bool forged_majority(std::size_t group_size) const noexcept {
    return 2 * (good_forged + bad_total) > group_size;
  }
};

/// Composition of a group: good/bad member counts from the pool.
std::pair<std::size_t, std::size_t> composition(
    const core::GroupView& g, const core::Population& pool) {
  std::size_t good = 0, bad = 0;
  for (const auto m : g.members) {
    if (pool.is_bad(m)) {
      ++bad;
    } else {
      ++good;
    }
  }
  return {good, bad};
}

/// Simulate one sampled-mode hop: `senders_true` good-and-correct
/// senders plus `senders_bad` colluding forgers, each emitting
/// `s` copies to distinct random receivers in a group of `recv_size`
/// with `recv_good` good members.  Bad senders see the good copies'
/// landing pattern (rushing adversary) and concentrate their budget on
/// the thinnest receivers.  Returns the receiving group's hold state.
HoldState sampled_hop(std::size_t senders_true, std::size_t senders_bad,
                      std::size_t s, std::size_t recv_good,
                      std::size_t recv_size, SampledAdversary adversary,
                      Rng& rng) {
  HoldState out;
  out.good_total = recv_good;
  out.bad_total = recv_size - recv_good;
  if (recv_size == 0) return out;
  s = std::min(s, recv_size);

  // Copies of the true value landing on each good receiver.  (Copies
  // landing on bad receivers are wasted; we sample receiver identity
  // uniformly and only track the good ones.)
  std::vector<std::uint32_t> true_copies(recv_good, 0);
  std::vector<std::size_t> pick(recv_size);
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  for (std::size_t snd = 0; snd < senders_true; ++snd) {
    // Partial Fisher-Yates: s distinct receiver slots.
    for (std::size_t j = 0; j < s; ++j) {
      const std::size_t k = j + rng.below(recv_size - j);
      std::swap(pick[j], pick[k]);
      if (pick[j] < recv_good) ++true_copies[pick[j]];
    }
  }

  std::size_t deceived = 0, starved = 0;
  if (adversary == SampledAdversary::rushing) {
    // Budget of senders_bad * s forged copies, spent greedily on the
    // receivers with the fewest true copies (cost to deceive receiver
    // r: true_copies[r] + 1, strictly outvoting the true copies).
    std::uint64_t budget = static_cast<std::uint64_t>(senders_bad) *
                           static_cast<std::uint64_t>(s);
    std::vector<std::uint32_t> sorted = true_copies;
    std::sort(sorted.begin(), sorted.end());
    for (const std::uint32_t c : sorted) {
      const std::uint64_t cost = c + 1;
      // Fan-in cap: each bad sender delivers at most one copy per
      // receiver, so no receiver collects more than senders_bad
      // forged copies.
      if (cost > senders_bad) break;
      if (budget < cost) break;
      budget -= cost;
      ++deceived;
    }
    for (std::size_t r = deceived; r < sorted.size(); ++r) {
      if (sorted[r] == 0) ++starved;
    }
  } else {
    // Oblivious: forged copies land like everyone else's.
    std::vector<std::uint32_t> forged_copies(recv_good, 0);
    for (std::size_t snd = 0; snd < senders_bad; ++snd) {
      for (std::size_t j = 0; j < s; ++j) {
        const std::size_t k = j + rng.below(recv_size - j);
        std::swap(pick[j], pick[k]);
        if (pick[j] < recv_good) ++forged_copies[pick[j]];
      }
    }
    for (std::size_t r = 0; r < recv_good; ++r) {
      if (forged_copies[r] > true_copies[r]) {
        ++deceived;
      } else if (forged_copies[r] == true_copies[r]) {
        ++starved;  // tie (including 0-0): no strict majority decoded
      }
    }
  }

  out.good_forged = deceived;
  out.good_none = starved;
  out.good_true = recv_good - deceived - starved;
  return out;
}

}  // namespace

std::string_view mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::all_to_all: return "all-to-all";
    case Mode::sampled: return "sampled";
    case Mode::certified: return "certified";
  }
  return "?";
}

TransportOutcome transmit(const core::GroupGraph& graph,
                          const overlay::Route& route,
                          const TransportParams& params, Rng& rng) {
  TransportOutcome out;
  if (route.path.empty()) return out;
  const core::Population& pool = graph.member_pool();

  // The initiating group must itself be blue, as in Section II.
  if (graph.is_red(route.path.front())) return out;

  // Current hold state: the initiator group starts clean.
  auto [g0, b0] = composition(graph.group(route.path.front()), pool);
  HoldState hold{g0, 0, 0, g0, b0};

  for (std::size_t k = 1; k < route.path.size(); ++k) {
    const std::size_t prev = route.path[k - 1];
    const std::size_t idx = route.path[k];
    const core::GroupView dst = graph.group(idx);
    const auto [dst_good, dst_bad] = composition(dst, pool);
    const std::size_t src_size = graph.group(prev).size();

    switch (params.mode) {
      case Mode::all_to_all: {
        out.messages += graph.pair_messages(prev, idx);
        if (graph.is_red(idx)) return out;
        // Blue: every good receiver hears every sender; majority
        // filtering recovers the true value whenever the SENDING side
        // presented a true majority.
        if (!hold.true_majority(src_size)) return out;
        hold = HoldState{dst_good, 0, 0, dst_good, dst_bad};
        break;
      }
      case Mode::sampled: {
        // Only members holding SOME value send (starved ones stay
        // silent); each emits min(s, |dst|) copies.
        const std::uint64_t active =
            hold.good_true + hold.good_forged + hold.bad_total;
        out.messages += active * static_cast<std::uint64_t>(
                                     std::min(params.sample_size, dst.size()));
        if (graph.is_red(idx)) return out;
        hold = sampled_hop(hold.good_true,
                           hold.bad_total + hold.good_forged,
                           params.sample_size, dst_good, dst.size(),
                           params.adversary, rng);
        if (hold.forged_majority(dst.size())) {
          // The forged value now dominates; if this is the final group
          // the payload is corrupted, otherwise it keeps propagating
          // as the majority value and corrupts the endpoint.
          out.hops_completed = k;
          out.corrupted = true;
          // Continue to charge messages for the remaining hops the
          // forged copy still travels.
          for (std::size_t k2 = k + 1; k2 < route.path.size(); ++k2) {
            out.messages += static_cast<std::uint64_t>(
                                graph.group(route.path[k2 - 1]).size()) *
                            static_cast<std::uint64_t>(std::min(
                                params.sample_size,
                                graph.group(route.path[k2]).size()));
          }
          return out;
        }
        if (!hold.true_majority(dst.size())) return out;  // starved
        break;
      }
      case Mode::certified: {
        out.messages += 1;
        if (graph.is_red(idx)) return out;  // dropped, never forged
        hold = HoldState{dst_good, 0, 0, dst_good, dst_bad};
        break;
      }
    }
    out.hops_completed = k;
  }
  out.delivered = route.ok;
  return out;
}

TransportOutcome transmit_to_key(const core::GroupGraph& graph,
                                 std::size_t start_leader, ids::RingPoint key,
                                 const TransportParams& params, Rng& rng) {
  // Thread-local scratch: transmit only reads the route, so reusing
  // one warm Route per thread keeps the convenience wrapper off the
  // heap in steady state.
  thread_local overlay::Route scratch;
  graph.topology().route_into(scratch, start_leader, key);
  return transmit(graph, scratch, params, rng);
}

std::uint64_t certified_setup_messages(const core::GroupGraph& graph) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    // DKG: dealing + complaints + justification ~ 3 all-to-all rounds.
    total += 3 * graph.intra_group_messages(i);
    // Certificate exchange with each neighboring group.
    for (const std::size_t nb : graph.topology().neighbors(i)) {
      total += graph.pair_messages(i, nb);
    }
  }
  return total;
}

ModeStats run_mode_experiment(const core::GroupGraph& graph,
                              const TransportParams& params,
                              std::size_t searches, Rng& rng) {
  ModeStats stats;
  std::size_t delivered = 0, corrupted = 0;
  std::uint64_t messages = 0, hops = 0;
  const auto account = [&](const TransportOutcome& out) {
    delivered += out.delivered ? 1 : 0;
    corrupted += out.corrupted ? 1 : 0;
    messages += out.messages;
    hops += out.hops_completed;
  };
  if (params.mode == Mode::sampled) {
    // Sampled transmission draws from the SAME rng as the (start, key)
    // sampling, so the interleaving is part of the experiment's
    // deterministic identity — keep the sequential loop.
    for (std::size_t i = 0; i < searches; ++i) {
      const std::size_t start = rng.below(graph.size());
      const ids::RingPoint key{rng.u64()};
      account(transmit_to_key(graph, start, key, params, rng));
    }
  } else {
    // all_to_all/certified never touch the rng inside transmit, so
    // pre-drawing every pair consumes the stream identically — which
    // frees the route evaluation to run as one route_many batch.
    std::vector<overlay::RouteQuery> queries(searches);
    for (auto& q : queries) {
      q.start = rng.below(graph.size());
      q.key = ids::RingPoint{rng.u64()};
    }
    std::vector<overlay::Route> routes;
    graph.topology().route_many(queries, routes);
    for (std::size_t i = 0; i < searches; ++i) {
      account(transmit(graph, routes[i], params, rng));
    }
  }
  const auto denom = static_cast<double>(searches);
  stats.success_rate = static_cast<double>(delivered) / denom;
  stats.corrupt_rate = static_cast<double>(corrupted) / denom;
  stats.mean_messages = static_cast<double>(messages) / denom;
  stats.mean_hops = static_cast<double>(hops) / denom;
  return stats;
}

}  // namespace tg::routing
