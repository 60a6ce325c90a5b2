#include "pow/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace tg::pow {

std::vector<std::vector<std::uint32_t>> make_gossip_topology(
    std::size_t nodes, std::size_t degree, Rng& rng) {
  std::vector<std::vector<std::uint32_t>> adj(nodes);
  if (nodes < 2) return adj;
  // A node has at most nodes-1 distinct neighbours.
  degree = std::min(degree, nodes - 1);
  // A row also collects the links other nodes draw to it; twice the
  // degree lets nearly every row fill without regrowing (at n = 4096
  // and degree 27, rows end at 33.5 entries on average, 52 at most).
  for (auto& row : adj) row.reserve(2 * degree);
  // Links are symmetric, so membership on one side decides both.
  const auto link = [&adj](std::uint32_t a, std::uint32_t b) {
    if (std::find(adj[a].begin(), adj[a].end(), b) != adj[a].end()) return;
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  // Ring backbone guarantees connectivity; random chords give the
  // expander-like expansion that keeps the diameter O(log n).
  for (std::uint32_t i = 0; i < nodes; ++i) {
    link(i, static_cast<std::uint32_t>((i + 1) % nodes));
  }
  for (std::uint32_t i = 0; i < nodes; ++i) {
    while (adj[i].size() < degree) {
      const auto peer = static_cast<std::uint32_t>(rng.below(nodes));
      if (peer != i) link(i, peer);
    }
  }
  for (auto& row : adj) std::sort(row.begin(), row.end());
  return adj;
}

namespace {

/// A late release that fires: its step is within the run and its node
/// exists.
struct Release {
  std::size_t step = 0;
  std::uint32_t node = 0;
  std::uint32_t uid = 0;
};

/// Destinations per flood block: one pool task fills a block's
/// outboxes, draining its destinations in node order.  At n = 4096,
/// 16-node blocks ran about 9% faster than 64-node ones (see
/// docs/ARCHITECTURE.md, "String protocol engine").
constexpr std::size_t kBlock = 16;

/// One step's outboxes: one uid buffer per block, and per node the end
/// of its uids in its block's buffer.  Node d's uids start where node
/// d - 1's end, or at 0 for a block's first node.
struct Outboxes {
  std::vector<std::vector<std::uint32_t>> box;
  std::vector<std::size_t> end;

  [[nodiscard]] std::span<const std::uint32_t> of(std::size_t d) const {
    const std::size_t begin = d % kBlock == 0 ? 0 : end[d - 1];
    return {box[d / kBlock].data() + begin, end[d] - begin};
  }
};

}  // namespace

GossipOutcome run_string_protocol(
    const std::vector<std::vector<std::uint32_t>>& adjacency,
    const GossipParams& params, const std::vector<LateRelease>& attacks,
    Rng& rng) {
  for (const LateRelease& atk : attacks) {
    // Negated so that NaN fails too.
    if (!(atk.output >= 0.0 && atk.output < 1.0)) {
      throw std::invalid_argument("late release output outside [0, 1)");
    }
  }
  GossipOutcome out;
  const std::size_t n = adjacency.size();
  if (n == 0) return out;

  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 3)));
  const std::size_t phase2 =
      params.phase2_steps ? params.phase2_steps
                          : static_cast<std::size_t>(std::ceil(params.d_prime * ln_n));
  const std::size_t phase3 =
      params.phase3_steps ? params.phase3_steps
                          : static_cast<std::size_t>(std::ceil(params.d_prime * ln_n));
  const auto counter_cap =
      static_cast<std::size_t>(std::ceil(params.c0 * ln_n));
  const auto rset_size = static_cast<std::size_t>(std::ceil(params.d0 * ln_n));
  const auto bins = static_cast<std::size_t>(std::ceil(
      params.b * std::log(static_cast<double>(n) *
                          static_cast<double>(params.epoch_T))));
  const std::size_t total_steps = phase2 + phase3;

  // In-neighbour CSR: sources ascending, once per edge, multi-edges and
  // self-loops kept.  Draining it is exactly the order in which
  // `for i: for nb in adjacency[i]: for s in outbox[i]` offers strings
  // to each destination.
  std::vector<std::size_t> in_off(n + 1, 0);
  for (const auto& row : adjacency) {
    for (const std::uint32_t nb : row) {
      if (nb >= n) throw std::out_of_range("gossip adjacency names no node");
      ++in_off[nb + 1];
    }
  }
  std::partial_sum(in_off.begin(), in_off.end(), in_off.begin());
  std::vector<std::uint32_t> in_src(in_off[n]);
  {
    std::vector<std::size_t> fill(in_off.begin(), in_off.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const std::uint32_t nb : adjacency[i]) in_src[fill[nb]++] = i;
    }
  }

  // ---- Phase 1: local generation.  The minimum of A uniforms has
  // CDF 1-(1-x)^A; inverse-sample it per node.  Strings are stored once,
  // indexed by uid: node i's minimum is uid i, the releases follow.
  std::vector<LotteryString> strings(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    const double x = 1.0 - std::pow(1.0 - u,
                                    1.0 / static_cast<double>(
                                              params.phase1_attempts));
    strings[i] = LotteryString{x, static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(i)};
  }
  std::vector<Release> releases;
  for (const LateRelease& atk : attacks) {
    if (atk.release_step < total_steps && atk.at_node < n) {
      const auto uid = static_cast<std::uint32_t>(strings.size());
      strings.push_back({atk.output, atk.at_node, uid});
      releases.push_back({atk.release_step, atk.at_node, uid});
    }
  }
  // Consumed in (step, node) order; attack-list order within each.
  const auto before = [](const Release& a, const Release& b) {
    return a.step != b.step ? a.step < b.step : a.node < b.node;
  };
  std::stable_sort(releases.begin(), releases.end(), before);
  std::vector<std::size_t> bin(strings.size());
  for (std::size_t u = 0; u < strings.size(); ++u) {
    bin[u] = bin_of(strings[u].output, bins);
  }

  // First-sight filter: one bit per (node, uid).  A uid a node was
  // offered before is one BinTable::accept would reject anyway, so only
  // first sightings reach the retention rule.
  const std::size_t words = (strings.size() + 63) / 64;
  std::vector<std::uint64_t> seen(n * words, 0);
  // A table is offered each uid at most once, so a bin never holds more
  // than every string: a larger cap never fills and would only enlarge
  // what each bin reserves.
  std::vector<BinTable> tables(
      n, BinTable(bins, std::min(counter_cap, strings.size())));
  std::vector<LotteryString> selected(n);  // s^{i*}: chosen at end of Phase 2

  // ---- Phases 2+3: synchronous flooding with bin/counter filtering.
  // Pass s fills the outboxes nodes send in step s: a node's own
  // minimum (s = 0) or what it accepted from step s - 1's outboxes,
  // then its releases for step s.  Pass total_steps sends nothing; it
  // completes the last step's accepts.  A destination writes only its
  // own seen row, table, selection and outbox and reads only the
  // previous pass's outboxes, so the blocks of a pass run on the pool
  // in any order with the same result.
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  Outboxes sent{std::vector<std::vector<std::uint32_t>>(blocks),
                std::vector<std::size_t>(n, 0)};
  Outboxes filled = sent;
  std::size_t pass = 0;
  const std::function<void(std::size_t)> fill_block = [&](std::size_t b) {
    const std::size_t first = b * kBlock;
    const std::size_t last = std::min(n, first + kBlock);
    std::vector<std::uint32_t>& box = filled.box[b];
    box.clear();
    auto rel = std::lower_bound(
        releases.begin(), releases.end(),
        Release{pass, static_cast<std::uint32_t>(first)}, before);
    for (std::size_t d = first; d < last; ++d) {
      std::uint64_t* const row = &seen[d * words];
      BinTable& table = tables[d];
      const auto offer = [&](std::uint32_t u) {
        const std::uint64_t bit = std::uint64_t{1} << (u & 63);
        if ((row[u >> 6] & bit) != 0) return;
        row[u >> 6] |= bit;
        if (table.accept_fresh(strings[u], bin[u])) box.push_back(u);
      };
      if (pass == 0) {
        offer(static_cast<std::uint32_t>(d));
      } else {
        for (std::size_t k = in_off[d]; k < in_off[d + 1]; ++k) {
          for (const std::uint32_t u : sent.of(in_src[k])) offer(u);
        }
      }
      // End of Phase 2: the node selects its current minimum (a run
      // without Phase 2 selects nothing).
      if (pass != 0 && pass == phase2) {
        selected[d] = table.minimum().value_or(strings[d]);
      }
      for (; rel != releases.end() && rel->step == pass && rel->node == d;
           ++rel) {
        offer(rel->uid);
      }
      filled.end[d] = box.size();
    }
  };
  for (; pass <= total_steps; ++pass) {
    if (pass != 0) {
      // Step pass - 1 sends what the previous pass filled.
      for (std::size_t i = 0; i < n; ++i) {
        out.forward_events += adjacency[i].size() * sent.of(i).size();
      }
    }
    ThreadPool::global().parallel_for(blocks, fill_block);
    std::swap(sent, filled);
  }
  out.steps_run = total_steps;

  // ---- Evaluation (Lemma 12): count, per uid, the solution sets
  // holding it; agreement means every selection is held by all n.
  std::vector<std::size_t> holders(strings.size(), 0);
  double sum_sizes = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto rset = tables[i].solution_set(rset_size);
    sum_sizes += static_cast<double>(rset.size());
    out.max_solution_set = std::max(out.max_solution_set, rset.size());
    for (const auto& s : rset) ++holders[s.uid];
  }
  out.mean_solution_set = sum_sizes / static_cast<double>(n);
  for (const LotteryString& s : selected) {
    out.global_minimum = std::min(out.global_minimum, s.output);
    out.agreement = out.agreement && holders[s.uid] == n;
  }
  return out;
}

}  // namespace tg::pow
