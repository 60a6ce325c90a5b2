// bench_routing — the routing engine's perf trajectory
// (BENCH_routing.json).
//
// Measures every overlay's single-route and batched route evaluation,
// with successors resolved through the RingTable's grid and, for
// Chord, Chord++ and Viceroy, the overlay's finger rows built before
// timing:
//
//   route_<overlay>_n<N>       ns per route into warm caller-owned
//                              scratch
//   route_many_<overlay>_n<N>  ns per route through route_many
//
// Each row keeps the faster of two timing passes over all overlays.
// CI's regression guard scores every row against the run's
// meta.calibration_ns (the frozen calibration kernel in
// bench_common.hpp).  Before ANY number is reported for an overlay, a
// probe sweep asserts that every route succeeds and ends at the key's
// successor, found by a std::lower_bound over the IDs here rather than
// by the grid under test, and steady-state routing into warm
// caller-owned scratch is asserted to perform ZERO heap allocations,
// via this binary's global operator new/delete counters.
//
//   bench_routing [--fast] [--out DIR]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tinygroups/tinygroups.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters.  Every operator new variant funnels into
// one relaxed atomic; the steady-state assertion snapshots it around a
// measured routing pass.  malloc/free keep the actual storage so the
// overrides stay trivially correct.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace tg;

constexpr std::size_t kProbeRoutes = 200;   // correctness sweep per overlay
constexpr std::size_t kQueryPool = 256;     // cycled by the timed loops

/// Every probe route must succeed at the key's successor (P1); throws
/// on the first that does not.
void assert_routes_resolve(const overlay::InputGraph& graph, std::size_t n,
                           std::uint64_t seed) {
  const std::vector<ids::RingPoint>& ids = graph.table().points();
  Rng rng(seed);
  for (std::size_t i = 0; i < kProbeRoutes; ++i) {
    const std::size_t start = rng.below(n);
    const ids::RingPoint key{rng.u64()};
    const auto suc = std::lower_bound(ids.begin(), ids.end(), key);
    const std::size_t expected =
        suc == ids.end() ? 0 : static_cast<std::size_t>(suc - ids.begin());
    const overlay::Route r = graph.route(start, key);
    if (!r.ok || r.path.front() != start || r.path.back() != expected) {
      throw std::logic_error(std::string("route failed to resolve: ") +
                             std::string(graph.name()) + " n=" +
                             std::to_string(n) + " probe " +
                             std::to_string(i));
    }
  }
}

std::vector<overlay::RouteQuery> make_queries(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<overlay::RouteQuery> queries(kQueryPool);
  for (auto& q : queries) {
    q.start = rng.below(n);
    q.key = ids::RingPoint{rng.u64()};
  }
  return queries;
}

/// ns per route over the query pool, routing into one warm
/// caller-owned scratch Route.
double measure_route_ns(const overlay::InputGraph& graph,
                        const std::vector<overlay::RouteQuery>& queries,
                        double min_seconds) {
  overlay::Route scratch;
  return bench::measure_ns_per_op(
      [&](std::size_t iters) {
        for (std::size_t i = 0; i < iters; ++i) {
          const auto& q = queries[i % queries.size()];
          graph.route_into(scratch, q.start, q.key);
          bench::do_not_optimize(scratch.path.empty() ? 0 : scratch.path.back());
        }
      },
      min_seconds);
}

/// ns per route through route_many, reusing one warm output vector.
double measure_batch_ns(const overlay::InputGraph& graph,
                        const std::vector<overlay::RouteQuery>& queries,
                        double min_seconds) {
  std::vector<overlay::Route> out;
  graph.route_many(queries, out);  // warm the scratch routes
  return bench::measure_ns_per_op(
      [&](std::size_t iters) {
        // iters counts ROUTES; run whole batches to cover them.
        const std::size_t batches =
            (iters + queries.size() - 1) / queries.size();
        for (std::size_t b = 0; b < batches; ++b) {
          graph.route_many(queries, out);
          bench::do_not_optimize(out.back().path.empty()
                                     ? 0
                                     : out.back().path.back());
        }
      },
      min_seconds);
}

/// Steady-state allocation audit: after one warm pass over the pool,
/// a second identical pass must not touch the heap at all.
std::uint64_t steady_state_allocations(
    const overlay::InputGraph& graph,
    const std::vector<overlay::RouteQuery>& queries) {
  overlay::Route scratch;
  for (const auto& q : queries) graph.route_into(scratch, q.start, q.key);
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (const auto& q : queries) graph.route_into(scratch, q.start, q.key);
  bench::do_not_optimize(scratch.path.empty() ? 0 : scratch.path.back());
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::warn);
  bool fast = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--out DIR]\n";
      return 2;
    }
  }

  bench::banner(
      "routing engine",
      "the table's successor grid + built-once finger rows route every "
      "overlay with an allocation-free steady state");

  const std::vector<std::size_t> sizes =
      fast ? std::vector<std::size_t>{1'000, 10'000}
           : std::vector<std::size_t>{1'000, 100'000};
  const double min_seconds = fast ? 0.02 : 0.05;

  bench::JsonReporter reporter("routing");
  bench::record_calibration(reporter);
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  Table t({"overlay", "n", "ns/route", "batch ns/route"});
  t.set_title("route evaluation");

  // Build every (n, overlay) once, then time them in two passes over
  // the whole set, the second in reverse order: each row keeps its
  // faster pass, so a contention burst on the host must hit a row
  // twice, seconds apart, to move it.
  struct Case {
    std::size_t n;
    std::string slug;
    std::unique_ptr<overlay::InputGraph> graph;
    std::vector<overlay::RouteQuery> queries;
    double route_ns = std::numeric_limits<double>::infinity();
    double batch_ns = std::numeric_limits<double>::infinity();
  };
  std::vector<ids::RingTable> tables;
  tables.reserve(sizes.size());  // overlays hold pointers into it
  std::vector<Case> cases;
  for (const std::size_t n : sizes) {
    Rng rng(0xB07E5 + n);
    const ids::RingTable& table = tables.emplace_back(
        ids::RingTable::uniform(n, rng));
    for (const overlay::Kind kind : overlay::all_kinds()) {
      Case c{n, std::string(overlay::kind_slug(kind)),
             overlay::make_overlay(kind, table),
             make_queries(n, /*seed=*/0xC0FFEE + n)};
      c.graph->prepare_rows();  // build outside the timed window
      assert_routes_resolve(*c.graph, n, /*seed=*/0x51DE + n);
      const std::uint64_t steady =
          steady_state_allocations(*c.graph, c.queries);
      if (steady != 0) {
        throw std::logic_error(
            "steady-state routing touched the heap: " + c.slug + " n=" +
            std::to_string(n) + " performed " + std::to_string(steady) +
            " allocations");
      }
      cases.push_back(std::move(c));
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < cases.size(); ++k) {
      Case& c = cases[pass == 0 ? k : cases.size() - 1 - k];
      c.route_ns = std::min(
          c.route_ns, measure_route_ns(*c.graph, c.queries, min_seconds));
      c.batch_ns = std::min(
          c.batch_ns, measure_batch_ns(*c.graph, c.queries, min_seconds));
      bench::record_calibration(reporter);
    }
  }

  for (const Case& c : cases) {
    const bench::JsonReporter::Fields shape{{"n", static_cast<double>(c.n)}};
    const std::string suffix = "_n" + std::to_string(c.n);
    reporter.add_ns_per_op("route_" + c.slug + suffix, c.route_ns, shape);
    reporter.add_ns_per_op("route_many_" + c.slug + suffix, c.batch_ns,
                           shape);
    t.add_row({c.slug, c.n, c.route_ns, c.batch_ns});
  }

  t.print(std::cout);
  std::cout << "(every route resolved at its key's successor over "
            << kProbeRoutes << " probes per overlay x size, and\n"
               " steady-state routing performed zero heap allocations.)\n";
  return reporter.write(out_dir) ? 0 : 1;
}
