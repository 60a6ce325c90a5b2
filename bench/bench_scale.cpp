// bench_scale — the million-node scaling trajectory (BENCH_scale.json).
//
// Exhibits the paper's headline property at the engineering level: with
// |G| ~ d1 ln ln n, per-epoch cost must stay near-linear and memory
// flat-per-member as n grows from 10^4 to 10^6.  Two phases per n:
//
//   scale_epoch_build_n<N>   pristine epoch build into the GroupTable
//                            slab (blocks of leaders hashed through the
//                            multi-lane oracle engine on the pool)
//   scale_round_loop_n<N>    chatter round loop at n nodes, 12-word
//                            payloads (every message spills)
//
// and two rows for the dynamic construction of Section III, one
// build_next from the builder's initial epoch at n = 10^4:
//
//   scale_build_next_n10000         beta = 0.05: dual failures are rare
//                                   and the speculative searches almost
//                                   all commit
//   scale_build_next_n10000_beta20  beta = 0.2: failure-heavy, so most
//                                   searches are routed inline
//
// meta.pool_width records ThreadPool::global().size(): the rows are
// normalized for clock speed, not for core count.
//
// Every pristine and round-loop row carries peak_rss_bytes, measured
// per phase: the kernel's RSS high-water mark is reset (bench_common's
// reset_peak_rss) before each build/loop so one process can report
// honest per-phase peaks.  The build_next rows, measured last, carry
// none: what the earlier phases left resident would dominate theirs.
// Each timed row is the fastest of its repetitions; CI's regression
// guard scores it against the run's meta.calibration_ns (the frozen
// calibration kernel).
//
// --fast caps n at 10^5 (the CI scale-smoke shape; the regression
// guard runs with --allow-missing so the absent 10^6 rows are
// tolerated there).
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

namespace {

using namespace tg;

struct BuildMeasurement {
  double ns_per_build = 0.0;
  std::uint64_t peak_rss = 0;
  std::size_t members = 0;
  std::size_t memory_bytes = 0;
  double red_fraction = 0.0;
};

/// Time `reps` pristine builds (the fastest counts; see
/// bench::fastest_across_cpus); the phase-local RSS peak covers the
/// LAST build only (the watermark is reset between reps so lingering
/// pages from earlier reps don't inflate it).
BuildMeasurement measure_epoch_build(
    const core::Params& params,
    const std::shared_ptr<const core::Population>& pop,
    const crypto::RandomOracle& oracle, std::size_t reps) {
  BuildMeasurement out;
  out.ns_per_build =
      bench::fastest_across_cpus(static_cast<int>(reps), [&] {
        bench::reset_peak_rss();
        const Stopwatch sw;
        const core::GroupGraph graph =
            core::GroupGraph::pristine(params, pop, oracle);
        const double ns = sw.seconds() * 1e9;
        out.peak_rss = bench::peak_rss_bytes();
        std::size_t members = 0;
        for (std::size_t i = 0; i < graph.size(); ++i) {
          members += graph.group_size(i);
        }
        out.members = members;
        out.memory_bytes = graph.memory_bytes();
        out.red_fraction = graph.red_fraction();
        return ns;
      });
  return out;
}

struct NextMeasurement {
  double ns_per_build = 0.0;
  core::BuildStats stats;
};

/// The fastest of `reps` build_next calls, each from the same initial
/// epoch and rng state, so every rep builds the same epoch.
NextMeasurement measure_build_next(std::size_t n, double beta,
                                   std::size_t reps) {
  core::Params params;
  params.n = n;
  params.seed = 2024;
  params.beta = beta;
  const core::EpochBuilder builder(params);
  Rng rng(params.seed);
  const core::EpochGraphs initial = builder.initial(rng);
  NextMeasurement out;
  out.ns_per_build = bench::fastest_across_cpus(static_cast<int>(reps), [&] {
    Rng build_rng = rng;
    core::BuildStats stats;
    const Stopwatch sw;
    const core::EpochGraphs next =
        builder.build_next(initial, build_rng, &stats);
    const double ns = sw.seconds() * 1e9;
    out.stats = stats;
    return ns;
  });
  return out;
}

struct LoopMeasurement {
  double ns_per_round = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t peak_rss = 0;
};

/// The fastest of `reps` chatter loops; the RSS peak covers the last.
LoopMeasurement measure_round_loop(const scenario::RoundLoopConfig& config,
                                   std::size_t reps) {
  LoopMeasurement out;
  out.ns_per_round = bench::fastest_across_cpus(static_cast<int>(reps), [&] {
    bench::reset_peak_rss();
    const scenario::RoundLoopResult run =
        scenario::run_chatter_round_loop(config);
    out.delivered = run.delivered;
    out.peak_rss = bench::peak_rss_bytes();
    return run.ns_per_round;
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  const bool fast = argc > 1 && std::string(argv[1]) == "--fast";

  banner("scaling: slab group tables + streaming epoch build at n up to 10^6",
         "epoch build and round loop stay near-linear in n with "
         "|G| ~ d1 ln ln n");

  struct Point {
    std::size_t n;
    std::size_t build_reps;
    std::size_t loop_rounds;
  };
  std::vector<Point> points{{10'000, 5, 40}, {100'000, 2, 8}};
  if (!fast) points.push_back({1'000'000, 1, 3});

  JsonReporter reporter("scale");
  // Also creates the global pool before fastest_across_cpus pins this
  // thread, so the workers keep every CPU.
  reporter.set_meta_number("pool_width",
                           static_cast<double>(ThreadPool::global().size()));
  record_calibration(reporter);
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  reporter.set_meta("mode", fast ? "fast" : "full");

  Table t({"n", "group size", "build ms", "build peak RSS MB",
           "loop ms/round", "loop peak RSS MB"});
  t.set_title("million-node scaling trajectory");

  std::uint64_t run_peak = 0;

  for (const Point& point : points) {
    core::Params params;
    params.n = point.n;
    params.seed = 2024;
    params.beta = 0.05;
    Rng rng(params.seed);
    const auto pop = std::make_shared<const core::Population>(
        core::Population::uniform(point.n, params.beta, rng));
    const crypto::OracleSuite oracles(params.seed);
    const std::string suffix = "_n" + std::to_string(point.n);

    // ---- Epoch build ----
    const BuildMeasurement build =
        measure_epoch_build(params, pop, oracles.h1, point.build_reps);
    reporter.add_ns_per_op(
        "scale_epoch_build" + suffix, build.ns_per_build,
        {{"n", static_cast<double>(point.n)},
         {"group_size", static_cast<double>(params.group_size())},
         {"members", static_cast<double>(build.members)},
         {"memory_bytes", static_cast<double>(build.memory_bytes)},
         {"peak_rss_bytes", static_cast<double>(build.peak_rss)}});

    // ---- Round loop at n nodes ----
    scenario::RoundLoopConfig config;
    config.nodes = point.n;
    config.fanout = 2;
    config.rounds = point.loop_rounds;
    config.payload_words = 12;  // every payload spills
    const LoopMeasurement loop = measure_round_loop(config, point.build_reps);
    const double messages_per_round =
        static_cast<double>(loop.delivered) /
        static_cast<double>(point.loop_rounds);
    reporter.add_ns_per_op(
        "scale_round_loop" + suffix, loop.ns_per_round,
        {{"nodes", static_cast<double>(point.n)},
         {"messages_per_round", messages_per_round},
         {"payload_words", 12.0},
         {"peak_rss_bytes", static_cast<double>(loop.peak_rss)}});

    run_peak = std::max({run_peak, build.peak_rss, loop.peak_rss});
    record_calibration(reporter);

    t.add_row({point.n, params.group_size(), build.ns_per_build / 1e6,
               static_cast<double>(build.peak_rss) / (1024.0 * 1024.0),
               loop.ns_per_round / 1e6,
               static_cast<double>(loop.peak_rss) / (1024.0 * 1024.0)});
  }

  Table next_table({"row", "beta", "build ms", "requests", "dual failures"});
  next_table.set_title("build_next at n = 10^4 (one dual-graph epoch)");
  const struct {
    const char* name;
    double beta;
  } next_rows[] = {{"scale_build_next_n10000", 0.05},
                   {"scale_build_next_n10000_beta20", 0.2}};
  for (const auto& row : next_rows) {
    const NextMeasurement next = measure_build_next(10'000, row.beta, 3);
    const core::BuildStats& st = next.stats;
    const std::uint64_t requests =
        st.membership_requests + st.neighbor_requests;
    const std::uint64_t failures =
        st.membership_dual_failures + st.neighbor_dual_failures;
    reporter.add_ns_per_op(row.name, next.ns_per_build,
                           {{"n", 10'000.0},
                            {"beta", row.beta},
                            {"requests", static_cast<double>(requests)},
                            {"dual_failures", static_cast<double>(failures)}});
    next_table.add_row({std::string(row.name), row.beta,
                        next.ns_per_build / 1e6, requests, failures});
  }
  record_calibration(reporter);

  reporter.set_meta_number("peak_rss_bytes", static_cast<double>(run_peak));
  t.print(std::cout);
  next_table.print(std::cout);
  std::cout << "(peak_rss_bytes rows are phase-local via the\n"
               " /proc/self/clear_refs watermark reset.)\n";

  return reporter.write(".") ? 0 : 1;
}
