// bench_workload — the workload engine's trajectory bench.
//
// Two kinds of rows in BENCH_workload.json:
//
//   * SERVICE BASELINES — {kv, lookup} x {open, closed} x {benign,
//     omit_ids/tinygroups}: latency percentiles (rounds), throughput
//     (completed ops/round), and outcome fractions, from shard-merged
//     recorders over the cell's trials.  These are integer-derived
//     pure functions of (spec, seed): the same binary produces the
//     SAME values on any machine and thread count, so CI can diff
//     them against the committed baseline byte-for-byte if it ever
//     wants to (today it schema-validates).
//
//   * ENGINE PERF ROW — workload_engine_round: ns per round of benign
//     kv open-loop traffic with spilling payloads.  CI's regression
//     guard scores it against the run's meta.calibration_ns (the
//     frozen calibration kernel in bench_common.hpp).
//
//   bench_workload [--fast] [--out DIR]
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "tinygroups/tinygroups.hpp"

namespace {

using namespace tg;

struct BenchConfig {
  std::size_t n = 4096;
  std::size_t trials = 6;
  std::size_t rounds = 192;
};

/// The engine perf row's FIXED shape: never scaled by --fast, so CI's
/// fast rerun times the same per-round work as the committed baseline.
constexpr std::size_t kPerfN = 4096;
constexpr std::size_t kPerfRounds = 256;

scenario::ScenarioSpec cell_spec(const BenchConfig& config,
                                 scenario::WorkloadAxis::Service service,
                                 scenario::WorkloadAxis::Loop loop,
                                 bool with_adversary) {
  scenario::ScenarioSpec spec;
  spec.adversary = scenario::AdversaryKind::omit_ids;
  spec.topology = scenario::Topology::tinygroups;
  spec.n = config.n;
  spec.beta = 0.08;
  spec.trials = config.trials;
  spec.churn = {1, 64};
  spec.workload.service = service;
  spec.workload.loop = loop;
  spec.workload.rate = 4.0;
  spec.workload.clients = 8;
  spec.workload.rounds = config.rounds;
  spec.workload.timeout_rounds = 48;
  // Decorrelate cell seeds by name (FNV-1a, cf. the scenario grid).
  spec.name = std::string("workload_") +
              std::string(to_string(service)) + "_" +
              std::string(to_string(loop)) + "_" +
              (with_adversary ? "omit_ids" : "benign");
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : spec.name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  spec.seed = mix64(h);
  return spec;
}

void append_service_rows(bench::JsonReporter& out, const BenchConfig& config) {
  Table table({"cell", "p50", "p90", "p99", "p99.9", "ops/round", "completed",
               "failed", "timeout"});
  table.set_title("Workload service baselines (latency in rounds)");
  for (const auto service : {scenario::WorkloadAxis::Service::kv,
                             scenario::WorkloadAxis::Service::lookup}) {
    for (const auto loop : {scenario::WorkloadAxis::Loop::open,
                            scenario::WorkloadAxis::Loop::closed}) {
      for (const bool with_adversary : {false, true}) {
        const auto spec = cell_spec(config, service, loop, with_adversary);
        const auto cell =
            workload::run_traffic_cell(spec, with_adversary, /*threads=*/0);
        const workload::Recorder& r = cell.recorder;
        out.add(spec.name,
                {{"p50_rounds", static_cast<double>(r.latency.p50())},
                 {"p90_rounds", static_cast<double>(r.latency.p90())},
                 {"p99_rounds", static_cast<double>(r.latency.p99())},
                 {"p999_rounds", static_cast<double>(r.latency.p999())},
                 {"ops_per_round", r.ops_per_round()},
                 {"completed_fraction", r.completed_fraction()},
                 {"failed_fraction", r.failed_fraction()},
                 {"timeout_fraction", r.timeout_fraction()},
                 {"issued", static_cast<double>(r.issued)},
                 {"trials", static_cast<double>(cell.trials)},
                 {"n", static_cast<double>(spec.n)},
                 {"seed_hi", static_cast<double>(spec.seed >> 32)},
                 {"seed_lo",
                  static_cast<double>(spec.seed & 0xffffffffULL)}});
        table.add_row({spec.name, static_cast<std::uint64_t>(r.latency.p50()),
                       static_cast<std::uint64_t>(r.latency.p90()),
                       static_cast<std::uint64_t>(r.latency.p99()),
                       static_cast<std::uint64_t>(r.latency.p999()),
                       r.ops_per_round(), r.completed_fraction(),
                       r.failed_fraction(), r.timeout_fraction()});
      }
    }
  }
  table.print(std::cout);
}

/// One engine run for the perf row: benign kv open-loop traffic at a
/// spill-sized payload.
workload::RunResult perf_run(const BenchConfig& config) {
  BenchConfig shape = config;
  shape.n = kPerfN;
  scenario::ScenarioSpec spec = cell_spec(
      shape, scenario::WorkloadAxis::Service::kv,
      scenario::WorkloadAxis::Loop::open, /*with_adversary=*/false);
  spec.workload.rounds = kPerfRounds;
  spec.workload.rate = 8.0;
  Rng rng(spec.seed);
  const workload::World world =
      workload::world_for_trial(spec, /*with_adversary=*/false, rng);
  workload::KvService service(world, std::max<std::size_t>(64, spec.n / 4),
                              rng());
  workload::Spec engine = workload::engine_spec(spec, false);
  engine.padding_words = 8;  // every request/reply spills
  return workload::run(service, engine, rng(), /*threads=*/1);
}

/// The fastest of 4 engine runs (see bench::fastest_across_cpus).
void append_perf_row(bench::JsonReporter& out, const BenchConfig& config) {
  (void)perf_run(config);  // warmup (first-touch, pool spin-up)
  workload::RunResult run;
  const double ns_per_round = bench::fastest_across_cpus(4, [&] {
    run = perf_run(config);
    return run.seconds * 1e9 / static_cast<double>(run.rounds_run);
  });
  out.add_ns_per_op(
      "workload_engine_round", ns_per_round,
      {{"rounds", static_cast<double>(run.rounds_run)},
       {"messages_per_round", static_cast<double>(run.net.delivered) /
                                  static_cast<double>(run.rounds_run)}});
  std::cout << "\nengine round loop: " << ns_per_round << " ns/round\n";
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::warn);
  BenchConfig config;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      config.n = 256;
      config.trials = 2;
      config.rounds = 96;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--out DIR]\n";
      return 2;
    }
  }

  bench::banner("bench_workload",
                "the tiny-groups construction serves application traffic: "
                "bounded latency percentiles and near-1 completion under a "
                "placement adversary");
  std::cout << "n = " << config.n << ", trials = " << config.trials
            << ", rounds = " << config.rounds << " per trial\n";

  bench::JsonReporter reporter("workload");
  bench::record_calibration(reporter);
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  append_service_rows(reporter, config);
  append_perf_row(reporter, config);
  bench::record_calibration(reporter);
  return reporter.write(out_dir) ? 0 : 1;
}
