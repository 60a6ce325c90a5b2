// campaign — the scenario campaign CLI.
//
// Runs a filtered slice of the scenario registry (the adversary x
// topology matrix; see src/scenario/) and emits both a lab-notebook
// table and BENCH_scenarios.json.  CI's campaign-smoke job runs
// `campaign --trials 2` over the full registry and validates the JSON.
//
//   campaign [--list] [--filter <substring|campaign>] [--trials N]
//            [--seed S] [--n N] [--threads T] [--out DIR|FILE.json]
//            [--churn NAME]
//            [--workload kv|lookup] [--loop open|closed] [--rate R]
//            [--clients N] [--faults PRESET] [--adversary NAME]
//            [--retries]
//
// With --workload, every matched cell runs UNDER CLIENT TRAFFIC: the
// workload engine (src/workload/) drives the service's ops over the
// cell's adversary x topology world and the JSON rows carry latency
// percentiles / throughput / loss instead of the analytic metrics.
// Without it, the traffic-only flags (--loop, --rate, --clients, and
// --adversary, --faults, --retries on a cell that runs its analytic
// trial) are refused rather than silently dropped.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tinygroups/tinygroups.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --list           print every registered scenario cell and exit\n"
      << "  --filter STR     run cells whose name contains STR or whose\n"
      << "                   campaign tag equals STR (static|dynamic|pow)\n"
      << "  --trials N       override Monte-Carlo trials per cell (whole\n"
      << "                   N >= 1)\n"
      << "  --seed S         override the experiment seed (whole S >= 0)\n"
      << "  --n N            override the system size (any whole N >= 1,\n"
      << "                   including far above the registry defaults;\n"
      << "                   the estimated per-world memory is printed up\n"
      << "                   front and the run refuses to start when it\n"
      << "                   cannot fit)\n"
      << "  --beta B         override the adversarial fraction (a number\n"
      << "                   in [0, 1))\n"
      << "  --threads T      trial fan-out width.  Per-trial values are\n"
      << "                   scheduling-independent, but aggregated stats\n"
      << "                   are a function of the shard count, so leave 0\n"
      << "                   (the default shard count) for bit-identical\n"
      << "                   cross-machine JSON\n"
      << "  --out PATH       where to write the JSON: a directory (gets\n"
      << "                   BENCH_scenarios.json inside) or a path ending\n"
      << "                   in .json (written verbatim); default .\n"
      << "  --churn NAME     churn-schedule preset applied to every cell:\n"
      << "                   ";
  for (const auto& preset : tg::scenario::churn_presets()) {
    std::cerr << preset.name << " (" << preset.schedule.epochs << "x"
              << preset.schedule.rounds_per_epoch << ") ";
  }
  std::cerr
      << "\n"
      << "  --workload SVC   run matched cells under client traffic with\n"
      << "                   service kv or lookup (reports latency\n"
      << "                   percentiles, throughput, loss)\n"
      << "  --loop MODE      workload generation mode: open (scheduled\n"
      << "                   arrivals, default) or closed (waiting clients)\n"
      << "  --rate R         open-loop arrivals per round (default 4; a\n"
      << "                   finite R > 0)\n"
      << "  --clients N      closed-loop client count (default 8; whole\n"
      << "                   N >= 1)\n"
      << "  --faults PRESET  layer a fault-plan preset onto matched cells'\n"
      << "                   traffic runs: ";
  for (const auto& name : tg::fault::fault_preset_names()) {
    std::cerr << name << ' ';
  }
  std::cerr
      << "\n"
      << "  --adversary NAME replace every matched cell's adversary (e.g.\n"
      << "                   adaptive, which switches strategy per epoch)\n"
      << "  --retries        run matched cells' clients with the\n"
      << "                   self-healing retry/hedge lifecycle\n"
      << "  (--loop, --rate and --clients need --workload; --faults,\n"
      << "  --adversary and --retries are refused when a matched cell\n"
      << "  would run its analytic trial: no --workload, not adaptive/*)\n"
      << "  --metrics-out P  record telemetry during trial runs and write\n"
      << "                   the merged metrics JSON (telemetry.metrics\n"
      << "                   schema) to P; deterministic at any --threads\n"
      << "  --trace-out P    write the merged Chrome trace-event JSON\n"
      << "                   (chrome://tracing / Perfetto) to P;\n"
      << "                   deterministic at any --threads\n";
}

bool ends_with_json(std::string_view path) {
  return path.ends_with(".json");
}

/// `value` as a whole decimal number; nullopt when it is empty, signed,
/// has trailing characters or does not fit in 64 bits.
std::optional<std::uint64_t> whole_number(const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE) {
    return std::nullopt;
  }
  return n;
}

/// `value` as a decimal number; nullopt when it is empty or has
/// trailing characters.
std::optional<double> number(const std::string& value) {
  char* end = nullptr;
  const double x = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0') return std::nullopt;
  return x;
}

/// Rough per-trial-world footprint at system size n: two group graphs
/// (member slab + flag/counter columns under the SoA layout) plus the
/// population's ID/ring tables.  Deliberately generous — the point is
/// an honest order of magnitude before any trial starts.
std::uint64_t estimated_world_bytes(std::size_t n) {
  tg::core::Params p;
  p.n = n;
  const std::uint64_t g = p.group_size();
  const std::uint64_t per_graph =
      static_cast<std::uint64_t>(n) * g * sizeof(std::uint32_t)  // slab
      + static_cast<std::uint64_t>(n) * 29;  // offset/length/flag columns
  const std::uint64_t population = static_cast<std::uint64_t>(n) * 48;
  return 2 * per_graph + population;
}

/// MemAvailable from /proc/meminfo, in bytes; 0 when unreadable.
std::uint64_t available_memory_bytes() {
  std::ifstream meminfo("/proc/meminfo");
  std::string line;
  while (std::getline(meminfo, line)) {
    if (line.rfind("MemAvailable:", 0) == 0) {
      return std::strtoull(line.c_str() + 13, nullptr, 10) * 1024;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  log::set_level(log::Level::warn);

  scenario::CampaignOptions options;
  std::string out_dir = ".";
  std::string metrics_out;
  std::string trace_out;
  bool list_only = false;
  // Flags only a cell under traffic reads, in command-line order.
  std::vector<std::string> traffic_flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // A whole number >= `min` (1 for counts, 0 where zero means
    // something: a seed, the default shard count).
    const auto whole = [&](std::uint64_t min) {
      const std::string value = next();
      const auto n = whole_number(value);
      if (!n || *n < min) {
        std::cerr << arg << " needs a whole "
                  << (min == 0 ? "non-negative" : "positive")
                  << " integer, got '" << value << "'\n";
        std::exit(2);
      }
      return *n;
    };
    if (arg == "--loop" || arg == "--rate" || arg == "--clients" ||
        arg == "--faults" || arg == "--adversary" || arg == "--retries") {
      traffic_flags.push_back(arg);
    }
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--filter") {
      options.filter = next();
    } else if (arg == "--trials") {
      options.trials_override = whole(1);
    } else if (arg == "--seed") {
      options.seed_override = whole(0);
    } else if (arg == "--n") {
      options.n_override = whole(1);
    } else if (arg == "--beta") {
      const std::string value = next();
      const auto beta = number(value);
      // !(beta < 1.0) also refuses NaN.
      if (!beta || !(*beta >= 0.0 && *beta < 1.0)) {
        std::cerr << "--beta needs a number in [0, 1), got '" << value
                  << "'\n";
        return 2;
      }
      options.beta_override = *beta;
    } else if (arg == "--threads") {
      options.threads = whole(0);
    } else if (arg == "--churn") {
      const std::string name = next();
      const auto schedule = scenario::churn_schedule_by_name(name);
      if (!schedule) {
        std::cerr << "unknown churn preset '" << name << "' (see --help)\n";
        return 2;
      }
      options.churn_override = *schedule;
    } else if (arg == "--workload") {
      const std::string name = next();
      const auto service = scenario::workload_service_by_name(name);
      if (!service) {
        std::cerr << "unknown workload service '" << name
                  << "' (kv | lookup)\n";
        return 2;
      }
      options.workload.service = *service;
    } else if (arg == "--loop") {
      const std::string name = next();
      const auto loop = scenario::workload_loop_by_name(name);
      if (!loop) {
        std::cerr << "unknown loop mode '" << name << "' (open | closed)\n";
        return 2;
      }
      options.workload.loop = *loop;
    } else if (arg == "--rate") {
      const std::string value = next();
      const auto rate = number(value);
      if (!rate || !(std::isfinite(*rate) && *rate > 0.0)) {
        std::cerr << "--rate needs a finite number > 0, got '" << value
                  << "'\n";
        return 2;
      }
      options.workload.rate = *rate;
    } else if (arg == "--clients") {
      options.workload.clients = whole(1);
    } else if (arg == "--faults") {
      const std::string name = next();
      bool known = false;
      for (const auto& preset : fault::fault_preset_names()) {
        known = known || name == preset;
      }
      if (!known) {
        std::cerr << "unknown fault preset '" << name << "' (see --help)\n";
        return 2;
      }
      options.faults_preset = name;
    } else if (arg == "--adversary") {
      const std::string name = next();
      const auto kind = scenario::adversary_kind_by_name(name);
      if (!kind) {
        std::cerr << "unknown adversary '" << name << "' (see --help)\n";
        return 2;
      }
      options.adversary_override = *kind;
    } else if (arg == "--retries") {
      options.retries_override = true;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else {
      usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  const auto& registry = scenario::Registry::instance();
  if (list_only) {
    Table t({"scenario", "campaign", "n", "beta", "trials", "metrics"});
    t.set_title("Registered scenario cells");
    for (const auto& cell : registry.scenarios()) {
      std::string metrics;
      for (const auto& m : cell.metrics) {
        if (!metrics.empty()) metrics += ", ";
        metrics += m;
      }
      t.add_row({cell.spec.name, cell.spec.campaign,
                 static_cast<std::uint64_t>(cell.spec.n), cell.spec.beta,
                 static_cast<std::uint64_t>(cell.spec.trials), metrics});
    }
    t.print(std::cout);
    return 0;
  }

  // --n can push cells far above their registry defaults (that is the
  // point: million-node campaigns).  Estimate the world footprint UP
  // FRONT so a hopeless run dies at the prompt, not minutes into its
  // first epoch build.
  if (options.n_override) {
    const std::uint64_t estimate = estimated_world_bytes(*options.n_override);
    const std::uint64_t available = available_memory_bytes();
    std::cout << "campaign: --n " << *options.n_override
              << " -> estimated ~" << (estimate >> 20)
              << " MB per trial world";
    if (available != 0) {
      std::cout << " (" << (available >> 20) << " MB available)";
    }
    std::cout << '\n';
    if (available != 0 && estimate > available) {
      std::cerr << "campaign: estimated world footprint exceeds available "
                   "memory; refusing to start (lower --n)\n";
      return 2;
    }
  }

  const auto matched = registry.match(options.filter);
  if (matched.empty()) {
    std::cerr << "no scenario matches filter '" << options.filter << "' ("
              << registry.scenarios().size() << " cells registered)\n";
    return 1;
  }
  // Without --workload a cell runs under traffic only when it was
  // registered with its own workload axis (the adaptive family), and
  // even those keep their own loop, rate and clients.
  if (!options.workload.enabled()) {
    for (const std::string& flag : traffic_flags) {
      if (flag == "--loop" || flag == "--rate" || flag == "--clients") {
        std::cerr << flag << " needs --workload kv|lookup\n";
        return 2;
      }
      for (const auto* cell : matched) {
        if (!cell->spec.workload.enabled()) {
          std::cerr << flag << " would be ignored by cell '"
                    << cell->spec.name
                    << "', which runs its analytic trial; add --workload "
                       "kv|lookup or narrow --filter\n";
          return 2;
        }
      }
    }
  }
  std::cout << "campaign: expanding " << matched.size() << " of "
            << registry.scenarios().size() << " registered cells"
            << (options.filter.empty()
                    ? std::string()
                    : " (filter '" + options.filter + "')")
            << ", threads=" << options.threads
            << (options.threads == 0 ? " (default shard count)" : "");
  if (options.workload.enabled()) {
    std::cout << ", workload=" << to_string(options.workload.service) << "/"
              << to_string(options.workload.loop)
              << (options.workload.loop == scenario::WorkloadAxis::Loop::open
                      ? " rate=" + std::to_string(options.workload.rate)
                      : " clients=" +
                            std::to_string(options.workload.clients));
  }
  if (options.adversary_override) {
    std::cout << ", adversary=" << to_string(*options.adversary_override);
  }
  if (!options.faults_preset.empty()) {
    std::cout << ", faults=" << options.faults_preset;
  }
  if (options.retries_override && *options.retries_override) {
    std::cout << ", retries=on";
  }
  std::cout << '\n';

  // Telemetry capture: per-trial sessions merged in trial-seed order,
  // so both artifacts are byte-identical at any --threads.
  const bool telemetry_on = !metrics_out.empty() || !trace_out.empty();
  telemetry::Capture capture;
  if (telemetry_on) telemetry::set_capture(&capture);

  const scenario::CampaignRunner runner(options);
  const auto results = runner.run();

  if (telemetry_on) {
    telemetry::set_capture(nullptr);
    const auto write_artifact = [](const std::string& path,
                                   const std::string& body) {
      std::ofstream out(path, std::ios::binary);
      out << body;
      if (!out) {
        std::cerr << "campaign: failed to write " << path << '\n';
        return false;
      }
      std::cout << "campaign: wrote " << path << '\n';
      return true;
    };
    // NOTE: no thread-dependent keys in meta — the artifacts must be
    // byte-identical at any --threads (the contract the telemetry
    // bench gates).
    if (!metrics_out.empty()) {
      telemetry::ExportMeta meta;
      meta.emplace_back("filter", options.filter);
      meta.emplace_back("trial_sessions",
                        std::to_string(capture.session_count()));
      if (!write_artifact(metrics_out, capture.metrics_json(meta))) return 1;
    }
    if (!trace_out.empty()) {
      if (!write_artifact(trace_out, capture.chrome_trace_json())) return 1;
    }
    if (capture.trace_dropped() != 0) {
      std::cerr << "campaign: warning: " << capture.trace_dropped()
                << " trace events dropped (ring capacity)\n";
    }
  }

  scenario::CampaignRunner::print(results, std::cout);

  bench::JsonReporter reporter("scenarios");
  // Scenario trials hash through the same oracle substrate as the
  // crypto micros; record the dispatch so cross-runner comparisons of
  // cell timings stay interpretable.
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  scenario::CampaignRunner::report(results, reporter);
  const bool wrote = ends_with_json(out_dir) ? reporter.write_file(out_dir)
                                             : reporter.write(out_dir);
  if (!wrote) return 1;

  double seconds = 0.0;
  for (const auto& r : results) seconds += r.seconds;
  std::cout << results.size() << " scenario cells, "
            << registry.scenarios().size() << " registered, " << seconds
            << "s of trial time\n";
  return 0;
}
