// bench_faults — the fault plane's headline numbers: goodput under
// attack, recovery after a partition heals, retry amplification.
//
// Rows in BENCH_faults.json:
//
//   * GUARD PAIR — faults_selfheal_goodput vs
//     faults_selfheal_goodput_noretry: the SAME partitioned, lossy run
//     driven with the self-healing retry lifecycle vs fire-once
//     clients, at a FIXED small shape that is identical in --fast and
//     full runs.  Goodput per round is an integer-derived pure
//     function of (spec, seed), so both rows are bit-identical on
//     every machine — the ops_per_sec slot carries goodput/round (not
//     a wall-clock rate) precisely so CI's regression guard compares
//     it raw and exactly.
//
//   * FAULT GRID — faults_<preset>_<retry|noretry>: every fault
//     preset x lifecycle, run as full traffic cells under the
//     ADAPTIVE adversary (strategy switching at epoch boundaries on
//     top of the preset's hazards).  Sized by --fast.
//
//   * RECOVERY — faults_recovery: rounds from the partition heal
//     instant until an 8-round goodput window regains 70% of the
//     pre-partition baseline.
//
// In-binary correctness gates (throw, with the seed printed, before
// any number is reported):
//   1. OFF-PATH IDENTITY — a structurally non-empty all-zero-
//      probability plan delivers byte-identical traffic to no
//      injector at all.
//   2. THREAD INVARIANCE — the chaos preset with retries on is
//      bit-identical (trace hash, every counter) at 1 vs 4 executor
//      threads.
//   3. SELF-HEALING WIN — retry goodput >= 2x the no-retry baseline
//      in at least one partition/crash grid cell.
//   4. FINITE RECOVERY — goodput provably regains the 70% bar after
//      the heal.
//
//   bench_faults [--fast] [--out DIR]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "tinygroups/tinygroups.hpp"

namespace {

using namespace tg;

struct BenchConfig {
  std::size_t grid_n = 1024;
  std::size_t grid_trials = 4;
  std::size_t grid_rounds = 96;
};

/// The guard pair's FIXED shape: never scaled by --fast, so the
/// committed baseline and CI's fast rerun produce the exact same
/// goodput values (ratio 1.0 by construction unless the code changes
/// behavior).
constexpr std::size_t kGuardN = 256;
constexpr std::size_t kGuardRounds = 96;
constexpr std::size_t kGuardTimeout = 12;

scenario::ScenarioSpec base_spec(std::string_view name, std::size_t n,
                                 std::size_t trials, std::size_t rounds,
                                 std::size_t timeout_rounds) {
  scenario::ScenarioSpec spec;
  spec.adversary = scenario::AdversaryKind::adaptive;
  spec.topology = scenario::Topology::tinygroups;
  spec.n = n;
  spec.beta = 0.08;
  spec.trials = trials;
  spec.churn = {2, 64};
  spec.workload.service = scenario::WorkloadAxis::Service::kv;
  spec.workload.loop = scenario::WorkloadAxis::Loop::open;
  spec.workload.rate = 2.0;
  spec.workload.rounds = rounds;
  spec.workload.timeout_rounds = timeout_rounds;
  spec.name = std::string(name);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a, cf. the grid
  for (const char c : spec.name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  spec.seed = mix64(h);
  return spec;
}

/// One benign-world engine run with an explicit fault plan: the
/// building block for the guard pair, the identity/invariance gates,
/// and the recovery trajectory.  Every call builds a fresh world and
/// service from spec.seed, so two calls with the same spec differ
/// only in the knobs passed here.
workload::RunResult engine_run(const scenario::ScenarioSpec& spec,
                               std::string_view preset, bool retry,
                               bool track_goodput, std::size_t threads,
                               fault::FaultPlan* plan_out = nullptr) {
  Rng rng(spec.seed);
  const workload::World world =
      workload::world_for_trial(spec, /*with_adversary=*/false, rng);
  workload::KvService service(world, std::max<std::size_t>(64, spec.n / 4),
                              rng());
  workload::Spec engine = workload::engine_spec(spec, false);
  if (!preset.empty()) {
    const auto compiled = fault::fault_preset(preset, world.groups(),
                                              engine.rounds, spec.seed);
    if (!compiled) throw std::logic_error("unknown fault preset");
    engine.faults = *compiled;
  }
  engine.retry.enabled = retry;
  engine.track_round_goodput = track_goodput;
  if (plan_out != nullptr) *plan_out = engine.faults;
  return workload::run(service, engine, rng(), threads);
}

/// Gate 1: a plan with hazards declared but every probability zero
/// must be invisible — the injector is attached (the seam runs) yet
/// delivered traffic is byte-identical to never attaching one.
void assert_off_path_identity() {
  const auto spec = base_spec("faults_offpath", kGuardN, 1, kGuardRounds,
                              kGuardTimeout);
  const workload::RunResult pristine =
      engine_run(spec, /*preset=*/"", /*retry=*/false, false, 1);

  Rng rng(spec.seed);
  const workload::World world =
      workload::world_for_trial(spec, /*with_adversary=*/false, rng);
  workload::KvService service(world, std::max<std::size_t>(64, spec.n / 4),
                              rng());
  workload::Spec engine = workload::engine_spec(spec, false);
  engine.faults.seed = 0xfeedULL;
  engine.faults.rules.push_back(fault::HazardRule{});  // all probs 0
  const workload::RunResult armed = workload::run(service, engine, rng(), 1);

  if (pristine.trace_hash != armed.trace_hash ||
      pristine.net.delivered != armed.net.delivered ||
      pristine.recorder.completed != armed.recorder.completed) {
    std::cerr << "off-path divergence at seed " << spec.seed << "\n";
    throw std::logic_error(
        "fault seam: zero-probability plan changed delivered traffic");
  }
  std::cout << "off-path identity: zero-probability plan byte-identical ("
            << pristine.net.delivered << " deliveries, trace "
            << pristine.trace_hash << ")\n";
}

/// Gate 2: chaos preset + retries, 1 vs 4 executor threads.
void assert_thread_invariance() {
  const auto spec = base_spec("faults_threads", kGuardN, 1, kGuardRounds,
                              kGuardTimeout);
  const workload::RunResult one =
      engine_run(spec, "chaos", /*retry=*/true, false, 1);
  const workload::RunResult four =
      engine_run(spec, "chaos", /*retry=*/true, false, 4);
  const workload::Recorder& a = one.recorder;
  const workload::Recorder& b = four.recorder;
  if (one.trace_hash != four.trace_hash || a.completed != b.completed ||
      a.timed_out != b.timed_out || a.retries != b.retries ||
      a.hedges != b.hedges || a.stale_replies != b.stale_replies ||
      a.latency.count() != b.latency.count()) {
    std::cerr << "thread divergence at seed " << spec.seed << "\n";
    throw std::logic_error(
        "fault plane: faulted run not bit-identical across thread counts");
  }
  std::cout << "thread invariance: chaos+retry bit-identical at 1 vs 4 "
               "threads (trace "
            << one.trace_hash << ")\n";
}

void append_guard_pair(bench::JsonReporter& out) {
  const auto spec = base_spec("faults_selfheal", kGuardN, 1, kGuardRounds,
                              kGuardTimeout);
  const workload::RunResult noretry =
      engine_run(spec, "partition", /*retry=*/false, false, 1);
  const workload::RunResult retry =
      engine_run(spec, "partition", /*retry=*/true, false, 1);
  const auto goodput = [](const workload::RunResult& r) {
    return static_cast<double>(r.recorder.completed) /
           static_cast<double>(r.rounds_run);
  };
  // ops_per_sec carries goodput/round — DETERMINISTIC, so the
  // regression guard compares it raw and exactly (bench/README.md).
  const bench::JsonReporter::Fields shape{
      {"n", static_cast<double>(spec.n)},
      {"rounds", static_cast<double>(retry.rounds_run)},
      {"seed_hi", static_cast<double>(spec.seed >> 32)},
      {"seed_lo", static_cast<double>(spec.seed & 0xffffffffULL)}};
  auto fields = [&](const workload::RunResult& r) {
    bench::JsonReporter::Fields f{
        {"ops_per_sec", goodput(r)},
        {"goodput_per_round", goodput(r)},
        {"completed", static_cast<double>(r.recorder.completed)},
        {"issued", static_cast<double>(r.recorder.issued)},
        {"retry_amplification", r.recorder.retry_amplification()}};
    f.insert(f.end(), shape.begin(), shape.end());
    return f;
  };
  out.add("faults_selfheal_goodput", fields(retry));
  out.add("faults_selfheal_goodput_noretry", fields(noretry));
  std::cout << "guard pair: partitioned goodput " << goodput(retry)
            << " ops/round with retries vs " << goodput(noretry)
            << " without (" << goodput(retry) / goodput(noretry) << "x)\n";
}

/// Gates 3 + grid rows: preset x lifecycle traffic cells under the
/// adaptive adversary.
void append_fault_grid(bench::JsonReporter& out, const BenchConfig& config) {
  Table table({"cell", "goodput/round", "completed", "timeout", "retry_amp",
               "stale"});
  table.set_title("Fault grid under the adaptive adversary");
  double best_win = 0.0;
  std::string best_cell;
  for (const auto& preset : fault::fault_preset_names()) {
    double noretry_goodput = 0.0;
    for (const bool retry : {false, true}) {
      auto spec = base_spec(std::string("faults_") + preset + "_" +
                                (retry ? "retry" : "noretry"),
                            config.grid_n, config.grid_trials,
                            config.grid_rounds, /*timeout_rounds=*/16);
      spec.workload.faults_preset = preset;
      spec.workload.retries = retry;
      const auto cell =
          workload::run_traffic_cell(spec, /*with_adversary=*/true, 0);
      const workload::Recorder& r = cell.recorder;
      const double goodput = r.ops_per_round();
      out.add(spec.name,
              {{"goodput_per_round", goodput},
               {"completed_fraction", r.completed_fraction()},
               {"timeout_fraction", r.timeout_fraction()},
               {"retry_amplification", r.retry_amplification()},
               {"stale_replies", static_cast<double>(r.stale_replies)},
               {"p99_rounds", static_cast<double>(r.latency.p99())},
               {"issued", static_cast<double>(r.issued)},
               {"trials", static_cast<double>(cell.trials)},
               {"n", static_cast<double>(spec.n)},
               {"seed_hi", static_cast<double>(spec.seed >> 32)},
               {"seed_lo", static_cast<double>(spec.seed & 0xffffffffULL)}});
      table.add_row({spec.name, goodput, r.completed_fraction(),
                     r.timeout_fraction(), r.retry_amplification(),
                     static_cast<std::uint64_t>(r.stale_replies)});
      if (!retry) {
        noretry_goodput = goodput;
      } else if ((preset == "partition" || preset == "crash") &&
                 noretry_goodput > 0.0 &&
                 goodput / noretry_goodput > best_win) {
        best_win = goodput / noretry_goodput;
        best_cell = preset;
      }
    }
  }
  table.print(std::cout);
  if (best_win < 2.0) {
    throw std::logic_error(
        "self-healing lifecycle win below 2x in every partition/crash "
        "cell (best " +
        std::to_string(best_win) + "x)");
  }
  std::cout << "self-healing win: " << best_win << "x no-retry goodput in "
            << "the " << best_cell << " cell\n";
  out.add("faults_selfheal_win",
          {{"best_ratio", best_win}, {"required", 2.0}});
}

/// Gate 4 + recovery row: goodput trajectory across a partition heal.
void append_recovery(bench::JsonReporter& out) {
  const auto spec = base_spec("faults_recovery", kGuardN, 1, kGuardRounds,
                              kGuardTimeout);
  fault::FaultPlan plan;
  const workload::RunResult run = engine_run(spec, "partition",
                                             /*retry=*/true,
                                             /*track_goodput=*/true, 1, &plan);
  if (plan.partitions.empty() || run.completed_by_round.empty()) {
    throw std::logic_error("recovery: partition preset produced no window");
  }
  const std::uint64_t begin = plan.partitions.front().begin_round;
  const std::uint64_t heal = plan.partitions.front().end_round;
  const auto& by_round = run.completed_by_round;

  // Pre-partition goodput baseline, skipping the first-reply warmup.
  const std::uint64_t warm = std::min<std::uint64_t>(8, begin);
  double baseline = 0.0;
  for (std::uint64_t r = warm; r < begin && r < by_round.size(); ++r) {
    baseline += static_cast<double>(by_round[r]);
  }
  baseline /= static_cast<double>(begin - warm);
  if (baseline <= 0.0) {
    throw std::logic_error("recovery: no pre-partition goodput to recover to");
  }

  constexpr std::uint64_t kWindow = 8;
  constexpr double kBar = 0.7;
  std::uint64_t recovered_at = 0;
  bool recovered = false;
  for (std::uint64_t r = heal; r + kWindow <= by_round.size(); ++r) {
    double sum = 0.0;
    for (std::uint64_t k = 0; k < kWindow; ++k) {
      sum += static_cast<double>(by_round[r + k]);
    }
    if (sum / static_cast<double>(kWindow) >= kBar * baseline) {
      recovered_at = r;
      recovered = true;
      break;
    }
  }
  if (!recovered) {
    std::cerr << "no recovery at seed " << spec.seed << "\n";
    throw std::logic_error(
        "recovery: goodput never regained 70% of baseline after the heal");
  }
  const std::uint64_t recovery_rounds = recovered_at - heal;
  std::cout << "recovery: partition healed at round " << heal
            << ", goodput back to >= 70% of baseline (" << baseline
            << " ops/round) after " << recovery_rounds << " rounds\n";
  out.add("faults_recovery",
          {{"recovery_rounds", static_cast<double>(recovery_rounds)},
           {"heal_round", static_cast<double>(heal)},
           {"baseline_goodput", baseline},
           {"bar", kBar},
           {"window_rounds", static_cast<double>(kWindow)},
           {"seed_hi", static_cast<double>(spec.seed >> 32)},
           {"seed_lo", static_cast<double>(spec.seed & 0xffffffffULL)}});
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::warn);
  BenchConfig config;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      config.grid_n = 256;
      config.grid_trials = 2;
      config.grid_rounds = 96;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--out DIR]\n";
      return 2;
    }
  }

  bench::banner("bench_faults",
                "the self-healing request lifecycle keeps goodput alive "
                "under partitions, crashes, and an adaptive adversary — "
                "deterministically, replayable from the printed seeds");
  std::cout << "grid n = " << config.grid_n << ", trials = "
            << config.grid_trials << ", rounds = " << config.grid_rounds
            << " per trial\n\n";

  bench::JsonReporter reporter("faults");
  bench::record_calibration(reporter);
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  try {
    assert_off_path_identity();
    assert_thread_invariance();
    append_guard_pair(reporter);
    append_fault_grid(reporter, config);
    append_recovery(reporter);
  } catch (const std::exception& error) {
    std::cerr << "bench_faults FAILED: " << error.what() << "\n";
    return 1;
  }
  return reporter.write(out_dir) ? 0 : 1;
}
