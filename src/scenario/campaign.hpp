// CampaignRunner: expand a filtered slice of the scenario registry
// into deterministic Monte-Carlo jobs and report the results.
//
// Execution: each cell runs through sim::run_trials_multi, which
// shards trials over ThreadPool::global() with sharding-invariant
// per-trial seeding — so campaign output is bit-identical across
// machines and thread counts.  Reporting: one JSON row per
// (scenario, metric) in the tg::bench::JsonReporter schema, written as
// BENCH_scenarios.json (documented in bench/README.md; consumed by
// CI's campaign-smoke job).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "scenario/scenario.hpp"
#include "util/json_reporter.hpp"
#include "util/stats.hpp"

namespace tg::scenario {

struct CampaignOptions {
  /// Substring-of-name or campaign tag ("static" / "dynamic" / "pow");
  /// empty selects every registered cell.
  std::string filter;
  /// Unset = keep each cell's own value (optional, not a zero
  /// sentinel: overriding to 0 — e.g. an adversary-free beta — is
  /// legitimate).
  std::optional<std::size_t> trials_override;
  std::optional<std::uint64_t> seed_override;
  std::optional<std::size_t> n_override;
  std::optional<double> beta_override;
  /// Churn axis: a named preset (see churn_presets()) applied to every
  /// matched cell, sweeping the grid across schedules.
  std::optional<ChurnSchedule> churn_override;
  /// Workload axis: when enabled(), every matched cell runs UNDER
  /// CLIENT TRAFFIC — the workload engine drives its service over the
  /// cell's adversary x topology world and the cell reports service
  /// metrics (latency percentiles, throughput, loss) instead of its
  /// analytic trial's.  When NOT enabled, cells registered with their
  /// own workload axis (the adaptive "faults" family) keep it.
  WorkloadAxis workload;
  /// Adversary axis: replace every matched cell's adversary (the
  /// CLI's `--adversary`, pairing e.g. adaptive with any topology).
  std::optional<AdversaryKind> adversary_override;
  /// Fault axis: layer a named fault::fault_preset onto every matched
  /// cell's traffic run (the CLI's `--faults`).
  std::string faults_preset;
  /// Lifecycle axis: force the self-healing retry lifecycle on (true)
  /// or off (false) for every matched cell (the CLI's `--retries`).
  std::optional<bool> retries_override;
  /// Fan-out width passed to sim::run_trials_multi.  0 keeps the
  /// default shard count — REQUIRED for cross-machine determinism
  /// (the shard count is part of the merge order).
  std::size_t threads = 0;
};

struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<std::string> metric_names;
  std::vector<RunningStats> metrics;  ///< parallel to metric_names
  double seconds = 0.0;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Expand and run every matching cell, in registration order.
  [[nodiscard]] std::vector<ScenarioResult> run() const;

  /// Run one cell under an explicit spec (tests use this to assert
  /// seed determinism at reduced sizes).  A spec with
  /// `workload.enabled()` runs the workload engine's traffic trial
  /// over the cell's world instead of the cell's own trial.
  [[nodiscard]] static ScenarioResult run_cell(const Scenario& cell,
                                               const ScenarioSpec& spec,
                                               std::size_t threads = 0);

  /// Append one row per (scenario, metric) — name
  /// "<scenario>.<metric>", fields mean/stddev/min/max/trials/n/beta/
  /// seed — plus a trailing "campaign.summary" row with the cell
  /// count.
  static void report(const std::vector<ScenarioResult>& results,
                     bench::JsonReporter& out);

  /// Lab-notebook table: one line per (scenario, metric).
  static void print(const std::vector<ScenarioResult>& results,
                    std::ostream& os);

 private:
  CampaignOptions options_;
};

/// Synthetic steady-state traffic: every node fans a payload of
/// `payload_words` words out each round, so the network never
/// quiesces and the round loop's per-message path dominates.  The
/// checksum folds the first and last payload word back into later
/// sends, so a divergence anywhere in a payload amplifies into the
/// trace hash.  run_chatter_round_loop drives it on one executor
/// thread; tests drive the same nodes at other widths.
class ChatterNode final : public net::Node {
 public:
  ChatterNode(std::size_t n, std::size_t fanout, std::size_t payload_words)
      : n_(n), fanout_(fanout), payload_words_(payload_words) {}

  void on_start(net::Context& ctx) override;
  void on_message(const net::Message& m, net::Context& ctx) override;
  void on_round_end(net::Context& ctx) override;

 private:
  std::size_t n_;
  std::size_t fanout_;
  std::size_t payload_words_;
  std::uint64_t checksum_ = 0;
};

/// One configuration of the chatter round loop — the microworkload
/// behind the net runtime's perf trajectory (BENCH_net.json).
struct RoundLoopConfig {
  std::size_t nodes = 256;
  std::size_t fanout = 4;
  std::size_t rounds = 300;
  /// Words per chatter message (clamped to >= 2: round + checksum).
  /// Above Words::kInlineCapacity every message spills to the heap.
  std::size_t payload_words = 2;
  std::uint64_t seed = 42;
};

struct RoundLoopResult {
  double ns_per_round = 0.0;
  std::uint64_t trace_hash = 0;
  std::uint64_t delivered = 0;
};

/// Run the chatter workload under one configuration on a one-thread
/// executor.  Delivered traffic (and hence trace_hash) is a pure
/// function of (nodes, fanout, rounds, payload_words, seed).
[[nodiscard]] RoundLoopResult run_chatter_round_loop(
    const RoundLoopConfig& config);

}  // namespace tg::scenario
