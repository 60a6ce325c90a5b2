// The scenario campaign engine: a declarative adversary x topology x
// churn matrix, swept deterministically.
//
// The paper's headline claim — tiny O(1)-size groups survive Byzantine
// adversaries that log-n-group and cuckoo-rule baselines do not — is a
// COMPARATIVE claim, and related systems work (commensal cuckoo, the
// cuckoo-rule line) is evaluated exactly this way: the same attack run
// against every group structure under the same churn, many seeds, one
// table.  This module makes that matrix first-class:
//
//   ScenarioSpec  — one cell: adversary strategy x group topology x
//                   churn schedule x scale x seed,
//   Registry      — the process-wide cell registry; the builtin grid
//                   expands every ported adversary against every
//                   topology (>= 6 x 3 cells),
//   CampaignRunner (campaign.hpp) — expands a filtered grid into
//                   deterministic sim::run_trials jobs on the global
//                   thread pool and emits BENCH_scenarios.json.
//
// Determinism contract: a cell's metrics are a pure function of its
// spec (same spec + seed -> bit-identical statistics at any machine
// and thread count), inherited from sim::run_trials_multi's
// sharding-invariant seeding with the default shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace tg::scenario {

/// The ported attack strategies (one per src/adversary translation
/// unit; see adversary/adversary.hpp for the paper sections).
enum class AdversaryKind {
  target_group,  ///< targeted join-leave concentration
  eclipse,       ///< bootstrap contact steering
  flood,         ///< bogus membership/neighbor requests
  omit_ids,      ///< subset-omission placement skew
  precompute,    ///< stockpiled puzzle solutions (Sybil burst)
  late_release,  ///< withheld lottery strings
  adaptive,      ///< observes campaign state, switches strategy at
                 ///< epoch boundaries (src/adversary/adaptive.hpp)
};

/// Kind lookup by to_string name; nullopt for unknown names (the
/// campaign CLI's `--adversary` axis).
[[nodiscard]] std::optional<AdversaryKind> adversary_kind_by_name(
    std::string_view name);

/// The group structure under attack: the paper's tiny groups, the
/// prior-work Theta(log n) groups, and the two cuckoo-rule baselines
/// (contiguous ring regions).
enum class Topology {
  tinygroups,
  logn_groups,
  cuckoo,
  commensal_cuckoo,
};

[[nodiscard]] std::string_view to_string(AdversaryKind kind) noexcept;
[[nodiscard]] std::string_view to_string(Topology topology) noexcept;

/// Churn knobs.  Graph topologies churn in epochs (full ID turnover);
/// region topologies in adversarial join-leave rounds; PoW cells read
/// `epochs` as the stockpiling horizon.
struct ChurnSchedule {
  std::size_t epochs = 4;
  std::size_t rounds_per_epoch = 512;

  [[nodiscard]] std::size_t total_rounds() const noexcept {
    return epochs * rounds_per_epoch;
  }

  friend bool operator==(const ChurnSchedule&,
                         const ChurnSchedule&) = default;
};

/// Named churn schedules — the campaign grid's churn axis.  The CLI's
/// `--churn <name>` (and CampaignOptions::churn_override) sweep cells
/// across these without touching cell definitions.
struct ChurnPreset {
  std::string_view name;
  ChurnSchedule schedule;
};

[[nodiscard]] const std::vector<ChurnPreset>& churn_presets();
/// Preset lookup; nullopt for unknown names.
[[nodiscard]] std::optional<ChurnSchedule> churn_schedule_by_name(
    std::string_view name);

/// The workload axis: run a cell's adversary x topology world under
/// client traffic (see src/workload/) instead of its analytic trial.
/// `service == none` leaves the cell's own trial in charge.
struct WorkloadAxis {
  enum class Service { none, kv, lookup };
  enum class Loop { open, closed };

  Service service = Service::none;
  Loop loop = Loop::open;
  double rate = 4.0;               ///< open-loop arrivals per round
  std::size_t clients = 8;         ///< closed-loop population
  std::size_t rounds = 192;        ///< traffic-generation window
  std::size_t timeout_rounds = 48; ///< client patience
  /// Enable the clients' workload::RetryPolicy at its defaults
  /// (retries with backoff and failover); off, each op gets one
  /// attempt.
  bool retries = false;
  /// Named fault::fault_preset layered onto the cell's run ("" = no
  /// extra faults; the CLI's `--faults` axis).
  std::string faults_preset;

  [[nodiscard]] bool enabled() const noexcept {
    return service != Service::none;
  }
};

[[nodiscard]] std::string_view to_string(WorkloadAxis::Service s) noexcept;
[[nodiscard]] std::string_view to_string(WorkloadAxis::Loop loop) noexcept;
[[nodiscard]] std::optional<WorkloadAxis::Service> workload_service_by_name(
    std::string_view name);
[[nodiscard]] std::optional<WorkloadAxis::Loop> workload_loop_by_name(
    std::string_view name);

/// One cell of the campaign matrix.  `name` is the registry key
/// ("<adversary>/<topology>"); `campaign` tags the sweep family the
/// cell belongs to ("static", "dynamic", "pow") so the refactored
/// bench binaries can each invoke their slice.
struct ScenarioSpec {
  std::string name;
  std::string campaign;
  AdversaryKind adversary = AdversaryKind::target_group;
  Topology topology = Topology::tinygroups;
  ChurnSchedule churn;
  WorkloadAxis workload;
  std::size_t n = 4096;
  double beta = 0.05;
  std::size_t trials = 8;
  std::uint64_t seed = 1;
};

/// One Monte-Carlo trial: fill `out` (sized to the cell's metric
/// count) from the spec and the trial's private deterministic RNG.
using TrialFn =
    std::function<void(const ScenarioSpec&, Rng&, std::vector<double>&)>;

struct Scenario {
  ScenarioSpec spec;                 ///< the cell's default spec
  std::vector<std::string> metrics;  ///< names of the values a trial fills
  TrialFn trial;
};

/// Process-wide scenario registry.  The builtin adversary x topology
/// grid is registered on first access; benches and tests may add more
/// cells (names must be unique).
class Registry {
 public:
  static Registry& instance();

  /// Throws std::invalid_argument on a duplicate name or empty trial.
  void add(Scenario scenario);

  [[nodiscard]] const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

  /// Exact-name lookup; nullptr when absent.
  [[nodiscard]] const Scenario* find(std::string_view name) const noexcept;

  /// Cells whose name contains `filter` or whose campaign tag equals
  /// it (empty filter = every cell), in registration order.
  [[nodiscard]] std::vector<const Scenario*> match(
      std::string_view filter) const;

 private:
  Registry();

  std::vector<Scenario> scenarios_;
};

namespace detail {
/// Registers the builtin grid (defined in cells.cpp; called once by
/// Registry's constructor).
void register_builtin_grid(Registry& registry);
}  // namespace detail

}  // namespace tg::scenario
