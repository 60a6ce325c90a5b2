// bench_e2e — wall-clock time to result on five simulator workloads,
// with per-layer attribution measured from outside the library.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--traced] [--out DIR]
//
// A run generates the workload's inputs from the seed, then repeats
// setup + run until the next repetition would end past --seconds, and
// reports the medians of the end-to-end metrics.  Every repetition of
// one seed must reproduce the same deterministic fingerprint.
//
// --traced runs the workload once untraced and once with a
// telemetry::Session bound and a timing decorator around the kv
// service, then probes each layer from outside (oracle draws, routes,
// an idle network round, fault decisions, dual searches) and reports
// the per-layer metrics.  It writes <out>/<workload>.spans.json (bench
// spans, Chrome trace with self time), <out>/<workload>.layers.json and
// the session's own metrics and virtual-time trace exports.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  A failed correctness check prints a repro line
// on stderr and exits 1.  The library is called only through its public
// headers.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "tinygroups/tinygroups.hpp"
#include "util/rss.hpp"

namespace tg::e2e {
namespace {

// ---------------------------------------------------------------------------
// Metric tables.  run.py checks these names and units against
// BENCHMARK.json, so the two lists cannot drift apart silently.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"run_s", "s"},
    {"sim_ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
    {"op_success_fraction", "fraction"},
    {"retry_amplification", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"crypto.oracle_pair_ns", "ns"},
    {"crypto.membership_draws", "count"},
    {"crypto.setup_share", "fraction"},
    {"core.population_s", "s"},
    {"core.pristine_s", "s"},
    {"core.epoch_initial_s", "s"},
    {"core.build_next_s", "s"},
    {"core.membership_requests", "count"},
    {"core.neighbor_requests", "count"},
    {"core.dual_failures", "count"},
    {"core.rejects", "count"},
    {"core.dual_search_ns", "ns"},
    {"core.search_share", "fraction"},
    {"core.graph_bytes", "bytes"},
    {"overlay.index_s", "s"},
    {"overlay.route_ns", "ns"},
    {"overlay.routes", "count"},
    {"overlay.hops_mean", "hops"},
    {"overlay.run_share", "fraction"},
    {"net.nodes", "count"},
    {"net.rounds", "count"},
    {"net.sent", "count"},
    {"net.delivered", "count"},
    {"net.delayed", "count"},
    {"net.idle_round_ns", "ns"},
    {"net.fixed_share", "fraction"},
    {"net.marginal_ns_per_msg", "ns"},
    {"workload.preload_s", "s"},
    {"workload.execute_ns", "ns"},
    {"workload.execute_calls", "count"},
    {"workload.next_op_ns", "ns"},
    {"workload.issued", "count"},
    {"workload.completed", "count"},
    {"workload.failed", "count"},
    {"workload.timed_out", "count"},
    {"workload.retries", "count"},
    {"workload.hedges", "count"},
    {"workload.stale_replies", "count"},
    {"workload.useful_attempt_ratio", "ratio"},
    {"fault.decide_ns", "ns"},
    {"fault.dropped", "count"},
    {"fault.delayed", "count"},
    {"fault.duplicated", "count"},
    {"fault.reordered", "count"},
    {"fault.run_share", "fraction"},
    {"pow.topology_s", "s"},
    {"pow.protocol_s", "s"},
    {"pow.forward_events", "count"},
    {"pow.steps", "count"},
    {"pow.forward_ns", "ns"},
    {"pow.mean_solution_set", "count"},
    {"telemetry.overhead_ratio", "ratio"},
    {"telemetry.trace_events", "count"},
    {"telemetry.trace_drops", "count"},
    {"unattributed_share", "fraction"},
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Values for one metric table; a metric not set by the workload reads
/// 0 (its layer is not on that workload's path).
class Metrics {
 public:
  explicit Metrics(std::span<const MetricDef> defs)
      : defs_(defs), values_(defs.size(), 0.0) {}

  void set(std::string_view name, double value) { values_[index(name)] = value; }
  [[nodiscard]] double get(std::string_view name) const {
    return values_[index(name)];
  }

  /// {"name": {"value": v, "unit": "u"}, ...} in table order.
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      out += defs_[i].name;
      out += "\": {\"value\": ";
      out += number(values_[i]);
      out += ", \"unit\": \"";
      out += defs_[i].unit;
      out += "\"}";
    }
    out += '}';
    return out;
  }

  void print(std::ostream& os) const {
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      os << "  " << defs_[i].name << " = " << number(values_[i]) << " "
         << defs_[i].unit << "\n";
    }
  }

 private:
  [[nodiscard]] std::size_t index(std::string_view name) const {
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (name == defs_[i].name) return i;
    }
    throw std::logic_error("unknown metric " + std::string(name));
  }

  std::span<const MetricDef> defs_;
  std::vector<double> values_;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Outside probes: each times a public call in batches until kProbeSeconds
// of work has accumulated and returns nanoseconds per item.
// ---------------------------------------------------------------------------

constexpr double kProbeSeconds = 0.2;
constexpr std::size_t kProbeBatch = 4096;

template <typename F>
double ns_per_item(std::size_t items_per_call, F&& call) {
  call();  // first touch
  std::size_t calls = 0;
  const Stopwatch sw;
  do {
    call();
    ++calls;
  } while (sw.seconds() < kProbeSeconds);
  return sw.seconds() * 1e9 /
         static_cast<double>(calls * items_per_call);
}

/// Keeps a probe's results observable so the timed calls are not
/// optimized away.
void keep(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

/// ns per membership-hash draw: StreamPair::eval_many over a batch of
/// varying (leader, slot) pairs, the pristine build's shape.
double oracle_pair_ns(std::uint64_t oracle_seed) {
  const crypto::OracleSuite oracles(oracle_seed);
  auto stream = oracles.h1.stream_pair();
  std::vector<std::uint64_t> as(kProbeBatch), bs(kProbeBatch), outs(kProbeBatch);
  Rng rng(oracle_seed);
  for (std::size_t i = 0; i < kProbeBatch; ++i) {
    as[i] = rng();
    bs[i] = i % 32;
  }
  std::uint64_t sink = 0;
  const double ns = ns_per_item(kProbeBatch, [&] {
    stream.eval_many(as.data(), bs.data(), outs.data(), kProbeBatch);
    sink ^= outs[kProbeBatch - 1];
  });
  keep(sink);
  return ns;
}

/// ns per route in one route_many batch of random (start, key) queries.
double route_ns(const overlay::InputGraph& topology, std::size_t starts,
                Rng& rng) {
  std::vector<overlay::RouteQuery> queries(kProbeBatch);
  for (auto& q : queries) {
    q.start = rng.below(starts);
    q.key = ids::RingPoint{rng()};
  }
  std::vector<overlay::Route> routes(kProbeBatch);
  std::uint64_t sink = 0;
  const double ns = ns_per_item(kProbeBatch, [&] {
    topology.route_many(queries.data(), queries.size(), routes.data());
    sink += routes[kProbeBatch - 1].hops();
  });
  keep(sink);
  return ns;
}

class IdleNode final : public net::Node {
 public:
  void on_message(const net::Message&, net::Context&) override {}
};

/// ns per Network::run_round with `nodes` no-op nodes and no traffic:
/// the fixed per-round cost every simulated round pays.
double idle_round_ns(std::size_t nodes) {
  net::Network network(net::DeliveryPolicy{}, /*seed=*/1, /*threads=*/1);
  for (std::size_t i = 0; i < nodes; ++i) {
    network.add_node(std::make_unique<IdleNode>());
  }
  network.start();
  return ns_per_item(1, [&] { (void)network.run_round(); });
}

/// ns per PlanInjector::decide on `plan` over the run's node/round space.
double decide_ns(const fault::FaultPlan& plan, std::size_t nodes,
                 std::size_t rounds) {
  const fault::PlanInjector injector(plan);
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;
  const double ns = ns_per_item(kProbeBatch, [&] {
    for (std::size_t i = 0; i < kProbeBatch; ++i) {
      ++seq;
      const net::FaultDecision d = injector.decide(
          seq % rounds, static_cast<net::NodeId>(seq % nodes),
          static_cast<net::NodeId>((seq * 7919) % nodes), seq);
      sink += d.delay_rounds + d.duplicates + (d.drop ? 1 : 0);
    }
  });
  keep(sink);
  return ns;
}

/// FNV-1a over every group view of `graph` (bench_scale's epoch
/// fingerprint): leaders, members, counters and red classification.
void fingerprint_graph(std::uint64_t& h, const core::GroupGraph& graph) {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const core::GroupView g = graph.group(i);
    mix(g.leader);
    mix(g.members.size());
    for (const auto m : g.members) mix(m);
    mix(g.bad_members);
    mix(g.corrupted_slots);
    mix(g.rejected_slots);
    mix(g.confused ? 1 : 0);
    mix(graph.is_red(i) ? 1 : 0);
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One repetition's deterministic outputs: a pure function of the seed.
struct Outcome {
  std::uint64_t fingerprint = 0;
  /// Simulated work settled: client ops (kv/chaos), dual-search
  /// requests (epoch) or gossip forward events (pow).
  std::uint64_t ops = 0;
  /// Client ops the ledger lost (issued but never settled).
  std::uint64_t unaccounted = 0;
  double success_fraction = 0.0;
  double retry_amplification = 1.0;
  double red_group_fraction = 0.0;
  std::uint64_t p50_rounds = 0;  ///< kv/chaos only
  std::uint64_t p99_rounds = 0;
  std::string error;  ///< first failed correctness check ("" = passed)
};

/// The traced repetition's recording context.
struct Trace {
  telemetry::Session session;
  Metrics layers{kPerLayer};
  double untraced_run_s = 0.0;  ///< denominator of every *_share
  double traced_run_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the run consumes; this is setup_s.
  virtual void setup(SpanLog& log) = 0;
  /// The measured phase; `trace` is set on the traced repetition only.
  virtual Outcome run(Trace* trace) = 0;
  /// Per-layer probes on the state the traced run left behind; returns
  /// a failed check or "".
  virtual std::string probe(SpanLog& log, Trace& trace) = 0;
};

/// Forwards to the real service and times every call from outside.
/// Counters need no synchronization: the engine runs at executor
/// width 1, so all calls come from one thread.
class TimedService final : public workload::Service {
 public:
  explicit TimedService(workload::Service& inner)
      : Service(inner.world()), inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] workload::Operation next_operation(Rng& rng) const override {
    const Stopwatch sw;
    const workload::Operation op = inner_->next_operation(rng);
    next_op_s_ += sw.seconds();
    ++next_op_calls_;
    return op;
  }
  workload::Execution execute(const workload::Operation& op,
                              std::size_t group) override {
    const Stopwatch sw;
    const workload::Execution e = inner_->execute(op, group);
    execute_s_ += sw.seconds();
    ++execute_calls_;
    return e;
  }

  [[nodiscard]] double execute_s() const noexcept { return execute_s_; }
  [[nodiscard]] std::uint64_t execute_calls() const noexcept {
    return execute_calls_;
  }
  [[nodiscard]] double next_op_s() const noexcept { return next_op_s_; }
  [[nodiscard]] std::uint64_t next_op_calls() const noexcept {
    return next_op_calls_;
  }

 private:
  workload::Service* inner_;
  mutable double next_op_s_ = 0.0;
  mutable std::uint64_t next_op_calls_ = 0;
  double execute_s_ = 0.0;
  std::uint64_t execute_calls_ = 0;
};

/// Benign tinygroups kv worlds, with or without the chaos fault plan
/// and the retry lifecycle.
struct KvShape {
  std::size_t n;
  double rate;  ///< open-loop ops per generation round
  std::size_t rounds;
  std::size_t padding_words;
  bool chaos;
  double completion_floor;
};

class KvWorkload final : public Workload {
 public:
  KvWorkload(const KvShape& shape, std::uint64_t seed)
      : shape_(shape), rng_(seed) {}

  void setup(SpanLog& log) override {
    params_.n = shape_.n;
    params_.beta = 0.08;
    params_.seed = rng_();
    std::shared_ptr<const core::Population> pop;
    population_s_ = log.time("population", [&] {
      pop = std::make_shared<const core::Population>(
          core::Population::uniform(params_.n, params_.beta, rng_));
    });
    pristine_s_ = log.time("pristine", [&] {
      const crypto::OracleSuite oracles(params_.seed);
      graph_ = std::make_shared<const core::GroupGraph>(
          core::GroupGraph::pristine(params_, pop, oracles.h1));
    });
    index_s_ = log.time("index", [&] {
      world_ = std::make_unique<workload::World>(
          workload::World::from_graph(graph_));
      world_->prepare_routing();
    });
    preload_s_ = log.time("preload", [&] {
      service_ = std::make_unique<workload::KvService>(
          *world_, params_.n / 4, rng_());
    });
    spec_.mode = workload::Mode::open_loop;
    spec_.rate = shape_.rate;
    spec_.rounds = shape_.rounds;
    spec_.padding_words = shape_.padding_words;
    if (shape_.chaos) {
      spec_.faults =
          *fault::fault_preset("chaos", world_->groups(), shape_.rounds, rng_());
      spec_.retry.enabled = true;
      spec_.retry.hedge = true;
    }
    run_seed_ = rng_();
  }

  Outcome run(Trace* trace) override {
    std::optional<TimedService> timed;
    if (trace != nullptr) timed.emplace(*service_);
    workload::Service& service =
        timed ? static_cast<workload::Service&>(*timed) : *service_;
    const workload::RunResult result =
        workload::run(service, spec_, run_seed_, /*threads=*/1);

    const workload::Recorder& r = result.recorder;
    Outcome o;
    o.fingerprint = result.trace_hash;
    o.ops = r.finished();
    o.unaccounted = r.issued > r.finished() ? r.issued - r.finished() : 0;
    o.success_fraction = ratio(static_cast<double>(r.completed),
                               static_cast<double>(r.issued));
    o.retry_amplification = r.retry_amplification();
    o.red_group_fraction = world_->red_fraction();
    o.p50_rounds = r.latency.p50();
    o.p99_rounds = r.latency.p99();
    const auto expected_issued =
        static_cast<std::uint64_t>(shape_.rate * static_cast<double>(shape_.rounds));
    if (r.issued != r.finished()) {
      o.error = "ledger does not close: issued " + std::to_string(r.issued) +
                " != completed + failed + timed out " +
                std::to_string(r.finished());
    } else if (r.issued != expected_issued) {
      o.error = "open loop issued " + std::to_string(r.issued) +
                " ops, expected " + std::to_string(expected_issued);
    } else if (o.success_fraction < shape_.completion_floor) {
      o.error = "completion " + number(o.success_fraction) + " below floor " +
                number(shape_.completion_floor);
    }

    if (trace != nullptr) {
      Metrics& L = trace->layers;
      const net::NetworkStats& net = result.net;
      L.set("net.nodes", static_cast<double>(world_->groups() + 1));  // + generator
      L.set("net.rounds", static_cast<double>(net.rounds));
      L.set("net.sent", static_cast<double>(net.sent));
      L.set("net.delivered", static_cast<double>(net.delivered));
      L.set("net.delayed", static_cast<double>(net.delayed));
      L.set("workload.execute_calls", static_cast<double>(timed->execute_calls()));
      L.set("workload.execute_ns",
            ratio(timed->execute_s() * 1e9,
                  static_cast<double>(timed->execute_calls())));
      L.set("workload.next_op_ns",
            ratio(timed->next_op_s() * 1e9,
                  static_cast<double>(timed->next_op_calls())));
      L.set("workload.issued", static_cast<double>(r.issued));
      L.set("workload.completed", static_cast<double>(r.completed));
      L.set("workload.failed", static_cast<double>(r.failed));
      L.set("workload.timed_out", static_cast<double>(r.timed_out));
      L.set("workload.retries", static_cast<double>(r.retries));
      L.set("workload.hedges", static_cast<double>(r.hedges));
      L.set("workload.stale_replies", static_cast<double>(r.stale_replies));
      L.set("workload.useful_attempt_ratio",
            ratio(static_cast<double>(r.completed),
                  static_cast<double>(r.issued + r.retries + r.hedges)));
      L.set("fault.dropped", static_cast<double>(net.fault_dropped));
      L.set("fault.delayed", static_cast<double>(net.fault_delayed));
      L.set("fault.duplicated", static_cast<double>(net.fault_duplicated));
      L.set("fault.reordered", static_cast<double>(net.fault_reordered));
      service_time_s_ = timed->execute_s() + timed->next_op_s();
    }
    return o;
  }

  std::string probe(SpanLog& log, Trace& trace) override {
    Metrics& L = trace.layers;
    const double run_s = trace.untraced_run_s;
    const double draws =
        static_cast<double>(params_.n * params_.group_size());
    L.set("core.population_s", population_s_);
    L.set("core.pristine_s", pristine_s_);
    L.set("overlay.index_s", index_s_);
    L.set("workload.preload_s", preload_s_);
    L.set("core.graph_bytes", static_cast<double>(graph_->memory_bytes()));
    L.set("crypto.membership_draws", draws);

    double pair_ns = 0.0;
    log.time("oracle_pair", [&] { pair_ns = oracle_pair_ns(params_.seed); });
    L.set("crypto.oracle_pair_ns", pair_ns);
    L.set("crypto.setup_share", ratio(draws * pair_ns * 1e-9, pristine_s_));

    Rng rng(run_seed_);
    double hop_ns = 0.0;
    log.time("route_many", [&] {
      hop_ns = route_ns(world_->topology(), world_->groups(), rng);
    });
    const double route_s = L.get("overlay.routes") * hop_ns * 1e-9;
    L.set("overlay.route_ns", hop_ns);
    L.set("overlay.run_share", ratio(route_s, run_s));

    double idle_ns = 0.0;
    log.time("idle_round",
             [&] { idle_ns = idle_round_ns(world_->groups() + 1); });
    const double fixed_s = L.get("net.rounds") * idle_ns * 1e-9;
    L.set("net.idle_round_ns", idle_ns);
    L.set("net.fixed_share", ratio(fixed_s, run_s));
    const double execute_s =
        L.get("workload.execute_ns") * L.get("workload.execute_calls") * 1e-9;
    L.set("net.marginal_ns_per_msg",
          ratio((run_s - fixed_s - execute_s) * 1e9, L.get("net.delivered")));

    double fault_s = 0.0;
    if (shape_.chaos) {
      double ns = 0.0;
      log.time("fault_decide", [&] {
        ns = decide_ns(spec_.faults, world_->groups() + 1, shape_.rounds);
      });
      fault_s = L.get("net.sent") * ns * 1e-9;
      L.set("fault.decide_ns", ns);
      L.set("fault.run_share", ratio(fault_s, run_s));
    }
    L.set("unattributed_share",
          1.0 - ratio(fixed_s + route_s + service_time_s_ + fault_s, run_s));
    return "";
  }

 private:
  KvShape shape_;
  Rng rng_;
  core::Params params_;
  std::shared_ptr<const core::GroupGraph> graph_;
  std::unique_ptr<workload::World> world_;
  std::unique_ptr<workload::KvService> service_;
  workload::Spec spec_;
  std::uint64_t run_seed_ = 0;
  double population_s_ = 0.0;
  double pristine_s_ = 0.0;
  double index_s_ = 0.0;
  double preload_s_ = 0.0;
  double service_time_s_ = 0.0;
};

/// Section III's dual-graph epoch construction: initial() is the setup,
/// kEpochs x build_next() the run.  No network is involved.
class EpochWorkload final : public Workload {
 public:
  static constexpr std::size_t kEpochs = 4;

  explicit EpochWorkload(std::uint64_t seed) : rng_(seed) {}

  void setup(SpanLog& log) override {
    params_.n = 20000;
    params_.beta = 0.05;
    params_.seed = rng_();
    builder_.emplace(params_);
    initial_s_ = log.time("initial", [&] { gen_ = builder_->initial(rng_); });
  }

  Outcome run(Trace* trace) override {
    build_s_.clear();
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const Stopwatch sw;
      gen_ = builder_->build_next(gen_, rng_, &stats_);
      build_s_.push_back(sw.seconds());
    }
    const double requests =
        static_cast<double>(stats_.membership_requests + stats_.neighbor_requests);
    const double failures = static_cast<double>(
        stats_.membership_dual_failures + stats_.neighbor_dual_failures);
    Outcome o;
    o.fingerprint = 1469598103934665603ull;
    fingerprint_graph(o.fingerprint, *gen_.g1);
    fingerprint_graph(o.fingerprint, *gen_.g2);
    o.ops = stats_.membership_requests + stats_.neighbor_requests;
    o.success_fraction = 1.0 - ratio(failures, requests);
    o.red_group_fraction = gen_.g1->red_fraction();
    const std::size_t expected_membership =
        kEpochs * 2 * params_.n * params_.group_size();
    if (stats_.membership_requests != expected_membership) {
      o.error = "membership requests " +
                std::to_string(stats_.membership_requests) + " != " +
                std::to_string(expected_membership);
    } else if (gen_.g1->size() != params_.n || gen_.g2->size() != params_.n) {
      o.error = "epoch graphs lost groups";
    }
    if (trace != nullptr) {
      Metrics& L = trace->layers;
      L.set("core.membership_requests",
            static_cast<double>(stats_.membership_requests));
      L.set("core.neighbor_requests",
            static_cast<double>(stats_.neighbor_requests));
      L.set("core.dual_failures", failures);
      L.set("core.rejects", static_cast<double>(stats_.membership_rejects +
                                                stats_.neighbor_rejects));
      L.set("core.build_next_s", median(build_s_));
      L.set("crypto.membership_draws",
            static_cast<double>(stats_.membership_requests));
    }
    return o;
  }

  std::string probe(SpanLog& log, Trace& trace) override {
    Metrics& L = trace.layers;
    const double run_s = trace.untraced_run_s;
    L.set("core.epoch_initial_s", initial_s_);
    L.set("core.graph_bytes", static_cast<double>(gen_.g1->memory_bytes() +
                                                  gen_.g2->memory_bytes()));
    double pair_ns = 0.0;
    log.time("oracle_pair", [&] { pair_ns = oracle_pair_ns(params_.seed); });
    L.set("crypto.oracle_pair_ns", pair_ns);
    const double initial_draws =
        static_cast<double>(2 * params_.n * params_.group_size());
    L.set("crypto.setup_share",
          ratio(initial_draws * pair_ns * 1e-9, initial_s_));

    Rng rng(params_.seed);
    const std::size_t leaders = gen_.g1->size();
    std::vector<std::pair<std::size_t, ids::RingPoint>> probes(kProbeBatch);
    for (auto& p : probes) p = {rng.below(leaders), ids::RingPoint{rng()}};
    double search_ns = 0.0;
    log.time("dual_search", [&] {
      std::uint64_t sink = 0;
      search_ns = ns_per_item(kProbeBatch, [&] {
        for (const auto& [start, key] : probes) {
          sink += core::dual_secure_search(*gen_.g1, *gen_.g2, start, key)
                      .success;
        }
      });
      keep(sink);
    });
    // Every request runs one dual search, plus a verifying one when the
    // first succeeds.
    const double searches = 2.0 * (L.get("core.membership_requests") +
                                   L.get("core.neighbor_requests")) -
                            L.get("core.dual_failures");
    const double search_s = searches * search_ns * 1e-9;
    L.set("core.dual_search_ns", search_ns);
    L.set("core.search_share", ratio(search_s, run_s));

    double hop_ns = 0.0;
    log.time("route_many", [&] {
      hop_ns = route_ns(gen_.g1->topology(), leaders, rng);
    });
    L.set("overlay.route_ns", hop_ns);
    L.set("overlay.run_share",
          ratio(L.get("overlay.routes") * hop_ns * 1e-9, run_s));
    const double draw_s = L.get("crypto.membership_draws") * pair_ns * 1e-9;
    L.set("unattributed_share", 1.0 - ratio(search_s + draw_s, run_s));
    return "";
  }

 private:
  Rng rng_;
  core::Params params_;
  std::optional<core::EpochBuilder> builder_;
  core::EpochGraphs gen_;
  core::BuildStats stats_;
  std::vector<double> build_s_;
  double initial_s_ = 0.0;
};

/// Section IV's string protocol at the registry's late_release/tinygroups
/// cell: topology + late-release schedule are the setup, the three-phase
/// gossip is the run.  The split must reproduce the registry trial.
class PowWorkload final : public Workload {
 public:
  explicit PowWorkload(std::uint64_t seed) : seed_(seed), rng_(seed) {
    cell_ = scenario::Registry::instance().find("late_release/tinygroups");
    if (cell_ == nullptr) {
      throw std::runtime_error("registry has no late_release/tinygroups cell");
    }
  }

  void setup(SpanLog& log) override {
    const scenario::ScenarioSpec& spec = cell_->spec;
    core::Params p;
    p.n = spec.n;
    const std::size_t degree = p.group_size();
    topology_s_ = log.time("topology", [&] {
      adjacency_ = pow::make_gossip_topology(spec.n, degree, rng_);
    });
    gossip_.nodes = spec.n;
    gossip_.phase1_attempts = 1 << 12;
    const auto phase2 = static_cast<std::size_t>(
        std::ceil(gossip_.d_prime * std::log(static_cast<double>(spec.n))));
    const std::size_t strings = 4 + spec.churn.epochs / 2;
    log.time("late_release", [&] {
      attacks_ = adversary::worst_case_late_release(strings, spec.n, phase2,
                                                    1e-9, rng_);
    });
  }

  Outcome run(Trace* trace) override {
    outcome_ = pow::run_string_protocol(adjacency_, gossip_, attacks_, rng_);
    Outcome o;
    o.fingerprint = 1469598103934665603ull;
    std::uint64_t mean_bits = 0;
    std::memcpy(&mean_bits, &outcome_.mean_solution_set, sizeof mean_bits);
    for (const std::uint64_t v :
         {std::uint64_t{outcome_.agreement}, mean_bits, outcome_.forward_events,
          std::uint64_t{outcome_.steps_run}}) {
      o.fingerprint ^= v;
      o.fingerprint *= 1099511628211ull;
    }
    o.ops = outcome_.forward_events;
    o.success_fraction = outcome_.agreement ? 1.0 : 0.0;
    if (!outcome_.agreement) o.error = "string protocol lost agreement";
    if (trace != nullptr) {
      Metrics& L = trace->layers;
      L.set("pow.forward_events", static_cast<double>(outcome_.forward_events));
      L.set("pow.steps", static_cast<double>(outcome_.steps_run));
      L.set("pow.mean_solution_set", outcome_.mean_solution_set);
    }
    return o;
  }

  std::string probe(SpanLog& log, Trace& trace) override {
    Metrics& L = trace.layers;
    L.set("pow.topology_s", topology_s_);
    L.set("pow.protocol_s", trace.traced_run_s);
    L.set("pow.forward_ns",
          ratio(trace.traced_run_s * 1e9, L.get("pow.forward_events")));
    // The run is a single layer call, so the outside view attributes
    // all of it.
    L.set("unattributed_share", 0.0);

    std::vector<double> out(cell_->metrics.size());
    log.time("registry_trial", [&] {
      Rng replay(seed_);
      cell_->trial(cell_->spec, replay, out);
    });
    if (out[0] != (outcome_.agreement ? 1.0 : 0.0) ||
        out[1] != outcome_.mean_solution_set) {
      return "setup/run split diverged from the registry trial: agreement " +
             number(out[0]) + " mean solution set " + number(out[1]);
    }
    return "";
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  const scenario::Scenario* cell_ = nullptr;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  pow::GossipParams gossip_;
  std::vector<pow::LateRelease> attacks_;
  pow::GossipOutcome outcome_;
  double topology_s_ = 0.0;
};

struct WorkloadInfo {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

const WorkloadInfo kWorkloads[] = {
    {"kv_sparse_100k",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<KvWorkload>(
           KvShape{100'000, 8.0, 1024, 4, false, 0.99}, seed);
     }},
    {"kv_dense_10k",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<KvWorkload>(
           KvShape{10'000, 256.0, 3072, 8, false, 0.99}, seed);
     }},
    {"chaos_retry_10k",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<KvWorkload>(
           KvShape{10'000, 128.0, 3072, 8, true, 0.85}, seed);
     }},
    {"epoch_dynamic_20k",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<EpochWorkload>(seed);
     }},
    {"pow_gossip_4k",
     [](std::uint64_t seed) -> std::unique_ptr<Workload> {
       return std::make_unique<PowWorkload>(seed);
     }},
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// A run repeats setup + run at least kMinReps times, and starts another
/// repetition only if it would end within --seconds.  Three, not two:
/// on a shared host single repetitions run 10-20% slow in bursts, and a
/// median of three drops one such repetition.  Extra setup-only
/// repetitions follow until setup has been sampled kMinSetupSamples
/// times and for kMinSetupSeconds in total (at most kMaxSetupSamples),
/// so setup_s is a steady median even where one setup takes 20 ms.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinSetupSamples = 5;
constexpr std::size_t kMaxSetupSamples = 50;
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out = ".bench_out";
};

std::string repro(const Args& a) {
  return std::string("repro: bench_e2e --workload ") + a.workload->name +
         " --seed " + std::to_string(a.seed) + (a.traced ? " --traced" : "");
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

std::string meta_json() {
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"pool_width\": " + std::to_string(ThreadPool::global().size()) +
         ", \"executor_width\": 1, \"hash_kernel\": \"" +
         crypto::Sha256::kernel_name() + "\"}";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
}

int fail(const Args& args, const std::string& what) {
  std::cerr << "bench_e2e: " << args.workload->name << " seed " << args.seed
            << ": " << what << "\n"
            << repro(args) << "\n";
  return 1;
}

/// One untraced repetition.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  Outcome outcome;
};

Rep measure_rep(const Args& args) {
  const std::unique_ptr<Workload> w = args.workload->make(args.seed);
  SpanLog log;
  Rep rep;
  util::reset_peak_rss();
  rep.setup_s = log.time("setup", [&] { w->setup(log); });
  rep.run_s = log.time("run", [&] { rep.outcome = w->run(nullptr); });
  rep.peak_rss_mb = static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
  return rep;
}

int measure(const Args& args) {
  std::vector<double> setup_s, run_s, wall_s, rss_mb;
  Outcome first;
  const Stopwatch total;
  for (;;) {
    const Rep rep = measure_rep(args);
    if (!rep.outcome.error.empty()) {
      print_result(false, rep.outcome.ops, rep.outcome.unaccounted, Metrics(kEndToEnd));
      return fail(args, rep.outcome.error);
    }
    if (run_s.empty()) {
      first = rep.outcome;
    } else if (rep.outcome.fingerprint != first.fingerprint) {
      print_result(false, rep.outcome.ops, rep.outcome.unaccounted, Metrics(kEndToEnd));
      return fail(args, "repetition fingerprint " + hex(rep.outcome.fingerprint) +
                            " != first " + hex(first.fingerprint));
    }
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
    wall_s.push_back(rep.setup_s + rep.run_s);
    rss_mb.push_back(rep.peak_rss_mb);
    if (run_s.size() >= kMinReps &&
        total.seconds() + wall_s.back() > args.seconds) {
      break;
    }
  }
  const std::size_t reps = run_s.size();
  double setup_total = 0.0;
  for (const double s : setup_s) setup_total += s;
  while (setup_s.size() < kMaxSetupSamples &&
         (setup_s.size() < kMinSetupSamples || setup_total < kMinSetupSeconds)) {
    const std::unique_ptr<Workload> w = args.workload->make(args.seed);
    SpanLog log;
    setup_s.push_back(log.time("setup", [&] { w->setup(log); }));
    setup_total += setup_s.back();
  }

  Metrics m(kEndToEnd);
  m.set("setup_s", median(setup_s));
  m.set("run_s", median(run_s));
  m.set("wall_s", m.get("setup_s") + m.get("run_s"));
  m.set("sim_ops_per_s", ratio(static_cast<double>(first.ops), m.get("run_s")));
  m.set("peak_rss_mb", median(rss_mb));
  m.set("op_success_fraction", first.success_fraction);
  m.set("retry_amplification", first.retry_amplification);

  std::cout << "bench_e2e " << args.workload->name << " seed " << args.seed
            << ": " << reps << " repetitions, " << setup_s.size()
            << " setups, meta " << meta_json() << "\n"
            << "  fingerprint " << hex(first.fingerprint) << ", ops "
            << first.ops << ", op_fail_fraction "
            << number(1.0 - first.success_fraction) << ", p50_rounds "
            << first.p50_rounds << ", p99_rounds " << first.p99_rounds
            << ", red_group_fraction " << number(first.red_group_fraction)
            << "\n";
  m.print(std::cout);

  std::filesystem::create_directories(args.out);
  write_file(std::filesystem::path(args.out) /
                 (std::string(args.workload->name) + "." +
                  std::to_string(args.seed) + ".result.json"),
             std::string("{\"workload\": \"") + args.workload->name +
                 "\", \"seed\": " + std::to_string(args.seed) +
                 ", \"fingerprint\": \"" + hex(first.fingerprint) +
                 "\", \"repetitions\": " + std::to_string(reps) +
                 ", \"ops\": " + std::to_string(first.ops) +
                 ", \"op_fail_fraction\": " +
                 number(1.0 - first.success_fraction) +
                 ", \"p50_rounds\": " + std::to_string(first.p50_rounds) +
                 ", \"p99_rounds\": " + std::to_string(first.p99_rounds) +
                 ", \"red_group_fraction\": " +
                 number(first.red_group_fraction) + ", \"meta\": " +
                 meta_json() + ", \"metrics\": " + m.json() + "}\n");
  print_result(true, first.ops * reps, first.unaccounted * reps, m);
  return 0;
}

/// Layer numbers read from the session's public counters (routes and
/// their hop histogram, trace accounting); the probes use overlay.routes.
void session_layers(Trace& trace) {
  Metrics& L = trace.layers;
  const telemetry::MetricsRegistry& reg = trace.session.metrics();
  const telemetry::LogHistogram hops =
      reg.histogram(telemetry::Probe::overlay_hops);
  double hop_sum = 0.0;  // hop counts are below 32, recorded exactly
  for (std::size_t i = 0; i < telemetry::LogHistogram::kBuckets; ++i) {
    hop_sum += static_cast<double>(hops.bucket_count(i)) *
               static_cast<double>(telemetry::LogHistogram::bucket_lower_bound(i));
  }
  L.set("overlay.routes",
        static_cast<double>(reg.counter(telemetry::Probe::overlay_routes)));
  L.set("overlay.hops_mean", ratio(hop_sum, static_cast<double>(hops.count())));
  L.set("telemetry.trace_events",
        static_cast<double>(trace.session.trace().pushed()));
  L.set("telemetry.trace_drops",
        static_cast<double>(trace.session.trace().dropped()));
}

int traced(const Args& args) {
  auto trace = std::make_unique<Trace>();
  const Rep untraced = measure_rep(args);
  trace->untraced_run_s = untraced.run_s;

  const std::unique_ptr<Workload> w = args.workload->make(args.seed);
  SpanLog log;
  Outcome o;
  std::string probe_error;
  log.time(args.workload->name, [&] {
    telemetry::set_active(&trace->session);
    log.time("setup", [&] { w->setup(log); });
    trace->traced_run_s = log.time("run", [&] { o = w->run(trace.get()); });
    telemetry::set_active(nullptr);
    session_layers(*trace);
    log.time("probes", [&] { probe_error = w->probe(log, *trace); });
  });
  Metrics& L = trace->layers;
  L.set("telemetry.overhead_ratio", ratio(trace->traced_run_s, untraced.run_s));

  std::string error = !untraced.outcome.error.empty() ? untraced.outcome.error
                      : !o.error.empty()              ? o.error
                                                      : probe_error;
  if (error.empty() && o.fingerprint != untraced.outcome.fingerprint) {
    error = "traced fingerprint " + hex(o.fingerprint) + " != untraced " +
            hex(untraced.outcome.fingerprint);
  }

  const std::filesystem::path out(args.out);
  const std::string base = args.workload->name;
  std::filesystem::create_directories(out);
  write_file(out / (base + ".spans.json"), log.chrome_json());
  write_file(out / (base + ".layers.json"),
             "{\"workload\": \"" + base + "\", \"seed\": " +
                 std::to_string(args.seed) + ", \"fingerprint\": \"" +
                 hex(o.fingerprint) + "\", \"meta\": " + meta_json() +
                 ", \"layers\": " + L.json() + "}\n");
  write_file(out / (base + ".telemetry.metrics.json"),
             trace->session.metrics_json());
  write_file(out / (base + ".telemetry.trace.json"),
             trace->session.chrome_trace_json());

  std::cout << "bench_e2e " << base << " seed " << args.seed
            << " traced: fingerprint " << hex(o.fingerprint) << ", meta "
            << meta_json() << "\n";
  L.print(std::cout);
  print_result(error.empty(), o.ops, o.unaccounted, L);
  return error.empty() ? 0 : fail(args, error);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N [--seconds S] [--traced] [--out DIR]\n"
               "workloads:";
  for (const WorkloadInfo& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace tg::e2e

int main(int argc, char** argv) {
  using namespace tg::e2e;
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) {
        const std::string_view name = argv[++i];
        for (const WorkloadInfo& w : kWorkloads) {
          if (name == w.name) args.workload = &w;
        }
        if (args.workload == nullptr) return usage(argv[0]);
      } else if (a == "--seed" && has_value) {
        args.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        args.seconds = std::stod(argv[++i]);
      } else if (a == "--out" && has_value) {
        args.out = argv[++i];
      } else if (a == "--traced") {
        args.traced = true;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (args.workload == nullptr) return usage(argv[0]);

  tg::log::set_level(tg::log::Level::warn);
  try {
    return args.traced ? traced(args) : measure(args);
  } catch (const std::exception& e) {
    return fail(args, std::string("exception: ") + e.what());
  }
}
