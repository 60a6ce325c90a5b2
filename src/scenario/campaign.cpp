#include "scenario/campaign.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "net/network.hpp"
#include "sim/trial_runner.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/traffic.hpp"

namespace tg::scenario {

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

std::vector<ScenarioResult> CampaignRunner::run() const {
  std::vector<ScenarioResult> results;
  for (const Scenario* cell : Registry::instance().match(options_.filter)) {
    ScenarioSpec spec = cell->spec;
    if (options_.trials_override) spec.trials = *options_.trials_override;
    if (options_.seed_override) spec.seed = *options_.seed_override;
    if (options_.n_override) spec.n = *options_.n_override;
    if (options_.beta_override) spec.beta = *options_.beta_override;
    if (options_.churn_override) spec.churn = *options_.churn_override;
    // Cells registered with their own workload axis (the adaptive
    // "faults" family) keep it unless the CLI enabled one explicitly.
    if (options_.workload.enabled() || !spec.workload.enabled()) {
      spec.workload = options_.workload;
    }
    if (options_.adversary_override) {
      spec.adversary = *options_.adversary_override;
    }
    if (!options_.faults_preset.empty()) {
      spec.workload.faults_preset = options_.faults_preset;
    }
    if (options_.retries_override) {
      spec.workload.retries = *options_.retries_override;
    }
    results.push_back(run_cell(*cell, spec, options_.threads));
  }
  return results;
}

ScenarioResult CampaignRunner::run_cell(const Scenario& cell,
                                        const ScenarioSpec& spec,
                                        std::size_t threads) {
  ScenarioResult result;
  result.spec = spec;
  const bool under_traffic = spec.workload.enabled();
  result.metric_names =
      under_traffic ? workload::traffic_metric_names() : cell.metrics;
  const Stopwatch sw;
  result.metrics = sim::run_trials_multi(
      spec.trials, result.metric_names.size(), spec.seed,
      [&](Rng& rng, std::size_t /*index*/, std::vector<double>& out) {
        if (under_traffic) {
          workload::run_traffic_trial(spec, rng, out);
        } else {
          cell.trial(spec, rng, out);
        }
      },
      threads);
  result.seconds = sw.seconds();
  return result;
}

void CampaignRunner::report(const std::vector<ScenarioResult>& results,
                            bench::JsonReporter& out) {
  for (const ScenarioResult& r : results) {
    for (std::size_t m = 0; m < r.metric_names.size(); ++m) {
      const RunningStats& stats = r.metrics[m];
      // The 64-bit seed is split into exact 32-bit halves — a single
      // double-valued field cannot carry it losslessly, and the
      // determinism contract requires reproducing a cell from its row.
      out.add(r.spec.name + "." + r.metric_names[m],
              {{"mean", stats.mean()},
               {"stddev", stats.stddev()},
               {"min", stats.min()},
               {"max", stats.max()},
               {"trials", static_cast<double>(stats.count())},
               {"n", static_cast<double>(r.spec.n)},
               {"beta", r.spec.beta},
               {"seed_hi", static_cast<double>(r.spec.seed >> 32)},
               {"seed_lo",
                static_cast<double>(r.spec.seed & 0xffffffffULL)}});
    }
  }
  out.add("campaign.summary",
          {{"cells", static_cast<double>(results.size())}});
}

void CampaignRunner::print(const std::vector<ScenarioResult>& results,
                           std::ostream& os) {
  Table t({"scenario", "campaign", "n", "trials", "metric", "mean", "stddev",
           "min", "max"});
  t.set_title("Scenario campaign results");
  for (const ScenarioResult& r : results) {
    for (std::size_t m = 0; m < r.metric_names.size(); ++m) {
      const RunningStats& stats = r.metrics[m];
      t.add_row({r.spec.name, r.spec.campaign,
                 static_cast<std::uint64_t>(r.spec.n),
                 static_cast<std::uint64_t>(r.spec.trials),
                 r.metric_names[m], stats.mean(), stats.stddev(), stats.min(),
                 stats.max()});
    }
  }
  t.print(os);
}

// ---------------------------------------------------------------------------
// The chatter round loop.
// ---------------------------------------------------------------------------

void ChatterNode::on_start(net::Context& ctx) { ctx.wake_at(ctx.round() + 1); }

void ChatterNode::on_message(const net::Message& m, net::Context& ctx) {
  (void)ctx;
  if (!m.payload.empty()) {
    checksum_ += m.payload.front() ^ m.payload.back();
  }
}

void ChatterNode::on_round_end(net::Context& ctx) {
  ctx.wake_at(ctx.round() + 1);
  for (std::size_t k = 0; k < fanout_; ++k) {
    const auto dst = static_cast<net::NodeId>(
        (ctx.self() + 1 + k * 37 + ctx.round()) % n_);
    net::Words payload;
    payload.reserve(payload_words_);
    payload.push_back(ctx.round());
    payload.push_back(checksum_);
    std::uint64_t filler = checksum_ ^ (ctx.round() * 0x9E3779B97F4A7C15ULL);
    while (payload.size() < payload_words_) {
      filler = filler * 6364136223846793005ULL + 1442695040888963407ULL;
      payload.push_back(filler);
    }
    ctx.send(dst, /*tag=*/k, std::move(payload));
  }
}

RoundLoopResult run_chatter_round_loop(const RoundLoopConfig& config) {
  const std::size_t payload_words = std::max<std::size_t>(
      config.payload_words, 2);  // round + checksum words
  net::Network network(net::DeliveryPolicy{}, config.seed, /*threads=*/1);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    network.add_node(
        std::make_unique<ChatterNode>(config.nodes, config.fanout,
                                      payload_words));
  }
  network.start();
  const Stopwatch sw;
  for (std::size_t r = 0; r < config.rounds; ++r) network.run_round();
  RoundLoopResult out;
  out.ns_per_round =
      sw.seconds() * 1e9 / static_cast<double>(config.rounds);
  out.trace_hash = network.trace_hash();
  out.delivered = network.stats().delivered;
  return out;
}

}  // namespace tg::scenario
