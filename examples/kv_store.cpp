// Example: the Byzantine-tolerant key-value store, served as real
// traffic.
//
// The paper's first motivating application (Section I-A): decentralized
// storage where "all but an epsilon-fraction of data is reachable and
// maintained reliably".  The store itself lives in the library now
// (workload::KvService); this example is a thin driver that puts it
// under a bursty open-loop request stream on the workload engine and
// reads the epsilon off the recorder — puts and gets as real
// net::Network messages hopping the overlay, red groups dropping or
// corrupting them, latency measured per op.
#include <iostream>

#include "tinygroups/tinygroups.hpp"

int main() {
  using namespace tg;
  log::set_level(log::Level::warn);

  scenario::ScenarioSpec spec;
  spec.topology = scenario::Topology::tinygroups;
  spec.n = 4096;
  spec.beta = 0.08;
  spec.seed = 7;
  spec.workload.service = scenario::WorkloadAxis::Service::kv;
  spec.workload.loop = scenario::WorkloadAxis::Loop::open;
  spec.workload.rate = 8.0;
  spec.workload.rounds = 256;

  core::Params params;
  params.n = spec.n;
  std::cout << "== Byzantine-tolerant KV store on tiny groups ==\n"
            << "n = " << spec.n << ", beta = " << spec.beta
            << ", |G| = " << params.group_size()
            << ", open loop @ " << spec.workload.rate
            << " ops/round with 4x bursts\n\n";

  Rng rng(spec.seed);
  const workload::World world =
      workload::world_for_trial(spec, /*with_adversary=*/false, rng);
  workload::KvService service(world, /*key_space=*/2048, /*salt=*/spec.seed);

  workload::Spec engine = workload::engine_spec(spec, false);
  engine.burst_every = 64;  // bursty phases: 8 rounds at 4x every 64
  engine.burst_rounds = 8;
  engine.burst_multiplier = 4.0;
  const workload::RunResult run =
      workload::run(service, engine, spec.seed, /*threads=*/1);

  const workload::Recorder& r = run.recorder;
  std::cout << "issued    : " << r.issued << " ops over " << r.rounds
            << " rounds (" << run.rounds_run - r.rounds << " drain rounds)\n"
            << "completed : " << r.completed << "   failed: " << r.failed
            << "   timed out: " << r.timed_out << "\n"
            << "latency   : p50 " << r.latency.p50() << "  p90 "
            << r.latency.p90() << "  p99 " << r.latency.p99() << "  p99.9 "
            << r.latency.p999() << "  (rounds)\n"
            << "throughput: " << r.ops_per_round() << " completed ops/round\n"
            << "messages  : " << run.net.delivered << " on the wire, "
            << (r.finished()
                    ? static_cast<double>(r.analytic_messages) /
                          static_cast<double>(r.finished())
                    : 0.0)
            << " all-to-all messages per op\n\n";

  const double epsilon = 1.0 - r.completed_fraction();
  std::cout << "epsilon (fraction lost, corrupted, or timed out) = " << epsilon
            << "  —  the paper guarantees o(1); typical runs see < 5%.\n";
  return epsilon < 0.05 ? 0 : 1;
}
