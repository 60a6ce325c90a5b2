// P1 — Hot-path microbenchmarks: oracle midstate caching, multi-lane
// hashing, batched PoW solving, and the persistent executor.
//
// Emits BENCH_crypto.json (schema in bench/README.md): ns/op and
// ops/sec per metric, plus meta.calibration_ns — the frozen
// calibration kernel (bench_common.hpp) CI's regression guard scores
// every timed row against.  This is the perf-trajectory smoke bench
// run by CI.
#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

int main() {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  banner("P1: hot-path microbenchmarks (crypto / PoW / executor)",
         "oracle calls cost one compression; multi-lane batching beats "
         "the single-lane path");

  JsonReporter report("crypto");
  // Which kernels this run actually dispatched to — without this the
  // hardware-normalized rows are not interpretable across runners
  // (a SHA-NI-less or AVX-512-less box legitimately scores lower
  // against the scalar calibration kernel).
  record_calibration(report);
  report.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  report.set_meta("lanes", std::to_string(crypto::Sha256::lane_width()));
  std::cout << "hash kernel: " << crypto::Sha256::kernel_name()
            << " (lane width " << crypto::Sha256::lane_width() << ")\n";

  Table t({"metric", "ns/op"});
  t.set_title("hot-path ns/op");

  const crypto::RandomOracle oracle("tinygroups/h1", 42);

  const auto bench_row = [&](const std::string& name, double now_ns) {
    report.add_ns_per_op(name, now_ns);
    t.add_row({name, now_ns});
    record_calibration(report);
  };

  // Single-lane ns/op, kept for the explicit multi-lane-vs-single
  // speedup rows below.
  double value_u64_single_ns = 0.0;
  double pow_attempt_single_ns = 0.0;

  // --- Oracle value_u64: the innermost hot call of h1/h2/f/g/h. ---
  {
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < iters; ++i) acc ^= oracle.value_u64(i);
      do_not_optimize(acc);
    });
    bench_row("oracle_value_u64", now_ns);
    value_u64_single_ns = now_ns;
  }

  // --- Oracle value_pair: group-membership hash h1(w, i). ---
  {
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < iters; ++i) acc ^= oracle.value_pair(i, i + 1);
      do_not_optimize(acc);
    });
    bench_row("oracle_value_pair", now_ns);
  }

  // --- Raw SHA-256 streaming throughput (compression function). ---
  {
    std::vector<std::uint8_t> msg(1024);
    for (std::size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 31);
    }
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < iters; ++i) {
        acc ^= crypto::digest_to_u64(crypto::sha256(msg));
      }
      do_not_optimize(acc);
    });
    bench_row("sha256_1kib", now_ns);
    report.add("sha256_throughput",
               {{"mib_per_sec", 1024.0 * 1e9 / now_ns / (1 << 20)}});
  }

  // --- PoW attempt cost: the solver's inner loop g(sigma ^ r). ---
  const crypto::OracleSuite oracles(91);
  const std::uint64_t tau = pow::tau_for_expected_attempts(500.0);
  {
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      Rng rng(7);
      auto g_stream = oracles.g.stream_u64();
      std::uint64_t found = 0;
      for (std::size_t i = 0; i < iters; ++i) {
        const std::uint64_t sigma = rng.u64();
        found += g_stream(sigma ^ 0x5151) <= tau;
      }
      do_not_optimize(found);
    });
    bench_row("pow_attempt", now_ns);
    pow_attempt_single_ns = now_ns;
  }

  // --- Multi-lane oracle batching: eval_many through the lane engine.
  // One op is still one oracle evaluation; a full lane group is hashed
  // per multi-buffer compression.  The *_vs_single rows quote the win
  // over this binary's own single-lane path (PR 1's design), which is
  // the number the lane engine exists for.
  {
    auto stream = oracle.stream_u64();
    constexpr std::size_t kBatch = 1024;
    std::vector<std::uint64_t> xs(kBatch), outs(kBatch);
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      std::uint64_t acc = 0;
      for (std::size_t done = 0; done < iters; done += kBatch) {
        const std::size_t m = std::min(kBatch, iters - done);
        for (std::size_t i = 0; i < m; ++i) xs[i] = done + i;
        stream.eval_many(xs.data(), outs.data(), m);
        acc ^= outs[m - 1];
      }
      do_not_optimize(acc);
    });
    bench_row("oracle_value_u64_multilane", now_ns);
    report.add("speedup_oracle_value_u64_multilane_vs_single",
               {{"speedup", value_u64_single_ns / now_ns}});
  }

  // --- Multi-lane membership hashing: StreamPair::eval_many, the
  // h(w, slot) draw shape of the group graphs. ---
  {
    auto stream = oracle.stream_pair();
    constexpr std::size_t kSlots = 64;  // a generous group size
    std::vector<std::uint64_t> slots(kSlots), outs(kSlots);
    for (std::size_t s = 0; s < kSlots; ++s) slots[s] = s;
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      std::uint64_t acc = 0;
      for (std::size_t done = 0; done < iters; done += kSlots) {
        const std::size_t m = std::min(kSlots, iters - done);
        stream.eval_many(/*w=*/done, slots.data(), outs.data(), m);
        acc ^= outs[m - 1];
      }
      do_not_optimize(acc);
    });
    bench_row("oracle_value_pair_multilane", now_ns);
  }

  // --- Multi-lane PoW attempts: the solver's lane-interleaved inner
  // loop — draw a lane group of sigmas, hash them together, count
  // threshold hits. ---
  {
    auto g_stream = oracles.g.stream_u64();
    constexpr std::size_t kLanes = crypto::Sha256::kMaxLanes;
    std::uint64_t xs[kLanes];
    std::uint64_t gs[kLanes];
    const double now_ns = measure_ns_per_op([&](std::size_t iters) {
      Rng rng(7);
      std::uint64_t found = 0;
      for (std::size_t done = 0; done < iters; done += kLanes) {
        const std::size_t m = std::min(kLanes, iters - done);
        for (std::size_t i = 0; i < m; ++i) xs[i] = rng.u64() ^ 0x5151;
        g_stream.eval_many(xs, gs, m);
        for (std::size_t i = 0; i < m; ++i) found += gs[i] <= tau;
      }
      do_not_optimize(found);
    });
    bench_row("pow_attempt_multilane", now_ns);
    report.add("speedup_pow_attempt_multilane_vs_single",
               {{"speedup", pow_attempt_single_ns / now_ns}});
  }

  // --- End-to-end batched solving (64 machines to completion). ---
  {
    const pow::PuzzleSolver solver(oracles.f, oracles.g);
    double attempts_per_batch = 0;
    const double batch_ns = measure_ns_per_op([&](std::size_t iters) {
      std::uint64_t acc = 0;
      double attempts = 0;
      for (std::size_t i = 0; i < iters; ++i) {
        Rng rng(92 + i);
        const auto sols = solver.solve_batch(0x5151, tau, 64, 1 << 14, rng);
        for (const auto& s : sols) {
          acc ^= s.id;
          attempts += static_cast<double>(s.attempts);
        }
      }
      attempts_per_batch = attempts / static_cast<double>(iters);
      do_not_optimize(acc);
    });
    report.add("pow_solve_batch_64",
               {{"ns_per_batch", batch_ns},
                {"attempts_per_sec", attempts_per_batch * 1e9 / batch_ns}});
    t.add_row({std::string("pow_solve_batch_64 (us)"), batch_ns / 1e3});
  }

  // --- Executor: fan-out cost through the persistent pool. ---
  {
    const std::size_t shards = 64;
    const std::function<void(std::size_t)> body = [](std::size_t i) {
      Rng rng(i);
      std::uint64_t acc = 0;
      for (int k = 0; k < 256; ++k) acc ^= rng.u64();
      do_not_optimize(acc);
    };
    const double now_ns = measure_ns_per_op(
        [&](std::size_t iters) {
          for (std::size_t i = 0; i < iters; ++i) {
            parallel_for_shards(shards, body, 8);
          }
        },
        0.3);
    bench_row("executor_fanout_64x8", now_ns);
  }

  // --- Thread scaling: Monte-Carlo fan-out through run_trials. ---
  {
    const std::size_t hw = std::thread::hardware_concurrency();
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      if (threads > std::max<std::size_t>(1, hw)) break;
      const double ns = measure_ns_per_op(
          [&](std::size_t iters) {
            for (std::size_t i = 0; i < iters; ++i) {
              const auto stats = sim::run_trials(
                  512, 99,
                  [](Rng& rng, std::size_t) {
                    double acc = 0;
                    for (int k = 0; k < 400; ++k) acc += rng.uniform();
                    return acc;
                  },
                  threads);
              do_not_optimize(static_cast<std::uint64_t>(stats.sum()));
            }
          },
          0.3);
      // One row per width: names must be unique within a report.
      report.add("run_trials_512_t" + std::to_string(threads),
                 {{"threads", static_cast<double>(threads)},
                  {"ns_per_run", ns},
                  {"runs_per_sec", 1e9 / ns}});
      t.add_row({std::string("run_trials_512 t=") + std::to_string(threads) +
                     " (us)",
                 ns / 1e3});
    }
  }

  t.print(std::cout);
  report.write();
  return 0;
}
