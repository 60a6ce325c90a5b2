// Shared helpers for the experiment harness binaries.
//
// Deliberately thin on includes: benches that need the full library
// include the umbrella header themselves, so editing one subsystem
// header does not rebuild every bench through this file.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/params.hpp"
#include "util/json_reporter.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace tg::bench {

/// Every bench announces itself the same way so the combined
/// bench_output.txt reads as a lab notebook.
inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n################################################################\n"
            << "# " << experiment << "\n"
            << "# Claim: " << claim << "\n"
            << "################################################################\n";
}

inline double log2d(std::size_t n) {
  return std::log2(static_cast<double>(n));
}
inline double lnd(std::size_t n) { return std::log(static_cast<double>(n)); }
inline double lnlnd(std::size_t n) { return core::Params::ln_ln(n); }

// ---------------------------------------------------------------------------
// Perf measurement + JSON reporting (the BENCH_*.json trajectory).
// ---------------------------------------------------------------------------

/// Keep a computed value alive past the optimizer.
inline void do_not_optimize(std::uint64_t value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(value) : "memory");
#else
  volatile std::uint64_t sink = value;
  (void)sink;
#endif
}

/// Fastest of `runs` calls of `time_once()` (each returns a duration,
/// e.g. ns per op), with the calling thread pinned to the next CPU of
/// its affinity mask for each call (Linux; the mask is restored
/// after).  Host contention only ever slows a run down, and on a
/// shared host it sits on one core for seconds at a time, so the
/// fastest run across cores is the steadiest estimate of the code's
/// own cost.
template <typename F>
double fastest_across_cpus(int runs, F&& time_once) {
  double best = std::numeric_limits<double>::infinity();
#if defined(__linux__)
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool pin = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  std::vector<int> cpus;
  for (int c = 0; pin && c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved)) cpus.push_back(c);
  }
  for (int r = 0; r < runs; ++r) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(r) % cpus.size()], &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
    }
    best = std::min(best, time_once());
  }
  if (pin) (void)sched_setaffinity(0, sizeof(saved), &saved);
#else
  for (int r = 0; r < runs; ++r) best = std::min(best, time_once());
#endif
  return best;
}

/// Adaptive micro-timer: `fn(iters)` must perform `iters` operations;
/// the iteration count grows until one timed window exceeds
/// `min_seconds`, then `windows` windows of that size run through
/// fastest_across_cpus.  Returns nanoseconds per operation of the
/// fastest window.
template <typename F>
double measure_ns_per_op(F&& fn, double min_seconds = 0.1, int windows = 4) {
  fn(1);  // warmup / first-touch
  std::size_t iters = 1;
  for (;;) {
    Stopwatch sw;
    fn(iters);
    const double s = sw.seconds();
    if (s >= min_seconds) break;
    const double grow = s > 0 ? (min_seconds * 1.2) / s : 1024.0;
    iters = static_cast<std::size_t>(
        static_cast<double>(iters) * std::min(grow, 1024.0)) + 1;
  }
  return fastest_across_cpus(windows, [&] {
    Stopwatch sw;
    fn(iters);
    return sw.seconds() * 1e9 / static_cast<double>(iters);
  });
}

// JsonReporter (the BENCH_*.json writer) moved to
// src/util/json_reporter.hpp so the scenario campaign engine can emit
// the same schema; it is included above and unchanged in name/shape.

// ---------------------------------------------------------------------------
// Calibration kernel: the perf guard's hardware yardstick.
// ---------------------------------------------------------------------------
//
// Every perf bench records calibration_ns() as meta.calibration_ns, and
// tools/check_perf_regression.py scores each timed row as
// calibration_ns / ns_per_op, so a uniformly faster or slower machine
// cancels out of the baseline-vs-current comparison.
//
// FROZEN: the committed BENCH_*.json baselines were measured with
// exactly these constants and this code.  Changing any of them changes
// what one kernel op costs, which means regenerating every baseline.

namespace calibration {

/// Pointer-chase buffer: 2^20 u32 slots (4 MiB, larger than L2).
inline constexpr std::size_t kChaseSlots = std::size_t{1} << 20;
/// Dependent loads per kernel op.  One keeps the kernel mostly
/// compute: memory latency on a shared host swings more than core
/// speed, and more chase steps made the kernel noisier, not truer.
inline constexpr std::size_t kChaseSteps = 1;
/// Seed of the splitmix64 stream that shuffles the chase cycle.
inline constexpr std::uint64_t kChaseSeed = 0x63616c6962726174ULL;

inline constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

/// One scalar SHA-256 compression (FIPS 180-4) of `block` into `state`,
/// in portable C++ so no hash-kernel dispatch can change its cost.
inline void compress(std::uint32_t state[8],
                     const std::uint32_t block[16]) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = block[i];
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kRound[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// The chase buffer: one cycle through every slot (Sattolo's shuffle
/// driven by splitmix64), so a chase never settles into a short,
/// cache-resident loop.  Built per calibration and freed after it, so
/// it never inflates a bench's phase-local peak-RSS rows.
inline std::vector<std::uint32_t> chase_cycle() {
  std::vector<std::uint32_t> order(kChaseSlots);
  for (std::size_t i = 0; i < kChaseSlots; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = kChaseSeed;
  for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::swap(order[i], order[z % i]);  // j < i: a single cycle
  }
  std::vector<std::uint32_t> cycle(kChaseSlots);
  for (std::size_t i = 0; i < kChaseSlots; ++i) {
    cycle[order[i]] = order[(i + 1) % kChaseSlots];
  }
  return cycle;
}

}  // namespace calibration

/// Nanoseconds per calibration op: one scalar SHA-256 compression,
/// then kChaseSteps dependent loads through the chase cycle starting
/// from a slot the digest picks, whose last index feeds the next
/// compression's block — so hashing and memory latency serialize.
/// The fastest of 32 short windows spread across the CPUs (see
/// measure_ns_per_op).
inline double calibration_ns() {
  const std::vector<std::uint32_t> next = calibration::chase_cycle();
  return measure_ns_per_op(
      [&](std::size_t iters) {
        std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};
        std::uint32_t block[16] = {};
        for (std::size_t i = 0; i < iters; ++i) {
          calibration::compress(state, block);
          std::uint32_t slot = state[0] & static_cast<std::uint32_t>(
                                              calibration::kChaseSlots - 1);
          for (std::size_t s = 0; s < calibration::kChaseSteps; ++s) {
            slot = next[slot];
          }
          block[i % 16] ^= slot;
        }
        do_not_optimize(state[7]);
      },
      0.01, 32);
}

/// Time the calibration kernel and record the fastest value this
/// process has seen as meta.calibration_ns — the scale every timed row
/// of the file is scored against.  Perf benches call it at the start,
/// between timed rows and at the end of their run: host contention
/// comes and goes over seconds, and one quiet stretch is enough.
inline void record_calibration(JsonReporter& report) {
  static double best = std::numeric_limits<double>::infinity();
  best = std::min(best, calibration_ns());
  report.set_meta_number("calibration_ns", best);
  std::cout << "calibration kernel: " << best << " ns/op\n";
}

// ---------------------------------------------------------------------------
// Peak-RSS sampling (the peak_rss_bytes rows of BENCH_scale.json).
// Hoisted to src/util/rss.hpp so telemetry gauges and daemon code can
// sample without bench headers; re-exported here for existing benches.
// ---------------------------------------------------------------------------

using util::peak_rss_bytes;
using util::reset_peak_rss;

}  // namespace tg::bench
