// Peak-RSS sampling, hoisted out of bench/bench_common.hpp so library
// code (telemetry gauges, future daemon admin surface) can sample the
// process high-water mark without pulling in bench headers.  The bench
// harness re-exports these under tg::bench for existing callers.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace tg::util {

/// Peak resident set size of this process, in bytes.  Prefers
/// /proc/self/status VmHWM — the watermark reset_peak_rss() can clear —
/// over getrusage's ru_maxrss, which is process-lifetime monotone.
/// Returns 0 when neither source is available.
inline std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      // "VmHWM:   123456 kB"
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB
#endif
  }
#endif
  return 0;
}

/// Reset the kernel's peak-RSS watermark so the next peak_rss_bytes()
/// read covers only the phase that follows — this is what makes a
/// per-phase peak meaningful when one process measures several phases
/// back to back.  Linux-only (writes "5" to /proc/self/clear_refs);
/// returns false elsewhere or on permission failure, in which case
/// peaks are process-lifetime monotone and phase rows overstate.
inline bool reset_peak_rss() {
#if defined(__linux__)
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  return static_cast<bool>(clear_refs);
#else
  return false;
#endif
}

}  // namespace tg::util
