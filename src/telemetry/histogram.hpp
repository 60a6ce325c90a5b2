// Shared fixed-bucket log-scale histogram (HDR-style): the workload
// recorder's latency distribution and the telemetry plane's histogram
// probes.
//
// Design constraints, in order:
//   1. DETERMINISM — recorded values are integers, bucket counts are
//      integers, and quantiles are derived purely from counts, so
//      merging shard histograms yields bit-identical percentiles in
//      ANY merge order and at ANY thread count.  Callers still merge
//      in shard order (matching the repo's other merge contracts), but
//      nothing depends on it.
//   2. O(1) record, O(buckets) query — millions of samples per
//      campaign cell must not allocate or sort.
//   3. Bounded relative error — each power-of-two octave is split into
//      kSubBuckets linear sub-buckets, so any u64 value lands in a
//      bucket whose width is at most 1/kSubBuckets of its magnitude
//      (~6.25% with the default 16), the usual HDR trade.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tg::telemetry {

/// Log-scale histogram over u64 values (the workload engine records
/// latencies in ROUNDS; nothing here assumes a unit).  Values below
/// kSubBuckets are exact; larger values bucket at 1/kSubBuckets
/// relative width.  The top octave covers up to 2^64 - 1: no value
/// overflows, but `overflow_threshold()` marks where exactness ends
/// for callers that care (tests assert both edges).
class LogHistogram {
 public:
  static constexpr std::size_t kSubBucketBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// Exact region [0, kSubBuckets) + one sub-bucketed span per octave
  /// kSubBucketBits..63.
  static constexpr std::size_t kBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  /// First value that is no longer recorded exactly.
  [[nodiscard]] static constexpr std::uint64_t overflow_threshold() noexcept {
    return kSubBuckets * 2;
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Smallest value mapping to bucket i (the value quantiles report).
  [[nodiscard]] static std::uint64_t bucket_lower_bound(
      std::size_t index) noexcept;
  /// Largest value mapping to bucket i (inclusive).
  [[nodiscard]] static std::uint64_t bucket_upper_bound(
      std::size_t index) noexcept;

  void record(std::uint64_t value) noexcept { record(value, 1); }
  void record(std::uint64_t value, std::uint64_t count) noexcept;

  /// Pointwise count addition; commutative and associative, so shard
  /// merges are order-independent (see the determinism note above).
  void merge(const LogHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  /// Exact extremes of the recorded values (not bucket bounds).
  [[nodiscard]] std::uint64_t min() const noexcept {
    return total_ ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const {
    return counts_.at(index);
  }

  /// Value at quantile q in [0, 1]: the lower bound of the bucket
  /// holding the ceil(q * count)-th recorded value, clamped into
  /// [min(), max()] so exact extremes stay exact.  Empty histogram
  /// reports 0.  Integer-only: bit-identical for identical counts.
  [[nodiscard]] std::uint64_t value_at_quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t p50() const noexcept {
    return value_at_quantile(0.50);
  }
  [[nodiscard]] std::uint64_t p90() const noexcept {
    return value_at_quantile(0.90);
  }
  [[nodiscard]] std::uint64_t p99() const noexcept {
    return value_at_quantile(0.99);
  }
  [[nodiscard]] std::uint64_t p999() const noexcept {
    return value_at_quantile(0.999);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace tg::telemetry
