#include "overlay/routing_index.hpp"

#include "overlay/input_graph.hpp"

namespace tg::overlay {

RoutingIndex::RoutingIndex(const ids::RingTable& table, std::size_t row_width)
    : points_(table.points().data()),
      n_(table.size()),
      row_width_(row_width),
      table_version_(table.version()) {
  // Grid resolution: ~2 buckets per point keeps the expected forward
  // scan under one step; capped so the grid never dwarfs the table.
  int bits = bits_for_size(n_) + 1;
  if (bits > 26) bits = 26;
  shift_ = 64 - bits;
  const std::size_t bucket_count = std::size_t{1} << bits;
  buckets_.resize(bucket_count + 1);
  // One merged pass over buckets and points: bucket b gets the index
  // of the first point >= b * 2^shift (its left corner).
  std::size_t idx = 0;
  for (std::size_t b = 0; b < bucket_count; ++b) {
    const std::uint64_t corner = static_cast<std::uint64_t>(b) << shift_;
    while (idx < n_ && points_[idx].raw() < corner) ++idx;
    buckets_[b] = static_cast<std::uint32_t>(idx);
  }
  buckets_[bucket_count] = static_cast<std::uint32_t>(n_);

  rows_.resize(n_ * row_width_);
}

}  // namespace tg::overlay
