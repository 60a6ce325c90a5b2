#include "idspace/ring_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tg::ids {

int bits_for_size(std::size_t m) noexcept {
  if (m <= 1) return 1;
  return std::bit_width(m - 1);
}

RingTable::RingTable(std::vector<RingPoint> points) : points_(std::move(points)) {
  std::sort(points_.begin(), points_.end());
  points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
  n_ = points_.size();
  // Grid resolution: 2-4 buckets per ID keeps a bucket's expected
  // population under one; capped so the grid never dwarfs the table.
  const int bits = std::min(bits_for_size(points_.size()) + 1, 26);
  shift_ = 64 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  grid_.resize(buckets + 1);
  // One merged pass over buckets and IDs: bucket b gets the index of
  // the first ID >= b * 2^shift_ (its left corner).
  std::size_t i = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t corner = static_cast<std::uint64_t>(b) << shift_;
    while (i < points_.size() && points_[i].raw() < corner) ++i;
    grid_[b] = static_cast<std::uint32_t>(i);
  }
  grid_[buckets] = static_cast<std::uint32_t>(points_.size());
}

RingTable RingTable::uniform(std::size_t n, Rng& rng) {
  std::vector<RingPoint> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.emplace_back(rng.u64());
  RingTable table(std::move(pts));
  // Top up after the (astronomically unlikely) collision: each pass
  // draws one ID per missing slot and rebuilds, so drawing stops at
  // the first draw that completes n distinct IDs.
  while (table.size() < n) {
    pts = table.points_;
    while (pts.size() < n) pts.emplace_back(rng.u64());
    table = RingTable(std::move(pts));
  }
  return table;
}

RingPoint RingTable::predecessor(RingPoint x) const {
  const std::size_t n = points_.size();
  return points_[(rank(x) + n - 1) % n];
}

bool RingTable::contains(RingPoint x) const noexcept {
  return index_of(x).has_value();
}

std::optional<std::size_t> RingTable::index_of(RingPoint x) const noexcept {
  const std::size_t r = rank(x);
  if (r < points_.size() && points_[r] == x) return r;
  return std::nullopt;
}

std::vector<std::size_t> RingTable::indices_in(const Arc& arc) const {
  std::vector<std::size_t> out;
  if (points_.empty() || arc.empty()) return out;
  std::size_t idx = successor_index(arc.start());
  for (std::size_t walked = 0; walked < points_.size(); ++walked) {
    if (!arc.contains(points_[idx])) break;
    out.push_back(idx);
    idx = (idx + 1) % points_.size();
  }
  return out;
}

std::size_t RingTable::count_in(const Arc& arc) const {
  if (points_.empty() || arc.empty()) return 0;
  // Count members in [start, end) as a difference of ranks, handling wrap.
  const RingPoint lo = arc.start();
  const RingPoint hi = arc.end();
  if (lo < hi || arc.length() == 0) {
    return rank(hi) - rank(lo);
  }
  // wraps through zero
  return (points_.size() - rank(lo)) + rank(hi);
}

Arc RingTable::responsibility_arc(std::size_t i) const {
  const RingPoint me = points_.at(i);
  const RingPoint pred = predecessor(me);
  if (pred == me) return Arc{};  // single ID owns (almost) everything
  // Keys in (pred, me] resolve to me; we represent the half-open arc
  // starting just after pred.
  const RingPoint open_start = pred.advanced(1);
  return Arc::between(open_start, me.advanced(1));
}

double RingTable::estimate_ln_n(std::size_t i) const {
  if (points_.size() < 2) return 0.0;
  const RingPoint me = points_.at(i);
  const RingPoint next = points_[(i + 1) % points_.size()];
  const double d = static_cast<double>(me.cw_distance_to(next)) * 0x1.0p-64;
  if (d <= 0.0) return 0.0;
  return std::log(1.0 / d);
}

}  // namespace tg::ids
