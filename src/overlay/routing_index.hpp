// RoutingIndex: the epoch-resident routing acceleration layer.
//
// The paper's P1/P4 properties fix every route as a pure function of
// the epoch's ID table, so the per-hop successor lookups the overlays
// perform (binary searches over the sorted ring) are memoizable per
// epoch.  A RoutingIndex holds two structures, both derived once from
// one RingTable snapshot:
//
//   * SUCCESSOR GRID — a bucket array over the top bits of the ring.
//     bucket[b] is the index of the first table point at or past the
//     bucket's left corner, so successor_index(x) becomes one array
//     load plus an expected-O(1) forward scan (IDs are uniform, so a
//     bucket holds < 1 point on average).  The scan reproduces
//     std::lower_bound EXACTLY — same index for every input — which
//     is what keeps every route identical to one that resolves each
//     hop by binary search over the table.
//
//   * FINGER ROWS — for overlays whose per-hop candidate set is fixed
//     per node (Chord's fingers, Chord++'s perturbed fingers,
//     Viceroy's level edges), a flat row of pre-resolved neighbor
//     indices per node: `row_width` uint32 entries, filled through
//     the grid at build time.  A routing step then scans one
//     contiguous row instead of cascading binary searches.  Overlays
//     whose hop targets depend on route state (de Bruijn, Kautz,
//     distance-halving, Tapestry imaginary points) use width 0 and
//     lean on the grid alone.
//
// Build is parallelized across nodes via ThreadPool::global();
// InputGraph caches one index per table version and rebuilds lazily
// when the table mutates (RingTable::version).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "idspace/ring_table.hpp"

namespace tg::overlay {

class RoutingIndex {
 public:
  /// Snapshot `table` into a successor grid and allocate (zeroed)
  /// finger rows of `row_width` entries per node.  The caller (the
  /// owning InputGraph) fills the rows afterwards; the grid is ready
  /// immediately.  The table must outlive the index and not mutate
  /// while it is in use.
  RoutingIndex(const ids::RingTable& table, std::size_t row_width);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t row_width() const noexcept { return row_width_; }
  [[nodiscard]] std::uint64_t table_version() const noexcept {
    return table_version_;
  }

  /// Exactly RingTable::successor_index(x): the first point at or
  /// after x, wrapping to 0 past the top of the ring.
  [[nodiscard]] std::size_t successor_index(ids::RingPoint x) const noexcept {
    std::size_t idx = buckets_[x.raw() >> shift_];
    while (idx < n_ && points_[idx] < x) ++idx;
    return idx < n_ ? idx : 0;
  }

  [[nodiscard]] ids::RingPoint point(std::size_t i) const noexcept {
    return points_[i];
  }

  [[nodiscard]] const std::uint32_t* row(std::size_t i) const noexcept {
    return rows_.data() + i * row_width_;
  }
  [[nodiscard]] std::uint32_t* mutable_row(std::size_t i) noexcept {
    return rows_.data() + i * row_width_;
  }

  /// Heap footprint, for capacity planning (grid + rows).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return buckets_.capacity() * sizeof(std::uint32_t) +
           rows_.capacity() * sizeof(std::uint32_t);
  }

 private:
  const ids::RingPoint* points_ = nullptr;  ///< borrowed from the table
  std::size_t n_ = 0;
  int shift_ = 63;                     ///< raw >> shift_ = bucket id
  std::vector<std::uint32_t> buckets_; ///< 2^k + 1 entries, last = n
  std::vector<std::uint32_t> rows_;    ///< n * row_width pre-resolved links
  std::size_t row_width_ = 0;
  std::uint64_t table_version_ = 0;
};

}  // namespace tg::overlay
