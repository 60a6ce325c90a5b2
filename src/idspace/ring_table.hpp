// RingTable: the immutable set of live IDs with successor queries.
//
// suc(x) — "the first ID encountered moving clockwise from x" — is the
// paper's fundamental primitive (Section I-C): it resolves key values
// to responsible IDs, selects group members suc(h1(w,i)), and defines
// overlay linking rules.  The IDs are a sorted vector fixed at
// construction, together with a successor grid over the ring's top
// bits: grid[b] is the index of the first ID at or past bucket b's left
// corner.  Every ordered query goes through one rank function — a grid
// load plus a forward scan inside the bucket — which returns exactly
// the index std::lower_bound over the IDs would.  IDs are uniform, so a
// bucket holds under one ID on average.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "idspace/interval.hpp"
#include "idspace/ring_point.hpp"
#include "util/rng.hpp"

namespace tg::ids {

/// Number of bits needed so that 2^bits >= m (routing precision).
[[nodiscard]] int bits_for_size(std::size_t m) noexcept;

class RingTable {
 public:
  RingTable() : RingTable(std::vector<RingPoint>{}) {}
  /// Sorts and deduplicates `points` (fewer than 2^32 IDs).
  explicit RingTable(std::vector<RingPoint> points);

  /// Draw n u.a.r. IDs (deduplicated; collisions at 64 bits are ~never).
  static RingTable uniform(std::size_t n, Rng& rng);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] const std::vector<RingPoint>& points() const noexcept {
    return points_;
  }

  /// suc(x): first ID at or after x moving clockwise (wraps past 1->0).
  /// Note suc(x) == x when x itself is an ID, matching the paper's
  /// "first ID encountered" with searches keyed on hash outputs that
  /// never exactly hit an ID.
  [[nodiscard]] RingPoint successor(RingPoint x) const {
    return points_[successor_index(x)];
  }
  /// Index into points() of successor(x); 0 on an empty table.
  [[nodiscard]] std::size_t successor_index(RingPoint x) const noexcept {
    const std::size_t r = rank(x);
    return r < n_ ? r : 0;  // wrap to the smallest ID
  }
  /// First ID strictly before x (counter-clockwise).
  [[nodiscard]] RingPoint predecessor(RingPoint x) const;

  [[nodiscard]] bool contains(RingPoint x) const noexcept;
  /// Index of an exact member; nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> index_of(RingPoint x) const noexcept;

  [[nodiscard]] RingPoint at(std::size_t i) const { return points_.at(i); }

  /// All IDs within the clockwise arc.
  [[nodiscard]] std::vector<std::size_t> indices_in(const Arc& arc) const;
  [[nodiscard]] std::size_t count_in(const Arc& arc) const;

  /// The arc of key space owned by points_[i]: [predecessor, point_i)
  /// under the closest-clockwise-successor responsibility rule
  /// (Appendix VI).  Length 0 only if the table has a single ID.
  [[nodiscard]] Arc responsibility_arc(std::size_t i) const;

  /// The paper's decentralized size estimator (Section III-A "How is
  /// ln ln n estimated?"): from the distance between an ID and its
  /// successor, ln(1/d) = Theta(ln n) w.h.p.  Returns the estimate of
  /// ln n derived from the ID at index i.
  [[nodiscard]] double estimate_ln_n(std::size_t i) const;

 private:
  /// Number of IDs strictly below x: std::lower_bound's index, found
  /// by scanning forward from the first ID of x's grid bucket.
  [[nodiscard]] std::size_t rank(RingPoint x) const noexcept {
    std::size_t i = grid_[x.raw() >> shift_];
    while (i < n_ && points_[i] < x) ++i;
    return i;
  }

  std::vector<RingPoint> points_;    // sorted ascending by raw value
  // points_.size(), held for the lookup: deriving it from the vector
  // costs every successor lookup a subtract and a shift.
  std::size_t n_ = 0;
  std::vector<std::uint32_t> grid_;  // 2^(64 - shift_) + 1 entries, last = n_
  int shift_ = 63;                   // raw >> shift_ = bucket
};

}  // namespace tg::ids
