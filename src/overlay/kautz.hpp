// FISSIONE-style Kautz overlay (Li-Lu-Wu [29]) — constant degree and
// low congestion, the remaining O(1)-degree family named in I-C.
//
// Nodes live on Kautz strings K(2,k): length-k strings over {0,1,2}
// with no two consecutive symbols equal; there are 3*2^(k-1) of them.
// The bijection onto the unit ring assigns the first symbol weight 1/3
// and each later symbol the rank (0 or 1) of the symbol among the two
// allowed by its predecessor, giving a uniform grid of pitch
// 1/(3*2^(k-1)).  Edges are the Kautz shifts u1..uk -> u2..uk a
// (a != uk) plus their preimages, so degree is 4 + ring edges.
// Routing is the classic digit-injection walk (an imaginary-point
// traversal like Koorde's): append the target string one symbol per
// hop — with a single detour symbol when the junction would repeat —
// then finish with a short successor walk, O(log N) hops total.
#pragma once

#include <array>

#include "overlay/input_graph.hpp"

namespace tg::overlay {

/// A Kautz string over {0,1,2}; adjacent symbols always differ.
using KautzString = std::vector<int>;

class KautzOverlay final : public InputGraph {
 public:
  explicit KautzOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "kautz";
  }

  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

  /// Digitize a ring point to its Kautz cell (length `digits()`).
  [[nodiscard]] KautzString encode(RingPoint x) const;
  /// Left corner of the cell owned by a Kautz string; inverse of
  /// encode on the grid.
  [[nodiscard]] RingPoint decode(const KautzString& s) const;

  [[nodiscard]] int digits() const noexcept { return digits_; }

 protected:
  /// Digit-injection walk over fixed stack buffers (digits_ is
  /// bounded by 66) and the grid: zero heap allocations per route.
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

 private:
  int digits_;  ///< k: string length; grid pitch 1/(3*2^(k-1)) < 1/(4m)
};

/// u1..uk -> u2..uk a.  Precondition: a != s.back().
[[nodiscard]] KautzString kautz_shift(const KautzString& s, int a);

}  // namespace tg::overlay
