// D2B-style de Bruijn overlay [19] — constant expected degree.
//
// The continuous de Bruijn maps on the ring are the two "prepend bit"
// contractions sigma_0(x) = x/2 and sigma_1(x) = x/2 + 1/2.  A node at
// x links to the IDs responsible for sigma_0(x), sigma_1(x) (its de
// Bruijn children), the preimage 2x mod 1, and its ring neighbors.
// Routing injects the top bits of the key one per hop (Koorde-style
// imaginary-point walk) and finishes with a short successor walk, for
// O(log N) hops total.  The paper's Corollary 1 uses exactly this
// class of O(1)-degree graphs ([19], [32], [39]) to get
// O(poly(log log n)) state cost.
#pragma once

#include "overlay/input_graph.hpp"

namespace tg::overlay {

class DeBruijnOverlay final : public InputGraph {
 public:
  explicit DeBruijnOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "debruijn";
  }

  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

 protected:
  // Hop targets depend on route state — no per-node row to
  // pre-resolve (width 0); every hop is one successor-grid lookup.
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

 private:
  int route_bits_;  ///< ceil(log2 m) + slack bits injected per route
};

}  // namespace tg::overlay
