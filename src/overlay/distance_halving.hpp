// Distance-halving overlay of Naor & Wieder [39] — the
// continuous-discrete approach, the paper's headline O(1)-degree input
// graph for Corollary 1.
//
// Each node owns the responsibility segment of the ring ending at its
// point.  The continuous graph G_c has edges x -> l(x) = x/2 and
// x -> r(x) = x/2 + 1/2; the discrete graph connects node v to every
// node whose segment intersects the images l(I_v), r(I_v) and the
// preimage 2*I_v of v's segment.  With u.a.r. IDs the expected degree
// is O(1).  Routing walks "to" via halving steps driven by the key's
// bits (each step halves the distance to the key's dyadic prefix) and
// "fro" via segment-local correction.
#pragma once

#include "overlay/input_graph.hpp"

namespace tg::overlay {

class DistanceHalvingOverlay final : public InputGraph {
 public:
  explicit DistanceHalvingOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "distance-halving";
  }

  /// Segment-image linking rule; see file comment.  Targets sample the
  /// endpoints and midpoint of each image arc, so the realized
  /// neighbor set covers every node whose segment intersects an image
  /// of v's segment (segments are short w.h.p., so three samples per
  /// image suffice at our scales; properties tests validate coverage).
  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

 protected:
  // Walker-halving hop targets depend on route state — no per-node
  // row to pre-resolve (width 0); every hop is one grid lookup.
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

 private:
  [[nodiscard]] Arc segment_of(RingPoint x) const;
  int route_bits_;
};

}  // namespace tg::overlay
