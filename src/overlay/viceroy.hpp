// Viceroy-style butterfly overlay (Malkhi-Naor-Ratajczak [32]) — the
// third O(1)-degree input graph named by Corollary 1.
//
// Viceroy emulates a butterfly network on the ring: each node draws a
// level L in {1..log n}; it links to its ring neighbors, to one node
// at level L+1 at distance ~2^-L (the "down-left" edge), to one at
// level L+1 at distance ~1/2 ("down-right"), and to a node at level
// L-1 ("up").  Routing proceeds up to level 1, then down the butterfly
// halving the distance to the target per level, then along ring edges.
// Expected constant degree, O(log n) hops w.h.p.
//
// Levels are derived deterministically from the node's ID via a hash
// (so the topology is a pure function of the ID set, like the other
// overlays here) — matching Viceroy's "choose a random level on join".
#pragma once

#include "overlay/input_graph.hpp"

namespace tg::overlay {

class ViceroyOverlay final : public InputGraph {
 public:
  explicit ViceroyOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "viceroy";
  }

  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

  /// The butterfly level of a node (1..levels()); deterministic hash.
  [[nodiscard]] int level_of(RingPoint x) const noexcept;
  [[nodiscard]] int levels() const noexcept { return levels_; }

 protected:
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

  /// Row layout: [down-right (half-ring), down-left per level 1..levels_]
  /// — the butterfly descent candidates, pre-resolved per node.
  [[nodiscard]] std::size_t index_row_width() const noexcept override {
    return static_cast<std::size_t>(levels_) + 1;
  }
  void fill_index_row(std::size_t i, std::uint32_t* row) const override;

 private:
  int levels_;  ///< ~ log2 m butterfly levels
};

}  // namespace tg::overlay
