// Chord overlay [48] — the paper's running example of an input graph
// with O(log n) degree (footnote 11 describes exactly this linking
// rule: successor/predecessor plus successors of w + Delta(i) for
// exponentially growing Delta).
//
// Routing is greedy closest-preceding-finger over each node's
// pre-resolved finger row.  Fingers halve their offset along the row,
// so a hop need not scan it: the first finger that can fit the
// remaining distance sits at row index countl_zero(distance), and the
// first one from there that advances without passing the key is the
// one a full scan would keep (InputGraph::greedy_finger_walk, shared
// with Chord++).  A hop reads one or two finger points, not log n.
#pragma once

#include "overlay/input_graph.hpp"

namespace tg::overlay {

class ChordOverlay final : public InputGraph {
 public:
  explicit ChordOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "chord";
  }

  /// Targets: x + 2^-i for i = 1..bits (fingers), the point just past x
  /// (immediate successor) and just before x (predecessor proxy).
  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

 protected:
  /// Greedy closest-preceding-finger routing over the node's
  /// pre-resolved finger row (greedy_finger_walk); O(log N) hops w.h.p.
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

  /// Row layout: [finger 1 .. finger finger_bits_, immediate successor].
  [[nodiscard]] std::size_t index_row_width() const noexcept override {
    return static_cast<std::size_t>(finger_bits_) + 1;
  }
  void fill_index_row(std::size_t i, std::uint32_t* row) const override;

 private:
  int finger_bits_;
};

}  // namespace tg::overlay
