// Chord overlay [48] — the paper's running example of an input graph
// with O(log n) degree (footnote 11 describes exactly this linking
// rule: successor/predecessor plus successors of w + Delta(i) for
// exponentially growing Delta).
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
  /// pre-resolved finger row; O(log N) hops w.h.p.
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
