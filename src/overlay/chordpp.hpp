// Chord++ (Awerbuch-Scheideler [6]) — Chord with de-correlated
// fingers for lower congestion.
//
// Plain Chord aims every node's level-i finger at the same relative
// offset 2^-i, so keys behind a sparse region funnel their traffic
// through the same few nodes.  Chord++ perturbs each finger inside its
// dyadic interval: node x's level-i finger targets
//   x + 2^-i * (1 + rho(x, i))   with rho(x, i) in [0, 1)
// derived deterministically from (x, i), i.e. a uniform point in
// [2^-i, 2^-i+1).  Coverage of distance scales is preserved (routing
// still halves the remaining distance per hop, D = O(log N)) while the
// targets of different nodes decorrelate, flattening the P4 congestion
// profile — the property [6] is cited for in Section I-C.  Because
// each perturbed offset stays inside its dyadic interval, offsets
// still strictly decrease along a row, so Chord's O(1)-probe greedy
// loop (InputGraph::greedy_finger_walk) routes Chord++ unchanged.  A
// perturbed finger can overshoot a key at its own scale, or wrap to
// the node itself on a clustered table; the loop then moves on to the
// next finger.
#pragma once

#include "overlay/input_graph.hpp"

namespace tg::overlay {

class ChordPPOverlay final : public InputGraph {
 public:
  explicit ChordPPOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "chord++";
  }

  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

  /// The perturbed finger offset for (x, level i): uniform in
  /// [2^-i, 2^-i+1) as a 64-bit ring distance.
  [[nodiscard]] std::uint64_t finger_offset(RingPoint x, int i) const noexcept;

 protected:
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

  /// Row layout: [perturbed finger 1 .. finger_bits_, successor] —
  /// same shape as Chord, different targets, the same route loop.
  [[nodiscard]] std::size_t index_row_width() const noexcept override {
    return static_cast<std::size_t>(finger_bits_) + 1;
  }
  void fill_index_row(std::size_t i, std::uint32_t* row) const override;

 private:
  int finger_bits_;
};

}  // namespace tg::overlay
