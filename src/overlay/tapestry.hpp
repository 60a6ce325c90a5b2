// Tapestry-style Plaxton prefix routing (Zhao-Kubiatowicz-Joseph [53]).
//
// IDs are read as base-16 digit strings (top nibble first).  A node
// keeps, for each prefix level j it shares with its own ID and each
// digit d, a link to the first node clockwise of
//   prefix_j(x) . d . 000...
// — the canonical "level-j, digit-d" routing entry.  Degree is
// O(b log_b N) = O(log N), like Chord, satisfying P3's poly-log bound.
//
// Routing resolves one digit per hop: from a node sharing L digits
// with the key, jump to suc(prefix_{L+1}(key)).  On the successor-
// responsibility ring this never regresses: the hop lands either
// inside the key's level-(L+1) arc (one more digit resolved) or, when
// that arc is empty below the key, directly on suc(key) — Tapestry's
// surrogate routing, collapsed by ring geometry.  Hence <= 16 digit
// hops + a bounded tail, D = O(log N).
#pragma once

#include "overlay/input_graph.hpp"

namespace tg::overlay {

class TapestryOverlay final : public InputGraph {
 public:
  explicit TapestryOverlay(const RingTable& table);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "tapestry";
  }

  [[nodiscard]] std::vector<RingPoint> link_targets(
      RingPoint x) const override;

  /// Number of maintained prefix levels (~ log_16 N + 1).
  [[nodiscard]] int levels() const noexcept { return levels_; }

  /// Hex digits shared by the two points, reading from the top; at
  /// most 16 (64 bits / 4 bits per digit).
  [[nodiscard]] static int shared_digits(RingPoint a, RingPoint b) noexcept;

 protected:
  // Hop targets are prefix corners of the KEY, not per-node constants
  // — grid-only acceleration (width 0).
  void route_indexed(Route& out, std::size_t start,
                     RingPoint key) const override;

 private:
  int levels_;
};

}  // namespace tg::overlay
