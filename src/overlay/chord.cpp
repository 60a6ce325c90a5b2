#include "overlay/chord.hpp"

namespace tg::overlay {

ChordOverlay::ChordOverlay(const RingTable& table)
    : InputGraph(table), finger_bits_(bits_for_size(table.size()) + 1) {}

std::vector<RingPoint> ChordOverlay::link_targets(RingPoint x) const {
  std::vector<RingPoint> targets;
  targets.reserve(static_cast<std::size_t>(finger_bits_) + 2);
  // Fingers at exponentially increasing clockwise distances 2^-i, from
  // the half-ring down to the finest scale that still separates IDs.
  for (int i = 1; i <= finger_bits_; ++i) {
    targets.push_back(x.advanced(1ULL << (64 - i)));
  }
  targets.push_back(x.advanced(1));  // immediate successor
  // Predecessor link: Chord maintains it for stabilization; we model it
  // as the target just counter-clockwise (its successor is x itself, so
  // neighbors() drops it; kept for P3 verification symmetry).
  targets.push_back(x.advanced(~0ULL));
  return targets;
}

void ChordOverlay::fill_index_row(std::size_t i, std::uint32_t* row) const {
  const RingPoint x = table_->points()[i];
  for (int f = 1; f <= finger_bits_; ++f) {
    row[f - 1] = static_cast<std::uint32_t>(
        table_->successor_index(x.advanced(1ULL << (64 - f))));
  }
  row[finger_bits_] =
      static_cast<std::uint32_t>(table_->successor_index(x.advanced(1)));
}

void ChordOverlay::route_indexed(Route& r, std::size_t start,
                                 RingPoint key) const {
  greedy_finger_walk(r, start, key);
}

}  // namespace tg::overlay
