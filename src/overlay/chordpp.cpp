#include "overlay/chordpp.hpp"

#include "util/rng.hpp"

namespace tg::overlay {

ChordPPOverlay::ChordPPOverlay(const RingTable& table)
    : InputGraph(table), finger_bits_(bits_for_size(table.size()) + 1) {}

std::uint64_t ChordPPOverlay::finger_offset(RingPoint x, int i) const noexcept {
  const std::uint64_t base = 1ULL << (64 - i);  // 2^-i of the ring
  // rho(x, i): deterministic uniform fraction of the same scale.
  const std::uint64_t rho =
      mix64(x.raw() ^ (0xC50DD0FFULL + static_cast<std::uint64_t>(i)));
  // base + rho scaled into [0, base): offset in [2^-i, 2^-i+1).
  return base + (i < 64 ? (rho >> i) : 0);
}

std::vector<RingPoint> ChordPPOverlay::link_targets(RingPoint x) const {
  std::vector<RingPoint> targets;
  targets.reserve(static_cast<std::size_t>(finger_bits_) + 2);
  for (int i = 1; i <= finger_bits_; ++i) {
    targets.push_back(x.advanced(finger_offset(x, i)));
  }
  targets.push_back(x.advanced(1));      // immediate successor
  targets.push_back(x.advanced(~0ULL));  // predecessor proxy (see chord.cpp)
  return targets;
}

void ChordPPOverlay::fill_index_row(std::size_t i, std::uint32_t* row) const {
  const RingPoint x = table_->points()[i];
  for (int f = 1; f <= finger_bits_; ++f) {
    row[f - 1] = static_cast<std::uint32_t>(
        table_->successor_index(x.advanced(finger_offset(x, f))));
  }
  row[finger_bits_] =
      static_cast<std::uint32_t>(table_->successor_index(x.advanced(1)));
}

void ChordPPOverlay::route_indexed(Route& r, std::size_t start,
                                   RingPoint key) const {
  greedy_finger_walk(r, start, key);
}

}  // namespace tg::overlay
