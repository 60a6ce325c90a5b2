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
  const std::size_t target = table_->successor_index(key);
  const std::vector<RingPoint>& pts = table_->points();
  std::size_t cur = start;
  r.path.push_back(cur);
  const std::size_t cap = hop_cap();
  while (cur != target) {
    if (r.path.size() > cap) return;
    const RingPoint cur_pt = pts[cur];
    const std::uint64_t dist_to_key = cur_pt.cw_distance_to(key);
    // Closest preceding finger: the row entry with the largest
    // clockwise advance that does not pass the key.  If none lands in
    // (cur, key], the immediate successor (the row's last entry) is
    // responsible: it is the first ID past the key.
    const std::uint32_t* fingers = finger_row(cur);
    std::size_t best = fingers[finger_bits_];
    std::uint64_t best_advance = 0;
    for (int i = 0; i < finger_bits_; ++i) {
      const std::size_t nb = fingers[i];
      const std::uint64_t advance = cur_pt.cw_distance_to(pts[nb]);
      if (advance > best_advance && advance <= dist_to_key) {
        best_advance = advance;
        best = nb;
      }
    }
    cur = best;
    r.path.push_back(cur);
  }
  r.ok = true;
}

}  // namespace tg::overlay
