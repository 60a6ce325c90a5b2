#include "overlay/viceroy.hpp"

#include "util/rng.hpp"

namespace tg::overlay {

ViceroyOverlay::ViceroyOverlay(const RingTable& table)
    : InputGraph(table), levels_(bits_for_size(table.size())) {
  if (levels_ < 1) levels_ = 1;
}

int ViceroyOverlay::level_of(RingPoint x) const noexcept {
  // Deterministic pseudo-random level; geometric-like weighting as in
  // Viceroy (half the nodes at the last level would under-populate
  // early levels, so uniform over levels is the standard emulation).
  return 1 + static_cast<int>(mix64(x.raw() ^ 0x51CE50FULL) %
                              static_cast<std::uint64_t>(levels_));
}

std::vector<RingPoint> ViceroyOverlay::link_targets(RingPoint x) const {
  const int level = level_of(x);
  std::vector<RingPoint> targets;
  targets.reserve(6);
  // Ring edges (successor/predecessor) — Viceroy's "general ring".
  targets.push_back(x.advanced(1));
  targets.push_back(x.advanced(~0ULL));
  // Down-left: level+1 node at distance ~ 2^-level.
  if (level < levels_) {
    targets.push_back(x.advanced(1ULL << (64 - level)));
    // Down-right: level+1 node at distance ~ 1/2.
    targets.push_back(x.advanced(ids::kHalfRing));
  }
  // Up edge: a nearby node expected to sit one level up.
  if (level > 1) {
    targets.push_back(x.advanced(1ULL << (64 - levels_ + 1)));
  }
  return targets;
}

void ViceroyOverlay::fill_index_row(std::size_t i, std::uint32_t* row) const {
  const RingPoint x = table_->points()[i];
  row[0] = static_cast<std::uint32_t>(
      table_->successor_index(x.advanced(ids::kHalfRing)));
  for (int level = 1; level <= levels_; ++level) {
    row[level] = static_cast<std::uint32_t>(
        table_->successor_index(x.advanced(1ULL << (64 - level))));
  }
}

void ViceroyOverlay::route_indexed(Route& r, std::size_t start,
                                   RingPoint key) const {
  const std::size_t target = table_->successor_index(key);
  std::size_t cur = start;
  r.path.push_back(cur);
  const std::size_t cap = hop_cap();

  // Butterfly descent: from the current node, repeatedly take the
  // largest distance-halving step that does not overshoot the key —
  // emulating the down-left/down-right choice per level.  This is the
  // butterfly's greedy descent on the ring embedding; both candidates
  // come pre-resolved from the node's row.
  int level = 1;
  while (cur != target && level <= levels_) {
    if (r.path.size() > cap) return;
    const RingPoint cur_pt = table_->points()[cur];
    const std::uint64_t dist = cur_pt.cw_distance_to(key);
    // Down-left covers 2^-level of the ring; down-right covers 1/2.
    const std::uint64_t down_left = 1ULL << (64 - level);
    std::size_t next = cur;
    if (dist >= ids::kHalfRing) {
      next = finger_row(cur)[0];
    } else if (dist >= down_left) {
      next = finger_row(cur)[level];
    } else {
      ++level;  // this level's edges overshoot; descend
      continue;
    }
    if (next != cur) {
      cur = next;
      r.path.push_back(cur);
    } else {
      ++level;
    }
  }
  // Final ring walk (shorter arc direction), as in the other O(1)
  // degree overlays.
  ring_walk(r, cur, target);
}

}  // namespace tg::overlay
