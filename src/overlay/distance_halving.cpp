#include "overlay/distance_halving.hpp"

namespace tg::overlay {

DistanceHalvingOverlay::DistanceHalvingOverlay(const RingTable& table)
    : InputGraph(table), route_bits_(bits_for_size(table.size()) + 2) {}

Arc DistanceHalvingOverlay::segment_of(RingPoint x) const {
  // Node x owns (pred(x), x]; for linking we use the closed sample
  // points {pred(x)+1, mid, x}.
  const RingPoint pred = table_->predecessor(x);
  return Arc::between(pred.advanced(1), x.advanced(1));
}

std::vector<RingPoint> DistanceHalvingOverlay::link_targets(
    RingPoint x) const {
  const Arc seg = segment_of(x);
  const RingPoint a = seg.start();
  const RingPoint mid = a.advanced(seg.length() / 2);
  const RingPoint b = x;

  std::vector<RingPoint> targets;
  targets.reserve(3 * 3 + 2);
  for (const RingPoint p : {a, mid, b}) {
    targets.push_back(p.halved(false));  // l-image of the segment
    targets.push_back(p.halved(true));   // r-image of the segment
    targets.push_back(p.doubled());      // backward (preimage) edges
  }
  targets.push_back(x.advanced(1));      // ring successor
  targets.push_back(x.advanced(~0ULL));  // ring predecessor proxy
  return targets;
}

void DistanceHalvingOverlay::route_indexed(Route& r, std::size_t start,
                                           RingPoint key) const {
  const std::size_t target = table_->successor_index(key);
  std::size_t cur = start;
  r.path.push_back(cur);

  // "To" phase: halving steps.  Injecting the key's top t bits in
  // reverse order moves any starting point into the dyadic cell of
  // width 2^-t around the key (distance halves per step — the
  // construction's namesake).
  RingPoint walker = table_->points()[cur];
  for (int j = route_bits_; j >= 1; --j) {
    if (cur == target) break;
    const bool bit = (key.raw() >> (64 - j)) & 1ULL;
    walker = walker.halved(bit);
    const std::size_t next = table_->successor_index(walker);
    if (next != cur) {
      cur = next;
      r.path.push_back(cur);
    }
  }
  // "Fro" phase: segment-local correction over ring edges.
  ring_walk(r, cur, target);
}

}  // namespace tg::overlay
