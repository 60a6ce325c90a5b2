#include "overlay/debruijn.hpp"

namespace tg::overlay {

DeBruijnOverlay::DeBruijnOverlay(const RingTable& table)
    : InputGraph(table), route_bits_(bits_for_size(table.size()) + 2) {}

std::vector<RingPoint> DeBruijnOverlay::link_targets(RingPoint x) const {
  return {
      x.halved(false),   // sigma_0 child
      x.halved(true),    // sigma_1 child
      x.doubled(),       // de Bruijn parent (preimage)
      x.advanced(1),     // ring successor (correction edges)
      x.advanced(~0ULL)  // ring predecessor proxy
  };
}

void DeBruijnOverlay::route_indexed(Route& r, std::size_t start,
                                    RingPoint key) const {
  const std::size_t target = table_->successor_index(key);
  std::size_t cur = start;
  r.path.push_back(cur);

  // Imaginary-point phase: after t prepends, the imaginary point agrees
  // with the key on its top t bits.  Bits must be injected in reverse
  // (bit t of the key first, MSB last) so they stack correctly.
  RingPoint imaginary = table_->points()[cur];
  for (int j = route_bits_; j >= 1; --j) {
    if (cur == target) break;
    const bool bit = (key.raw() >> (64 - j)) & 1ULL;
    imaginary = imaginary.halved(bit);
    const std::size_t next = table_->successor_index(imaginary);
    if (next != cur) {
      cur = next;
      r.path.push_back(cur);
    }
  }
  // Correction phase: imaginary is now within 2^-t < 1/(2m) of the key
  // (possibly on either side), so a short walk along ring links —
  // successor or predecessor, whichever arc is shorter — reaches the
  // responsible node.
  ring_walk(r, cur, target);
}

}  // namespace tg::overlay
