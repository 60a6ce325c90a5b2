#include "overlay/tapestry.hpp"

namespace tg::overlay {
namespace {

constexpr int kMaxDigits = 16;  // 64-bit point / 4 bits per hex digit

/// The point whose top (j+1) digits are prefix_j(x).d and whose lower
/// bits are zero — the left corner of the level-(j+1) arc.
RingPoint entry_point(RingPoint x, int j, unsigned d) noexcept {
  const int shift = 64 - 4 * j;
  const std::uint64_t kept =
      (j == 0) ? 0ULL : (x.raw() >> shift) << shift;
  return RingPoint{kept | (static_cast<std::uint64_t>(d) << (shift - 4))};
}

}  // namespace

TapestryOverlay::TapestryOverlay(const RingTable& table)
    : InputGraph(table),
      levels_((bits_for_size(table.size()) + 3) / 4 + 1) {
  if (levels_ > kMaxDigits) levels_ = kMaxDigits;
}

int TapestryOverlay::shared_digits(RingPoint a, RingPoint b) noexcept {
  const std::uint64_t diff = a.raw() ^ b.raw();
  if (diff == 0) return kMaxDigits;
  return __builtin_clzll(diff) / 4;
}

std::vector<RingPoint> TapestryOverlay::link_targets(RingPoint x) const {
  std::vector<RingPoint> targets;
  targets.reserve(static_cast<std::size_t>(levels_) * 16 + 2);
  for (int j = 0; j < levels_; ++j) {
    for (unsigned d = 0; d < 16; ++d) {
      targets.push_back(entry_point(x, j, d));
    }
  }
  // Ring edges (Tapestry's backpointer / leaf-set analog).
  targets.push_back(x.advanced(1));
  targets.push_back(x.advanced(~0ULL));
  return targets;
}

void TapestryOverlay::route_indexed(Route& r, std::size_t start,
                                    RingPoint key) const {
  const std::size_t target = table_->successor_index(key);
  std::size_t cur = start;
  r.path.push_back(cur);

  while (cur != target) {
    const int shared = shared_digits(table_->points()[cur], key);
    if (shared >= levels_) break;  // past the table's resolution: walk
    // Hop to the first node clockwise of the key's level-(shared+1)
    // prefix corner.  That node either shares one more digit with the
    // key or IS suc(key) (empty sub-arc below the key).
    const unsigned d =
        static_cast<unsigned>((key.raw() >> (64 - 4 * (shared + 1))) & 0xF);
    const std::size_t next =
        table_->successor_index(entry_point(key, shared, d));
    if (next == cur) break;  // unreachable by ring geometry; defensive
    cur = next;
    r.path.push_back(cur);
    if (r.path.size() > hop_cap()) return;
  }

  // Tail walk for the (rare) beyond-resolution case.
  ring_walk(r, cur, target);
}

}  // namespace tg::overlay
