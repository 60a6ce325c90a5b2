#include "overlay/kautz.hpp"

#include <cstring>
#include <stdexcept>

namespace tg::overlay {
namespace {

/// The two symbols != prev, in increasing order.
constexpr std::array<std::array<int, 2>, 3> kAllowed = {{
    {1, 2},  // after 0
    {0, 2},  // after 1
    {0, 1},  // after 2
}};

/// Rank of symbol `a` among the two allowed after `prev` (0 or 1).
int rank_after(int prev, int a) noexcept {
  return kAllowed[static_cast<std::size_t>(prev)][0] == a ? 0 : 1;
}

/// A symbol that differs from both arguments (the detour symbol).
int third_symbol(int a, int b) noexcept {
  for (int s = 0; s < 3; ++s) {
    if (s != a && s != b) return s;
  }
  return 0;  // unreachable for a != b
}

/// digits_ = bits_for_size(m) + 2 <= 66, so fixed stack buffers cover
/// every table size; the route uses them to stay heap-free.
constexpr int kMaxKautzDigits = 66;

/// encode() into a caller-owned buffer — same math, no vector.
void encode_into(RingPoint x, int digits, std::int8_t* out) noexcept {
  const auto acc = static_cast<unsigned __int128>(x.raw()) * 3u;
  out[0] = static_cast<std::int8_t>(acc >> 64);
  std::uint64_t r = static_cast<std::uint64_t>(acc);
  for (int i = 1; i < digits; ++i) {
    const int bit = static_cast<int>(r >> 63);
    r <<= 1;
    out[i] = static_cast<std::int8_t>(
        kAllowed[static_cast<std::size_t>(out[i - 1])]
                [static_cast<std::size_t>(bit)]);
  }
}

/// decode() from a caller-owned buffer — same math, no vector.
RingPoint decode_span(const std::int8_t* s, int digits) noexcept {
  std::uint64_t r = 0;
  for (int i = digits - 1; i >= 1; --i) {
    const auto bit = static_cast<std::uint64_t>(rank_after(s[i - 1], s[i]));
    r = (r >> 1) | (bit << 63);
  }
  const auto acc =
      (static_cast<unsigned __int128>(static_cast<unsigned>(s[0])) << 64) | r;
  return RingPoint{static_cast<std::uint64_t>((acc + 2u) / 3u)};
}

}  // namespace

KautzOverlay::KautzOverlay(const RingTable& table)
    : InputGraph(table), digits_(bits_for_size(table.size()) + 2) {}

KautzString KautzOverlay::encode(RingPoint x) const {
  KautzString s;
  s.reserve(static_cast<std::size_t>(digits_));
  // First symbol: which third of the ring; remainder rescaled to [0,1).
  const auto acc = static_cast<unsigned __int128>(x.raw()) * 3u;
  s.push_back(static_cast<int>(acc >> 64));
  std::uint64_t r = static_cast<std::uint64_t>(acc);
  // Later symbols: one bit each, picking among the two allowed.
  for (int i = 1; i < digits_; ++i) {
    const int bit = static_cast<int>(r >> 63);
    r <<= 1;
    s.push_back(kAllowed[static_cast<std::size_t>(s.back())]
                        [static_cast<std::size_t>(bit)]);
  }
  return s;
}

RingPoint KautzOverlay::decode(const KautzString& s) const {
  if (static_cast<int>(s.size()) != digits_)
    throw std::invalid_argument("KautzOverlay: string length mismatch");
  std::uint64_t r = 0;
  for (std::size_t i = s.size() - 1; i >= 1; --i) {
    const auto bit =
        static_cast<std::uint64_t>(rank_after(s[i - 1], s[i]));
    r = (r >> 1) | (bit << 63);
  }
  // Ceiling division: the smallest x whose encode() reproduces s (a
  // floor here could land one cell short of the corner).
  const auto acc =
      (static_cast<unsigned __int128>(s.front()) << 64) | r;
  return RingPoint{static_cast<std::uint64_t>((acc + 2u) / 3u)};
}

KautzString kautz_shift(const KautzString& s, int a) {
  if (a == s.back())
    throw std::invalid_argument("kautz_shift: would repeat a symbol");
  KautzString out(s.begin() + 1, s.end());
  out.push_back(a);
  return out;
}

std::vector<RingPoint> KautzOverlay::link_targets(RingPoint x) const {
  const KautzString s = encode(x);
  std::vector<RingPoint> targets;
  targets.reserve(6);
  // Out-edges: the two Kautz shifts.
  for (const int a : kAllowed[static_cast<std::size_t>(s.back())]) {
    targets.push_back(decode(kautz_shift(s, a)));
  }
  // In-edges (preimages): prepend either symbol != s.front().
  for (const int b : kAllowed[static_cast<std::size_t>(s.front())]) {
    KautzString pre;
    pre.reserve(s.size());
    pre.push_back(b);
    pre.insert(pre.end(), s.begin(), s.end() - 1);
    targets.push_back(decode(pre));
  }
  // Ring edges, as in the other constant-degree overlays.
  targets.push_back(x.advanced(1));
  targets.push_back(x.advanced(~0ULL));
  return targets;
}

void KautzOverlay::route_indexed(Route& r, std::size_t start,
                                 RingPoint key) const {
  const std::size_t target = table_->successor_index(key);
  std::size_t cur = start;
  r.path.push_back(cur);

  // Digit injection: append the key's Kautz string one symbol per hop,
  // over stack buffers (same math as encode/decode/kautz_shift), so no
  // KautzString heap churn per hop.  If the junction would repeat
  // (first key symbol == current last symbol), one detour symbol
  // restores the Kautz property: it differs from the current last
  // symbol (valid shift) and from tgt[0] (so the next append is
  // valid); tgt[1] != tgt[0] already, so one detour never cascades.
  std::int8_t virt[kMaxKautzDigits];
  std::int8_t tgt[kMaxKautzDigits];
  encode_into(table_->points()[cur], digits_, virt);
  encode_into(key, digits_, tgt);

  std::int8_t inject[kMaxKautzDigits + 1];
  int inject_len = 0;
  if (tgt[0] == virt[digits_ - 1]) {
    inject[inject_len++] =
        static_cast<std::int8_t>(third_symbol(virt[digits_ - 1], tgt[0]));
  }
  std::memcpy(inject + inject_len, tgt,
              static_cast<std::size_t>(digits_) * sizeof(std::int8_t));
  inject_len += digits_;

  for (int k = 0; k < inject_len; ++k) {
    if (cur == target) break;
    // kautz_shift in place: drop the first symbol, append inject[k].
    std::memmove(virt, virt + 1,
                 static_cast<std::size_t>(digits_ - 1) * sizeof(std::int8_t));
    virt[digits_ - 1] = inject[k];
    const std::size_t next =
        table_->successor_index(decode_span(virt, digits_));
    if (next != cur) {
      cur = next;
      r.path.push_back(cur);
    }
  }

  // Grid pitch is < 1/(4m), so the correction walk is O(1) expected.
  ring_walk(r, cur, target);
}

}  // namespace tg::overlay
