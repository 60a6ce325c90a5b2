// 16-lane multi-buffer SHA-256 compression via AVX-512F.  This TU
// (and only this TU) is compiled with -mavx512f; elsewhere it degrades
// to a stub that reports the kernel unavailable.
//
// Same transposed-state design as the 8-lane AVX2 kernel
// (sha256_avx2.cpp), but AVX-512F collapses the expensive round
// algebra: vprord rotates in one op (vs 3 under AVX2) and vpternlogd
// fuses every 3-input boolean — Ch, Maj, and the three-way XORs of
// all four sigma functions — into single instructions.  That is ~4x
// fewer ops per lane-block than the AVX2 kernel, which is what lets
// this tier clear even the single-block SHA-NI pipeline (the AVX2
// tier only beats the *scalar* per-block path; see the dispatch
// policy in sha256.cpp).
//
// The byte swap avoids AVX-512BW (no zmm vpshufb in the F subset):
// bswap32(x) = rotl(x,8)&0x00FF00FF | rotl(x,24)&0xFF00FF00, fused
// into two rotates and one ternlog-select.
//
// Correctness is pinned by tests/test_crypto.cpp, which cross-checks
// this kernel against the scalar, SHA-NI and narrower multi-lane
// paths for every lane count and ragged tail on AVX-512 hosts.
#include "crypto/sha256_simd.hpp"

#if defined(__x86_64__) && defined(__AVX512F__)
#include <cpuid.h>
// GCC 12 flags the undefined-vector placeholder `__Y` in
// avx512fintrin.h as -Wuninitialized wherever its intrinsics inline
// (bswap32_avx512f's rotates): a false positive in the header, so the
// check is off for the header alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace tg::crypto::detail {

#if defined(__x86_64__) && defined(__AVX512F__)

namespace {

bool detect() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 27)) == 0) return false;  // OSXSAVE
  // The OS must have enabled XMM+YMM (0x6) and opmask+ZMM (0xe0) state.
  std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
  asm volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0xe6) != 0xe6) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 16)) != 0;  // CPUID.7.0:EBX.AVX512F
}

// xor3 / select / majority through one vpternlogd each.
inline __m512i xor3(__m512i x, __m512i y, __m512i z) noexcept {
  return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}
inline __m512i ch512(__m512i e, __m512i f, __m512i g) noexcept {
  return _mm512_ternarylogic_epi32(e, f, g, 0xca);  // e ? f : g
}
inline __m512i maj512(__m512i a, __m512i b, __m512i c) noexcept {
  return _mm512_ternarylogic_epi32(a, b, c, 0xe8);  // majority
}

inline __m512i bswap32_avx512f(__m512i x) noexcept {
  const __m512i mask = _mm512_set1_epi32(0x00ff00ff);
  // mask ? rotl8 : rotl24 picks bytes 2/0 from the 8-rotation and
  // bytes 3/1 from the 24-rotation — a full 32-bit byte swap.
  return _mm512_ternarylogic_epi32(mask, _mm512_rol_epi32(x, 8),
                                   _mm512_rol_epi32(x, 24), 0xca);
}

/// In-place 16x16 transpose of 32-bit elements: rows[j] holds the 16
/// words of block j; afterwards rows[i] holds word i of all sixteen
/// blocks (lane j = block j).  Two unpack stages build transposed 4x4
/// tiles, two shuffle_i32x4 stages permute the tiles.
inline void transpose16x16(__m512i rows[16]) noexcept {
  __m512i t[16], u[16];
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm512_unpacklo_epi32(rows[2 * i], rows[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_epi32(rows[2 * i], rows[2 * i + 1]);
  }
  for (int g = 0; g < 4; ++g) {
    u[4 * g + 0] = _mm512_unpacklo_epi64(t[4 * g + 0], t[4 * g + 2]);
    u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g + 0], t[4 * g + 2]);
    u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
    u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
  }
  // u[4g+j] lane l = word (4l+j) of rows 4g..4g+3.
  for (int j = 0; j < 4; ++j) {
    const __m512i p = _mm512_shuffle_i32x4(u[0 + j], u[4 + j], 0x88);
    const __m512i q = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x88);
    const __m512i s = _mm512_shuffle_i32x4(u[0 + j], u[4 + j], 0xdd);
    const __m512i v = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xdd);
    rows[0 + j] = _mm512_shuffle_i32x4(p, q, 0x88);
    rows[4 + j] = _mm512_shuffle_i32x4(s, v, 0x88);
    rows[8 + j] = _mm512_shuffle_i32x4(p, q, 0xdd);
    rows[12 + j] = _mm512_shuffle_i32x4(s, v, 0xdd);
  }
}

}  // namespace

bool avx512_available() noexcept {
  static const bool available = detect();
  return available;
}

void compress_blocks_avx512x16(const std::uint8_t* blocks,
                               std::uint64_t* outs) noexcept {
  __m512i w[16];
  for (int j = 0; j < 16; ++j) {
    w[j] = bswap32_avx512f(
        _mm512_loadu_si512(reinterpret_cast<const void*>(blocks + j * 64)));
  }
  transpose16x16(w);

  __m512i a = _mm512_set1_epi32(0x6a09e667);
  __m512i b = _mm512_set1_epi32(static_cast<int>(0xbb67ae85));
  __m512i c = _mm512_set1_epi32(0x3c6ef372);
  __m512i d = _mm512_set1_epi32(static_cast<int>(0xa54ff53a));
  __m512i e = _mm512_set1_epi32(0x510e527f);
  __m512i f = _mm512_set1_epi32(static_cast<int>(0x9b05688c));
  __m512i g = _mm512_set1_epi32(0x1f83d9ab);
  __m512i h = _mm512_set1_epi32(0x5be0cd19);

#define TG_MB16_ADD(x, y) _mm512_add_epi32((x), (y))
#define TG_MB16_S0(x) \
  xor3(_mm512_ror_epi32((x), 2), _mm512_ror_epi32((x), 13), \
       _mm512_ror_epi32((x), 22))
#define TG_MB16_S1(x) \
  xor3(_mm512_ror_epi32((x), 6), _mm512_ror_epi32((x), 11), \
       _mm512_ror_epi32((x), 25))
#define TG_MB16_s0(x) \
  xor3(_mm512_ror_epi32((x), 7), _mm512_ror_epi32((x), 18), \
       _mm512_srli_epi32((x), 3))
#define TG_MB16_s1(x) \
  xor3(_mm512_ror_epi32((x), 17), _mm512_ror_epi32((x), 19), \
       _mm512_srli_epi32((x), 10))
#define TG_MB16_ROUND(a, b, c, d, e, f, g, h, i, wv)                      \
  do {                                                                    \
    const __m512i t1 = TG_MB16_ADD(                                       \
        TG_MB16_ADD(TG_MB16_ADD((h), TG_MB16_S1(e)),                      \
                    TG_MB16_ADD(ch512((e), (f), (g)), (wv))),             \
        _mm512_set1_epi32(static_cast<int>(kSha256K[i])));                      \
    const __m512i t2 = TG_MB16_ADD(TG_MB16_S0(a), maj512((a), (b), (c))); \
    (d) = TG_MB16_ADD((d), t1);                                           \
    (h) = TG_MB16_ADD(t1, t2);                                            \
  } while (0)
#define TG_MB16_W(i)                                                  \
  (w[(i) & 15] = TG_MB16_ADD(                                         \
       TG_MB16_ADD(w[(i) & 15], TG_MB16_s1(w[((i) - 2) & 15])),       \
       TG_MB16_ADD(w[((i) - 7) & 15], TG_MB16_s0(w[((i) - 15) & 15]))))
#define TG_MB16_W_DIRECT(i) w[(i) & 15]
#define TG_MB16_8ROUNDS(i, W)                                 \
  TG_MB16_ROUND(a, b, c, d, e, f, g, h, (i) + 0, W((i) + 0)); \
  TG_MB16_ROUND(h, a, b, c, d, e, f, g, (i) + 1, W((i) + 1)); \
  TG_MB16_ROUND(g, h, a, b, c, d, e, f, (i) + 2, W((i) + 2)); \
  TG_MB16_ROUND(f, g, h, a, b, c, d, e, (i) + 3, W((i) + 3)); \
  TG_MB16_ROUND(e, f, g, h, a, b, c, d, (i) + 4, W((i) + 4)); \
  TG_MB16_ROUND(d, e, f, g, h, a, b, c, (i) + 5, W((i) + 5)); \
  TG_MB16_ROUND(c, d, e, f, g, h, a, b, (i) + 6, W((i) + 6)); \
  TG_MB16_ROUND(b, c, d, e, f, g, h, a, (i) + 7, W((i) + 7))

  TG_MB16_8ROUNDS(0, TG_MB16_W_DIRECT);
  TG_MB16_8ROUNDS(8, TG_MB16_W_DIRECT);
  TG_MB16_8ROUNDS(16, TG_MB16_W);
  TG_MB16_8ROUNDS(24, TG_MB16_W);
  TG_MB16_8ROUNDS(32, TG_MB16_W);
  TG_MB16_8ROUNDS(40, TG_MB16_W);
  TG_MB16_8ROUNDS(48, TG_MB16_W);
  TG_MB16_8ROUNDS(56, TG_MB16_W);

#undef TG_MB16_8ROUNDS
#undef TG_MB16_W_DIRECT
#undef TG_MB16_W
#undef TG_MB16_ROUND
#undef TG_MB16_s1
#undef TG_MB16_s0
#undef TG_MB16_S1
#undef TG_MB16_S0
#undef TG_MB16_ADD

  // Only digest words 0 and 1 are needed for the u64 outputs.
  alignas(64) std::uint32_t s0[16], s1[16];
  _mm512_store_si512(reinterpret_cast<void*>(s0),
                     _mm512_add_epi32(a, _mm512_set1_epi32(0x6a09e667)));
  _mm512_store_si512(
      reinterpret_cast<void*>(s1),
      _mm512_add_epi32(b, _mm512_set1_epi32(static_cast<int>(0xbb67ae85))));
  for (int i = 0; i < 16; ++i) {
    outs[i] = (static_cast<std::uint64_t>(s0[i]) << 32) | s1[i];
  }
}

#else  // no AVX-512F support in this build

bool avx512_available() noexcept { return false; }

void compress_blocks_avx512x16(const std::uint8_t*, std::uint64_t*) noexcept {}

#endif

}  // namespace tg::crypto::detail
