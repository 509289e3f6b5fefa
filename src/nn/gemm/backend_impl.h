// Generic (plain C++) pack and micro-kernel templates shared by every
// backend translation unit.
//
// The templates are parameterized on the register tile (MR/NR) only — cache
// blocking stays in the driver (gemm.cpp).  Each backend TU instantiates
// them at its own tile geometry: the scalar backend uses them as its entire
// implementation, the SIMD backends use them for the pack routines (the
// compiler auto-vectorizes the copy loops under the TU's -m flags —
// values are IEEE-identical at any vector width) and as the fallback for
// edge tiles their intrinsic kernels do not cover.  Backend descriptors
// point straight at the instantiations.  The float packs copy values and
// never decode: code-mode weights reach them already decoded
// (gemm::decode_codes), so one pack routine per side serves both.
//
// Everything here has internal linkage (an unnamed namespace inside
// `detail`).  The backend TUs compile under different -m flags, and
// templates or inline functions with ordinary linkage would be emitted as
// weak symbols in each of them; the linker keeps one copy, so an
// unoptimized build could run the -mavx512f copy of a shared instantiation
// (say pack_b_block<16>) inside the AVX2 backend, or inside gemm.cpp's
// baseline-flag small-problem loop.  Internal linkage gives every TU its
// own copy, built with its own flags.
//
// Bit-identity rules baked in here, which every intrinsic kernel must also
// obey:
//  * ascending-k accumulation, one separately rounded multiply and add per
//    step (backend TUs compile with -ffp-contract=off so neither the
//    template loops nor adjacent mul/add intrinsics can fuse into FMA);
//  * the per-row affine is v = scale[m]*v + shift[m] (two roundings), then
//    the epilogue via the shared epilogue_apply.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "nn/gemm/backend.h"
#include "nn/gemm/qgemm.h"

namespace mersit::nn::gemm::detail {
namespace {

inline float a_elem(const float* a, int lda, bool trans, int m, int k) {
  return trans ? a[static_cast<std::size_t>(k) * lda + m]
               : a[static_cast<std::size_t>(m) * lda + k];
}

inline float b_elem(const float* b, int ldb, bool trans, int k, int n) {
  return trans ? b[static_cast<std::size_t>(n) * ldb + k]
               : b[static_cast<std::size_t>(k) * ldb + n];
}

/// Pack an (mc x kc) block of op(A) into MR-row panels, k-major within a
/// panel (panel i holds rows [i*MR, i*MR+MR), laid out [k][m]); short final
/// panels are zero-padded so the micro-kernel never reads garbage.
template <int MR>
void pack_a_block(const float* a, int lda, bool trans, int m0, int mc, int k0,
                  int kc, float* dst) {
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    for (int k = 0; k < kc; ++k) {
      for (int m = 0; m < mr; ++m)
        dst[k * MR + m] = a_elem(a, lda, trans, m0 + ip + m, k0 + k);
      for (int m = mr; m < MR; ++m) dst[k * MR + m] = 0.f;
    }
    dst += static_cast<std::size_t>(kc) * MR;
  }
}

/// Pack a (kc x nc) block of op(B) into NR-column panels, [k][n] within a
/// panel, zero-padded like pack_a_block.
template <int NR>
void pack_b_block(const float* b, int ldb, bool trans, int k0, int kc, int n0,
                  int nc, float* dst) {
  for (int jp = 0; jp < nc; jp += NR) {
    const int nr = std::min(NR, nc - jp);
    for (int k = 0; k < kc; ++k) {
      for (int n = 0; n < nr; ++n)
        dst[k * NR + n] = b_elem(b, ldb, trans, k0 + k, n0 + jp + n);
      for (int n = nr; n < NR; ++n) dst[k * NR + n] = 0.f;
    }
    dst += static_cast<std::size_t>(kc) * NR;
  }
}

/// pack_a_block over 8-bit codes remapped to int8 levels: panels are
/// [group][m][j] with KG-wide k groups, k extent padded to a multiple of KG
/// and row pads zero-filled.  XOR is applied to every stored byte (including
/// pads): 0 for two's-complement level panels, 0x80 for the AVX-512 VNNI
/// layout, which stores A levels biased by 128 (q ^ 0x80 == q + 128 as a
/// byte) so vpdpbusd's unsigned operand sees u8 = q + 128.
template <int MR, int KG, int XOR = 0>
void pack_a_int8_block(const std::uint8_t* a, int lda, bool trans,
                       const std::int8_t* qlut, int m0, int mc, int k0, int kc,
                       std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const int full_g = kc / KG;
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    int g0 = 0;
    if (!trans && mr == MR) {
      // Full row panel over row-major A: every (m, group) is a contiguous
      // KG-byte run through the LUT, so the per-element bounds tests of the
      // general loop below vanish.  Byte-identical output — this is the hot
      // shape for per-call activation packs (Linear A operand).
      for (int m = 0; m < MR; ++m) {
        const std::uint8_t* row =
            a + static_cast<std::size_t>(m0 + ip + m) * lda + k0;
        std::int8_t* dm = dst + static_cast<std::size_t>(m) * KG;
        for (int g = 0; g < full_g; ++g) {
          const std::uint8_t* src = row + static_cast<std::size_t>(g) * KG;
          std::int8_t* dg = dm + static_cast<std::size_t>(g) * MR * KG;
          for (int j = 0; j < KG; ++j)
            dg[j] = static_cast<std::int8_t>(qlut[src[j]] ^ XOR);
        }
      }
      g0 = full_g;
    }
    for (int g = g0; g < groups; ++g) {
      for (int m = 0; m < MR; ++m) {
        for (int j = 0; j < KG; ++j) {
          const int k = g * KG + j;
          std::int8_t v = 0;
          if (m < mr && k < kc) {
            const std::uint8_t code =
                trans ? a[static_cast<std::size_t>(k0 + k) * lda + m0 + ip + m]
                      : a[static_cast<std::size_t>(m0 + ip + m) * lda + k0 + k];
            v = qlut[code];
          }
          dst[(static_cast<std::size_t>(g) * MR + m) * KG + j] =
              static_cast<std::int8_t>(v ^ XOR);
        }
      }
    }
    dst += static_cast<std::size_t>(groups) * MR * KG;
  }
}

/// Interleave KG level rows (NR bytes each) into one packed group:
/// dst[n*KG + j] = rows[j][n].  This is the identity-map inner loop of the
/// B packs; NR/KG are panel constants, so the constant-index shuffles below
/// compile to a handful of byte unpacks under whatever vector ISA the TU is
/// built with (GCC vector extensions are target-independent, with a scalar
/// word-compose fallback for geometries no backend uses).
template <int NR, int KG>
inline void interleave_rows_i8(const std::uint8_t* const* rows,
                               std::int8_t* dst) {
  if constexpr (KG == 1) {
    std::memcpy(dst, rows[0], NR);
  } else if constexpr (NR == 16 && KG == 2) {
    typedef std::uint8_t V16 __attribute__((vector_size(16)));
    V16 a, b;
    std::memcpy(&a, rows[0], 16);
    std::memcpy(&b, rows[1], 16);
    const V16 lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4,
                                           20, 5, 21, 6, 22, 7, 23);
    const V16 hi = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27,
                                           12, 28, 13, 29, 14, 30, 15, 31);
    std::memcpy(dst, &lo, 16);
    std::memcpy(dst + 16, &hi, 16);
  } else if constexpr (NR == 16 && KG == 4) {
    typedef std::uint8_t V16 __attribute__((vector_size(16)));
    V16 a, b, c, d;
    std::memcpy(&a, rows[0], 16);
    std::memcpy(&b, rows[1], 16);
    std::memcpy(&c, rows[2], 16);
    std::memcpy(&d, rows[3], 16);
    // Two unpack levels: bytes (a0 b0 a1 b1 ...) then byte pairs
    // (a0 b0 c0 d0 a1 b1 c1 d1 ...) — the classic 4xN byte transpose.
    const V16 ab0 = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19,
                                            4, 20, 5, 21, 6, 22, 7, 23);
    const V16 ab1 = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27,
                                            12, 28, 13, 29, 14, 30, 15, 31);
    const V16 cd0 = __builtin_shufflevector(c, d, 0, 16, 1, 17, 2, 18, 3, 19,
                                            4, 20, 5, 21, 6, 22, 7, 23);
    const V16 cd1 = __builtin_shufflevector(c, d, 8, 24, 9, 25, 10, 26, 11, 27,
                                            12, 28, 13, 29, 14, 30, 15, 31);
    const V16 o0 = __builtin_shufflevector(ab0, cd0, 0, 1, 16, 17, 2, 3, 18,
                                           19, 4, 5, 20, 21, 6, 7, 22, 23);
    const V16 o1 = __builtin_shufflevector(ab0, cd0, 8, 9, 24, 25, 10, 11, 26,
                                           27, 12, 13, 28, 29, 14, 15, 30, 31);
    const V16 o2 = __builtin_shufflevector(ab1, cd1, 0, 1, 16, 17, 2, 3, 18,
                                           19, 4, 5, 20, 21, 6, 7, 22, 23);
    const V16 o3 = __builtin_shufflevector(ab1, cd1, 8, 9, 24, 25, 10, 11, 26,
                                           27, 12, 13, 28, 29, 14, 15, 30, 31);
    std::memcpy(dst, &o0, 16);
    std::memcpy(dst + 16, &o1, 16);
    std::memcpy(dst + 32, &o2, 16);
    std::memcpy(dst + 48, &o3, 16);
  } else if constexpr (NR == 8 && KG == 4) {
    typedef std::uint8_t V8 __attribute__((vector_size(8)));
    V8 a, b, c, d;
    std::memcpy(&a, rows[0], 8);
    std::memcpy(&b, rows[1], 8);
    std::memcpy(&c, rows[2], 8);
    std::memcpy(&d, rows[3], 8);
    const V8 ab0 = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    const V8 ab1 = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
    const V8 cd0 = __builtin_shufflevector(c, d, 0, 8, 1, 9, 2, 10, 3, 11);
    const V8 cd1 = __builtin_shufflevector(c, d, 4, 12, 5, 13, 6, 14, 7, 15);
    const V8 o0 = __builtin_shufflevector(ab0, cd0, 0, 1, 8, 9, 2, 3, 10, 11);
    const V8 o1 = __builtin_shufflevector(ab0, cd0, 4, 5, 12, 13, 6, 7, 14, 15);
    const V8 o2 = __builtin_shufflevector(ab1, cd1, 0, 1, 8, 9, 2, 3, 10, 11);
    const V8 o3 = __builtin_shufflevector(ab1, cd1, 4, 5, 12, 13, 6, 7, 14, 15);
    std::memcpy(dst, &o0, 8);
    std::memcpy(dst + 8, &o1, 8);
    std::memcpy(dst + 16, &o2, 8);
    std::memcpy(dst + 24, &o3, 8);
  } else if constexpr (NR == 8 && KG == 2) {
    typedef std::uint8_t V8 __attribute__((vector_size(8)));
    V8 a, b;
    std::memcpy(&a, rows[0], 8);
    std::memcpy(&b, rows[1], 8);
    const V8 lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    const V8 hi = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
    std::memcpy(dst, &lo, 8);
    std::memcpy(dst + 8, &hi, 8);
  } else {
    for (int n = 0; n < NR; ++n) {
      std::uint32_t wv = 0;
      for (int j = 0; j < KG; ++j)
        wv |= static_cast<std::uint32_t>(rows[j][n]) << (8 * j);
      std::memcpy(dst + n * KG, &wv, KG);
    }
  }
}

/// pack_b_block over codes into [group][n][j] int8 panels, padded like
/// pack_a_int8_block (B panels always hold plain two's-complement levels).
template <int NR, int KG>
void pack_b_int8_block(const std::uint8_t* b, int ldb, bool trans,
                       const std::int8_t* qlut, int k0, int kc, int n0, int nc,
                       std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const int full_g = kc / KG;
  for (int jp = 0; jp < nc; jp += NR) {
    const int nr = std::min(NR, nc - jp);
    int g0 = 0;
    if (nr == NR) {
      // Full column panel: drop the per-element bounds tests for the whole
      // k-groups (the ragged tail group, if any, falls through to the
      // general loop).  Byte-identical output; this is the hot shape for
      // per-call activation packs (conv im2col B operand).
      if (trans) {
        for (int n = 0; n < NR; ++n) {
          const std::uint8_t* row =
              b + static_cast<std::size_t>(n0 + jp + n) * ldb + k0;
          std::int8_t* dn = dst + static_cast<std::size_t>(n) * KG;
          for (int g = 0; g < full_g; ++g) {
            const std::uint8_t* src = row + static_cast<std::size_t>(g) * KG;
            std::int8_t* dg = dn + static_cast<std::size_t>(g) * NR * KG;
            for (int j = 0; j < KG; ++j) dg[j] = qlut[src[j]];
          }
        }
      } else {
        // Codes already ARE the levels when the map is identity (the conv
        // im2col operand), so the group interleave runs as straight byte
        // shuffles with no table lookup.
        const bool ident = qlut == identity_qlut();
        for (int g = 0; g < full_g; ++g) {
          std::int8_t* dg = dst + static_cast<std::size_t>(g) * NR * KG;
          const std::uint8_t* rows[KG];
          for (int j = 0; j < KG; ++j)
            rows[j] =
                b + static_cast<std::size_t>(k0 + g * KG + j) * ldb + n0 + jp;
          if (ident) {
            interleave_rows_i8<NR, KG>(rows, dg);
            continue;
          }
          // Compose each column's KG levels into one word and store it whole
          // (KG is 1/2/4): sequential word stores instead of a stride-KG
          // byte scatter, ~2x faster on the per-call activation pack.
          for (int n = 0; n < NR; ++n) {
            std::uint32_t wv = 0;
            for (int j = 0; j < KG; ++j)
              wv |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                        qlut[rows[j][n]]))
                    << (8 * j);
            std::memcpy(dg + n * KG, &wv, KG);
          }
        }
      }
      g0 = full_g;
    }
    for (int g = g0; g < groups; ++g) {
      for (int n = 0; n < NR; ++n) {
        for (int j = 0; j < KG; ++j) {
          const int k = g * KG + j;
          std::int8_t v = 0;
          if (n < nr && k < kc) {
            const std::uint8_t code =
                trans ? b[static_cast<std::size_t>(n0 + jp + n) * ldb + k0 + k]
                      : b[static_cast<std::size_t>(k0 + k) * ldb + n0 + jp + n];
            v = qlut[code];
          }
          dst[(static_cast<std::size_t>(g) * NR + n) * KG + j] = v;
        }
      }
    }
    dst += static_cast<std::size_t>(groups) * NR * KG;
  }
}

/// Generic int8 micro-kernel over the [group][row/col][j] panel layout:
/// acc[m][n] += Σ qa·qb in int32.  Exact integer arithmetic, so this is the
/// reference every intrinsic kernel must match bitwise (and trivially does —
/// integer sums are order-independent).  Handles full and edge tiles.
template <int MR, int NR, int KG>
void micro_int8_generic(int kc, const std::int8_t* ap, const std::int8_t* bp,
                        std::int32_t* acc, int ldacc, int mr, int nr) {
  const int groups = (kc + KG - 1) / KG;
  for (int m = 0; m < mr; ++m) {
    for (int n = 0; n < nr; ++n) {
      std::int32_t s = 0;
      for (int g = 0; g < groups; ++g) {
        const std::int8_t* am =
            ap + (static_cast<std::size_t>(g) * MR + m) * KG;
        const std::int8_t* bn =
            bp + (static_cast<std::size_t>(g) * NR + n) * KG;
        for (int j = 0; j < KG; ++j)
          s += static_cast<std::int32_t>(am[j]) *
               static_cast<std::int32_t>(bn[j]);
      }
      acc[static_cast<std::size_t>(m) * ldacc + n] += s;
    }
  }
}

/// Generic MR x NR micro-kernel (full and edge tiles in one entry point):
/// load C, accumulate kc products in ascending k order, write back with the
/// optional per-row affine then epilogue.  Constant trip counts on the full-
/// tile path so the inner n-loop auto-vectorizes under the TU's -m flags.
template <int MR, int NR>
void micro_generic(int kc, const float* ap, const float* bp, float* c, int ldc,
                   int mr, int nr, Epilogue epi, const float* asc,
                   const float* ash) {
  if (mr == MR && nr == NR) {
    float acc[MR][NR];
    for (int m = 0; m < MR; ++m)
      for (int n = 0; n < NR; ++n)
        acc[m][n] = c[static_cast<std::size_t>(m) * ldc + n];
    for (int k = 0; k < kc; ++k) {
      const float* av = ap + static_cast<std::size_t>(k) * MR;
      const float* bv = bp + static_cast<std::size_t>(k) * NR;
      for (int m = 0; m < MR; ++m) {
        const float a = av[m];
        for (int n = 0; n < NR; ++n) acc[m][n] += a * bv[n];
      }
    }
    if (epi == Epilogue::kNone && asc == nullptr) {
      for (int m = 0; m < MR; ++m)
        for (int n = 0; n < NR; ++n)
          c[static_cast<std::size_t>(m) * ldc + n] = acc[m][n];
    } else {
      for (int m = 0; m < MR; ++m) {
        if (asc != nullptr) {
          const float s = asc[m], t = ash[m];
          for (int n = 0; n < NR; ++n) acc[m][n] = s * acc[m][n] + t;
        }
        epilogue_apply(epi, acc[m], c + static_cast<std::size_t>(m) * ldc, NR);
      }
    }
    return;
  }
  // Edge tile (mr < MR and/or nr < NR): same accumulation order, partial
  // loads/stores.  The packed panels are zero-padded, so the k-loop may
  // still run the full NR width internally — but only real C entries are
  // touched.
  float acc[MR][NR] = {};
  for (int m = 0; m < mr; ++m)
    for (int n = 0; n < nr; ++n)
      acc[m][n] = c[static_cast<std::size_t>(m) * ldc + n];
  for (int k = 0; k < kc; ++k) {
    const float* av = ap + static_cast<std::size_t>(k) * MR;
    const float* bv = bp + static_cast<std::size_t>(k) * NR;
    for (int m = 0; m < mr; ++m) {
      const float a = av[m];
      for (int n = 0; n < NR; ++n) acc[m][n] += a * bv[n];
    }
  }
  for (int m = 0; m < mr; ++m) {
    if (asc != nullptr) {
      const float s = asc[m], t = ash[m];
      for (int n = 0; n < nr; ++n) acc[m][n] = s * acc[m][n] + t;
    }
    epilogue_apply(epi, acc[m], c + static_cast<std::size_t>(m) * ldc, nr);
  }
}

}  // namespace
}  // namespace mersit::nn::gemm::detail
