// Generic (plain C++) pack, micro-kernel and write-back code shared by
// every backend translation unit.
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
//    step (every library TU compiles with -ffp-contract=off, see
//    src/CMakeLists.txt, so neither the template loops nor adjacent mul/add
//    intrinsics can fuse into FMA);
//  * the per-row affine is v = scale[m]*v + shift[m] (two roundings), then
//    the epilogue through this TU's own `epilogue` (never the dispatching
//    gemm::epilogue_apply: a kernel stays on the tier it belongs to).
//
// epilogue_value is the one definition of the fusable activations; the
// public gemm::epilogue_eval (gemm.cpp), and through it nn::act_eval, call
// it, so fused write-backs and standalone Activation modules agree bit for
// bit by construction.  `epilogue` and `dequant_int8` are the element-wise
// write-back entries of every descriptor: plain loops that each backend TU
// auto-vectorizes under its own -m flags (and -fno-trapping-math, which
// lets the clamp-style epilogues if-convert; src/nn/CMakeLists.txt).
//
// depthwise_block<L> is the one depthwise kernel: every backend
// instantiates it at its own lane count L, and the TU's -m flags turn the
// L-lane inner loops into whole-vector multiplies and adds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "nn/gemm/backend.h"

namespace mersit::nn::gemm::detail {
namespace {

/// The fusable activations, one scalar each.
inline float epilogue_value(Epilogue e, float x) {
  switch (e) {
    case Epilogue::kNone:
      return x;
    case Epilogue::kReLU:
      return x > 0.f ? x : 0.f;
    case Epilogue::kReLU6:
      return x < 0.f ? 0.f : (x > 6.f ? 6.f : x);
    case Epilogue::kSiLU:
      return x * (1.f / (1.f + std::exp(-x)));
    case Epilogue::kHardSwish:
      if (x <= -3.f) return 0.f;
      if (x >= 3.f) return x;
      return x * (x + 3.f) / 6.f;
    case Epilogue::kGELU: {
      const float u = 0.7978845608f * (x + 0.044715f * x * x * x);
      return 0.5f * x * (1.f + std::tanh(u));
    }
  }
  return x;
}

/// epilogue_value over a row with a constant kind, so the per-element switch
/// folds away and the loop vectorizes where the formula allows.
template <Epilogue E>
void epilogue_row(const float* src, float* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = epilogue_value(E, src[i]);
}

/// Backend::epilogue: the kind switch hoisted out of the element loop.
inline void epilogue(Epilogue e, const float* src, float* dst, int n) {
  switch (e) {
    case Epilogue::kNone: epilogue_row<Epilogue::kNone>(src, dst, n); return;
    case Epilogue::kReLU: epilogue_row<Epilogue::kReLU>(src, dst, n); return;
    case Epilogue::kReLU6: epilogue_row<Epilogue::kReLU6>(src, dst, n); return;
    case Epilogue::kSiLU: epilogue_row<Epilogue::kSiLU>(src, dst, n); return;
    case Epilogue::kHardSwish:
      epilogue_row<Epilogue::kHardSwish>(src, dst, n);
      return;
    case Epilogue::kGELU: epilogue_row<Epilogue::kGELU>(src, dst, n); return;
  }
}

/// Backend::dequant_int8: out[i] = float(binit + double(acc[i]) · s).
inline void dequant_int8(const std::int32_t* acc, int n, double s,
                         double binit, float* out) {
  for (int i = 0; i < n; ++i)
    out[i] = static_cast<float>(binit + static_cast<double>(acc[i]) * s);
}

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

/// pack_a_block over 8-bit weight codes remapped to int8 levels through
/// `qlut`: panels are [group][m][j] with KG-wide k groups, k extent padded
/// to a multiple of KG and row pads zero-filled.  XOR is applied to every
/// stored byte (including pads): 0 for two's-complement level panels, 0x80
/// for the AVX-512 VNNI layout, which stores A levels biased by 128
/// (q ^ 0x80 == q + 128 as a byte) so vpdpbusd's unsigned operand sees
/// u8 = q + 128.
template <int MR, int KG, int XOR = 0>
void pack_a_int8_block(const std::uint8_t* a, int lda, const std::int8_t* qlut,
                       int m0, int mc, int k0, int kc, std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const int full_g = kc / KG;
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    int g0 = 0;
    if (mr == MR) {
      // Full row panel: every (m, group) is a contiguous KG-byte run through
      // the LUT, so the per-element bounds tests of the general loop below
      // vanish.  Byte-identical output.
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
          if (m < mr && k < kc)
            v = qlut[a[static_cast<std::size_t>(m0 + ip + m) * lda + k0 + k]];
          dst[(static_cast<std::size_t>(g) * MR + m) * KG + j] =
              static_cast<std::int8_t>(v ^ XOR);
        }
      }
    }
    dst += static_cast<std::size_t>(groups) * MR * KG;
  }
}

/// Interleave KG level rows (NR bytes each) into one packed group:
/// dst[n*KG + j] = rows[j][n].  This is the inner loop of the B packs;
/// NR/KG are panel constants, so the constant-index shuffles below compile
/// to a handful of byte unpacks under whatever vector ISA the TU is built
/// with (GCC vector extensions are target-independent).  The geometries are
/// the backends' own: scalar NR 8 x KG 1, AVX2 16 x 2, AVX-512 16 x 4.
template <int NR, int KG>
inline void interleave_rows_i8(const std::int8_t* const* rows,
                               std::int8_t* dst) {
  static_assert(KG == 1 || (NR == 16 && (KG == 2 || KG == 4)),
                "no backend packs int8 B panels at this geometry");
  typedef std::int8_t V16 __attribute__((vector_size(16)));
  if constexpr (KG == 1) {
    std::memcpy(dst, rows[0], NR);
  } else if constexpr (KG == 2) {
    V16 a, b;
    std::memcpy(&a, rows[0], 16);
    std::memcpy(&b, rows[1], 16);
    const V16 lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4,
                                           20, 5, 21, 6, 22, 7, 23);
    const V16 hi = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27,
                                           12, 28, 13, 29, 14, 30, 15, 31);
    std::memcpy(dst, &lo, 16);
    std::memcpy(dst + 16, &hi, 16);
  } else {
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
  }
}

/// pack_b_block over row-major int8 activation levels into [group][n][j]
/// panels, padded like pack_a_int8_block (B panels always hold plain
/// two's-complement levels).
template <int NR, int KG>
void pack_b_int8_block(const std::int8_t* b, int ldb, int k0, int kc, int n0,
                       int nc, std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const int full_g = kc / KG;
  for (int jp = 0; jp < nc; jp += NR) {
    const int nr = std::min(NR, nc - jp);
    int g0 = 0;
    if (nr == NR) {
      // Full column panel: each whole k-group is a straight byte interleave
      // of KG level rows (the ragged tail group, if any, falls through to
      // the general loop).  Byte-identical output; this is the hot shape of
      // the per-call activation pack.
      for (int g = 0; g < full_g; ++g) {
        const std::int8_t* rows[KG];
        for (int j = 0; j < KG; ++j)
          rows[j] = b + static_cast<std::size_t>(k0 + g * KG + j) * ldb + n0 + jp;
        interleave_rows_i8<NR, KG>(rows,
                                   dst + static_cast<std::size_t>(g) * NR * KG);
      }
      g0 = full_g;
    }
    for (int g = g0; g < groups; ++g) {
      for (int n = 0; n < NR; ++n) {
        for (int j = 0; j < KG; ++j) {
          const int k = g * KG + j;
          dst[(static_cast<std::size_t>(g) * NR + n) * KG + j] =
              n < nr && k < kc
                  ? b[static_cast<std::size_t>(k0 + k) * ldb + n0 + jp + n]
                  : std::int8_t{0};
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
        epilogue(epi, acc[m], c + static_cast<std::size_t>(m) * ldc, NR);
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
    epilogue(epi, acc[m], c + static_cast<std::size_t>(m) * ldc, nr);
  }
}

/// L floats as one GCC vector: the lane block of the depthwise kernel.
template <int L>
struct Lanes {
  typedef float V __attribute__((vector_size(L * sizeof(float))));
};
template <int L>
using LaneVec = typename Lanes<L>::V;

/// Interleave the low (H = 0) or high (H = 1) halves of a and b:
/// a[h], b[h], a[h+1], b[h+1], ... from h = H*L/2.
template <int L, int H, std::size_t... J>
inline LaneVec<L> interleave(LaneVec<L> a, LaneVec<L> b,
                             std::index_sequence<J...>) {
  return __builtin_shufflevector(a, b, (H * L / 2 + J / 2 + (J % 2) * L)...);
}

/// In-register L x L transpose (r[i][j] -> r[j][i]) in log2(L) perfect-
/// shuffle stages: each stage rotates the (row, column) bit string of an
/// element's index left by one bit, so log2(L) stages swap the halves.
/// Target-independent vector code; each TU lowers it to its own shuffles.
template <int L>
inline void transpose_lanes(LaneVec<L> (&r)[L]) {
  constexpr auto seq = std::make_index_sequence<L>{};
  for (int stage = 1; stage < L; stage *= 2) {
    LaneVec<L> t[L];
    for (int i = 0; i < L / 2; ++i) {
      t[2 * i] = interleave<L, 0>(r[i], r[i + L / 2], seq);
      t[2 * i + 1] = interleave<L, 1>(r[i], r[i + L / 2], seq);
    }
    for (int i = 0; i < L; ++i) r[i] = t[i];
  }
}

/// acc[l] += w[t][l] * x[t][l] for the n consecutive taps of one filter
/// row, t ascending; w and x are [tap][L].
template <int L>
inline void depthwise_taps(float (&acc)[L], const float* w, const float* x,
                           int n) {
  for (int t = 0; t < n; ++t)
    for (int l = 0; l < L; ++l) acc[l] += w[t * L + l] * x[t * L + l];
}

/// Depthwise forward of one sample, L channels at a time.  Each block's
/// input planes are transposed to [pixel][L] (the tail lanes of a short
/// block zero-filled and never stored), so one output pixel of L channels
/// is one L-wide vector: it starts from the bias and adds, in ascending
/// (ki, kj) order, exactly the taps in bounds at that pixel — the set is
/// the same for every lane, so no padded input is ever read.  The affine
/// applies to the finished vector, the epilogue to the whole [pixel][L]
/// block (one epilogue call; the same per-element formula), and the
/// block transposes back to channel planes.  `scratch` is caller-provided
/// (see Backend::depthwise).
template <int L>
void depthwise_block(const DepthwiseShape& s, const float* x, const float* wt,
                     const float* bias, float* y, Epilogue epi,
                     const float* asc, const float* ash, float* scratch) {
  static_assert(L <= kMaxDepthwiseLanes, "depthwise_scratch sizes the lanes");
  using V = LaneVec<L>;
  const std::size_t hw = static_cast<std::size_t>(s.h) * s.w;
  const std::size_t osz = static_cast<std::size_t>(s.oh) * s.ow;
  const int kk = s.k * s.k;
  float* xt = scratch;
  float* yt = xt + hw * L;
  float* wl = yt + osz * L;
  float bl[L], sl[L], hl[L];
  for (int c0 = 0; c0 < s.channels; c0 += L) {
    const int nc = std::min(L, s.channels - c0);
    const float* planes[L];
    for (int l = 0; l < L; ++l) {
      const bool live = l < nc;
      planes[l] = live ? x + static_cast<std::size_t>(c0 + l) * hw : nullptr;
      bl[l] = live ? bias[c0 + l] : 0.f;
      sl[l] = live && asc != nullptr ? asc[c0 + l] : 0.f;
      hl[l] = live && asc != nullptr ? ash[c0 + l] : 0.f;
      for (int t = 0; t < kk; ++t)
        wl[static_cast<std::size_t>(t) * L + l] =
            live ? wt[static_cast<std::size_t>(c0 + l) * kk + t] : 0.f;
    }
    std::size_t p = 0;
    for (; p + L <= hw; p += L) {
      V r[L];
      for (int l = 0; l < L; ++l) {
        r[l] = V{};
        if (l < nc) std::memcpy(&r[l], planes[l] + p, sizeof(V));
      }
      transpose_lanes<L>(r);
      for (int q = 0; q < L; ++q) std::memcpy(xt + (p + q) * L, &r[q], sizeof(V));
    }
    for (; p < hw; ++p)
      for (int l = 0; l < L; ++l) xt[p * L + l] = l < nc ? planes[l][p] : 0.f;

    for (int i = 0; i < s.oh; ++i) {
      const int r0 = i * s.stride - s.pad;
      const int ki_lo = std::max(0, -r0), ki_hi = std::min(s.k, s.h - r0);
      float* yrow = yt + static_cast<std::size_t>(i) * s.ow * L;
      for (int j = 0; j < s.ow; ++j) {
        const int q0 = j * s.stride - s.pad;
        const int kj_lo = std::max(0, -q0), kj_hi = std::min(s.k, s.w - q0);
        float acc[L];
        for (int l = 0; l < L; ++l) acc[l] = bl[l];
        if (s.k == 3 && ki_lo == 0 && ki_hi == 3 && kj_lo == 0 && kj_hi == 3) {
          // Interior pixel of a 3x3 filter (every depthwise conv in the
          // zoo): constant trip counts unroll all nine taps.
          for (int ki = 0; ki < 3; ++ki)
            depthwise_taps<L>(acc, wl + static_cast<std::size_t>(ki) * 3 * L,
                              xt + (static_cast<std::size_t>(r0 + ki) * s.w + q0) * L,
                              3);
        } else {
          for (int ki = ki_lo; ki < ki_hi; ++ki)
            depthwise_taps<L>(
                acc, wl + (static_cast<std::size_t>(ki) * s.k + kj_lo) * L,
                xt + (static_cast<std::size_t>(r0 + ki) * s.w + q0 + kj_lo) * L,
                kj_hi - kj_lo);
        }
        if (asc != nullptr)
          for (int l = 0; l < L; ++l) acc[l] = sl[l] * acc[l] + hl[l];
        // An element loop, not memcpy: memcpy would pin acc to memory.
        for (int l = 0; l < L; ++l) yrow[static_cast<std::size_t>(j) * L + l] = acc[l];
      }
    }
    if (epi != Epilogue::kNone)
      epilogue(epi, yt, yt, static_cast<int>(osz * L));

    p = 0;
    for (; p + L <= osz; p += L) {
      V r[L];
      for (int q = 0; q < L; ++q) std::memcpy(&r[q], yt + (p + q) * L, sizeof(V));
      transpose_lanes<L>(r);
      for (int l = 0; l < nc; ++l)
        std::memcpy(y + static_cast<std::size_t>(c0 + l) * osz + p, &r[l], sizeof(V));
    }
    for (; p < osz; ++p)
      for (int l = 0; l < nc; ++l)
        y[static_cast<std::size_t>(c0 + l) * osz + p] = yt[p * L + l];
  }
}

}  // namespace
}  // namespace mersit::nn::gemm::detail
