// NEON backend (aarch64): 6x8 register tile, two 4-wide q accumulators per
// row (12 accumulators + 2 B loads + 1 A broadcast, well inside the 32
// NEON registers).
//
// The k-step is a separately rounded vmulq_f32 + vaddq_f32 — never
// vfmaq/vmlaq, which lower to the *fused* fmla on AArch64 and would break
// the ULP-0 contract against the scalar reference.  The TU compiles with
// -ffp-contract=off so the compiler cannot contract the generic-template
// fallbacks or the write-back affine either.  NEON loads carry no alignment
// requirement, but the panel bases are 64-byte aligned like every other
// backend's.
//
// This backend cannot execute on the x86-64 CI hosts; it is compile-gated
// to aarch64, kept structurally parallel to the AVX2 backend, and inherits
// the same per-backend bitwise gates in test_gemm/test_qgemm on any
// aarch64 build.
#if defined(__aarch64__)

#include <arm_neon.h>

#include "nn/gemm/backend_impl.h"
#include "core/cpu.h"

namespace mersit::nn::gemm {

namespace {

constexpr int kMR = 6;
constexpr int kNR = 8;

bool supported() { return core::cpu_features().neon; }

/// R x (4*C) tile with compile-time row count R and q-register column count
/// C.  nr <= 4*C; partial widths stage the C row through a zero-padded
/// stack buffer (NEON has no fault-suppressing masked loads), so lanes
/// beyond nr are never read from or written to the real C row.  The padded
/// B lanes are zero-filled by the pack, and vector lanes are independent,
/// so real C entries keep the exact scalar rounding sequence.
template <int R, int C>
void kernel_rows(int kc, const float* ap, const float* bp, float* c, int ldc,
                 int nr, Epilogue epi, const float* asc, const float* ash) {
  const bool full = nr == 4 * C;
  float32x4_t acc[R][C];
  for (int m = 0; m < R; ++m) {
    const float* row = c + static_cast<std::size_t>(m) * ldc;
    if (full) {
      for (int j = 0; j < C; ++j) acc[m][j] = vld1q_f32(row + 4 * j);
    } else {
      float tmp[kNR] = {};
      for (int n = 0; n < nr; ++n) tmp[n] = row[n];
      for (int j = 0; j < C; ++j) acc[m][j] = vld1q_f32(tmp + 4 * j);
    }
  }
  for (int k = 0; k < kc; ++k) {
    const float* bv = bp + static_cast<std::size_t>(k) * kNR;
    float32x4_t b[C];
    for (int j = 0; j < C; ++j) b[j] = vld1q_f32(bv + 4 * j);
    const float* av = ap + static_cast<std::size_t>(k) * kMR;
    for (int m = 0; m < R; ++m) {
      const float32x4_t a = vdupq_n_f32(av[m]);
      for (int j = 0; j < C; ++j)
        acc[m][j] = vaddq_f32(acc[m][j], vmulq_f32(a, b[j]));
    }
  }
  if (epi == Epilogue::kNone && asc == nullptr && full) {
    for (int m = 0; m < R; ++m) {
      float* row = c + static_cast<std::size_t>(m) * ldc;
      for (int j = 0; j < C; ++j) vst1q_f32(row + 4 * j, acc[m][j]);
    }
  } else {
    float tmp[kNR];
    for (int m = 0; m < R; ++m) {
      for (int j = 0; j < C; ++j) vst1q_f32(tmp + 4 * j, acc[m][j]);
      if (asc != nullptr) {
        const float s = asc[m], t = ash[m];
        for (int n = 0; n < nr; ++n) tmp[n] = s * tmp[n] + t;
      }
      if (epi == Epilogue::kNone && asc == nullptr) {
        float* row = c + static_cast<std::size_t>(m) * ldc;
        for (int n = 0; n < nr; ++n) row[n] = tmp[n];
      } else {
        epilogue_apply(epi, tmp, c + static_cast<std::size_t>(m) * ldc, nr);
      }
    }
  }
}

/// One or two q-register columns depending on the tile's real width.
template <int R>
void kernel_cols(int kc, const float* ap, const float* bp, float* c, int ldc,
                 int nr, Epilogue epi, const float* asc, const float* ash) {
  if (nr > 4)
    kernel_rows<R, 2>(kc, ap, bp, c, ldc, nr, epi, asc, ash);
  else
    kernel_rows<R, 1>(kc, ap, bp, c, ldc, nr, epi, asc, ash);
}

void micro(int kc, const float* ap, const float* bp, float* c, int ldc,
           int mr, int nr, Epilogue epi, const float* asc, const float* ash) {
  switch (mr) {
    case 6: kernel_cols<6>(kc, ap, bp, c, ldc, nr, epi, asc, ash); return;
    case 5: kernel_cols<5>(kc, ap, bp, c, ldc, nr, epi, asc, ash); return;
    case 4: kernel_cols<4>(kc, ap, bp, c, ldc, nr, epi, asc, ash); return;
    case 3: kernel_cols<3>(kc, ap, bp, c, ldc, nr, epi, asc, ash); return;
    case 2: kernel_cols<2>(kc, ap, bp, c, ldc, nr, epi, asc, ash); return;
    case 1: kernel_cols<1>(kc, ap, bp, c, ldc, nr, epi, asc, ash); return;
    default:
      detail::micro_generic<kMR, kNR>(kc, ap, bp, c, ldc, mr, nr, epi, asc,
                                      ash);
  }
}

// Int8 path, KG = 4: a B group is 32 bytes (8 columns x 4 k-levels, [n][j])
// — two int8x16 whose s32 lane n holds column n's 4 levels, the operand
// shape sdot wants.  When the compile target guarantees FEAT_DotProd
// (__ARM_FEATURE_DOTPROD, mirrored into CpuFeatures::dotprod) each k-group
// is one vdotq_s32 per B half; otherwise the same panels go through an
// exact widening chain — vmull_s8 products, vpaddlq_s16 pairwise-longs,
// vpaddq_s32 to per-column sums — all integer, so both kernels are bitwise
// identical to the scalar reference by construction.  12 accumulators + 2 B
// + 1 A broadcast stay well inside the 32 NEON registers.
constexpr int kKG8 = 4;

template <int R>
void kernel_int8_rows(int kc, const std::int8_t* ap, const std::int8_t* bp,
                      std::int32_t* acc, int ldacc, int nr) {
  const int groups = (kc + kKG8 - 1) / kKG8;
  int32x4_t vacc[R][2];
  for (int m = 0; m < R; ++m) {
    vacc[m][0] = vdupq_n_s32(0);
    vacc[m][1] = vdupq_n_s32(0);
  }
  for (int g = 0; g < groups; ++g) {
    const std::int8_t* bg = bp + static_cast<std::size_t>(g) * kNR * kKG8;
    const int8x16_t b0 = vld1q_s8(bg);       // columns n0..n3
    const int8x16_t b1 = vld1q_s8(bg + 16);  // columns n4..n7
    const std::int8_t* ag = ap + static_cast<std::size_t>(g) * kMR * kKG8;
    for (int m = 0; m < R; ++m) {
      std::int32_t w;
      __builtin_memcpy(&w, ag + m * kKG8, sizeof w);
#if defined(__ARM_FEATURE_DOTPROD)
      const int8x16_t av = vreinterpretq_s8_s32(vdupq_n_s32(w));
      vacc[m][0] = vdotq_s32(vacc[m][0], av, b0);
      vacc[m][1] = vdotq_s32(vacc[m][1], av, b1);
#else
      const int8x8_t av = vreinterpret_s8_s32(vdup_n_s32(w));
      // vmull_s8 gives 8 exact s16 products (two columns' worth); pairwise-
      // long then pairwise-add folds them to one exact s32 per column.
      const int32x4_t p00 = vpaddlq_s16(vmull_s8(vget_low_s8(b0), av));
      const int32x4_t p01 = vpaddlq_s16(vmull_s8(vget_high_s8(b0), av));
      const int32x4_t p10 = vpaddlq_s16(vmull_s8(vget_low_s8(b1), av));
      const int32x4_t p11 = vpaddlq_s16(vmull_s8(vget_high_s8(b1), av));
      vacc[m][0] = vaddq_s32(vacc[m][0], vpaddq_s32(p00, p01));
      vacc[m][1] = vaddq_s32(vacc[m][1], vpaddq_s32(p10, p11));
#endif
    }
  }
  for (int m = 0; m < R; ++m) {
    std::int32_t* row = acc + static_cast<std::size_t>(m) * ldacc;
    if (nr == kNR) {
      vst1q_s32(row, vaddq_s32(vld1q_s32(row), vacc[m][0]));
      vst1q_s32(row + 4, vaddq_s32(vld1q_s32(row + 4), vacc[m][1]));
    } else {
      std::int32_t tmp[kNR];
      vst1q_s32(tmp, vacc[m][0]);
      vst1q_s32(tmp + 4, vacc[m][1]);
      for (int n = 0; n < nr; ++n) row[n] += tmp[n];
    }
  }
}

void micro_int8(int kc, const std::int8_t* ap, const std::int8_t* bp,
                std::int32_t* acc, int ldacc, int mr, int nr) {
  switch (mr) {
    case 6: kernel_int8_rows<6>(kc, ap, bp, acc, ldacc, nr); return;
    case 5: kernel_int8_rows<5>(kc, ap, bp, acc, ldacc, nr); return;
    case 4: kernel_int8_rows<4>(kc, ap, bp, acc, ldacc, nr); return;
    case 3: kernel_int8_rows<3>(kc, ap, bp, acc, ldacc, nr); return;
    case 2: kernel_int8_rows<2>(kc, ap, bp, acc, ldacc, nr); return;
    case 1: kernel_int8_rows<1>(kc, ap, bp, acc, ldacc, nr); return;
    default:
      detail::micro_int8_generic<kMR, kNR, kKG8>(kc, ap, bp, acc, ldacc, mr,
                                                 nr);
  }
}

constexpr Backend kNeon = {
    "neon", /*id=*/3, kMR, kNR, /*mc=*/120, /*kc=*/256, /*nc=*/1024,
    supported,
    detail::pack_a_block<kMR>, detail::pack_b_block<kNR>,
    micro,
    kKG8,
    detail::pack_a_int8_block<kMR, kKG8>, detail::pack_b_int8_block<kNR, kKG8>,
    micro_int8,
};

}  // namespace

const Backend* backend_neon() { return &kNeon; }

}  // namespace mersit::nn::gemm

#endif  // aarch64
