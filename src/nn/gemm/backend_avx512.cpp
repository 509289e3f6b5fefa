// AVX-512 backend: 8x16 register tile, one 16-wide zmm accumulator per row,
// with masked edge tiles — short-n edges load/store C through a
// __mmask16 instead of falling back to scalar code (the packed B panels
// are zero-padded to the full 16 lanes, so the masked-off lanes accumulate
// exact zeros and never touch C).
//
// As in the AVX2 backend, the k-step is a separately rounded
// _mm512_mul_ps + _mm512_add_ps, never _mm512_fmadd_ps, and the TU compiles
// with -ffp-contract=off: -mavx512f implies FMA-capable codegen, and a
// contracted fused multiply-add in the generic-template fallbacks or the
// write-back affine would break the ULP-0 contract against the scalar
// reference.
//
// B-panel rows are 64-byte strided (16 floats) with 64-byte-aligned panel
// bases, so B loads are aligned; C uses masked unaligned accesses (AVX-512
// masked loads suppress faults on masked-off lanes, so a short edge row at
// the end of a mapping is safe).
#if defined(__x86_64__) || defined(_M_X64)

// GCC 12's AVX-512 intrinsics self-initialize their _mm512_undefined_*
// operands, which -Wmaybe-uninitialized misreports in the quantize_levels
// conversions below (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "nn/gemm/backend_impl.h"
#include "core/cpu.h"

namespace mersit::nn::gemm {

namespace {

constexpr int kMR = 8;
constexpr int kNR = 16;

/// R x nr tile with R a compile-time row count; `mask` selects the live
/// n-lanes (0xFFFF on full tiles).  Masked-off accumulator lanes start at
/// zero and only ever add a*0 from the zero-padded panel, so they stay
/// exactly zero and are never stored.
template <int R>
void kernel_rows(int kc, const float* ap, const float* bp, float* c, int ldc,
                 int nr, __mmask16 mask, Epilogue epi, const float* asc,
                 const float* ash) {
  __m512 acc[R];
  for (int m = 0; m < R; ++m)
    acc[m] =
        _mm512_maskz_loadu_ps(mask, c + static_cast<std::size_t>(m) * ldc);
  for (int k = 0; k < kc; ++k) {
    const __m512 b = _mm512_load_ps(bp + static_cast<std::size_t>(k) * kNR);
    const float* av = ap + static_cast<std::size_t>(k) * kMR;
    for (int m = 0; m < R; ++m) {
      const __m512 a = _mm512_set1_ps(av[m]);
      acc[m] = _mm512_add_ps(acc[m], _mm512_mul_ps(a, b));
    }
  }
  if (epi == Epilogue::kNone && asc == nullptr) {
    for (int m = 0; m < R; ++m)
      _mm512_mask_storeu_ps(c + static_cast<std::size_t>(m) * ldc, mask,
                            acc[m]);
  } else {
    alignas(64) float tmp[kNR];
    for (int m = 0; m < R; ++m) {
      _mm512_store_ps(tmp, acc[m]);
      if (asc != nullptr) {
        const float s = asc[m], t = ash[m];
        for (int n = 0; n < nr; ++n) tmp[n] = s * tmp[n] + t;
      }
      detail::epilogue(epi, tmp, c + static_cast<std::size_t>(m) * ldc, nr);
    }
  }
}

void micro(int kc, const float* ap, const float* bp, float* c, int ldc,
           int mr, int nr, Epilogue epi, const float* asc, const float* ash) {
  const __mmask16 mask = static_cast<__mmask16>((1u << nr) - 1u);
  switch (mr) {
    case 8: kernel_rows<8>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 7: kernel_rows<7>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 6: kernel_rows<6>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 5: kernel_rows<5>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 4: kernel_rows<4>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 3: kernel_rows<3>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 2: kernel_rows<2>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    case 1: kernel_rows<1>(kc, ap, bp, c, ldc, nr, mask, epi, asc, ash); return;
    default:
      detail::micro_generic<kMR, kNR>(kc, ap, bp, c, ldc, mr, nr, epi, asc,
                                      ash);
  }
}

// Int8 path, KG = 4: a B group is 64 bytes (16 columns x 4 k-levels,
// [n][j]) — one zmm whose epi32 lane n holds column n's 4 levels, exactly
// vpdpbusd's operand shape.  vpdpbusd takes u8 x s8, so when the host has
// AVX-512 VNNI the A pack biases levels by 128 (u8 = q + 128) and the
// kernel subtracts the bias once per output: a single `comp` register
// accumulates 128·Σ_k q_b per column (vpdpbusd with an all-0x80 A operand),
// shared by every row of the tile.  Intermediate lanes may wrap mod 2^32;
// the final acc − comp is exact because the true s8·s8 sum fits int32 under
// the driver's K bound.  8 row accumulators + comp + B + A broadcast = 11
// zmm.  This TU compiles with -mavx512f only, so the vpdpbusd kernel gets
// the instruction set via a function-level target attribute and is only
// dispatched to when CPUID reports VNNI; without VNNI both the pack and the
// kernel fall back to the generic plain-level routines (correct everywhere,
// and the pack/kernel pair always agrees because both test the same
// process-constant CPUID bit).
constexpr int kKG8 = 4;

void pack_a_int8(const std::uint8_t* a, int lda, const std::int8_t* qlut,
                 int m0, int mc, int k0, int kc, std::int8_t* dst) {
  if (core::cpu_features().avx512vnni)
    detail::pack_a_int8_block<kMR, kKG8, 0x80>(a, lda, qlut, m0, mc, k0, kc,
                                               dst);
  else
    detail::pack_a_int8_block<kMR, kKG8>(a, lda, qlut, m0, mc, k0, kc, dst);
}

template <int R>
__attribute__((target("avx512vnni"))) void kernel_int8_vnni(
    int kc, const std::int8_t* ap, const std::int8_t* bp, std::int32_t* acc,
    int ldacc, int nr) {
  const int groups = (kc + kKG8 - 1) / kKG8;
  __m512i vacc[R];
  for (int m = 0; m < R; ++m) vacc[m] = _mm512_setzero_si512();
  __m512i comp = _mm512_setzero_si512();
  const __m512i bias = _mm512_set1_epi32(static_cast<int>(0x80808080u));
  for (int g = 0; g < groups; ++g) {
    const __m512i bvec = _mm512_load_si512(
        bp + static_cast<std::size_t>(g) * kNR * kKG8);
    comp = _mm512_dpbusd_epi32(comp, bias, bvec);
    const std::int8_t* ag = ap + static_cast<std::size_t>(g) * kMR * kKG8;
    for (int m = 0; m < R; ++m) {
      std::int32_t w;
      __builtin_memcpy(&w, ag + m * kKG8, sizeof w);
      vacc[m] =
          _mm512_dpbusd_epi32(vacc[m], _mm512_set1_epi32(w), bvec);
    }
  }
  const __mmask16 mask = static_cast<__mmask16>((1u << nr) - 1u);
  for (int m = 0; m < R; ++m) {
    std::int32_t* row = acc + static_cast<std::size_t>(m) * ldacc;
    const __m512i cur = _mm512_maskz_loadu_epi32(mask, row);
    _mm512_mask_storeu_epi32(
        row, mask, _mm512_add_epi32(cur, _mm512_sub_epi32(vacc[m], comp)));
  }
}

void micro_int8(int kc, const std::int8_t* ap, const std::int8_t* bp,
                std::int32_t* acc, int ldacc, int mr, int nr) {
  if (core::cpu_features().avx512vnni) {
    switch (mr) {
      case 8: kernel_int8_vnni<8>(kc, ap, bp, acc, ldacc, nr); return;
      case 7: kernel_int8_vnni<7>(kc, ap, bp, acc, ldacc, nr); return;
      case 6: kernel_int8_vnni<6>(kc, ap, bp, acc, ldacc, nr); return;
      case 5: kernel_int8_vnni<5>(kc, ap, bp, acc, ldacc, nr); return;
      case 4: kernel_int8_vnni<4>(kc, ap, bp, acc, ldacc, nr); return;
      case 3: kernel_int8_vnni<3>(kc, ap, bp, acc, ldacc, nr); return;
      case 2: kernel_int8_vnni<2>(kc, ap, bp, acc, ldacc, nr); return;
      case 1: kernel_int8_vnni<1>(kc, ap, bp, acc, ldacc, nr); return;
      default: return;  // mr <= 0: nothing to write (mr > kMR cannot happen,
                        // and the plain-level generic below must not see the
                        // biased VNNI panels)
    }
  }
  detail::micro_int8_generic<kMR, kNR, kKG8>(kc, ap, bp, acc, ldacc, mr, nr);
}

// Depthwise: 16 channels per lane block, one zmm.  On the mobile nets' 3x3
// depthwise shapes (24-60 channels, 6x6 and 12x12 planes) a 16-lane block
// ran about 1.5x faster than an 8-lane one despite the wasted tail lanes.
constexpr int kDwLanes = 16;

// quantize_levels: the AVX2 body's computation (see backend_avx2.cpp for
// why it is bit-exact against the scalar body) on 8 lanes of one zmm.
void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out) {
  const __m512d vinv = _mm512_set1_pd(inv);
  const __m512d vlo = _mm512_set1_pd(static_cast<double>(lo));
  const __m512d vhi = _mm512_set1_pd(static_cast<double>(hi));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xf = _mm256_loadu_ps(x + i);
    __m512d v = _mm512_mul_pd(_mm512_cvtps_pd(xf), vinv);
    v = _mm512_min_pd(_mm512_max_pd(v, vlo), vhi);
    __m256i q = _mm512_cvtpd_epi32(v);  // RNE, in [lo, hi]
    const __m256 nan = _mm256_cmp_ps(xf, xf, _CMP_UNORD_Q);
    q = _mm256_andnot_si256(_mm256_castps_si256(nan), q);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    const __m128i p8 = _mm_packs_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), p8);
  }
  if (i < n)
    backend_scalar()->quantize_levels(x + i, n - i, inv, lo, hi, out + i);
}

constexpr Backend kAvx512 = {
    core::Tier::kAvx512, kMR, kNR, /*mc=*/120, /*kc=*/256, /*nc=*/1024,
    detail::pack_a_block<kMR>, detail::pack_b_block<kNR>,
    micro,
    kKG8,
    pack_a_int8, detail::pack_b_int8_block<kNR, kKG8>,
    micro_int8,
    detail::dequant_int8,
    detail::epilogue,
    detail::depthwise_block<kDwLanes>,
    quantize_levels,
};

}  // namespace

const Backend* backend_avx512() { return &kAvx512; }

}  // namespace mersit::nn::gemm

#endif  // x86-64
