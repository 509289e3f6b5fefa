// AVX2 backend: 6x16 register tile, two 8-wide ymm accumulator columns per
// row (12 accumulators + 2 B loads + 1 A broadcast = 15 of 16 ymm).
//
// Bit-identity with the scalar reference is load-bearing, so the k-step is
// a separately rounded _mm256_mul_ps followed by _mm256_add_ps — *not*
// _mm256_fmadd_ps.  A fused multiply-add skips the product rounding and
// diverges from the scalar backend (and from the naive layer loops the
// whole repo is gated against) in the last bit.  For the same reason this
// TU compiles with -mavx2 only (no -mfma) and -ffp-contract=off, so the
// compiler cannot fuse the generic-template fallbacks or the write-back
// affine behind our back.
//
// B-panel rows are 64-byte strided (16 floats) and panel bases are 64-byte
// aligned (aligned PackedMatrix/ScratchArena storage + cache-line-rounded
// block offsets), so the B loads are aligned; C rows have caller-controlled
// stride and use unaligned loads/stores.  Edge tiles stay on intrinsics:
// short m dispatches to a narrower unrolled kernel, and short n drops to a
// single ymm column when nr <= 8 (narrow-N GEMMs — late conv stages on
// small feature maps — would otherwise burn 16-wide work on zero padding)
// with fault-suppressing maskload/maskstore covering the partial C row.
// Identical values on every path: vector lanes are independent, so the
// padded lanes never touch a real C entry's rounding sequence.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstdint>

#include "nn/gemm/backend_impl.h"

namespace mersit::nn::gemm {

namespace {

constexpr int kMR = 6;
constexpr int kNR = 16;

/// R x (8*C) tile with compile-time row count R and ymm column count C
/// (full unroll keeps the accumulators in registers across the k-loop).
/// nr <= 8*C; when nr is partial, fault-suppressing maskload/maskstore
/// cover the C row, and the padded B lanes (zero-filled by the pack) keep
/// their accumulators at values that are never written back.
template <int R, int C>
void kernel_rows(int kc, const float* ap, const float* bp, float* c, int ldc,
                 int nr, Epilogue epi, const float* asc, const float* ash) {
  const bool full = nr == 8 * C;
  __m256i mask[C];
  if (!full) {
    alignas(32) std::int32_t lanes[kNR];
    for (int n = 0; n < 8 * C; ++n) lanes[n] = n < nr ? -1 : 0;
    for (int j = 0; j < C; ++j)
      mask[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes) + j);
  }
  __m256 acc[R][C];
  for (int m = 0; m < R; ++m) {
    const float* row = c + static_cast<std::size_t>(m) * ldc;
    for (int j = 0; j < C; ++j)
      acc[m][j] = full ? _mm256_loadu_ps(row + 8 * j)
                       : _mm256_maskload_ps(row + 8 * j, mask[j]);
  }
  for (int k = 0; k < kc; ++k) {
    const float* bv = bp + static_cast<std::size_t>(k) * kNR;
    __m256 b[C];
    for (int j = 0; j < C; ++j) b[j] = _mm256_load_ps(bv + 8 * j);
    const float* av = ap + static_cast<std::size_t>(k) * kMR;
    for (int m = 0; m < R; ++m) {
      const __m256 a = _mm256_broadcast_ss(av + m);
      for (int j = 0; j < C; ++j)
        acc[m][j] = _mm256_add_ps(acc[m][j], _mm256_mul_ps(a, b[j]));
    }
  }
  if (epi == Epilogue::kNone && asc == nullptr) {
    for (int m = 0; m < R; ++m) {
      float* row = c + static_cast<std::size_t>(m) * ldc;
      for (int j = 0; j < C; ++j) {
        if (full)
          _mm256_storeu_ps(row + 8 * j, acc[m][j]);
        else
          _mm256_maskstore_ps(row + 8 * j, mask[j], acc[m][j]);
      }
    }
  } else {
    alignas(32) float tmp[kNR];
    for (int m = 0; m < R; ++m) {
      for (int j = 0; j < C; ++j) _mm256_store_ps(tmp + 8 * j, acc[m][j]);
      if (asc != nullptr) {
        const float s = asc[m], t = ash[m];
        for (int n = 0; n < nr; ++n) tmp[n] = s * tmp[n] + t;
      }
      detail::epilogue(epi, tmp, c + static_cast<std::size_t>(m) * ldc, nr);
    }
  }
}

/// One or two ymm columns depending on the tile's real width.
template <int R>
void kernel_cols(int kc, const float* ap, const float* bp, float* c, int ldc,
                 int nr, Epilogue epi, const float* asc, const float* ash) {
  if (nr > 8)
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

// Int8 path, KG = 2: B groups are 32 bytes (16 columns x 2 k-levels,
// [n][j] interleaved) — exactly the epi32-lane pairing _mm256_madd_epi16
// wants.  Levels are sign-extended to s16 first, then madd forms
// a0·b0 + a1·b1 per lane in s32; |level| <= 128 keeps every intermediate
// far from madd's lone saturation case (two -32768·-32768 products), so the
// accumulation is exact.  The ISSUE sketch says `maddubs`, but
// _mm256_maddubs_epi16 saturates its s16 intermediate (2·255·127 > 32767)
// and would break the ULP-0 contract — the widening madd is the exact
// variant of the same idea.  12 accumulators + 2 B + 1 A broadcast = 15 ymm.
constexpr int kKG8 = 2;

template <int R>
void kernel_int8_rows(int kc, const std::int8_t* ap, const std::int8_t* bp,
                      std::int32_t* acc, int ldacc, int nr) {
  const int groups = (kc + kKG8 - 1) / kKG8;
  __m256i vacc[R][2];
  for (int m = 0; m < R; ++m) {
    vacc[m][0] = _mm256_setzero_si256();
    vacc[m][1] = _mm256_setzero_si256();
  }
  for (int g = 0; g < groups; ++g) {
    const std::int8_t* bg = bp + static_cast<std::size_t>(g) * kNR * kKG8;
    const __m256i braw =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(bg));
    const __m256i b0 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
    const __m256i b1 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
    const std::int8_t* ag = ap + static_cast<std::size_t>(g) * kMR * kKG8;
    for (int m = 0; m < R; ++m) {
      const std::uint32_t w =
          static_cast<std::uint16_t>(static_cast<std::int16_t>(ag[m * 2])) |
          (static_cast<std::uint32_t>(static_cast<std::uint16_t>(
               static_cast<std::int16_t>(ag[m * 2 + 1])))
           << 16);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(w));
      vacc[m][0] = _mm256_add_epi32(vacc[m][0], _mm256_madd_epi16(av, b0));
      vacc[m][1] = _mm256_add_epi32(vacc[m][1], _mm256_madd_epi16(av, b1));
    }
  }
  for (int m = 0; m < R; ++m) {
    std::int32_t* row = acc + static_cast<std::size_t>(m) * ldacc;
    if (nr == kNR) {
      __m256i* p = reinterpret_cast<__m256i*>(row);
      _mm256_storeu_si256(
          p, _mm256_add_epi32(_mm256_loadu_si256(p), vacc[m][0]));
      _mm256_storeu_si256(
          p + 1, _mm256_add_epi32(_mm256_loadu_si256(p + 1), vacc[m][1]));
    } else {
      alignas(32) std::int32_t tmp[kNR];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), vacc[m][0]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp) + 1, vacc[m][1]);
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

// Depthwise: 8 channels per lane block, one ymm.
constexpr int kDwLanes = 8;

// quantize_levels, bit-exact against the scalar body (backend_scalar.cpp).
// All arithmetic stays in double (cvtps_pd, mul_pd) so the product x·inv
// rounds identically; the clamp runs in the double domain against the
// exact-integer bounds [lo, hi], so cvtpd_epi32 (round-to-nearest-even
// under the default MXCSR, same as lrint) can never overflow int32.  NaN
// lanes fall out of max/min as the bound operand (x86 min/max return the
// second operand when either is NaN), so a separate unordered-compare mask
// zeroes them afterwards — matching the scalar `v != v → 0` branch.  ±Inf
// survives the multiply and clamps to hi/lo like the scalar >=/<= tests.
// The AVX-512 body (backend_avx512.cpp) is the same computation 8 wide.
void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out) {
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d vlo = _mm256_set1_pd(static_cast<double>(lo));
  const __m256d vhi = _mm256_set1_pd(static_cast<double>(hi));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128 xf0 = _mm_loadu_ps(x + i);
    const __m128 xf1 = _mm_loadu_ps(x + i + 4);
    __m256d v0 = _mm256_mul_pd(_mm256_cvtps_pd(xf0), vinv);
    __m256d v1 = _mm256_mul_pd(_mm256_cvtps_pd(xf1), vinv);
    v0 = _mm256_min_pd(_mm256_max_pd(v0, vlo), vhi);
    v1 = _mm256_min_pd(_mm256_max_pd(v1, vlo), vhi);
    const __m128i q0 = _mm256_cvtpd_epi32(v0);  // RNE, in [lo, hi]
    const __m128i q1 = _mm256_cvtpd_epi32(v1);
    const __m128i nan0 =
        _mm_castps_si128(_mm_cmpunord_ps(xf0, xf0));
    const __m128i nan1 =
        _mm_castps_si128(_mm_cmpunord_ps(xf1, xf1));
    __m128i p16 = _mm_packs_epi32(_mm_andnot_si128(nan0, q0),
                                  _mm_andnot_si128(nan1, q1));
    const __m128i p8 = _mm_packs_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), p8);
  }
  if (i < n)
    backend_scalar()->quantize_levels(x + i, n - i, inv, lo, hi, out + i);
}

constexpr Backend kAvx2 = {
    core::Tier::kAvx2, kMR, kNR, /*mc=*/120, /*kc=*/256, /*nc=*/1024,
    detail::pack_a_block<kMR>, detail::pack_b_block<kNR>,
    micro,
    kKG8,
    detail::pack_a_int8_block<kMR, kKG8>, detail::pack_b_int8_block<kNR, kKG8>,
    micro_int8,
    detail::dequant_int8,
    detail::epilogue,
    detail::depthwise_block<kDwLanes>,
    quantize_levels,
};

}  // namespace

const Backend* backend_avx2() { return &kAvx2; }

}  // namespace mersit::nn::gemm

#endif  // x86-64
