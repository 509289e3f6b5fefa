#include "nn/gemm/qgemm.h"

#include <atomic>
#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
// GCC 12's AVX-512 intrinsics self-initialize their _mm512_undefined_*
// operands, which -Wmaybe-uninitialized misreports inside target("avx512f")
// functions (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "core/cpu.h"

namespace mersit::nn::gemm {

namespace {

std::atomic<QgemmMode> g_qgemm_mode{QgemmMode::kCode};

// 512-bit two's-complement fixed-point accumulator ("quire").  Bit i holds
// weight 2^(base + i); products are exact dyadic integers shifted into
// place, so the running sum never rounds.  kulisch_fits budgets the
// width: max product magnitude < 2^(max_shift + kProductBits), and up to
// 2^32 addends may accumulate, so max_shift + kProductBits + 32 + 1 sign
// bit must fit in 512.
struct Quire {
  static constexpr int kLimbs = 8;
  std::uint64_t limb[kLimbs] = {};

  /// Add p · 2^(base + shift); p != 0, 0 <= shift <= 448.
  void add(std::int64_t p, int shift) {
    const unsigned li = static_cast<unsigned>(shift) >> 6;
    const unsigned s = static_cast<unsigned>(shift) & 63;
    const unsigned __int128 wide = static_cast<unsigned __int128>(
        static_cast<__int128>(p) << s);
    const std::uint64_t lo = static_cast<std::uint64_t>(wide);
    const std::uint64_t hi = static_cast<std::uint64_t>(wide >> 64);
    const std::uint64_t ext = p < 0 ? ~0ull : 0ull;
    unsigned __int128 carry = 0;
    for (unsigned i = li; i < kLimbs; ++i) {
      carry += limb[i];
      carry += i == li ? lo : (i == li + 1 ? hi : ext);
      limb[i] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
  }

  /// Exactly rounded (round-to-nearest-even) conversion of the quire value
  /// to double, i.e. value · 2^base where `value` is the signed 512-bit
  /// integer held in `limb`.
  [[nodiscard]] double to_double(int base) const {
    std::uint64_t mag[kLimbs];
    const bool neg = (limb[kLimbs - 1] >> 63) != 0;
    if (neg) {
      unsigned __int128 carry = 1;
      for (int i = 0; i < kLimbs; ++i) {
        carry += static_cast<std::uint64_t>(~limb[i]);
        mag[i] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
    } else {
      for (int i = 0; i < kLimbs; ++i) mag[i] = limb[i];
    }
    int top = -1;
    for (int i = kLimbs - 1; i >= 0; --i) {
      if (mag[i] != 0) {
        int bit = 63;
        while ((mag[i] >> bit) == 0) --bit;
        top = i * 64 + bit;
        break;
      }
    }
    if (top < 0) return 0.0;
    if (top <= 52) {
      // Fits a double significand exactly (top < 64, so limb 0 has it all).
      const double v = static_cast<double>(mag[0]);
      return std::ldexp(neg ? -v : v, base);
    }
    // 53-bit significand window [top .. top-52], then guard + sticky RNE.
    int shift = top - 52;
    const int wl = shift >> 6;
    const int ws = shift & 63;
    std::uint64_t mant = mag[wl] >> ws;
    if (ws != 0 && wl + 1 < kLimbs) mant |= mag[wl + 1] << (64 - ws);
    mant &= (1ull << 53) - 1;
    const int g = shift - 1;  // guard bit position; shift >= 1 here
    const bool guard = ((mag[g >> 6] >> (g & 63)) & 1) != 0;
    bool sticky = false;
    for (int i = 0; i < kLimbs && !sticky; ++i) {
      const int lbase = i * 64;
      if (lbase >= g) break;
      std::uint64_t m = mag[i];
      const int nbits = g - lbase < 64 ? g - lbase : 64;
      if (nbits < 64) m &= (~0ull) >> (64 - nbits);
      sticky = m != 0;
    }
    if (guard && (sticky || (mant & 1) != 0)) {
      if (++mant == (1ull << 53)) {
        mant >>= 1;
        ++shift;
      }
    }
    const double v = static_cast<double>(mant);
    return std::ldexp(neg ? -v : v, base + shift);
  }
};

// Scalar reference for quantize_levels; also the tail loop of the SIMD
// paths.  Kept exactly in sync with the vector paths: the whole int8 layer
// contract (ULP-0 across backends, thread invariance) leans on every lane
// producing the same byte regardless of which path quantized it.
void quantize_levels_scalar(const float* x, std::size_t n, double inv,
                            int lo, int hi, std::int8_t* out) {
  const double dlo = static_cast<double>(lo);
  const double dhi = static_cast<double>(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]) * inv;
    int q;
    if (v >= dhi) {
      q = hi;
    } else if (v <= dlo) {
      q = lo;
    } else if (v != v) {  // NaN input: match encode-of-NaN gating upstream
      q = 0;
    } else {
      q = static_cast<int>(std::lrint(v));  // RNE under default fenv
    }
    out[i] = static_cast<std::int8_t>(q);
  }
}

#if defined(__x86_64__) || defined(_M_X64)

// Vector variants of the same computation, bit-exact against the scalar
// loop.  All arithmetic stays in double (cvtps_pd, mul_pd) so the product
// x·inv rounds identically; the clamp runs in the double domain against
// the exact-integer bounds [lo, hi], so cvtpd_epi32 (round-to-nearest-even
// under the default MXCSR, same as lrint) can never overflow int32.  NaN
// lanes fall out of max/min as the bound operand (x86 min/max return the
// second operand when either is NaN), so a separate unordered-compare mask
// zeroes them afterwards — matching the scalar `v != v → 0` branch.  ±Inf
// survives the multiply and clamps to hi/lo like the scalar >=/<= tests.

__attribute__((target("avx512f"))) void quantize_levels_avx512(
    const float* x, std::size_t n, double inv, int lo, int hi,
    std::int8_t* out) {
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
  if (i < n) quantize_levels_scalar(x + i, n - i, inv, lo, hi, out + i);
}

__attribute__((target("avx2"))) void quantize_levels_avx2(
    const float* x, std::size_t n, double inv, int lo, int hi,
    std::int8_t* out) {
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
  if (i < n) quantize_levels_scalar(x + i, n - i, inv, lo, hi, out + i);
}

#endif  // x86-64

using QuantizeFn = void (*)(const float*, std::size_t, double, int, int,
                            std::int8_t*);

QuantizeFn pick_quantize_levels() {
#if defined(__x86_64__) || defined(_M_X64)
  const auto& f = core::cpu_features();
  if (f.avx512f) return quantize_levels_avx512;
  if (f.avx2) return quantize_levels_avx2;
#endif
  return quantize_levels_scalar;
}

}  // namespace

QgemmMode qgemm_mode() { return g_qgemm_mode.load(std::memory_order_relaxed); }

QgemmMode set_qgemm_mode(QgemmMode mode) {
  return g_qgemm_mode.exchange(mode, std::memory_order_relaxed);
}

void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out) {
  static const QuantizeFn fn = pick_quantize_levels();
  fn(x, n, inv, lo, hi, out);
}

bool kulisch_fits(const formats::TableCodec& table) {
  // Products span shifts [0, 2·(emax−emin)] above base = 2·emin, each at
  // most kProductBits = 60 bits wide (|mant| < 2^30), and up to 2^32 of
  // them may sum — budget against the 512-bit quire with a sign bit spare.
  return table.dyadic_exact() &&
         2 * (table.dyadic_max_exp() - table.dyadic_min_exp()) + 60 + 32 + 1 <=
             Quire::kLimbs * 64 - 1;
}

void qgemm_kulisch(int M, int N, int K, const QOperand& a, const QOperand& b,
                   const formats::TableCodec& table, Init init,
                   const float* bias, float* c, int ldc, Epilogue epi) {
  if (M < 0 || N < 0 || K < 0)
    throw std::invalid_argument("qgemm_kulisch: negative dim");
  if (!kulisch_fits(table))
    throw std::invalid_argument("qgemm_kulisch: format does not fit the quire");
  if (init == Init::kAccumulate)
    throw std::invalid_argument(
        "qgemm_kulisch: cannot accumulate into a rounded partial");
  if (init == Init::kBiasCol)
    throw std::invalid_argument("qgemm_kulisch: bias is per row (kBiasRow)");
  if (init == Init::kBiasRow && bias == nullptr)
    throw std::invalid_argument("qgemm_kulisch: bias init without bias pointer");
  const std::int64_t* mant = table.dyadic_mant();
  const int* exp = table.dyadic_exp();
  // Quire LSB exponent: 2·min exponent, so every product shift is >= 0.
  const int base = 2 * table.dyadic_min_exp();
  for (int m = 0; m < M; ++m) {
    const double sa = a.channel_scales != nullptr ? a.channel_scales[m]
                                                  : a.uniform_scale;
    const double init_v =
        init == Init::kBiasRow ? static_cast<double>(bias[m]) : 0.0;
    const std::uint8_t* arow = a.codes + static_cast<std::size_t>(m) * a.ld;
    float* row = c + static_cast<std::size_t>(m) * ldc;
    for (int n = 0; n < N; ++n) {
      Quire q;
      for (int k = 0; k < K; ++k) {
        const std::uint8_t ca = arow[k];
        const std::uint8_t cb = b.codes[static_cast<std::size_t>(k) * b.ld + n];
        const std::int64_t p = mant[ca] * mant[cb];
        if (p == 0) continue;
        q.add(p, exp[ca] + exp[cb] - base);
      }
      const double sb = b.channel_scales != nullptr ? b.channel_scales[n]
                                                    : b.uniform_scale;
      const float v =
          static_cast<float>(init_v + q.to_double(base) * (sa * sb));
      row[n] = epilogue_eval(epi, v);
    }
  }
}

}  // namespace mersit::nn::gemm
