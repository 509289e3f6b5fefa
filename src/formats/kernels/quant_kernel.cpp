#include "formats/kernels/quant_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/cpu.h"

#if defined(__x86_64__) || defined(_M_X64)
// GCC 12's AVX-512 intrinsics self-initialize their _mm512_undefined_*
// operands, which -Wmaybe-uninitialized misreports inside target("avx512f")
// functions (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace mersit::formats::kernels {

QuantKernel::QuantKernel(std::string name,
                         std::shared_ptr<const TableCodec> codec)
    : name_(std::move(name)), codec_(std::move(codec)) {
  const TableCodec& t = *codec_;
  zero_code_ = t.zero_code();

  const std::vector<TableCodec::Entry>& pos = t.positives();
  const std::size_t n = pos.size();
  mid_.resize(n + 1);
  cand_code_.resize(n + 1);
  cand_value_.resize(n + 1);
  cand_code_[0] = zero_code_;
  cand_value_[0] = t.decode(zero_code_);
  for (std::size_t i = 0; i < n; ++i) {
    cand_code_[i + 1] = pos[i].code;
    cand_value_[i + 1] = t.decode(pos[i].code);
    // Same expression the scalar reference evaluates per element, so an
    // exact midpoint compares identically here.
    if (i > 0) mid_[i] = 0.5 * (pos[i - 1].value + pos[i].value);
  }

  const double min_pos = pos.front().value;
  const std::uint8_t min_code = pos.front().code;
  under_tie_code_ = (min_code & 1u) == 0 ? min_code : zero_code_;
  zero_value_ = t.decode(zero_code_);
  grid_body_ = t.int8_grid().usable;
  // Sentinel boundaries: below the smallest value, the RNE underflow
  // threshold when small magnitudes round to zero, or unreachable (-1 <
  // every magnitude) when the format clamps up to its smallest value (posit
  // semantics); above the largest value, NaN (compares false), so the pick
  // arithmetic saturates at the max code for any x from max_finite to +inf.
  mid_[0] = t.underflows_to_zero() ? min_pos * 0.5 : -1.0;
  mid_[n] = std::numeric_limits<double>::quiet_NaN();

  // quantize_value's integer sign restore assumes that, for every code the
  // encode path can emit (the candidate slots: zero code + positive codes),
  // the negate table is an exact bitwise sign flip for nonzero values and
  // the identity for zero codes; verify rather than assume, since every
  // batch path rides on it.  (Unreachable codes — e.g. INT8's -128, whose
  // negation saturates — are allowed to break the symmetry.)
  for (const std::uint8_t c : cand_code_) {
    const double v = t.decode(c);
    const double nv = t.decode(t.negate(c));
    const bool ok =
        v == 0.0
            ? std::bit_cast<std::uint64_t>(nv) == std::bit_cast<std::uint64_t>(v)
            : std::bit_cast<std::uint64_t>(nv) ==
                  (std::bit_cast<std::uint64_t>(v) ^ (1ull << 63));
    if (!ok)
      throw std::logic_error("QuantKernel: negate table of " + name_ +
                             " is not an exact sign flip");
  }

  // Bucket LUT.  Positive finite doubles order like their bit patterns, so
  // bucket k covers the value interval [key_to_double(k), key_to_double(k+1))
  // and maps to the first positive value >= its start.  Start at shift 46
  // (64 buckets per octave) and refine until every bucket holds at most one
  // representable value, so at most the two boundaries mid_[lo] and
  // mid_[lo+1] can fall inside it — the precondition for encode_magnitude's
  // branch-free two-compare pick.
  for (shift_ = 46; shift_ >= 38; --shift_) {
    const auto key_of = [this](double v) {
      return std::bit_cast<std::uint64_t>(v) >> shift_;
    };
    const auto bucket_start = [this](std::uint64_t key) {
      return std::bit_cast<double>(key << shift_);
    };
    key_base_ = key_of(min_pos);
    const std::uint64_t key_max = key_of(pos.back().value);
    const std::size_t buckets =
        static_cast<std::size_t>(key_max - key_base_) + 1;
    key_top_ = buckets - 1;
    bucket_.assign(buckets, 0);
    std::size_t max_span = 0;
    for (std::size_t k = 0; k < buckets; ++k) {
      const double start = bucket_start(key_base_ + k);
      const double next = bucket_start(key_base_ + k + 1);  // +inf past top
      const auto below = [](const TableCodec::Entry& e, double v) {
        return e.value < v;
      };
      const auto first = std::lower_bound(pos.begin(), pos.end(), start, below);
      const auto last = std::lower_bound(first, pos.end(), next, below);
      max_span = std::max(max_span, static_cast<std::size_t>(last - first));
      bucket_[k] = static_cast<std::uint32_t>(first - pos.begin());
    }
    if (max_span <= 1) return;
  }
  throw std::logic_error("QuantKernel: bucket refinement failed for " + name_);
}

// The loop bodies.  A friend of QuantKernel (they read its tables) defined
// only here, so the target attributes sit on single definitions.
struct QuantKernelLoops {
  /// The reference loop; also the tail (and tie redo) of the vector loops.
  static void scalar(const QuantKernel& k, float* x, std::size_t n,
                     double scale) {
    const double inv = 1.0 / scale;
    for (std::size_t i = 0; i < n; ++i) {
      const double q = k.quantize_value(static_cast<double>(x[i]) * inv);
      x[i] = static_cast<float>(q * scale);
    }
  }

#if defined(__x86_64__) || defined(_M_X64)

  // Both table-body loops evaluate quantize_value lane by lane with the same
  // double arithmetic: the float→double widen and the products m = x·inv
  // and q·scale are exact-equal to the scalar ones, the key and pick are
  // integer, and the final narrowing (cvtpd_ps) rounds like the scalar
  // float cast.  NaN and ±0 lanes still compute in-bounds gather indices
  // (NaN keys clamp onto the top bucket, whose NaN sentinel midpoint keeps
  // the pick at most n) and are overwritten by the zero-value blend.

  __attribute__((target("avx512f"))) static void avx512(
      const QuantKernel& k, float* x, std::size_t n, double scale) {
    const __m512d vinv = _mm512_set1_pd(1.0 / scale);
    const __m512d vscale = _mm512_set1_pd(scale);
    const __m512d vzero_value = _mm512_set1_pd(k.zero_value_);
    const __m512i abs_mask = _mm512_set1_epi64(0x7fffffffffffffffLL);
    const __m512i sign_mask = _mm512_set1_epi64(
        static_cast<long long>(0x8000000000000000ULL));
    const __m512i one = _mm512_set1_epi64(1);
    const __m128i shift = _mm_cvtsi32_si128(k.shift_);
    const __m512i base =
        _mm512_set1_epi64(static_cast<long long>(k.key_base_));
    const __m512i top = _mm512_set1_epi64(static_cast<long long>(k.key_top_));
    const auto* bucket = k.bucket_.data();
    const double* mid = k.mid_.data();
    const double* cand = k.cand_value_.data();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m512d m = _mm512_mul_pd(_mm512_cvtps_pd(_mm256_loadu_ps(x + i)),
                                      vinv);
      const __m512i bits = _mm512_castpd_si512(m);
      const __m512i mag_bits = _mm512_and_epi64(bits, abs_mask);
      const __m512d mag = _mm512_castsi512_pd(mag_bits);
      const __mmask8 nonzero =
          _mm512_cmp_pd_mask(mag, _mm512_setzero_pd(), _CMP_GT_OQ);
      __m512i key = _mm512_srl_epi64(mag_bits, shift);
      key = _mm512_sub_epi64(_mm512_max_epu64(key, base), base);
      key = _mm512_min_epu64(key, top);
      const __m512i lo =
          _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(key, bucket, 4));
      const __m512d m0 = _mm512_i64gather_pd(lo, mid, 8);
      const __m512d m1 = _mm512_i64gather_pd(lo, mid + 1, 8);
      if ((_mm512_cmp_pd_mask(mag, m0, _CMP_EQ_OQ) |
           _mm512_cmp_pd_mask(mag, m1, _CMP_EQ_OQ)) != 0) [[unlikely]] {
        scalar(k, x + i, 8, scale);
        continue;
      }
      __m512i pick = _mm512_mask_add_epi64(
          lo, _mm512_cmp_pd_mask(mag, m0, _CMP_GE_OQ), lo, one);
      pick = _mm512_mask_add_epi64(
          pick, _mm512_cmp_pd_mask(mag, m1, _CMP_GE_OQ), pick, one);
      const __m512i qb = _mm512_castpd_si512(_mm512_i64gather_pd(pick, cand, 8));
      const __m512i signed_q =
          _mm512_mask_xor_epi64(qb, _mm512_test_epi64_mask(qb, abs_mask), qb,
                                _mm512_and_epi64(bits, sign_mask));
      const __m512d q = _mm512_mask_blend_pd(
          nonzero, vzero_value, _mm512_castsi512_pd(signed_q));
      _mm256_storeu_ps(x + i, _mm512_cvtpd_ps(_mm512_mul_pd(q, vscale)));
    }
    if (i < n) scalar(k, x + i, n - i, scale);
  }

  /// The AVX2 loop's broadcast constants.
  struct Avx2Consts {
    __m256d inv, scale, zero_value;
    __m256i abs_mask, sign_mask, base, top;
    __m128i shift;
  };

  /// One 4-lane half of the AVX2 loop; returns false (producing nothing)
  /// when a lane sits exactly on a midpoint.
  __attribute__((target("avx2"))) static bool avx2_half(
      const QuantKernel& k, const Avx2Consts& c, const float* x, __m128& out) {
    const __m256d m = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(x)), c.inv);
    const __m256i bits = _mm256_castpd_si256(m);
    const __m256i mag_bits = _mm256_and_si256(bits, c.abs_mask);
    const __m256d mag = _mm256_castsi256_pd(mag_bits);
    // Keys of non-negative doubles stay below 2^(63 - shift), so the signed
    // 64-bit compares order them correctly.
    __m256i key = _mm256_srl_epi64(mag_bits, c.shift);
    key = _mm256_and_si256(_mm256_sub_epi64(key, c.base),
                           _mm256_cmpgt_epi64(key, c.base));
    key = _mm256_blendv_epi8(key, c.top, _mm256_cmpgt_epi64(key, c.top));
    const __m256i lo = _mm256_cvtepu32_epi64(_mm256_i64gather_epi32(
        reinterpret_cast<const int*>(k.bucket_.data()), key, 4));
    const __m256d m0 = _mm256_i64gather_pd(k.mid_.data(), lo, 8);
    const __m256d m1 = _mm256_i64gather_pd(k.mid_.data() + 1, lo, 8);
    if (_mm256_movemask_pd(_mm256_or_pd(_mm256_cmp_pd(mag, m0, _CMP_EQ_OQ),
                                        _mm256_cmp_pd(mag, m1, _CMP_EQ_OQ))) !=
        0) [[unlikely]]
      return false;
    // A passed boundary compares to all ones (-1): subtracting it adds one.
    const __m256i pick = _mm256_sub_epi64(
        _mm256_sub_epi64(lo, _mm256_castpd_si256(
                                 _mm256_cmp_pd(mag, m0, _CMP_GE_OQ))),
        _mm256_castpd_si256(_mm256_cmp_pd(mag, m1, _CMP_GE_OQ)));
    const __m256i qb = _mm256_castpd_si256(
        _mm256_i64gather_pd(k.cand_value_.data(), pick, 8));
    const __m256i q_is_zero = _mm256_cmpeq_epi64(
        _mm256_and_si256(qb, c.abs_mask), _mm256_setzero_si256());
    const __m256i signed_q = _mm256_xor_si256(
        qb, _mm256_andnot_si256(q_is_zero, _mm256_and_si256(bits, c.sign_mask)));
    const __m256d q = _mm256_blendv_pd(
        c.zero_value, _mm256_castsi256_pd(signed_q),
        _mm256_cmp_pd(mag, _mm256_setzero_pd(), _CMP_GT_OQ));
    out = _mm256_cvtpd_ps(_mm256_mul_pd(q, c.scale));
    return true;
  }

  __attribute__((target("avx2"))) static void avx2(
      const QuantKernel& k, float* x, std::size_t n, double scale) {
    const Avx2Consts c{
        _mm256_set1_pd(1.0 / scale),
        _mm256_set1_pd(scale),
        _mm256_set1_pd(k.zero_value_),
        _mm256_set1_epi64x(0x7fffffffffffffffLL),
        _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL)),
        _mm256_set1_epi64x(static_cast<long long>(k.key_base_)),
        _mm256_set1_epi64x(static_cast<long long>(k.key_top_)),
        _mm_cvtsi32_si128(k.shift_),
    };
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m128 lo_half, hi_half;
      if (avx2_half(k, c, x + i, lo_half) &&
          avx2_half(k, c, x + i + 4, hi_half)) [[likely]] {
        _mm_storeu_ps(x + i, lo_half);
        _mm_storeu_ps(x + i + 4, hi_half);
      } else {
        scalar(k, x + i, 8, scale);
      }
    }
    if (i < n) scalar(k, x + i, n - i, scale);
  }

  // The uniform-grid body (see the header comment), exact against the
  // scalar loop lane by lane: (1/scale)/pitch is exact (power-of-two
  // pitch), so x·inv_lvl is the reference's x·(1/scale) divided by the
  // pitch, and clamp-then-RNE lands on the level of the nearest grid value,
  // ties to the even level.  max/min return their second operand when
  // either is NaN, so the clamp (bounds first) keeps NaN lanes NaN; the one
  // "!= 0" compare then sends NaN and ±0 levels (RNE of a value in
  // (-0.5, 0) is -0) to +0, the reference's zero value.  The output is
  // float((pitch·l)·scale), the reference's float(value·scale).

  __attribute__((target("avx512f"))) static void grid_avx512(
      const QuantKernel& k, float* x, std::size_t n, double scale) {
    const TableCodec::Int8Grid& g = k.codec_->int8_grid();
    const __m512d vinv = _mm512_set1_pd((1.0 / scale) / g.pitch);
    const __m512d vpitch = _mm512_set1_pd(g.pitch);
    const __m512d vscale = _mm512_set1_pd(scale);
    const __m512d vlo = _mm512_set1_pd(-g.qmax);
    const __m512d vhi = _mm512_set1_pd(g.qmax);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m512d v = _mm512_mul_pd(_mm512_cvtps_pd(_mm256_loadu_ps(x + i)), vinv);
      v = _mm512_min_pd(vhi, _mm512_max_pd(vlo, v));
      const __m512d l = _mm512_roundscale_pd(
          v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      const __mmask8 nonzero =
          _mm512_cmp_pd_mask(l, _mm512_setzero_pd(), _CMP_NEQ_OQ);
      const __m512d q = _mm512_maskz_mul_pd(nonzero, l, vpitch);
      _mm256_storeu_ps(x + i, _mm512_cvtpd_ps(_mm512_mul_pd(q, vscale)));
    }
    if (i < n) scalar(k, x + i, n - i, scale);
  }

  __attribute__((target("avx2"))) static void grid_avx2(
      const QuantKernel& k, float* x, std::size_t n, double scale) {
    const TableCodec::Int8Grid& g = k.codec_->int8_grid();
    const __m256d vinv = _mm256_set1_pd((1.0 / scale) / g.pitch);
    const __m256d vpitch = _mm256_set1_pd(g.pitch);
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vlo = _mm256_set1_pd(-g.qmax);
    const __m256d vhi = _mm256_set1_pd(g.qmax);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m256d v = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + i)), vinv);
      v = _mm256_min_pd(vhi, _mm256_max_pd(vlo, v));
      const __m256d l =
          _mm256_round_pd(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      const __m256d nonzero =
          _mm256_cmp_pd(l, _mm256_setzero_pd(), _CMP_NEQ_OQ);
      const __m256d q = _mm256_mul_pd(_mm256_and_pd(nonzero, l), vpitch);
      _mm_storeu_ps(x + i, _mm256_cvtpd_ps(_mm256_mul_pd(q, vscale)));
    }
    if (i < n) scalar(k, x + i, n - i, scale);
  }

#endif  // x86-64
};

void QuantKernel::fake_quantize(std::span<float> data, double scale) const {
  switch (core::active_tier()) {
#if defined(__x86_64__) || defined(_M_X64)
    case core::Tier::kAvx512:
      (grid_body_ ? QuantKernelLoops::grid_avx512 : QuantKernelLoops::avx512)(
          *this, data.data(), data.size(), scale);
      return;
    case core::Tier::kAvx2:
      (grid_body_ ? QuantKernelLoops::grid_avx2 : QuantKernelLoops::avx2)(
          *this, data.data(), data.size(), scale);
      return;
#endif
    default:
      QuantKernelLoops::scalar(*this, data.data(), data.size(), scale);
  }
}

double QuantKernel::quantization_rmse(std::span<const float> data,
                                      double scale) const {
  if (data.empty()) return 0.0;
  const double inv = 1.0 / scale;
  double se = 0.0;
  for (const float v : data) {
    const double q = quantize_value(static_cast<double>(v) * inv);
    const double d = q * scale - static_cast<double>(v);
    se += d * d;
  }
  return std::sqrt(se / static_cast<double>(data.size()));
}

}  // namespace mersit::formats::kernels
