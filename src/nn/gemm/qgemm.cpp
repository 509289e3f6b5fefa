#include "nn/gemm/qgemm.h"

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "nn/gemm/backend.h"

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

}  // namespace

QgemmMode qgemm_mode() { return g_qgemm_mode.load(std::memory_order_relaxed); }

QgemmMode set_qgemm_mode(QgemmMode mode) {
  return g_qgemm_mode.exchange(mode, std::memory_order_relaxed);
}

void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out) {
  active_backend().quantize_levels(x, n, inv, lo, hi, out);
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
