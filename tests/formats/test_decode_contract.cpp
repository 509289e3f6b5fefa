// The Format decode contract (format.h): every one of the 256 code words of
// every registered format decodes without UB to a value consistent with its
// classification, round-trips when finite, and maps to a defined sentinel
// when reserved / NaR / Inf / NaN.  The fault campaigns feed arbitrary
// corrupted bytes through these paths, so totality is load-bearing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/registry.h"
#include "formats/corruption.h"
#include "formats/format.h"

namespace mersit::formats {
namespace {

class DecodeContract : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodeContract, AllCodesClassifyConsistently) {
  const auto fmt = core::make_format(GetParam());
  int finite = 0, zero = 0, inf = 0, nan = 0;
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    const double v = fmt->decode_value(code);
    switch (fmt->classify(code)) {
      case ValueClass::kZero:
        EXPECT_EQ(v, 0.0) << "code " << c;
        ++zero;
        break;
      case ValueClass::kFinite:
        EXPECT_TRUE(std::isfinite(v) && v != 0.0) << "code " << c;
        ++finite;
        break;
      case ValueClass::kInf:
        EXPECT_TRUE(std::isinf(v)) << "code " << c;
        ++inf;
        break;
      case ValueClass::kNaN:
        EXPECT_TRUE(std::isnan(v)) << "code " << c;
        ++nan;
        break;
    }
  }
  EXPECT_EQ(finite + zero + inf + nan, 256);
  EXPECT_GE(zero, 1) << "every format represents zero";
  // FP(8,2) is the sparsest registered format: a 64-code NaN/Inf band
  // (exponent all-ones across its 5 mantissa bits) leaves 190 finite codes.
  EXPECT_GE(finite, 190) << "an 8-bit format should be mostly finite values";
}

TEST_P(DecodeContract, FiniteCodesRoundTripThroughEncode) {
  const auto fmt = core::make_format(GetParam());
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    if (fmt->classify(code) != ValueClass::kFinite) continue;
    const double v = fmt->decode_value(code);
    const std::uint8_t re = fmt->encode(v);
    // Codes may alias only if they decode to the identical value.
    EXPECT_EQ(fmt->decode_value(re), v) << "code " << c;
  }
}

TEST_P(DecodeContract, ExponentFormFieldsAreWellFormed) {
  const auto fmt = core::make_format(GetParam());
  const auto* ef = dynamic_cast<const ExponentCodedFormat*>(fmt.get());
  if (ef == nullptr) GTEST_SKIP() << "not exponent-coded";
  for (int c = 0; c < 256; ++c) {
    const Decoded d = ef->decode(static_cast<std::uint8_t>(c));
    EXPECT_GE(d.frac_bits, 0) << "code " << c;
    EXPECT_LE(d.frac_bits, 31) << "code " << c;
    if (d.frac_bits < 31) {
      EXPECT_LT(d.fraction, 1u << d.frac_bits) << "code " << c;
    }
    if (d.cls == ValueClass::kFinite) {
      EXPECT_GE(d.exponent, ef->min_exponent()) << "code " << c;
      EXPECT_LE(d.exponent, ef->max_exponent()) << "code " << c;
    }
  }
}

TEST_P(DecodeContract, PolicyGuardedDecodeIsAlwaysFinite) {
  const auto fmt = core::make_format(GetParam());
  CorruptionStats stats;
  int expected_non_finite = 0;
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    const ValueClass cls = fmt->classify(code);
    if (cls == ValueClass::kInf || cls == ValueClass::kNaN) ++expected_non_finite;
    const double guarded =
        decode_with_policy(*fmt, code, CorruptionPolicy::kZeroSubstitute, &stats);
    EXPECT_TRUE(std::isfinite(guarded)) << "code " << c;
    // Propagation is faithful to the raw decode.
    const double raw =
        decode_with_policy(*fmt, code, CorruptionPolicy::kPropagate, nullptr);
    if (cls == ValueClass::kNaN) {
      EXPECT_TRUE(std::isnan(raw)) << "code " << c;
    } else {
      EXPECT_EQ(raw, fmt->decode_value(code)) << "code " << c;
    }
  }
  EXPECT_EQ(stats.non_finite, static_cast<std::uint64_t>(expected_non_finite));
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredFormats, DecodeContract,
                         ::testing::ValuesIn(core::all_format_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return n;
                         });

}  // namespace
}  // namespace mersit::formats
