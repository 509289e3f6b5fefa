#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "core/mersit.h"

namespace mersit::core {
namespace {

using formats::ValueClass;

TEST(MersitDecode, ConstructorValidation) {
  EXPECT_THROW(MersitFormat(16, 2), std::invalid_argument);
  EXPECT_THROW(MersitFormat(8, 4), std::invalid_argument);  // 6 % 4 != 0
  EXPECT_THROW(MersitFormat(8, 5), std::invalid_argument);
  EXPECT_NO_THROW(MersitFormat(8, 1));
  EXPECT_NO_THROW(MersitFormat(8, 2));
  EXPECT_NO_THROW(MersitFormat(8, 3));
  EXPECT_NO_THROW(MersitFormat(8, 6));
}

TEST(MersitDecode, GroupCounts) {
  EXPECT_EQ(MersitFormat(8, 1).groups(), 6);
  EXPECT_EQ(MersitFormat(8, 2).groups(), 3);
  EXPECT_EQ(MersitFormat(8, 3).groups(), 2);
  EXPECT_EQ(MersitFormat(8, 6).groups(), 1);
}

TEST(MersitDecode, SpotValues) {
  const MersitFormat& m = mersit_8_2();
  // 100 0000: ks=1, EC0=00 -> k=0, exp=0, frac=0 -> 1.0.
  EXPECT_DOUBLE_EQ(m.decode_value(0b01000000), 1.0);
  // Code 0x00 = s0 ks0 EC0=00 frac 0000 -> eff -3 -> 0.125 (NOT zero!).
  EXPECT_DOUBLE_EQ(m.decode_value(0x00), 0.125);
  // 110 1000: k=0, exp=2, frac=1000 -> 1.5 * 4 = 6.
  EXPECT_DOUBLE_EQ(m.decode_value(0b01101000), 6.0);
  // Max finite: 1111110 -> 2^8.
  EXPECT_DOUBLE_EQ(m.decode_value(0b01111110), 256.0);
  // Min positive: 0111100 -> 2^-9.
  EXPECT_DOUBLE_EQ(m.decode_value(0b00111100), std::ldexp(1.0, -9));
  // Negative: sign bit flips the value.
  EXPECT_DOUBLE_EQ(m.decode_value(0b11000000), -1.0);
}

TEST(MersitDecode, Mersit83Ranges) {
  // es=3: two 3-bit ECs; regime weight 7; g=0 -> 3 frac bits, g=1 -> 0.
  const MersitFormat& m = mersit_8_3();
  EXPECT_EQ(m.regime_weight(), 7);
  EXPECT_EQ(m.min_eff_exponent(), -14);
  EXPECT_EQ(m.max_eff_exponent(), 13);
  EXPECT_EQ(m.max_frac_bits(), 3);
  EXPECT_DOUBLE_EQ(m.max_finite(), std::ldexp(1.0, 13));
  EXPECT_DOUBLE_EQ(m.min_positive(), std::ldexp(1.0, -14));
}

TEST(MersitDecode, Mersit83SpotValues) {
  const MersitFormat m(8, 3);
  // s0 ks1 EC0=000 frac=000 -> k=0, exp=0 -> 1.0. Code 0100 0000.
  EXPECT_DOUBLE_EQ(m.decode_value(0b01000000), 1.0);
  // s0 ks1 EC0=110 frac=101 -> exp=6, frac=5/8 -> 1.625*2^6 = 104.
  EXPECT_DOUBLE_EQ(m.decode_value(0b01110101), 104.0);
  // s0 ks1 EC0=111 EC1=000 -> g=1, k=1, exp=0 -> 2^7.
  EXPECT_DOUBLE_EQ(m.decode_value(0b01111000), 128.0);
  // s0 ks0 EC0=111 EC1=110 -> g=1, k=-2, exp=6 -> 2^(-14+6)=2^-8.
  EXPECT_DOUBLE_EQ(m.decode_value(0b00111110), std::ldexp(1.0, -8));
}

TEST(MersitDecode, AllCodesMatchGoldenDigest) {
  // FNV-1a 64 over the IEEE-754 bit patterns of all 256 decoded values,
  // recorded while a second, independent implementation of the decode rule
  // still cross-checked this one code by code.  Any change to a decoded
  // value of MERSIT(8,1), (8,2) or (8,3) moves its digest.
  const std::uint64_t golden[] = {0x0a2c823a22d14105ull, 0x706e5db89bd2b1c5ull,
                                  0xe500187273dec345ull};
  for (const int es : {1, 2, 3}) {
    const MersitFormat m(8, es);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int c = 0; c < 256; ++c) {
      const auto bits =
          std::bit_cast<std::uint64_t>(m.decode_value(static_cast<std::uint8_t>(c)));
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
    EXPECT_EQ(h, golden[es - 1]) << "es=" << es;
  }
}

TEST(MersitDecode, FieldsPackRoundTripAllCodes) {
  for (int es : {1, 2, 3, 6}) {
    const MersitFormat m(8, es);
    for (int c = 0; c < 256; ++c) {
      const auto code = static_cast<std::uint8_t>(c);
      const auto f = m.fields(code);
      if (f.is_zero) {
        // All negative-zero bodies collapse to the canonical zero code.
        EXPECT_EQ(m.pack(f) & 0x7F, m.zero_code());
        continue;
      }
      EXPECT_EQ(m.pack(f), code) << "es=" << es << " code=" << c;
    }
  }
}

TEST(MersitDecode, AllFiniteValuesDistinct) {
  for (int es : {1, 2, 3}) {
    const MersitFormat m(8, es);
    std::set<double> vals;
    int finite = 0;
    for (int c = 0; c < 128; ++c) {
      const auto code = static_cast<std::uint8_t>(c);
      if (m.classify(code) != ValueClass::kFinite) continue;
      ++finite;
      vals.insert(m.decode_value(code));
    }
    EXPECT_EQ(static_cast<int>(vals.size()), finite) << "es=" << es;
    EXPECT_EQ(finite, 126) << "es=" << es;  // 128 bodies - zero - inf
  }
}

TEST(MersitDecode, ExponentEcNeverAllOnes) {
  // The EC designated as exponent always contains a zero, so exp <= 2^es-2.
  for (int es : {1, 2, 3}) {
    const MersitFormat m(8, es);
    for (int c = 0; c < 256; ++c) {
      const auto f = m.fields(static_cast<std::uint8_t>(c));
      if (f.is_zero || f.is_nar) continue;
      EXPECT_LE(f.exp, (1 << es) - 2);
    }
  }
}

TEST(MersitDecode, FractionBitsShrinkWithRegimeMagnitude) {
  const MersitFormat& m = mersit_8_2();
  for (int c = 0; c < 256; ++c) {
    const auto f = m.fields(static_cast<std::uint8_t>(c));
    if (f.is_zero || f.is_nar) continue;
    const int abs_k_idx = f.k >= 0 ? f.k : -f.k - 1;
    EXPECT_EQ(f.frac_bits, (m.groups() - 1 - abs_k_idx) * m.es());
  }
}

TEST(MersitDecode, WiderFourBitPrecisionRangeThanPosit) {
  // Section 3.2's claim: the binades where MERSIT(8,2) keeps 4 fraction bits
  // (eff exp -3..2) strictly contain Posit(8,1)'s 4-bit binades (-2..1).
  const MersitFormat& m = mersit_8_2();
  std::set<int> four_bit_binades;
  for (int c = 0; c < 128; ++c) {
    const auto d = m.decode(static_cast<std::uint8_t>(c));
    if (d.cls == ValueClass::kFinite && d.frac_bits == 4)
      four_bit_binades.insert(d.exponent);
  }
  EXPECT_EQ(four_bit_binades.size(), 6u);  // -3..2
  EXPECT_TRUE(four_bit_binades.count(-3));
  EXPECT_TRUE(four_bit_binades.count(2));
}

}  // namespace
}  // namespace mersit::core
