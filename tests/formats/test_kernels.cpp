// Exhaustive bit-for-bit equivalence of the LUT batch kernels against the
// scalar reference path (Format::encode / Format::quantize /
// fake_quantize_scalar), for every registered format.  The probe set leans
// on the adversarial corners: exact decoded values, exact rounding midpoints
// (the ties-to-even-code rule), their nextafter neighbours, the underflow
// boundary, the saturation boundary, ±0, double denormals, NaN and ±inf —
// plus a large random sweep.  Each tier's batch loop (scalar, AVX2, AVX-512)
// the host can execute is also pinned to the scalar reference directly, at
// every lane position and in the scalar tail; INT8's table-free grid body is
// pinned the same way on the grid's own corners.
#include "formats/kernels/quant_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "../core/tier_guard.h"
#include "core/registry.h"
#include "formats/quantize.h"

namespace mersit::formats::kernels {
namespace {

/// Adversarial double probes in the format's (pre-scale) value space.
std::vector<double> double_probes(const Format& fmt) {
  const TableCodec& codec = fmt.codec();
  std::vector<double> probes = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e300,
      -1e300,
      1e-300,
  };
  const auto push_signed = [&probes](double v) {
    probes.push_back(v);
    probes.push_back(-v);
  };
  const auto& pos = codec.positives();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double v = pos[i].value;
    push_signed(v);
    push_signed(std::nextafter(v, 0.0));
    push_signed(std::nextafter(v, std::numeric_limits<double>::infinity()));
    if (i > 0) {
      // The exact midpoint expression the scalar path evaluates — this is
      // the ties-to-even-code branch.
      const double mid = 0.5 * (pos[i - 1].value + pos[i].value);
      push_signed(mid);
      push_signed(std::nextafter(mid, 0.0));
      push_signed(std::nextafter(mid, std::numeric_limits<double>::infinity()));
    }
  }
  // Underflow boundary (round-to-zero vs clamp-to-min) and saturation edge.
  const double min_pos = codec.min_positive();
  const double max_fin = codec.max_finite();
  push_signed(min_pos * 0.5);
  push_signed(std::nextafter(min_pos * 0.5, 0.0));
  push_signed(std::nextafter(min_pos * 0.5, 1.0));
  push_signed(min_pos * 0.25);
  push_signed(std::nextafter(max_fin, std::numeric_limits<double>::infinity()));
  push_signed(max_fin * 2.0);
  // Random sweep across many octaves.
  std::mt19937_64 rng(17);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_real_distribution<double> octave(-20.0, 20.0);
  for (int i = 0; i < 10000; ++i)
    probes.push_back(normal(rng) * std::exp2(octave(rng)));
  return probes;
}

/// Mixed float buffer with the edge cases embedded, for the batch paths.
std::vector<float> float_probes(const Format& fmt, double scale) {
  const TableCodec& codec = fmt.codec();
  std::vector<float> buf = {
      0.f,
      -0.f,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      static_cast<float>(codec.max_finite() * scale),
      static_cast<float>(-codec.max_finite() * scale),
      static_cast<float>(codec.max_finite() * scale * 4.0),
      static_cast<float>(codec.min_positive() * scale),
      static_cast<float>(codec.min_positive() * scale * 0.5),
      static_cast<float>(-codec.min_positive() * scale * 0.5),
  };
  std::mt19937 rng(23);
  std::normal_distribution<float> normal(0.f, 1.f);
  std::uniform_real_distribution<float> octave(-12.f, 12.f);
  for (int i = 0; i < 10000; ++i)
    buf.push_back(normal(rng) * std::exp2(octave(rng)) *
                  static_cast<float>(scale));
  return buf;
}

const std::vector<double> kScales = {1.0, 0.25, 7.5, 1e-3, 64.0};

TEST(KernelEquivalence, DecodeTableMatchesCodec) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = fmt->kernel();
    for (int c = 0; c < 256; ++c) {
      const double a = kernel->decode(static_cast<std::uint8_t>(c));
      const double b = fmt->codec().decode(static_cast<std::uint8_t>(c));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " code " << c;
    }
  }
}

TEST(KernelEquivalence, EncodeMatchesFormatOnAdversarialProbes) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = fmt->kernel();
    for (const double x : double_probes(*fmt)) {
      EXPECT_EQ(kernel->encode(x), fmt->encode(x))
          << name << " x=" << std::hexfloat << x;
    }
  }
}

TEST(KernelEquivalence, QuantizeMatchesFormatBitForBit) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = fmt->kernel();
    for (const double x : double_probes(*fmt)) {
      const double a = kernel->quantize(x);
      const double b = fmt->quantize(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " x=" << std::hexfloat << x;
      // The value-direct batch path must agree with the code path exactly.
      const double c = kernel->quantize_value(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c), std::bit_cast<std::uint64_t>(a))
          << name << " x=" << std::hexfloat << x;
    }
  }
}

TEST(KernelEquivalence, BatchFakeQuantizeMatchesScalarReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kScales) {
      const std::vector<float> buf = float_probes(*fmt, scale);
      std::vector<float> kernel_out = buf;
      std::vector<float> scalar_out = buf;
      fake_quantize(kernel_out, *fmt, scale);
      fake_quantize_scalar(scalar_out, *fmt, scale);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(kernel_out[i]),
                  std::bit_cast<std::uint32_t>(scalar_out[i]))
            << name << " scale=" << scale << " i=" << i
            << " in=" << std::hexfloat << buf[i];
      }
    }
  }
}

TEST(KernelEquivalence, BatchRmseMatchesScalarReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kScales) {
      // Drop the NaN/inf probes: RMSE over them is NaN on both paths, which
      // compares unequal to itself; the accumulation-order equivalence is
      // what this test pins down.
      std::vector<float> buf;
      for (const float v : float_probes(*fmt, scale))
        if (std::isfinite(v)) buf.push_back(v);
      const double a = quantization_rmse(buf, *fmt, scale);
      const double b = quantization_rmse_scalar(buf, *fmt, scale);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " scale=" << scale;
    }
  }
}

// ------------------------------------------------------ batch loops --
// Every tier's fake_quantize loop the host can execute (scalar, AVX2,
// AVX-512), installed with test::TierGuard, against the scalar reference.

/// The edge cases of one format at one scale, as floats: ±0, NaN, ±inf,
/// float denormals, every value, every exact midpoint (an exact tie in the
/// value domain whenever the scale is a power of two) and its neighbours,
/// the underflow and saturation boundaries.
std::vector<float> special_floats(const Format& fmt, double scale) {
  const TableCodec& codec = fmt.codec();
  constexpr float inf = std::numeric_limits<float>::infinity();
  std::vector<float> out = {0.f,
                            -0.f,
                            std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() * 0.5f};
  const auto push_signed = [&out, scale](double v) {
    const float f = static_cast<float>(v * scale);
    for (const float g : {f, std::nextafter(f, 0.f), std::nextafter(f, inf)}) {
      out.push_back(g);
      out.push_back(-g);
    }
  };
  const auto& pos = codec.positives();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    push_signed(pos[i].value);
    if (i > 0) push_signed(0.5 * (pos[i - 1].value + pos[i].value));
  }
  push_signed(codec.min_positive() * 0.5);
  push_signed(codec.max_finite() * 4.0);
  return out;
}

/// Bitwise comparison of `got` against `want`; reports the first mismatch.
::testing::AssertionResult same_bits(std::span<const float> in,
                                     std::span<const float> got,
                                     std::span<const float> want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i]))
      return ::testing::AssertionFailure()
             << "i=" << i << " in=" << std::hexfloat << in[i]
             << " got=" << got[i] << " want=" << want[i];
  return ::testing::AssertionSuccess();
}

TEST(KernelLoops, EveryHostLoopMatchesScalarReference) {
  int loops_run = 0;
  for (const core::Tier tier : test::executable_tiers()) {
    const test::TierGuard guard(tier);
    ++loops_run;
    for (const auto& name : core::all_format_names()) {
      const auto fmt = core::make_format(name);
      const auto kernel = fmt->kernel();
      for (const double scale : kScales) {
        const std::vector<float> specials = special_floats(*fmt, scale);
        // Specials, then random data.  Running the whole buffer at start
        // offsets 0-7 moves every special through every one of the 8 lanes.
        std::vector<float> buf = specials;
        const std::vector<float> noise = float_probes(*fmt, scale);
        buf.insert(buf.end(), noise.begin(), noise.begin() + 1000);
        std::vector<float> want = buf;
        fake_quantize_scalar(want, *fmt, scale);
        const std::span<const float> in_all(buf), want_all(want);
        for (std::size_t off = 0; off < 8; ++off) {
          std::vector<float> got(buf.begin() + off, buf.end());
          kernel->fake_quantize(got, scale);
          EXPECT_TRUE(same_bits(in_all.subspan(off), got, want_all.subspan(off)))
              << name << " " << core::tier_name(tier)
              << " scale=" << scale << " offset=" << off;
        }
        // Short buffers (lengths 0-33, offsets 0-7) over the dense start of
        // the specials: NaN, ±0, ±inf and denormals also land in the scalar
        // tail and in partial vectors.
        for (std::size_t off = 0; off < 8; ++off) {
          for (std::size_t len = 0; len <= 33; ++len) {
            std::vector<float> got(buf.begin() + off, buf.begin() + off + len);
            kernel->fake_quantize(got, scale);
            EXPECT_TRUE(same_bits(in_all.subspan(off, len), got,
                                  want_all.subspan(off, len)))
                << name << " " << core::tier_name(tier)
                << " scale=" << scale << " offset=" << off << " len=" << len;
          }
        }
      }
    }
  }
  EXPECT_GE(loops_run, 1);  // scalar always runs
}

// ------------------------------------------------ uniform-grid body --
// The vector loops of a format whose codec has a usable int8 grid run the
// table-free grid body (quant_kernel.h); it must match the scalar
// reference bit for bit on the grid's own corners.

TEST(KernelGrid, OnlyInt8TakesTheGridBody) {
  for (const auto& name : core::all_format_names()) {
    const auto kernel = core::make_format(name)->kernel();
    EXPECT_EQ(kernel->grid_body(), name == "INT8") << name;
    EXPECT_EQ(kernel->grid_body(), kernel->codec().int8_grid().usable) << name;
  }
}

/// Specials first (±0, NaN, ±inf, float denormals, values that saturate),
/// then every grid point, the exact tie above it (at a power-of-two scale),
/// the points a quarter pitch either side, then random data over twice the
/// grid's range.  Level -1's tie is -0.5 pitch, whose RNE is -0.
std::vector<float> grid_probes(const TableCodec::Int8Grid& g, double scale) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  std::vector<float> vals = {0.f,
                             -0.f,
                             std::numeric_limits<float>::quiet_NaN(),
                             inf,
                             -inf,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::denorm_min(),
                             -1e-42f,
                             1e30f,
                             -1e30f,
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max()};
  for (int l = -g.qmax; l <= g.qmax; ++l)
    for (const double frac : {0.0, 0.5, 0.25, -0.25})
      vals.push_back(static_cast<float>(g.pitch * (l + frac) * scale));
  const auto range = static_cast<float>(2.0 * g.pitch * g.qmax * scale);
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> ud(-range, range);
  for (int i = 0; i < 4096; ++i) vals.push_back(ud(rng));
  return vals;
}

TEST(KernelGrid, GridBodyMatchesScalarReferenceOnEveryHostLoop) {
  // Scale 1 puts the ties exactly on the grid midpoints; 3.1 / 127 is a
  // calibration-like scale that is not a power of two.
  const double scales[] = {1.0, 3.1 / 127.0};
  int grid_formats = 0;
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = fmt->kernel();
    if (!kernel->grid_body()) continue;
    ++grid_formats;
    for (const core::Tier tier : test::executable_tiers()) {
      const test::TierGuard guard(tier);
      for (const double scale : scales) {
        const std::vector<float> buf =
            grid_probes(fmt->codec().int8_grid(), scale);
        std::vector<float> want = buf;
        fake_quantize_scalar(want, *fmt, scale);
        const std::span<const float> in_all(buf), want_all(want);
        SCOPED_TRACE(name + " " + core::tier_name(tier) +
                     " scale=" + std::to_string(scale));
        // The whole buffer at start offsets 0-7, then lengths 0-33 over
        // its start, so every special visits every lane and the tail.
        for (std::size_t off = 0; off < 8; ++off) {
          std::vector<float> got(buf.begin() + off, buf.end());
          kernel->fake_quantize(got, scale);
          EXPECT_TRUE(same_bits(in_all.subspan(off), got, want_all.subspan(off)))
              << "offset=" << off;
          for (std::size_t len = 0; len <= 33; ++len) {
            std::vector<float> part(buf.begin() + off, buf.begin() + off + len);
            kernel->fake_quantize(part, scale);
            EXPECT_TRUE(same_bits(in_all.subspan(off, len), part,
                                  want_all.subspan(off, len)))
                << "offset=" << off << " len=" << len;
          }
        }
      }
    }
  }
  EXPECT_EQ(grid_formats, 1);  // INT8
}

TEST(FormatKernel, OneInstancePerFormatThatOutlivesIt) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto a = fmt->kernel();
  EXPECT_EQ(a.get(), fmt->kernel().get());
  EXPECT_EQ(&a->codec(), &fmt->codec());
  // Another instance of the same format builds its own tables.
  const auto other = core::make_format("MERSIT(8,2)");
  EXPECT_NE(a.get(), other->kernel().get());
  // A kernel taken from a temporary format stays valid (it shares the
  // codec), and agrees with a live instance bit for bit.
  const auto orphan = core::make_format("MERSIT(8,2)")->kernel();
  EXPECT_EQ(orphan->format_name(), "MERSIT(8,2)");
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(orphan->decode(code)),
              std::bit_cast<std::uint64_t>(a->decode(code)))
        << "code " << c;
  }
  EXPECT_EQ(orphan->encode(0.31), a->encode(0.31));
}

}  // namespace
}  // namespace mersit::formats::kernels
