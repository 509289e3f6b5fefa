// Decode-free int8 path (QgemmMode::kInt8): the codec's int8 grid must be
// usable for exactly the affine family (INT8 — exhaustively over all 256
// codes) and for no non-affine registered format (MERSIT, posit, FP8); the
// integer micro-kernel must be bitwise identical to the scalar integer
// reference on every compiled-in backend, at any thread count (integer
// accumulation is associative, so this is ULP 0 by construction, not
// tolerance); and the end-to-end wiring —
// ptq::evaluate_with_table, serve::Engine hot-swap, a corrupted artifact —
// must hold the documented ULP contract vs the float code path.  Layer
// dispatch and whole-model forwards are the contract matrix in
// test_gemm.cpp (Gemm/LayerPath, Gemm/ModelPath).  Runs under the
// `concurrency` TSan label with the rest of the qgemm suite.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/corruption.h"
#include "formats/kernels/quant_kernel.h"
#include "nn/data.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/im2col.h"
#include "nn/gemm/qgemm.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/qweights.h"
#include "nn/train.h"
#include "ptq/ptq.h"
#include "ptq/serialize.h"
#include "reference.h"
#include "serve/engine.h"

namespace mersit::nn {
namespace {

using reference::bitwise_equal;
using reference::decode_lut;
using reference::ModeGuard;

// ------------------------------------------------------- affine detection --

// Exhaustive 256-code gate over every registered format: a usable int8 grid
// must reproduce each finite value *exactly* (double ==, no tolerance) as
// pitch·level[c] with |level| <= qmax, and map each non-finite code to level
// 0; INT8 (pitch 1, levels -127..127) must be the one usable grid, and the
// non-affine families must never be silently mis-detected.
TEST(Int8Affine, DetectsExactlyTheAffineFamilyAllFormatsAllCodes) {
  std::set<std::string> usable;
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    const formats::TableCodec::Int8Grid& grid = fmt->codec().int8_grid();
    if (!grid.usable) {
      for (int c = 0; c < 256; ++c) EXPECT_EQ(grid.level[c], 0) << "code " << c;
      continue;
    }
    usable.insert(name);
    for (int c = 0; c < 256; ++c) {
      const double v = fmt->decode_value(static_cast<std::uint8_t>(c));
      if (!std::isfinite(v)) {
        EXPECT_EQ(grid.level[c], 0) << "code " << c;
        continue;
      }
      EXPECT_EQ(grid.pitch * static_cast<double>(grid.level[c]), v) << "code " << c;
      EXPECT_EQ(static_cast<double>(grid.level[c]), v / grid.pitch) << "code " << c;
      EXPECT_LE(std::abs(grid.level[c]), grid.qmax) << "code " << c;
    }
  }
  EXPECT_EQ(usable, std::set<std::string>{"INT8"});
  const auto int8 = core::make_format("INT8");
  EXPECT_EQ(int8->codec().int8_grid().pitch, 1.0);
  EXPECT_EQ(int8->codec().int8_grid().qmax, 127);
}

// ------------------------------------------------------- activation levels --

// quantize_levels must agree with the format's own encode kernel over all
// 256 codes: re-quantizing a decoded value recovers the same level the code
// maps to, which is what makes the int8 activation path exact on
// already-fake-quantized tensors.  And every tier's body (core::Tier) must
// write the scalar tier's bytes: all decoded codes, ±0, NaN, ±inf, ±1e30
// and the ties ±(l + 0.5) in one long buffer, at start offsets 0-7 and
// lengths 0-33, so every probe visits every vector lane and the tail.
TEST(Int8Levels, QuantizeLevelsMatchesFormatEncodeAllCodes) {
  const auto fmt = core::make_format("INT8");
  const auto kernel = fmt->kernel();
  const auto lut = decode_lut(*fmt);
  const formats::TableCodec::Int8Grid& grid = fmt->codec().int8_grid();
  ASSERT_TRUE(grid.usable);
  const int qmin = -grid.qmax, qmax = grid.qmax;
  const double wscale = 0.375;  // arbitrary stamped tensor scale
  const double inv = 1.0 / (grid.pitch * wscale);
  for (int c = 0; c < 256; ++c) {
    if (!std::isfinite(lut[static_cast<std::size_t>(c)])) continue;
    const float x =
        static_cast<float>(lut[static_cast<std::size_t>(c)] * wscale);
    std::int8_t level = 99;
    gemm::quantize_levels(&x, 1, inv, qmin, qmax, &level);
    EXPECT_EQ(level, grid.level[c]) << "code " << c;
    // And the format's encoder agrees the value belongs to this code.
    EXPECT_EQ(kernel->encode(lut[static_cast<std::size_t>(c)]),
              static_cast<std::uint8_t>(c))
        << "code " << c;
  }
  // Clamp and non-finite handling: saturate to the finite level range,
  // NaN → 0 (matches the encode kernels' NaN policy of a zero level).
  const float big = 1e30f, neg = -1e30f, nan = std::numeric_limits<float>::quiet_NaN();
  std::int8_t out[3];
  gemm::quantize_levels(&big, 1, inv, qmin, qmax, out);
  gemm::quantize_levels(&neg, 1, inv, qmin, qmax, out + 1);
  gemm::quantize_levels(&nan, 1, inv, qmin, qmax, out + 2);
  EXPECT_EQ(out[0], qmax);
  EXPECT_EQ(out[1], qmin);
  EXPECT_EQ(out[2], 0);

  // At scale 0.25 the products x·inv are exact, so the ties are exact.
  int tiers_run = 0;
  for (const double scale : {wscale, 0.25}) {
    const double sinv = 1.0 / (grid.pitch * scale);
    std::vector<float> buf = {0.f, -0.f, nan, std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(), big, neg};
    for (int c = 0; c < 256; ++c)
      if (std::isfinite(lut[static_cast<std::size_t>(c)]))
        buf.push_back(static_cast<float>(lut[static_cast<std::size_t>(c)] * scale));
    for (int l = 0; l <= qmax; ++l)
      for (const double tie : {l + 0.5, -(l + 0.5)})
        buf.push_back(static_cast<float>(tie * grid.pitch * scale));
    const auto levels = [&](core::Tier t, std::size_t off, std::size_t len) {
      const test::TierGuard guard(t);
      std::vector<std::int8_t> q(len, 99);
      gemm::quantize_levels(buf.data() + off, len, sinv, qmin, qmax, q.data());
      return q;
    };
    for (const core::Tier t : test::executable_tiers()) {
      SCOPED_TRACE(std::string(core::tier_name(t)) + " scale=" + std::to_string(scale));
      ++tiers_run;
      const auto check = [&](std::size_t off, std::size_t len) {
        EXPECT_EQ(levels(t, off, len), levels(core::Tier::kScalar, off, len))
            << "offset=" << off << " len=" << len;
      };
      for (std::size_t off = 0; off < 8; ++off) {
        check(off, buf.size() - off);
        for (std::size_t len = 0; len <= 33; ++len) check(off, len);
      }
    }
  }
  EXPECT_GE(tiers_run, 2);  // scalar at both scales
}

// im2col_int8 writes what im2col followed by quantize_levels writes, byte
// for byte, on every tier: the unit conv (k 1, stride 1, pad 0), which
// quantizes each plane straight into its column row, and two gathering
// geometries.  The column rows are wider than the lowering (col_ld > oh·ow,
// as a batched conv lowers one sample among several), and the bytes past
// each row's oh·ow stay untouched.  Planes of 7 x 9 leave a vector tail,
// and the input carries ±0, NaN, ±inf, saturating values and exact ties.
TEST(Int8Levels, Im2colInt8MatchesIm2colThenQuantizePerTier) {
  constexpr int kC = 5, kH = 7, kW = 9;
  const double inv = 4.0;  // x·inv exact for the tie probes below
  std::mt19937 rng(23);
  std::normal_distribution<float> nd(0.f, 12.f);
  std::vector<float> x(static_cast<std::size_t>(kC) * kH * kW);
  for (float& v : x) v = nd(rng);
  const float specials[] = {0.f, -0.f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 1e30f, -1e30f,
                            0.125f, -0.375f, 2.625f, 31.875f, -31.875f};
  for (std::size_t i = 0; i < std::size(specials); ++i) x[i * 5] = specials[i];
  const std::int8_t sentinel = 0x55;
  for (const auto [k, stride, pad] : {std::array<int, 3>{1, 1, 0},
                                      std::array<int, 3>{3, 1, 1},
                                      std::array<int, 3>{3, 2, 1}}) {
    const int oh = gemm::conv_out_dim(kH, k, stride, pad);
    const int ow = gemm::conv_out_dim(kW, k, stride, pad);
    const int rows = kC * k * k, osz = oh * ow, col_ld = 3 * osz + 5;
    std::vector<float> colf(static_cast<std::size_t>(rows) * col_ld, 0.f);
    gemm::im2col(x.data(), kC, kH, kW, k, stride, pad, colf.data(), col_ld);
    std::vector<std::int8_t> want(colf.size(), sentinel);
    {
      const test::TierGuard scalar(core::Tier::kScalar);
      for (int r = 0; r < rows; ++r)
        gemm::quantize_levels(colf.data() + static_cast<std::size_t>(r) * col_ld,
                              static_cast<std::size_t>(osz), inv, -127, 127,
                              want.data() + static_cast<std::size_t>(r) * col_ld);
    }
    for (const core::Tier t : test::executable_tiers()) {
      SCOPED_TRACE(std::string(core::tier_name(t)) + " k=" + std::to_string(k) +
                   " stride=" + std::to_string(stride) + " pad=" + std::to_string(pad));
      const test::TierGuard guard(t);
      std::vector<std::int8_t> got(want.size(), sentinel);
      gemm::im2col_int8(x.data(), kC, kH, kW, k, stride, pad, inv, -127, 127,
                        got.data(), col_ld);
      EXPECT_EQ(got, want);
    }
  }
}

// FakeQuantizer hands INT8 activations to the format kernel, whose vector
// loops run the uniform-grid body (tests/formats/test_kernels.cpp pins that
// body on every host loop); through the quantizer the result must still be
// the per-element codec reference bit for bit — rounding ties, non-finite
// values, signed zeros, denormals and saturating magnitudes included.
TEST(Int8Levels, FakeQuantizerMatchesScalarReferenceOnGridProbes) {
  const auto fmt = core::make_format("INT8");
  ptq::CalibrationTable table;
  // calibration_target absmax under kMaxToUnity gives scale exactly 1, so
  // the tie probes below land exactly on the grid midpoints.
  table.input_absmax = static_cast<float>(fmt->calibration_target());
  const ptq::FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
  const double scale = formats::scale_for_absmax(
      *fmt, table.input_absmax, formats::ScalePolicy::kMaxToUnity);
  ASSERT_EQ(scale, 1.0);
  const formats::TableCodec::Int8Grid& grid = fmt->codec().int8_grid();
  std::vector<float> vals = {0.f, -0.f, std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::denorm_min(), -1e-42f,
                             1e30f, -1e30f, std::numeric_limits<float>::max()};
  for (int l = -grid.qmax; l <= grid.qmax; ++l)
    for (const double frac : {0.0, 0.5, 0.25})  // grid point, tie, between
      vals.push_back(static_cast<float>(grid.pitch * (l + frac)));
  std::mt19937 rng(5);
  const auto range = static_cast<float>(2.0 * grid.pitch * grid.qmax);
  std::uniform_real_distribution<float> ud(-range, range);
  for (int i = 0; i < 4096; ++i) vals.push_back(ud(rng));

  Tensor t({1, static_cast<int>(vals.size())});
  for (std::size_t i = 0; i < vals.size(); ++i) t[i] = vals[i];
  fq.quantize_input(t);
  std::vector<float> ref = vals;
  formats::fake_quantize_scalar(ref, *fmt, scale);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::uint32_t got = 0, want = 0;
    const float gf = t[i], wf = ref[i];
    std::memcpy(&got, &gf, 4);
    std::memcpy(&want, &wf, 4);
    EXPECT_EQ(got, want) << "elem " << i << " in " << vals[i] << " got "
                         << gf << " want " << wf;
  }
}

// ------------------------------------------------ per-backend kernel gates --

/// A synthetic all-finite code→level map for the kernel gates: code c maps
/// to the byte 37·c + 5 read as a two's-complement level.  37 is odd, so
/// the map is a bijection and all 256 levels (-128 included) appear, in an
/// order unlike the identity.
std::array<std::int8_t, 256> synthetic_levels() {
  std::array<std::int8_t, 256> q{};
  for (int c = 0; c < 256; ++c)
    q[static_cast<std::size_t>(c)] =
        static_cast<std::int8_t>(static_cast<std::uint8_t>(37 * c + 5));
  return q;
}

/// Naive integer reference of the documented contract: exact int32 level
/// accumulation of A (M x K) times B (K x N, row-major), one dequant
/// rounding chain at write-back, optional per-row affine, then the
/// epilogue.
void int8_reference(int M, int N, int K, const std::int8_t* qa,
                    const double* sa, const std::int8_t* qb, double sb,
                    const float* bias, const float* aff_s, const float* aff_t,
                    gemm::Epilogue epi, float* c) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      std::int32_t acc = 0;
      for (int k = 0; k < K; ++k)
        acc += static_cast<std::int32_t>(qa[static_cast<std::size_t>(m) * K + k]) *
               static_cast<std::int32_t>(qb[static_cast<std::size_t>(k) * N + n]);
      const double init = bias != nullptr ? static_cast<double>(bias[m]) : 0.0;
      float v = static_cast<float>(init + static_cast<double>(acc) * (sa[m] * sb));
      if (aff_s != nullptr) v = aff_s[m] * v + aff_t[m];
      c[static_cast<std::size_t>(m) * N + n] = gemm::epilogue_eval(epi, v);
    }
  }
}

// Every compiled-in backend the host supports must produce bitwise-identical
// output to the naive integer reference, in the form a conv calls the
// driver: prepacked weight codes through a level map with per-row scales,
// per-call activation levels with one uniform scale, and a per-row bias,
// with and without the RowAffine + epilogue write-back, at dimensions that
// cross the MC/KC/NC cache blocks and leave ragged panel remainders.
TEST(Int8Kernel, AllBackendsBitwiseIdenticalToScalarIntegerReference) {
  constexpr int kM = 130, kK = 300, kN = 37;
  const std::array<std::int8_t, 256> level = synthetic_levels();

  std::vector<std::uint8_t> a(static_cast<std::size_t>(kM) * kK);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::uint8_t>((i * 7 + i / 256) & 0xFF);
  std::vector<std::int8_t> qb(static_cast<std::size_t>(kK) * kN);  // K x N
  for (std::size_t i = 0; i < qb.size(); ++i)
    qb[i] = static_cast<std::int8_t>(static_cast<std::uint8_t>(i * 11 + i / 256));

  std::vector<std::int8_t> qa(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) qa[i] = level[a[i]];

  std::vector<double> row_scales(kM);
  for (int m = 0; m < kM; ++m)
    row_scales[static_cast<std::size_t>(m)] = 0.015625 * (m % 7 + 1);
  const double ub = 0.0625 * 1.5;
  std::vector<float> bias(kM);
  for (int m = 0; m < kM; ++m)
    bias[static_cast<std::size_t>(m)] = 0.01f * static_cast<float>(m - 64);
  std::vector<float> aff_s(kM), aff_t(kM);
  for (int m = 0; m < kM; ++m) {
    aff_s[static_cast<std::size_t>(m)] = 0.75f + 0.001f * static_cast<float>(m);
    aff_t[static_cast<std::size_t>(m)] = -0.2f + 0.01f * static_cast<float>(m % 9);
  }

  std::vector<float> want_plain(static_cast<std::size_t>(kM) * kN);
  int8_reference(kM, kN, kK, qa.data(), row_scales.data(), qb.data(), ub,
                 bias.data(), nullptr, nullptr, gemm::Epilogue::kNone,
                 want_plain.data());
  std::vector<float> want_fused(want_plain.size());
  int8_reference(kM, kN, kK, qa.data(), row_scales.data(), qb.data(), ub,
                 bias.data(), aff_s.data(), aff_t.data(),
                 gemm::Epilogue::kReLU, want_fused.data());

  for (const core::Tier t : test::executable_tiers()) {
    SCOPED_TRACE(core::tier_name(t));
    const test::TierGuard guard(t);
    const gemm::PackedInt8 pa =
        gemm::pack_a_int8_matrix(kM, kK, a.data(), kK, level.data());

    std::vector<float> got(want_plain.size(), -1.f);
    gemm::qgemm_int8(kM, kN, kK, pa, row_scales.data(), qb.data(), kN, ub,
                     gemm::Init::kBiasRow, bias.data(), got.data(), kN);
    EXPECT_EQ(std::memcmp(got.data(), want_plain.data(),
                          got.size() * sizeof(float)),
              0)
        << "plain";

    gemm::RowAffine aff{aff_s.data(), aff_t.data()};
    std::fill(got.begin(), got.end(), -1.f);
    gemm::qgemm_int8(kM, kN, kK, pa, row_scales.data(), qb.data(), kN, ub,
                     gemm::Init::kBiasRow, bias.data(), got.data(), kN,
                     nullptr, gemm::Epilogue::kReLU, &aff);
    EXPECT_EQ(std::memcmp(got.data(), want_fused.data(),
                          got.size() * sizeof(float)),
              0)
        << "affine+epilogue";
  }

  // Segmented C, the layout a batched conv writes into its output: runs of
  // kSeg columns, row stride kLdc, kStride floats between runs.  N crosses
  // the NC = 1024 block, so tiles straddle both run and block boundaries;
  // the gaps after each row's run and after each run's last row hold a
  // sentinel nothing may overwrite.
  constexpr int kSeg = 37, kNs = 1100, kLdc = kSeg + 4;
  constexpr std::size_t kStride = static_cast<std::size_t>(kM) * kLdc + 5;
  constexpr int kRuns = (kNs + kSeg - 1) / kSeg;
  std::vector<std::int8_t> qs(static_cast<std::size_t>(kK) * kNs);
  for (std::size_t i = 0; i < qs.size(); ++i)
    qs[i] = static_cast<std::int8_t>(static_cast<std::uint8_t>(i * 13 + i / 509));
  std::vector<float> want_rows(static_cast<std::size_t>(kM) * kNs);
  int8_reference(kM, kNs, kK, qa.data(), row_scales.data(), qs.data(), ub,
                 bias.data(), aff_s.data(), aff_t.data(),
                 gemm::Epilogue::kHardSwish, want_rows.data());
  const float sentinel = -12345.5f;
  std::vector<float> want_seg(kRuns * kStride, sentinel);
  for (int m = 0; m < kM; ++m)
    for (int n = 0; n < kNs; ++n)
      want_seg[static_cast<std::size_t>(m) * kLdc + (n / kSeg) * kStride + n % kSeg] =
          want_rows[static_cast<std::size_t>(m) * kNs + n];
  const gemm::Int8Segments segs{kSeg, kStride};
  const gemm::RowAffine aff{aff_s.data(), aff_t.data()};
  for (const core::Tier t : test::executable_tiers()) {
    const test::TierGuard guard(t);
    const gemm::PackedInt8 pa =
        gemm::pack_a_int8_matrix(kM, kK, a.data(), kK, level.data());
    for (const int width : {1, 13}) {
      SCOPED_TRACE(std::string(core::tier_name(t)) + " segmented, pool width " +
                   std::to_string(width));
      const reference::PoolWidthGuard pool(width);
      std::vector<float> got(want_seg.size(), sentinel);
      gemm::qgemm_int8(kM, kNs, kK, pa, row_scales.data(), qs.data(), kNs, ub,
                       gemm::Init::kBiasRow, bias.data(), got.data(), kLdc,
                       nullptr, gemm::Epilogue::kHardSwish, &aff, &segs);
      EXPECT_EQ(std::memcmp(got.data(), want_seg.data(),
                            got.size() * sizeof(float)),
                0);
    }
  }
}

// Every tier's dequant_int8 entry against the contract formula
// float(binit + double(acc) · s), byte for byte: accumulators 0, ±1,
// ±(2^31 − 1) and -2^31 (beyond float's 24-bit mantissa, so a float-domain
// body cannot hide), scales whose products overflow the float to ±inf or
// flush it to a denormal or zero, and binit ±0 (whose sign survives only
// when the product is -0), at every length up to two vectors and beyond.
TEST(Int8Kernel, DequantEntryMatchesContractFormulaPerTier) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> acc = {0,     1,     -1,       kMax,       -kMax,
                                   kMax - 1, std::numeric_limits<std::int32_t>::min(),
                                   (1 << 24) + 1, -((1 << 24) + 3), 127 * 128, -16129};
  std::mt19937 rng(17);
  std::uniform_int_distribution<std::int32_t> ud(-kMax, kMax);
  while (acc.size() < 45) acc.push_back(ud(rng));
  const int n = static_cast<int>(acc.size());
  for (const core::Tier t : test::executable_tiers()) {
    const test::TierGuard guard(t);
    const gemm::Backend& be = gemm::active_backend();
    for (const double s : {1.0, -1.0, 0.015625, 1.0 / 3.0, 1e30, -1e36, 1e-45,
                           3e-39, 1e-50, -1e-48}) {
      for (const double binit : {0.0, -0.0, 0.75, -1e-40}) {
        SCOPED_TRACE(std::string(core::tier_name(t)) + " s=" + std::to_string(s) +
                     " binit=" + std::to_string(binit));
        std::vector<float> want(acc.size());
        for (std::size_t i = 0; i < acc.size(); ++i)
          want[i] = static_cast<float>(binit + static_cast<double>(acc[i]) * s);
        for (int len = 0; len <= n; ++len) {
          std::vector<float> got(acc.size(), 42.f);
          be.dequant_int8(acc.data(), len, s, binit, got.data());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                static_cast<std::size_t>(len) * sizeof(float)),
                    0)
              << "len=" << len;
          for (int i = len; i < n; ++i)
            EXPECT_EQ(got[static_cast<std::size_t>(i)], 42.f) << "wrote past len=" << len;
        }
      }
    }
  }
}

// The driver's exactness preconditions are enforced loudly, and results are
// invariant to the worker count (tiles are computed whole, integer
// accumulation is exact).
TEST(Int8Kernel, RejectsUnsafeCallsAndStaysThreadCountInvariant) {
  const std::array<std::int8_t, 256> level = synthetic_levels();
  constexpr int kM = 45, kK = 267, kN = 129;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(kM) * kK);
  std::vector<std::int8_t> b(static_cast<std::size_t>(kK) * kN);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::uint8_t>((i * 13) & 0xFF);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int8_t>(static_cast<std::uint8_t>(i * 29));
  const std::vector<double> sa(kM, 0.5);
  const std::vector<float> bias(kM, 0.25f);
  const gemm::PackedInt8 pa =
      gemm::pack_a_int8_matrix(kM, kK, a.data(), kK, level.data());
  std::vector<float> c(static_cast<std::size_t>(kM) * kN);
  const auto run = [&](const gemm::PackedInt8& w, int K, gemm::Init init) {
    gemm::qgemm_int8(kM, kN, K, w, sa.data(), b.data(), kN, 0.5, init,
                     bias.data(), c.data(), kN);
  };

  // K beyond the exact-int32 bound, rounded-partial continuation, and a
  // per-column bias (the weight operand's rows are the output channels).
  EXPECT_THROW(run(pa, gemm::kInt8MaxK + 1, gemm::Init::kZero),
               std::invalid_argument);
  EXPECT_THROW(run(pa, kK, gemm::Init::kAccumulate), std::invalid_argument);
  EXPECT_THROW(run(pa, kK, gemm::Init::kBiasCol), std::invalid_argument);
  // The weight pack must match the call shape...
  const gemm::PackedInt8 wrong_m =
      gemm::pack_a_int8_matrix(kM - 1, kK, a.data(), kK, level.data());
  EXPECT_THROW(run(wrong_m, kK, gemm::Init::kZero), std::invalid_argument);
  // ...and the active backend: panels packed under scalar are misindexed by
  // any other backend.
  for (const core::Tier t : test::executable_tiers()) {
    if (t == core::Tier::kScalar) continue;
    SCOPED_TRACE(core::tier_name(t));
    gemm::PackedInt8 scalar_pack;
    {
      const test::TierGuard guard(core::Tier::kScalar);
      scalar_pack = gemm::pack_a_int8_matrix(kM, kK, a.data(), kK, level.data());
    }
    const test::TierGuard guard(t);
    EXPECT_THROW(run(scalar_pack, kK, gemm::Init::kZero), std::invalid_argument);
  }

  run(pa, kK, gemm::Init::kBiasRow);
  const std::vector<float> base = c;
  for (const int threads : {1, 13}) {
    const reference::PoolWidthGuard pool(threads);
    std::fill(c.begin(), c.end(), -1.f);
    run(pa, kK, gemm::Init::kBiasRow);
    EXPECT_EQ(std::memcmp(c.data(), base.data(), c.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

// An INT8 artifact with one corrupted code (0x80, the NaR code) installed
// under kZeroSubstitute stays on the integer path: its book maps the code
// to 0.0, level 0, so the int8 output is bitwise the int8 output of the
// same artifact with that code set to 0x00, for Linear and Conv2d.  The
// corruption counter still sees the code.  Under kPropagate the code stays
// NaR and the plan runs the FP32 kernel, reporting the non-finite code.
TEST(Int8Layer, ZeroSubstitutedArtifactStaysOnIntegerPath) {
  using formats::CorruptionPolicy;
  const auto fmt = core::make_format("INT8");
  ASSERT_FALSE(std::isfinite(fmt->decode_value(0x80)));
  const Context ctx{/*train=*/false, nullptr};
  const ModeGuard mode(gemm::QgemmMode::kInt8);
  const auto check = [&](auto& layer, Tensor x) {
    reference::fake_quantize(x, *fmt);
    ptq::QuantizedModel corrupt = ptq::pack_weights(layer, *fmt);
    ptq::QuantizedModel clean = corrupt;
    corrupt.tensors.front().codes[3] = 0x80;
    clean.tensors.front().codes[3] = 0x00;
    const auto run = [&](const ptq::QuantizedModel& qm, CorruptionPolicy policy) {
      formats::CorruptionStats stats;
      ptq::install_code_weights(layer, qm, *fmt, policy, &stats);
      const Tensor y = layer.forward(x, ctx);
      EXPECT_EQ(stats.non_finite, &qm == &corrupt ? 1u : 0u);
      return y;
    };
    const Tensor want = run(clean, CorruptionPolicy::kZeroSubstitute);
    EXPECT_TRUE(bitwise_equal(run(corrupt, CorruptionPolicy::kZeroSubstitute), want));
    EXPECT_EQ(layer.weight_plan()->kernel, WeightKernel::kInt8);
    (void)run(corrupt, CorruptionPolicy::kPropagate);
    EXPECT_EQ(layer.weight_plan()->kernel, WeightKernel::kFp32);
    EXPECT_EQ(layer.weight_plan()->reason, PlanFallback::kNonFinite);
  };
  std::mt19937 rng(41);
  std::mt19937 xrng(43);
  {
    SCOPED_TRACE("Linear(64,16)");
    Linear lin(64, 16, rng);
    check(lin, Tensor::randn({4, 64}, xrng, 1.f));
  }
  {
    SCOPED_TRACE("Conv2d 3x3");
    Conv2d conv(4, 6, 3, 1, 1, 1, rng);
    check(conv, Tensor::randn({2, 4, 6, 6}, xrng, 1.f));
  }
}

// ------------------------------------------------------------- end to end --

class Int8ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fmt_ = core::make_format("INT8");
    std::mt19937 rng(42);
    proto_ = make_resnet_mini(3, 10, 1, rng);
    test_ = std::make_unique<Dataset>(make_vision_dataset(12, 3, 8, /*seed=*/4));
    table_ = std::make_unique<ptq::CalibrationTable>(
        ptq::calibrate_model(*proto_, make_vision_dataset(8, 3, 8, /*seed=*/3)));
    std::mt19937 prng(17);
    probe_ = std::make_unique<Tensor>(Tensor::randn({2, 3, 8, 8}, prng, 1.f));
  }
  static void TearDownTestSuite() {
    proto_.reset();
    test_.reset();
    table_.reset();
    probe_.reset();
    fmt_.reset();
  }

  static std::shared_ptr<const formats::Format> fmt_;
  static ModulePtr proto_;
  static std::unique_ptr<Dataset> test_;
  static std::unique_ptr<ptq::CalibrationTable> table_;
  static std::unique_ptr<Tensor> probe_;
};

std::shared_ptr<const formats::Format> Int8ModelTest::fmt_;
ModulePtr Int8ModelTest::proto_;
std::unique_ptr<Dataset> Int8ModelTest::test_;
std::unique_ptr<ptq::CalibrationTable> Int8ModelTest::table_;
std::unique_ptr<Tensor> Int8ModelTest::probe_;

// evaluate_with_table under int8 mode: same pipeline as code mode, metric
// within the documented tolerance (the bounded per-element error can flip
// at most near-tie argmaxes), weights restored bitwise.
TEST_F(Int8ModelTest, EvaluateWithTableInt8WithinToleranceOfCodeMetric) {
  const ModulePtr model = proto_->clone();
  const ptq::WeightSnapshot before = ptq::snapshot_weights(*model);
  float m_code = 0.f, m_int8 = 0.f;
  {
    const ModeGuard mode(gemm::QgemmMode::kCode);
    m_code = ptq::evaluate_with_table(*model, *table_, *test_, *fmt_);
  }
  {
    const ModeGuard mode(gemm::QgemmMode::kInt8);
    m_int8 = ptq::evaluate_with_table(*model, *table_, *test_, *fmt_);
  }
  // Documented tolerance: one near-tie sample out of the 12-image set.
  EXPECT_NEAR(m_int8, m_code, 1.f / 12.f + 1e-6f);
  const ptq::WeightSnapshot after = ptq::snapshot_weights(*model);
  ASSERT_EQ(before.values.size(), after.values.size());
  for (std::size_t i = 0; i < before.values.size(); ++i)
    EXPECT_TRUE(bitwise_equal(before.values[i], after.values[i])) << i;
}

// Serving e2e: an engine hot-swapped to an INT8 artifact under
// the int8 path serves responses bit-identical to the quiesced replica
// path (install_code_weights + quantized forward) under the same mode.
TEST_F(Int8ModelTest, EngineHotSwapServesIntegerPathBitIdentically) {
  const ModeGuard mode(gemm::QgemmMode::kInt8);

  std::ostringstream mct1s, mqt1s;
  table_->save(mct1s);
  ptq::pack_weights(*proto_, *fmt_, formats::ScalePolicy::kMaxToUnity)
      .save(mqt1s);

  // Quiesced reference: the exact replica path under int8 mode.
  const ModulePtr replica = proto_->clone();
  {
    std::istringstream mqt1(mqt1s.str());
    const ptq::QuantizedModel qm = ptq::QuantizedModel::load(mqt1);
    ptq::install_code_weights(*replica, qm, *fmt_,
                              formats::CorruptionPolicy::kZeroSubstitute);
  }
  Tensor probe1({3, 8, 8});
  std::memcpy(probe1.raw(), probe_->raw(),
              sizeof(float) * static_cast<std::size_t>(probe1.numel()));
  ptq::FakeQuantizer fq(*table_, *fmt_, formats::ScalePolicy::kMaxToUnity);
  fq.set_input_quantization(true);
  Tensor xr({1, 3, 8, 8});
  std::memcpy(xr.raw(), probe1.raw(),
              sizeof(float) * static_cast<std::size_t>(probe1.numel()));
  fq.on_input(xr);
  const Context ctx{/*train=*/false, &fq};
  const Tensor ref = replica->run(xr, ctx);

  serve::EngineOptions opt;
  opt.replicas = 2;
  opt.max_batch = 4;
  opt.batch_delay_us = 200;
  opt.default_deadline_us = 60'000'000;
  opt.queue_capacity = 64;
  opt.watchdog_period_us = 2'000;
  serve::Engine engine(opt);
  engine.register_model("m", *proto_, serve::ModelConfig{{3, 8, 8}});
  {
    std::istringstream mct1(mct1s.str()), mqt1(mqt1s.str());
    engine.swap_artifacts("m", mct1, mqt1, fmt_);
  }
  for (int i = 0; i < 3; ++i) {
    serve::Response r = engine.submit("m", probe1).get();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.output.numel(), ref.numel());
    EXPECT_EQ(std::memcmp(r.output.raw(), ref.raw(),
                          sizeof(float) * static_cast<std::size_t>(ref.numel())),
              0)
        << "request " << i;
  }
}

}  // namespace
}  // namespace mersit::nn
