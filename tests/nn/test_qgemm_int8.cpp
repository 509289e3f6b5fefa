// Decode-free int8 path (MERSIT_QGEMM=int8): affine-LUT detection must
// accept exactly the affine family (INT8 — exhaustively over all 256
// codes) and reject every non-affine registered format (MERSIT, posit,
// FP8); the integer micro-kernel must be bitwise identical to the scalar
// integer reference on every compiled-in backend, prepacked or not, at any
// thread count (integer accumulation is associative, so this is ULP 0 by
// construction, not tolerance); and the end-to-end wiring — layer dispatch,
// ptq::evaluate_with_table, serve::Engine hot-swap — must hold the
// documented ULP contract vs the float code path.  Runs under the
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
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/corruption.h"
#include "formats/kernels/kernel_cache.h"
#include "nn/data.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
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

const bool kEnvReady = [] {
  setenv("MERSIT_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct ModeGuard {
  explicit ModeGuard(gemm::QgemmMode m) : prev(gemm::set_qgemm_mode(m)) {}
  ~ModeGuard() { gemm::set_qgemm_mode(prev); }
  gemm::QgemmMode prev;
};

struct BackendGuard {
  explicit BackendGuard(const gemm::Backend& be)
      : prev(gemm::set_backend(&be)) {}
  ~BackendGuard() { gemm::set_backend(prev); }
  const gemm::Backend* prev;
};

using reference::bitwise_equal;

std::array<double, 256> decode_lut(const formats::Format& fmt) {
  const auto kernel = formats::kernels::kernel_for(fmt);
  std::array<double, 256> lut;
  for (int c = 0; c < 256; ++c)
    lut[static_cast<std::size_t>(c)] = kernel->decode(static_cast<std::uint8_t>(c));
  return lut;
}

// ------------------------------------------------------- affine detection --

// Exhaustive 256-code gate over every registered format: a usable AffineLut
// must reproduce each finite LUT entry *exactly* (double ==, no tolerance)
// as scale·q[c] with q[c] within [qmin, qmax], and flag each non-finite
// entry; INT8 must be detected and the non-affine families must be
// rejected, never silently mis-detected.
TEST(Int8Affine, DetectsExactlyTheAffineFamilyAllFormatsAllCodes) {
  bool any_usable = false;
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    const auto lut = decode_lut(*fmt);
    const gemm::AffineLut alut = gemm::build_affine_lut(lut.data());
    if (!alut.usable) continue;
    any_usable = true;
    EXPECT_GT(alut.scale, 0.0);
    for (int c = 0; c < 256; ++c) {
      const double v = lut[static_cast<std::size_t>(c)];
      if (!std::isfinite(v)) {
        EXPECT_TRUE(alut.bad[c]) << "code " << c;
        continue;
      }
      EXPECT_FALSE(alut.bad[c]) << "code " << c;
      EXPECT_EQ(alut.scale * static_cast<double>(alut.q[c]), v) << "code " << c;
      EXPECT_GE(alut.q[c], alut.qmin) << "code " << c;
      EXPECT_LE(alut.q[c], alut.qmax) << "code " << c;
    }
  }
  EXPECT_TRUE(any_usable);
  EXPECT_TRUE(
      gemm::build_affine_lut(decode_lut(*core::make_format("INT8")).data())
          .usable);
  for (const char* name : {"MERSIT(8,2)", "FP(8,4)", "Posit(8,1)"}) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(
        gemm::build_affine_lut(decode_lut(*core::make_format(name)).data())
            .usable);
  }
}

// Synthetic edge cases: an unsigned zero-point LUT (s·(c − 128)), a
// denormal-scale LUT (exactness must survive subnormal products), and a
// policy-zeroed NaR entry (the kZero corruption policy maps the non-finite
// code to 0.0, which is on every affine grid).
TEST(Int8Affine, ZeroPointDenormalAndPolicyZeroedLutsQualify) {
  double lut[256];

  // Unsigned interpretation with zero point 128.
  for (int c = 0; c < 256; ++c) lut[c] = 0.125 * (c - 128);
  gemm::AffineLut alut = gemm::build_affine_lut(lut);
  ASSERT_TRUE(alut.usable);
  EXPECT_EQ(alut.scale, 0.125);
  for (int c = 0; c < 256; ++c)
    EXPECT_EQ(static_cast<int>(alut.q[c]), c - 128) << "code " << c;
  EXPECT_EQ(alut.qmin, -128);
  EXPECT_EQ(alut.qmax, 127);

  // Denormal scale: 2^-1060 · q reaches into the subnormal range but every
  // product is still exact (|q| < 2^8 and 1060 + 8 < 1074).
  const double tiny = std::ldexp(1.0, -1060);
  for (int c = 0; c < 256; ++c)
    lut[c] = tiny * static_cast<double>(static_cast<std::int8_t>(c));
  alut = gemm::build_affine_lut(lut);
  ASSERT_TRUE(alut.usable);
  EXPECT_EQ(alut.scale, tiny);
  for (int c = 0; c < 256; ++c)
    EXPECT_EQ(alut.q[c], static_cast<std::int8_t>(c)) << "code " << c;

  // INT8 under the zero-substitute policy: the NaR code decodes to 0.0 and
  // must map to level 0 with the LUT still usable.
  const auto fmt = core::make_format("INT8");
  for (int c = 0; c < 256; ++c)
    lut[c] = formats::decode_with_policy(
        *fmt, static_cast<std::uint8_t>(c),
        formats::CorruptionPolicy::kZeroSubstitute);
  alut = gemm::build_affine_lut(lut);
  ASSERT_TRUE(alut.usable);
  for (int c = 0; c < 256; ++c) {
    EXPECT_FALSE(alut.bad[c]) << "code " << c;
    if (lut[c] == 0.0) {
      EXPECT_EQ(alut.q[c], 0) << "code " << c;
    }
  }

  // Non-affine spot check: one perturbed entry must clear usable.
  for (int c = 0; c < 256; ++c)
    lut[c] = 0.25 * static_cast<double>(static_cast<std::int8_t>(c));
  lut[17] = std::nextafter(lut[17], 1.0);
  EXPECT_FALSE(gemm::build_affine_lut(lut).usable);
}

// --------------------------------------------------------- strict env parse --

TEST(Int8Mode, StrictParseAcceptsExactlyTheFourModes) {
  EXPECT_EQ(gemm::parse_qgemm_mode("float"), gemm::QgemmMode::kFloat);
  EXPECT_EQ(gemm::parse_qgemm_mode("code"), gemm::QgemmMode::kCode);
  EXPECT_EQ(gemm::parse_qgemm_mode("kulisch"), gemm::QgemmMode::kKulisch);
  EXPECT_EQ(gemm::parse_qgemm_mode("int8"), gemm::QgemmMode::kInt8);
  for (const char* bad : {"int-8", "INT8", "in8t", "quire", "", "codes"}) {
    SCOPED_TRACE(bad);
    try {
      (void)gemm::parse_qgemm_mode(bad);
      FAIL() << "accepted \"" << bad << "\"";
    } catch (const std::runtime_error& e) {
      // The message must enumerate every valid value and echo the input.
      const std::string what = e.what();
      EXPECT_NE(what.find("float|code|kulisch|int8"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
    }
  }
}

// ------------------------------------------------------- activation levels --

// quantize_levels must agree with the format's own encode kernel over all
// 256 codes: re-quantizing a decoded value recovers the same level the code
// maps to, which is what makes the int8 activation path exact on
// already-fake-quantized tensors.
TEST(Int8Levels, QuantizeLevelsMatchesFormatEncodeAllCodes) {
  const auto fmt = core::make_format("INT8");
  const auto kernel = formats::kernels::kernel_for(*fmt);
  const auto lut = decode_lut(*fmt);
  const gemm::AffineLut alut = gemm::build_affine_lut(lut.data());
  ASSERT_TRUE(alut.usable);
  const double wscale = 0.375;  // arbitrary stamped tensor scale
  const double inv = 1.0 / (alut.scale * wscale);
  for (int c = 0; c < 256; ++c) {
    if (!std::isfinite(lut[static_cast<std::size_t>(c)])) continue;
    const float x =
        static_cast<float>(lut[static_cast<std::size_t>(c)] * wscale);
    std::int8_t level = 99;
    gemm::quantize_levels(&x, 1, inv, alut.qmin, alut.qmax, &level);
    EXPECT_EQ(level, alut.q[c]) << "code " << c;
    // And the format's encoder agrees the value belongs to this code.
    EXPECT_EQ(kernel->encode(lut[static_cast<std::size_t>(c)]),
              static_cast<std::uint8_t>(c))
        << "code " << c;
  }
  // Clamp and non-finite handling: saturate to the finite level range,
  // NaN → 0 (matches the encode kernels' NaN policy of a zero level).
  const float big = 1e30f, neg = -1e30f, nan = std::numeric_limits<float>::quiet_NaN();
  std::int8_t out[3];
  gemm::quantize_levels(&big, 1, inv, alut.qmin, alut.qmax, out);
  gemm::quantize_levels(&neg, 1, inv, alut.qmin, alut.qmax, out + 1);
  gemm::quantize_levels(&nan, 1, inv, alut.qmin, alut.qmax, out + 2);
  EXPECT_EQ(out[0], alut.qmax);
  EXPECT_EQ(out[1], alut.qmin);
  EXPECT_EQ(out[2], 0);
}

// FakeQuantizer's uniform-grid fast path (SIMD level quantize + per-level
// output table) must be bit-identical to the per-element codec reference
// for every format it engages on — crafted rounding ties, non-finite
// values, signed zeros, denormals, and saturating magnitudes included —
// and must not engage for the non-uniform grids.
TEST(Int8Levels, FakeQuantizerGridPathBitIdenticalToScalarReference) {
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    ptq::CalibrationTable table;
    // calibration_target absmax under kMaxToUnity gives scale exactly 1, so
    // the tie probes below land exactly on the grid midpoints.
    table.input_absmax = static_cast<float>(fmt->calibration_target());
    const ptq::FakeQuantizer fq(table, *fmt,
                                formats::ScalePolicy::kMaxToUnity);
    const auto lut = decode_lut(*fmt);
    const gemm::AffineLut alut = gemm::build_affine_lut(lut.data());
    if (!alut.usable) {
      EXPECT_FALSE(fq.uniform_grid_fast_path());
      continue;
    }
    ASSERT_TRUE(fq.uniform_grid_fast_path());
    const double pitch = alut.scale;
    std::vector<float> vals;
    for (int l = alut.qmin; l <= alut.qmax; ++l) {
      vals.push_back(static_cast<float>(pitch * l));  // exact grid points
      vals.push_back(
          static_cast<float>(pitch * (l + 0.5)));  // exact RNE tie points
      vals.push_back(static_cast<float>(pitch * (l + 0.25)));
    }
    vals.insert(vals.end(),
                {0.f, -0.f, std::numeric_limits<float>::quiet_NaN(),
                 std::numeric_limits<float>::infinity(),
                 -std::numeric_limits<float>::infinity(),
                 std::numeric_limits<float>::denorm_min(), -1e-42f, 1e30f,
                 -1e30f, std::numeric_limits<float>::max()});
    std::mt19937 rng(5);
    std::uniform_real_distribution<float> ud(
        -2.f * static_cast<float>(pitch * alut.qmax),
        2.f * static_cast<float>(pitch * alut.qmax));
    for (int i = 0; i < 4096; ++i) vals.push_back(ud(rng));

    Tensor t({1, static_cast<int>(vals.size())});
    std::vector<float> ref = vals;
    for (std::size_t i = 0; i < vals.size(); ++i) t[i] = vals[i];
    fq.quantize_input(t);  // grid fast path (scale = 1 here)
    const double scale = formats::scale_for_absmax(
        *fmt, table.input_absmax, formats::ScalePolicy::kMaxToUnity);
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
}

// ------------------------------------------------ per-backend kernel gates --

/// Naive integer reference of the documented contract: exact int32 level
/// accumulation, one dequant rounding chain at write-back, optional
/// per-row affine, then the epilogue.
void int8_reference(int M, int N, int K, const std::int8_t* qa, double ua,
                    const double* sa_rows, const std::int8_t* qb_t,
                    const double* sb_cols, double ub, const float* bias,
                    bool bias_per_col, const float* aff_s, const float* aff_t,
                    gemm::Epilogue epi, float* c) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      std::int32_t acc = 0;
      for (int k = 0; k < K; ++k)
        acc += static_cast<std::int32_t>(qa[static_cast<std::size_t>(m) * K + k]) *
               static_cast<std::int32_t>(qb_t[static_cast<std::size_t>(n) * K + k]);
      const double sa = sa_rows != nullptr ? sa_rows[m] : ua;
      const double sb = sb_cols != nullptr ? sb_cols[n] : ub;
      const double init =
          bias != nullptr ? static_cast<double>(bias[bias_per_col ? n : m]) : 0.0;
      float v = static_cast<float>(init + static_cast<double>(acc) * (sa * sb));
      if (aff_s != nullptr) v = aff_s[m] * v + aff_t[m];
      c[static_cast<std::size_t>(m) * N + n] = gemm::epilogue_eval(epi, v);
    }
  }
}

// Every compiled-in backend the host supports must produce bitwise-identical
// output to the naive integer reference — prepacked and pack-per-call, with
// and without the RowAffine + epilogue write-back, at dimensions that cross
// the MC/KC/NC cache blocks and leave ragged panel remainders.
TEST(Int8Kernel, AllBackendsBitwiseIdenticalToScalarIntegerReference) {
  constexpr int kM = 130, kK = 300, kN = 37;
  // Synthetic all-finite affine LUT so every one of the 256 codes appears.
  double lut[256];
  for (int c = 0; c < 256; ++c)
    lut[c] = 0.0625 * static_cast<double>(static_cast<std::int8_t>(c));
  const gemm::AffineLut alut = gemm::build_affine_lut(lut);
  ASSERT_TRUE(alut.usable);

  std::vector<std::uint8_t> a(static_cast<std::size_t>(kM) * kK);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::uint8_t>((i * 7 + i / 256) & 0xFF);
  std::vector<std::uint8_t> bt(static_cast<std::size_t>(kN) * kK);  // N x K
  for (std::size_t i = 0; i < bt.size(); ++i)
    bt[i] = static_cast<std::uint8_t>((i * 11 + i / 256) & 0xFF);

  std::vector<std::int8_t> qa(a.size()), qb(bt.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    qa[i] = alut.q[a[i]];
  for (std::size_t i = 0; i < bt.size(); ++i)
    qb[i] = alut.q[bt[i]];

  std::vector<double> col_scales(kN);
  for (int n = 0; n < kN; ++n)
    col_scales[static_cast<std::size_t>(n)] = alut.scale * 0.25 * (n % 7 + 1);
  const double ua = alut.scale * 1.5;
  std::vector<float> bias(kN);
  for (int n = 0; n < kN; ++n)
    bias[static_cast<std::size_t>(n)] = 0.01f * static_cast<float>(n - 18);
  std::vector<float> aff_s(kM), aff_t(kM);
  for (int m = 0; m < kM; ++m) {
    aff_s[static_cast<std::size_t>(m)] = 0.75f + 0.001f * static_cast<float>(m);
    aff_t[static_cast<std::size_t>(m)] = -0.2f + 0.01f * static_cast<float>(m % 9);
  }

  std::vector<float> want_plain(static_cast<std::size_t>(kM) * kN);
  int8_reference(kM, kN, kK, qa.data(), ua, nullptr, qb.data(),
                 col_scales.data(), 0.0, bias.data(), /*bias_per_col=*/true,
                 nullptr, nullptr, gemm::Epilogue::kNone, want_plain.data());
  std::vector<float> want_fused(want_plain.size());
  int8_reference(kM, kN, kK, qa.data(), ua, nullptr, qb.data(),
                 col_scales.data(), 0.0, bias.data(), /*bias_per_col=*/true,
                 aff_s.data(), aff_t.data(), gemm::Epilogue::kReLU,
                 want_fused.data());

  const gemm::Int8Operand opa{a.data(), kK, /*trans=*/false, alut.q, nullptr, ua};
  const gemm::Int8Operand opb{bt.data(), kK, /*trans=*/true, alut.q,
                              col_scales.data(), 0.0};
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    SCOPED_TRACE(be->name);
    const BackendGuard guard(*be);

    std::vector<float> got(want_plain.size());
    gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kBiasCol, bias.data(),
                     got.data(), kN);
    EXPECT_EQ(std::memcmp(got.data(), want_plain.data(),
                          got.size() * sizeof(float)),
              0)
        << "pack-per-call";

    const gemm::PackedInt8 pa =
        gemm::pack_a_int8_matrix(kM, kK, a.data(), kK, false, alut.q);
    const gemm::PackedInt8 pb =
        gemm::pack_b_int8_matrix(kK, kN, bt.data(), kK, true, alut.q);
    std::fill(got.begin(), got.end(), -1.f);
    gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kBiasCol, bias.data(),
                     got.data(), kN, nullptr, gemm::Epilogue::kNone, &pa, &pb);
    EXPECT_EQ(std::memcmp(got.data(), want_plain.data(),
                          got.size() * sizeof(float)),
              0)
        << "prepacked";

    gemm::RowAffine aff{aff_s.data(), aff_t.data()};
    std::fill(got.begin(), got.end(), -1.f);
    gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kBiasCol, bias.data(),
                     got.data(), kN, nullptr, gemm::Epilogue::kReLU, &pa, &pb,
                     &aff);
    EXPECT_EQ(std::memcmp(got.data(), want_fused.data(),
                          got.size() * sizeof(float)),
              0)
        << "affine+epilogue";
  }
}

// The driver's exactness preconditions are enforced loudly, and results are
// invariant to the worker count (tiles are computed whole, integer
// accumulation is exact).
TEST(Int8Kernel, RejectsUnsafeCallsAndStaysThreadCountInvariant) {
  double lut[256];
  for (int c = 0; c < 256; ++c)
    lut[c] = 0.5 * static_cast<double>(static_cast<std::int8_t>(c));
  const gemm::AffineLut alut = gemm::build_affine_lut(lut);
  ASSERT_TRUE(alut.usable);
  constexpr int kM = 45, kK = 267, kN = 129;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(kM) * kK);
  std::vector<std::uint8_t> b(static_cast<std::size_t>(kK) * kN);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::uint8_t>((i * 13) & 0xFF);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>((i * 29) & 0xFF);
  const gemm::Int8Operand opa{a.data(), kK, false, alut.q, nullptr,
                              alut.scale};
  const gemm::Int8Operand opb{b.data(), kN, false, alut.q, nullptr,
                              alut.scale};
  std::vector<float> c(static_cast<std::size_t>(kM) * kN);

  // K beyond the exact-int32 bound and rounded-partial continuation.
  EXPECT_THROW(gemm::qgemm_int8(1, 1, gemm::kInt8MaxK + 1, opa, opb,
                                gemm::Init::kZero, nullptr, c.data(), 1),
               std::invalid_argument);
  EXPECT_THROW(gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kAccumulate,
                                nullptr, c.data(), kN),
               std::invalid_argument);
  gemm::Int8Operand no_lut = opa;
  no_lut.qlut = nullptr;
  EXPECT_THROW(gemm::qgemm_int8(kM, kN, kK, no_lut, opb, gemm::Init::kZero,
                                nullptr, c.data(), kN),
               std::invalid_argument);
  // A prepacked operand must match the call shape...
  const gemm::PackedInt8 wrong_m =
      gemm::pack_a_int8_matrix(kM - 1, kK, a.data(), kK, false, alut.q);
  EXPECT_THROW(gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kZero,
                                nullptr, c.data(), kN, nullptr,
                                gemm::Epilogue::kNone, &wrong_m),
               std::invalid_argument);
  // ...and the active backend: panels packed under scalar are misindexed by
  // any other backend.
  for (const gemm::Backend* be : gemm::backends()) {
    if (be == &gemm::scalar_backend() || !be->supported()) continue;
    SCOPED_TRACE(be->name);
    gemm::PackedInt8 pa, pb;
    {
      const BackendGuard guard(gemm::scalar_backend());
      pa = gemm::pack_a_int8_matrix(kM, kK, a.data(), kK, false, alut.q);
      pb = gemm::pack_b_int8_matrix(kK, kN, b.data(), kN, false, alut.q);
    }
    const BackendGuard guard(*be);
    EXPECT_THROW(gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kZero,
                                  nullptr, c.data(), kN, nullptr,
                                  gemm::Epilogue::kNone, &pa, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kZero,
                                  nullptr, c.data(), kN, nullptr,
                                  gemm::Epilogue::kNone, nullptr, &pb),
                 std::invalid_argument);
  }

  gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kZero, nullptr, c.data(),
                   kN);
  const std::vector<float> base = c;
  for (const int threads : {1, 13}) {
    core::resize_global_pool(threads);
    std::fill(c.begin(), c.end(), -1.f);
    gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kZero, nullptr,
                     c.data(), kN);
    EXPECT_EQ(std::memcmp(c.data(), base.data(), c.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
  core::resize_global_pool(4);  // suite default
}

// ----------------------------------------------------------- layer dispatch --

// A Linear under MERSIT_QGEMM=int8 with INT8 codes and a stamped activation
// scale takes the integer path — on every supported backend, bit-identical
// to quantizing the activations with quantize_levels and calling
// qgemm_int8 directly (under the scalar reference backend) with
// identity_qlut() and the layer's weight operand — and stays within the
// documented K·2^-24-order tolerance of the code-mode result.  The second
// shape crosses a kc block and leaves ragged row and column panels, so the
// identity-map A pack (and its AVX-512 VNNI bias) runs on edge panels too.
// A non-affine format under the same mode falls back to code mode bitwise.
TEST(Int8Layer, LinearForwardTakesIntegerPathAndFallsBackPerFormat) {
  const auto fmt = core::make_format("INT8");
  const auto kernel = formats::kernels::kernel_for(*fmt);
  const Context ctx{/*train=*/false, nullptr};
  std::mt19937 rng(11);
  std::mt19937 xrng(23);
  for (const auto [n, in, out] : {std::array{5, 32, 7}, std::array{13, 300, 19}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " K=" + std::to_string(in));
    Linear lin(in, out, rng);
    for (int o = 0; o < out; ++o)
      lin.bias.value[o] = 0.01f * static_cast<float>(o);
    ptq::install_weight_codes(lin, *fmt, formats::ScalePolicy::kMaxToUnity);
    const auto wc = lin.weight_codes();
    ASSERT_NE(wc, nullptr);
    ASSERT_NE(wc->affine, nullptr);
    ASSERT_TRUE(wc->affine->usable);
    const gemm::AffineLut& alut = *wc->affine;

    Tensor x = Tensor::randn({n, in}, xrng, 1.f);
    const double xscale = formats::scale_for_absmax(
        *fmt, x.abs_max(), formats::ScalePolicy::kMaxToUnity);
    kernel->fake_quantize(x.data(), xscale);
    x.set_quant_scale(xscale);

    // Direct integer reference, built from the layer's codes.
    std::vector<std::int8_t> xq(static_cast<std::size_t>(n) * in);
    gemm::quantize_levels(x.raw(), xq.size(), 1.0 / (alut.scale * xscale),
                          alut.qmin, alut.qmax, xq.data());
    std::vector<double> iscales(wc->scales.size());
    for (std::size_t o = 0; o < iscales.size(); ++o)
      iscales[o] = alut.scale * wc->scales[o];
    const gemm::Int8Operand a{reinterpret_cast<const std::uint8_t*>(xq.data()),
                              in, false, gemm::identity_qlut(), nullptr,
                              alut.scale * xscale};
    const gemm::Int8Operand b{wc->codes.data(), in, true, alut.q,
                              iscales.data(), 0.0};

    Tensor y_direct({n, out});
    {
      const BackendGuard guard(gemm::scalar_backend());
      gemm::qgemm_int8(n, out, in, a, b, gemm::Init::kBiasCol,
                       lin.bias.value.raw(), y_direct.raw(), out);
    }

    Tensor y_int8;
    for (const gemm::Backend* be : gemm::backends()) {
      if (!be->supported()) continue;
      SCOPED_TRACE(be->name);
      const BackendGuard guard(*be);
      {
        const ModeGuard mode(gemm::QgemmMode::kInt8);
        y_int8 = lin.forward(x, ctx);
      }
      EXPECT_TRUE(bitwise_equal(y_int8, y_direct));
    }

    // Same values as code mode, K float roundings apart at most.
    Tensor y_code;
    {
      const ModeGuard mode(gemm::QgemmMode::kCode);
      y_code = lin.forward(x, ctx);
    }
    for (std::int64_t i = 0; i < y_code.numel(); ++i)
      EXPECT_NEAR(y_int8[i], y_code[i], 1e-4f * (1.f + std::fabs(y_code[i])))
          << i;
  }

  // MERSIT is not affine: under int8 mode the layer must fall back to the
  // code path, bit for bit.
  std::mt19937 rng2(11);
  Linear lin_mersit(32, 7, rng2);
  for (int o = 0; o < 7; ++o)
    lin_mersit.bias.value[o] = 0.01f * static_cast<float>(o);
  const auto mersit = core::make_format("MERSIT(8,2)");
  ptq::install_weight_codes(lin_mersit, *mersit,
                            formats::ScalePolicy::kMaxToUnity);
  ASSERT_EQ(lin_mersit.weight_codes()->affine, nullptr);
  const auto mkernel = formats::kernels::kernel_for(*mersit);
  Tensor xm = Tensor::randn({5, 32}, xrng, 1.f);
  const double mscale = formats::scale_for_absmax(
      *mersit, xm.abs_max(), formats::ScalePolicy::kMaxToUnity);
  mkernel->fake_quantize(xm.data(), mscale);
  xm.set_quant_scale(mscale);
  Tensor ym_int8, ym_code;
  {
    const ModeGuard mode(gemm::QgemmMode::kInt8);
    ym_int8 = lin_mersit.forward(xm, ctx);
  }
  {
    const ModeGuard mode(gemm::QgemmMode::kCode);
    ym_code = lin_mersit.forward(xm, ctx);
  }
  EXPECT_TRUE(bitwise_equal(ym_int8, ym_code));
}

// A Conv2d under int8 mode takes the integer path — bit-identical to the
// direct qgemm_int8 computation with the layer's operands — including with
// a fused inference BN riding the RowAffine write-back plus an activation
// epilogue (the combination Kulisch mode cannot fuse).
TEST(Int8Layer, ConvForwardTakesIntegerPathWithBnAffineAndEpilogue) {
  const auto fmt = core::make_format("INT8");
  const auto kernel = formats::kernels::kernel_for(*fmt);
  std::mt19937 rng(31);
  Conv2d conv(4, 6, 1, 1, 0, 1, rng);  // unit conv: the col buffer is the slab
  for (int o = 0; o < 6; ++o)
    conv.bias.value[o] = 0.02f * static_cast<float>(o - 3);
  ptq::install_weight_codes(conv, *fmt, formats::ScalePolicy::kMaxToUnity);
  const auto wc = conv.weight_codes();
  ASSERT_NE(wc, nullptr);
  ASSERT_NE(wc->affine, nullptr);
  ASSERT_TRUE(wc->affine->usable);
  const gemm::AffineLut& alut = *wc->affine;

  BatchNorm2d bn(6);
  for (int c = 0; c < 6; ++c) {
    bn.gamma.value[c] = 0.8f + 0.05f * static_cast<float>(c);
    bn.beta.value[c] = 0.1f * static_cast<float>(c) - 0.2f;
    bn.running_mean[c] = 0.05f * static_cast<float>(c);
    bn.running_var[c] = 1.f + 0.1f * static_cast<float>(c);
  }

  std::mt19937 xrng(37);
  Tensor x = Tensor::randn({2, 4, 5, 5}, xrng, 1.f);
  const double xscale = formats::scale_for_absmax(
      *fmt, x.abs_max(), formats::ScalePolicy::kMaxToUnity);
  kernel->fake_quantize(x.data(), xscale);
  x.set_quant_scale(xscale);

  Tensor y_plain, y_bn;
  const Context ctx{/*train=*/false, nullptr};
  {
    const ModeGuard mode(gemm::QgemmMode::kInt8);
    y_plain = conv.forward_fused(x, ctx, gemm::Epilogue::kReLU);
    y_bn = conv.forward_bn_fused(x, ctx, bn, gemm::Epilogue::kReLU);
  }

  // Direct reference with the layer's exact operands: per-sample GEMM over
  // the input slab (kdim = 4, osz = 25), weights as the channel-scaled A
  // operand, quantized activation levels as the uniform-scaled B operand.
  constexpr int kOsz = 25, kKdim = 4, kOc = 6;
  std::vector<double> iscales(wc->scales.size());
  for (std::size_t o = 0; o < iscales.size(); ++o)
    iscales[o] = alut.scale * wc->scales[o];
  std::vector<float> sc(kOc), sh(kOc);
  for (int c = 0; c < kOc; ++c) {
    const float inv = 1.f / std::sqrt(bn.running_var[c] + bn.eps());
    sc[static_cast<std::size_t>(c)] = bn.gamma.value[c] * inv;
    sh[static_cast<std::size_t>(c)] =
        bn.beta.value[c] - bn.running_mean[c] * sc[static_cast<std::size_t>(c)];
  }
  Tensor want_plain({2, kOc, 5, 5}), want_bn({2, kOc, 5, 5});
  std::vector<std::int8_t> qcol(static_cast<std::size_t>(kKdim) * kOsz);
  for (int b = 0; b < 2; ++b) {
    const float* slab =
        x.raw() + static_cast<std::size_t>(b) * kKdim * kOsz;
    gemm::quantize_levels(slab, qcol.size(), 1.0 / (alut.scale * xscale),
                          alut.qmin, alut.qmax, qcol.data());
    const gemm::Int8Operand a{wc->codes.data(), kKdim, /*trans=*/false,
                              alut.q, iscales.data(), 0.0};
    const gemm::Int8Operand bop{
        reinterpret_cast<const std::uint8_t*>(qcol.data()), kOsz,
        /*trans=*/false, gemm::identity_qlut(), nullptr, alut.scale * xscale};
    gemm::qgemm_int8(kOc, kOsz, kKdim, a, bop, gemm::Init::kBiasRow,
                     conv.bias.value.raw(),
                     want_plain.raw() + static_cast<std::size_t>(b) * kOc * kOsz,
                     kOsz, nullptr, gemm::Epilogue::kReLU);
    const gemm::RowAffine aff{sc.data(), sh.data()};
    gemm::qgemm_int8(kOc, kOsz, kKdim, a, bop, gemm::Init::kBiasRow,
                     conv.bias.value.raw(),
                     want_bn.raw() + static_cast<std::size_t>(b) * kOc * kOsz,
                     kOsz, nullptr, gemm::Epilogue::kReLU, nullptr, nullptr,
                     &aff);
  }
  EXPECT_TRUE(bitwise_equal(y_plain, want_plain));
  EXPECT_TRUE(bitwise_equal(y_bn, want_bn));
}

// ------------------------------------------------------------- end to end --

class Int8ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fmt_ = core::make_format("INT8");
    std::mt19937 rng(42);
    proto_ = make_resnet_mini(3, 10, 1, rng);
    calib_ = std::make_unique<Dataset>(make_vision_dataset(8, 3, 8, /*seed=*/3));
    test_ = std::make_unique<Dataset>(make_vision_dataset(12, 3, 8, /*seed=*/4));
    table_ = std::make_unique<ptq::CalibrationTable>(
        ptq::calibrate_model(*proto_, *calib_));
    probe_ = std::make_unique<Tensor>(Tensor({2, 3, 8, 8}));
    std::mt19937 prng(17);
    std::normal_distribution<float> nd(0.f, 1.f);
    for (std::int64_t i = 0; i < probe_->numel(); ++i) (*probe_)[i] = nd(prng);
  }
  static void TearDownTestSuite() {
    proto_.reset();
    calib_.reset();
    test_.reset();
    table_.reset();
    probe_.reset();
    fmt_.reset();
  }

  static Tensor quant_forward(Module& model) {
    ptq::FakeQuantizer fq(*table_, *fmt_, formats::ScalePolicy::kMaxToUnity);
    fq.set_input_quantization(true);
    Tensor x = *probe_;
    fq.on_input(x);
    const Context ctx{/*train=*/false, &fq};
    return model.run(x, ctx);
  }

  static std::shared_ptr<const formats::Format> fmt_;
  static ModulePtr proto_;
  static std::unique_ptr<Dataset> calib_, test_;
  static std::unique_ptr<ptq::CalibrationTable> table_;
  static std::unique_ptr<Tensor> probe_;
};

std::shared_ptr<const formats::Format> Int8ModelTest::fmt_;
ModulePtr Int8ModelTest::proto_;
std::unique_ptr<Dataset> Int8ModelTest::calib_, Int8ModelTest::test_;
std::unique_ptr<ptq::CalibrationTable> Int8ModelTest::table_;
std::unique_ptr<Tensor> Int8ModelTest::probe_;

// The full conv/BN-fused/linear network under int8 mode: outputs stay
// within the documented per-element tolerance of the code-mode forward
// (shared values, K float roundings apart), the result is invariant to
// thread count, and the FP32 weights are never touched.
TEST_F(Int8ModelTest, ForwardWithinContractToleranceOfCodeMode) {
  const ModulePtr model = proto_->clone();
  const ptq::WeightSnapshot before = ptq::snapshot_weights(*model);
  ptq::install_weight_codes(*model, *fmt_, formats::ScalePolicy::kMaxToUnity);

  Tensor y_code;
  {
    const ModeGuard mode(gemm::QgemmMode::kCode);
    y_code = quant_forward(*model);
  }
  Tensor y_int8, y_t1, y_t13;
  {
    const ModeGuard mode(gemm::QgemmMode::kInt8);
    y_int8 = quant_forward(*model);
    core::resize_global_pool(1);
    y_t1 = quant_forward(*model);
    core::resize_global_pool(13);
    y_t13 = quant_forward(*model);
    core::resize_global_pool(4);
  }
  EXPECT_TRUE(bitwise_equal(y_int8, y_t1));
  EXPECT_TRUE(bitwise_equal(y_int8, y_t13));
  // Note: the quant hooks re-quantize every intermediate activation to the
  // 8-bit grid, which usually snaps the int8-vs-code accumulation noise
  // back to identical codes — so the outputs here are often bit-equal, and
  // the proof that the integer path actually runs is the direct
  // qgemm_int8-vs-layer bitwise gates in Int8Layer.*.
  for (std::int64_t i = 0; i < y_code.numel(); ++i)
    EXPECT_NEAR(y_int8[i], y_code[i], 2e-3f * (1.f + std::fabs(y_code[i])))
        << i;

  const ptq::WeightSnapshot after = ptq::snapshot_weights(*model);
  ASSERT_EQ(before.values.size(), after.values.size());
  for (std::size_t i = 0; i < before.values.size(); ++i)
    EXPECT_TRUE(bitwise_equal(before.values[i], after.values[i])) << i;
}

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
// MERSIT_QGEMM=int8 serves responses bit-identical to the quiesced replica
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
  engine.register_model("m", *proto_, serve::ModelConfig{{3, 8, 8}, true});
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
