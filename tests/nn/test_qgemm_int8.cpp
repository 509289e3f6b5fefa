// Decode-free int8 path (QgemmMode::kInt8): the codec's int8 grid must be
// usable for exactly the affine family (INT8 — exhaustively over all 256
// codes) and for no non-affine registered format (MERSIT, posit, FP8); the
// integer micro-kernel must be bitwise identical to the scalar
// integer reference on every compiled-in backend, prepacked or not, at any
// thread count (integer accumulation is associative, so this is ULP 0 by
// construction, not tolerance); and the end-to-end wiring —
// ptq::evaluate_with_table, serve::Engine hot-swap, a corrupted artifact —
// must hold the documented ULP contract vs the float code path.  Layer
// dispatch and whole-model forwards are the contract matrix in
// test_gemm.cpp (Gemm/LayerPath, Gemm/ModelPath).  Runs under the
// `concurrency` TSan label with the rest of the qgemm suite.
#include <gtest/gtest.h>

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

using reference::BackendGuard;
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

/// A synthetic all-finite grid for the kernel gates: every code is its own
/// two's-complement level (gemm::identity_qlut), so all 256 levels appear.
struct SyntheticGrid {
  const std::int8_t* q;
  double scale;
};

// ------------------------------------------------------- activation levels --

// quantize_levels must agree with the format's own encode kernel over all
// 256 codes: re-quantizing a decoded value recovers the same level the code
// maps to, which is what makes the int8 activation path exact on
// already-fake-quantized tensors.
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
    const formats::TableCodec::Int8Grid& grid = fmt->codec().int8_grid();
    if (!grid.usable) {
      EXPECT_FALSE(fq.uniform_grid_fast_path());
      continue;
    }
    ASSERT_TRUE(fq.uniform_grid_fast_path());
    const double pitch = grid.pitch;
    std::vector<float> vals;
    for (int l = -grid.qmax; l <= grid.qmax; ++l) {
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
        -2.f * static_cast<float>(pitch * grid.qmax),
        2.f * static_cast<float>(pitch * grid.qmax));
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
  const SyntheticGrid alut{gemm::identity_qlut(), 0.0625};

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
  const SyntheticGrid alut{gemm::identity_qlut(), 0.5};
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
    const reference::PoolWidthGuard pool(threads);
    std::fill(c.begin(), c.end(), -1.f);
    gemm::qgemm_int8(kM, kN, kK, opa, opb, gemm::Init::kZero, nullptr,
                     c.data(), kN);
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
