// Code-domain quantized GEMM: the contract is that running a layer from its
// 8-bit weight codes is *bit-identical* to running the quantize→dequantized
// FP32 weights.  Code mode decodes the codes once (gemm::decode_codes,
// pinned here against the scalar codec for every registered format over all
// 256 codes — ties, ±0, NaR/Inf/NaN, denormals) and packs the decoded array
// through the FP32 pack routines, so everything stacked on top
// (install_code_weights, the layer weight plans, evaluate_with_table's code
// path) must preserve that identity end to end.  The opt-in Kulisch mode is
// held to its documented ULP contract instead.  Layer and whole-model
// forwards on every path are the contract matrix in test_gemm.cpp
// (Gemm/LayerPath, Gemm/ModelPath).  Runs under the `concurrency` TSan
// label: the GEMM fan-out and the weight plans are hot concurrent paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "fault/bitflip.h"
#include "formats/corruption.h"
#include "formats/kernels/quant_kernel.h"
#include "formats/quantize.h"
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

namespace mersit::nn {
namespace {

using reference::bitwise_equal;
using reference::decode_lut;
using reference::ModeGuard;

// ------------------------------------------------------------ code decode --

// decode_codes must match the scalar codec path byte for byte — the exact
// expression unpack_weights evaluates per element — for all 256 codes and
// both corruption policies.
TEST(QgemmPack, DecodeCodesMatchesScalarCodecByteForByte) {
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    for (const auto policy : {formats::CorruptionPolicy::kPropagate,
                              formats::CorruptionPolicy::kZeroSubstitute}) {
      double lut[256];
      for (int c = 0; c < 256; ++c)
        lut[c] = formats::decode_with_policy(*fmt, static_cast<std::uint8_t>(c),
                                             policy);
      // 16 channels x 16 elements = all 256 codes, channel-varied scales.
      std::vector<std::uint8_t> codes(256);
      for (int i = 0; i < 256; ++i) codes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(i);
      std::vector<double> scales(16);
      for (int c = 0; c < 16; ++c) scales[static_cast<std::size_t>(c)] =
          0.0078125 * (c + 1);
      std::vector<float> out(256);
      gemm::decode_codes(codes.data(), codes.size(), lut, scales.data(), 16,
                         out.data());
      for (int i = 0; i < 256; ++i) {
        const float ref = static_cast<float>(
            formats::decode_with_policy(*fmt, codes[static_cast<std::size_t>(i)],
                                        policy) *
            scales[static_cast<std::size_t>(i / 16)]);
        EXPECT_EQ(std::memcmp(&out[static_cast<std::size_t>(i)], &ref,
                              sizeof(float)),
                  0)
            << "code " << i;
      }
    }
  }
}

// ----------------------------------------------------- in-process installs --

class QgemmModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
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
  }

  /// Quantized forward of the probe through `model` with the suite's
  /// calibration — the replica path (input quantization + activation hooks).
  static Tensor quant_forward(Module& model, const formats::Format& fmt) {
    ptq::FakeQuantizer fq(*table_, fmt, formats::ScalePolicy::kMaxToUnity);
    fq.set_input_quantization(true);
    Tensor x = *probe_;
    fq.on_input(x);
    const Context ctx{/*train=*/false, &fq};
    return model.run(x, ctx);
  }

  static ModulePtr proto_;
  static std::unique_ptr<Dataset> test_;
  static std::unique_ptr<ptq::CalibrationTable> table_;
  static std::unique_ptr<Tensor> probe_;
};

ModulePtr QgemmModelTest::proto_;
std::unique_ptr<Dataset> QgemmModelTest::test_;
std::unique_ptr<ptq::CalibrationTable> QgemmModelTest::table_;
std::unique_ptr<Tensor> QgemmModelTest::probe_;

// evaluate_with_table under code mode returns the identical metric to the
// float-path snapshot/quantize/restore pipeline, and leaves the weights
// bitwise untouched.
TEST_F(QgemmModelTest, EvaluateWithTableCodeModeMatchesFloatMode) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const ModulePtr model = proto_->clone();
  const ptq::WeightSnapshot before = ptq::snapshot_weights(*model);
  float m_float = 0.f, m_code = 0.f;
  {
    const ModeGuard mode(gemm::QgemmMode::kFloat);
    m_float = ptq::evaluate_with_table(*model, *table_, *test_, *fmt);
  }
  {
    const ModeGuard mode(gemm::QgemmMode::kCode);
    m_code = ptq::evaluate_with_table(*model, *table_, *test_, *fmt);
  }
  EXPECT_EQ(m_float, m_code);
  const ptq::WeightSnapshot after = ptq::snapshot_weights(*model);
  ASSERT_EQ(before.values.size(), after.values.size());
  for (std::size_t i = 0; i < before.values.size(); ++i)
    EXPECT_TRUE(bitwise_equal(before.values[i], after.values[i])) << i;
  // No stray codes left behind.
  for (Module* m : model->modules()) {
    if (auto* cw = dynamic_cast<ChannelWeights*>(m)) {
      EXPECT_EQ(cw->weight_codes(), nullptr);
    }
  }
}

// --------------------------------------------------------- artifact installs --

// install_code_weights runs the MQT1 artifact code-domain: forward outputs
// are bit-identical to unpack_weights' FP32 decode — including for
// artifacts corrupted by seeded bit flips, under both corruption policies,
// never crashing and agreeing on the non-finite counters.
TEST_F(QgemmModelTest, ArtifactCodesBitIdenticalToUnpackEvenWhenCorrupted) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const ptq::QuantizedModel clean =
      ptq::pack_weights(*proto_, *fmt, formats::ScalePolicy::kMaxToUnity);

  for (const std::uint64_t seed : {0ull, 1ull, 0xDEADull}) {
    for (const auto policy : {formats::CorruptionPolicy::kZeroSubstitute,
                              formats::CorruptionPolicy::kPropagate}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " policy="
                                      << static_cast<int>(policy));
      ptq::QuantizedModel qm = clean;
      fault::BitFlipInjector injector(seed);
      if (seed != 0) injector.inject_ber(qm, 0.01);

      const ModulePtr unpacked = proto_->clone();
      formats::CorruptionStats stats_unpack;
      ptq::unpack_weights(*unpacked, qm, *fmt, policy, &stats_unpack);
      const ModeGuard fmode(gemm::QgemmMode::kFloat);
      const Tensor ref = quant_forward(*unpacked, *fmt);

      const ModulePtr coded = proto_->clone();
      formats::CorruptionStats stats_install;
      ptq::install_code_weights(*coded, qm, *fmt, policy, &stats_install);
      EXPECT_EQ(stats_install.non_finite, stats_unpack.non_finite);
      const ModeGuard cmode(gemm::QgemmMode::kCode);
      EXPECT_TRUE(bitwise_equal(quant_forward(*coded, *fmt), ref));
    }
  }

  // Under Kulisch, a kPropagate payload that keeps a non-finite code runs
  // the FP32 kernel on that layer and says why; the other layers run the
  // quire.
  std::uint8_t nar = 0;  // the first non-finite code
  while (std::isfinite(fmt->decode_value(nar))) ++nar;
  ptq::QuantizedModel poisoned = clean;
  poisoned.tensors.front().codes.front() = nar;
  const ModulePtr coded = proto_->clone();
  ptq::install_code_weights(*coded, poisoned, *fmt, formats::CorruptionPolicy::kPropagate);
  const ModeGuard kmode(gemm::QgemmMode::kKulisch);
  (void)quant_forward(*coded, *fmt);
  const std::vector<LayerPlan> plans = weight_plans(*coded);
  ASSERT_EQ(plans.size(), poisoned.tensors.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].plan->kernel, i == 0 ? WeightKernel::kFp32 : WeightKernel::kKulisch)
        << plans[i].layer;
    EXPECT_EQ(plans[i].plan->reason, i == 0 ? PlanFallback::kNonFinite : PlanFallback::kNone);
  }
}

// The model-aware load_artifact_pair overload rejects an artifact whose
// element counts do not match the target modules' weight shapes, naming
// the offending layer path — at load, before anything is installed.
TEST_F(QgemmModelTest, LoadArtifactPairRejectsShapeMismatchByPath) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  ptq::QuantizedModel qm =
      ptq::pack_weights(*proto_, *fmt, formats::ScalePolicy::kMaxToUnity);
  // Grow one tensor's element count (consistently with its own header) so
  // the container still parses but no longer fits the model.
  ptq::QuantizedTensor& t = qm.tensors[1];
  const int per = t.shape[1];
  t.shape[1] = per + 1;
  t.codes.resize(static_cast<std::size_t>(t.channels) * (per + 1), 0);
  std::ostringstream mqt1s;
  qm.save(mqt1s);
  std::ostringstream mct1s;
  table_->save(mct1s);

  std::istringstream mct1(std::move(mct1s).str()), mqt1(std::move(mqt1s).str());
  const ModulePtr model = proto_->clone();
  try {
    (void)ptq::load_artifact_pair(mct1, mqt1, *fmt, *model);
    FAIL() << "shape-mismatched artifact accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Names the offending layer by path.
    Module* second = nullptr;
    int seen = 0;
    for (Module* m : model->modules())
      if (dynamic_cast<ChannelWeights*>(m) != nullptr && seen++ == 1) second = m;
    ASSERT_NE(second, nullptr);
    EXPECT_NE(what.find(second->path()), std::string::npos) << what;
    EXPECT_NE(what.find("element count mismatch"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------ weight plans --

// Regression for stale-plan holes.  A layer's plan is reused only when it
// was compiled for the installed payload, the Param version, the requested
// path and the active backend, and three of those change without touching
// the version: installing new codes leaves the FP32 weights alone, a
// backend switch changes only the panel layout, and a path flip between
// code and int8 changes only which kernel and panels the forward reads.
// Each block below changes one of them on a warm layer and requires the
// next forward to be bitwise equal to a never-compiled layer's.  Sized so
// the GEMM reads the packed panels (M·N·K above sgemm's direct-loop
// cutoff).
TEST(QgemmWeightPlan, RecompilesOnNewPayloadBackendOrPath) {
  constexpr int kIn = 64, kOut = 48, kBatch = 8;
  const Context ctx{/*train=*/false, nullptr};
  const auto mersit = core::make_format("MERSIT(8,2)");
  const auto fp84 = core::make_format("FP(8,4)");
  const auto int8 = core::make_format("INT8");

  // Activations on the INT8 grid with a stamped scale, so int8-path
  // forwards take the integer kernel.
  std::mt19937 xrng(9);
  Tensor x = Tensor::randn({kBatch, kIn}, xrng, 1.f);
  reference::fake_quantize(x, *int8);

  // Every layer comes from the same seed, so only the codes differ.
  const auto make = [&](const formats::Format& fmt) {
    std::mt19937 rng(5);
    auto lin = std::make_unique<Linear>(kIn, kOut, rng);
    ptq::install_weight_codes(*lin, fmt, formats::ScalePolicy::kMaxToUnity);
    return lin;
  };
  const auto run = [&](Linear& lin, gemm::QgemmMode mode) {
    const ModeGuard guard(mode);
    return lin.forward(x, ctx);
  };
  constexpr auto kCode = gemm::QgemmMode::kCode;
  constexpr auto kInt8 = gemm::QgemmMode::kInt8;

  {
    SCOPED_TRACE("new payload");
    auto cached = make(*mersit);
    const Tensor old = run(*cached, kCode);  // warms MERSIT panels
    ptq::install_weight_codes(*cached, *fp84,
                              formats::ScalePolicy::kMaxToUnity);
    EXPECT_EQ(cached->weight_plan(), nullptr);  // the install drops the plan
    const Tensor want = run(*make(*fp84), kCode);
    EXPECT_TRUE(bitwise_equal(run(*cached, kCode), want));
    // Sanity: the two formats produce different outputs, so stale MERSIT
    // panels could not have passed the check above by coincidence.
    EXPECT_FALSE(bitwise_equal(old, want));
  }
  {
    SCOPED_TRACE("backend switch");
    auto cached = make(*mersit);
    {
      const test::TierGuard guard(test::executable_tiers().back());
      (void)run(*cached, kCode);  // warms panels in the widest tier's layout
    }
    const test::TierGuard scalar(core::Tier::kScalar);
    Tensor got;
    EXPECT_NO_THROW(got = run(*cached, kCode));
    EXPECT_TRUE(bitwise_equal(got, run(*make(*mersit), kCode)));
    EXPECT_EQ(cached->weight_plan()->backend_id, gemm::active_backend().id);
  }
  {
    SCOPED_TRACE("path switch");
    auto cached = make(*int8);
    const Tensor code_want = run(*make(*int8), kCode);
    EXPECT_TRUE(bitwise_equal(run(*cached, kCode), code_want));  // FP32 plan
    EXPECT_EQ(cached->weight_plan()->kernel, WeightKernel::kFp32);
    EXPECT_TRUE(bitwise_equal(run(*cached, kInt8), run(*make(*int8), kInt8)));
    EXPECT_EQ(cached->weight_plan()->kernel, WeightKernel::kInt8);
    EXPECT_TRUE(bitwise_equal(run(*cached, kCode), code_want));
  }
}

// set_weight_codes checks a payload against the layer once, at install: a
// wrong channel count, per-channel length or scale count throws naming the
// layer, and the previous codes and plan keep serving — the next forward
// is bitwise the one before the attempt, with no recompile.
TEST(QgemmWeightPlan, MismatchedPayloadThrowsNamingTheLayerAndKeepsServing) {
  std::mt19937 rng(13);
  Conv2d conv(4, 6, 3, 1, 1, 1, rng);
  conv.set_path("net/stem/conv");
  ptq::install_weight_codes(conv, *core::make_format("MERSIT(8,2)"),
                            formats::ScalePolicy::kMaxToUnity);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng, 1.f);
  const ModeGuard mode(gemm::QgemmMode::kCode);
  const Tensor before = conv.forward(x, Context{});
  const auto codes = conv.weight_codes();
  const auto plan = conv.weight_plan();
  const std::function<void(WeightCodes&)> mismatches[] = {
      [](WeightCodes& wc) { --wc.channels; },  // channel count
      [](WeightCodes& wc) {                    // per-channel length
        wc.codes.resize(wc.codes.size() + static_cast<std::size_t>(wc.channels));
        ++wc.per_channel;
      },
      [](WeightCodes& wc) { wc.scales.pop_back(); }};  // scale count
  for (const auto& mismatch : mismatches) {
    auto wc = std::make_shared<WeightCodes>(*codes);
    mismatch(*wc);
    try {
      conv.set_weight_codes(wc);
      ADD_FAILURE() << "mismatched payload accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("net/stem/conv"), std::string::npos) << e.what();
    }
    EXPECT_EQ(conv.weight_codes(), codes);
    EXPECT_TRUE(bitwise_equal(conv.forward(x, Context{}), before));
    EXPECT_EQ(conv.weight_plan(), plan);
  }
}

// ------------------------------------------------------------ Kulisch mode --

// Every registered format's code table holds each finite value's exact
// dyadic pair — value == mant·2^exp bit for bit, mant odd (0 only for zero
// codes), |mant| < 2^30, (0, 0) for non-finite codes — and the Kulisch
// path runs exactly the formats whose range fits the quire.
TEST(QgemmKulisch, TableDecomposesEveryRegisteredFormatExactly) {
  std::set<std::string> fits;
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    const formats::TableCodec& table = fmt->codec();
    ASSERT_TRUE(table.dyadic_exact());
    const std::int64_t* mant = table.dyadic_mant();
    const int* exp = table.dyadic_exp();
    for (int c = 0; c < 256; ++c) {
      const double v = table.decode(static_cast<std::uint8_t>(c));
      if (!std::isfinite(v) || v == 0.0) {
        EXPECT_EQ(mant[c], 0) << "code " << c;
        EXPECT_EQ(exp[c], 0) << "code " << c;
        continue;
      }
      const double rebuilt = std::ldexp(static_cast<double>(mant[c]), exp[c]);
      EXPECT_EQ(std::memcmp(&rebuilt, &v, sizeof v), 0) << "code " << c;
      EXPECT_NE(mant[c] & 1, 0) << "code " << c;
      EXPECT_LT(std::llabs(mant[c]), std::int64_t{1} << 30) << "code " << c;
      EXPECT_GE(exp[c], table.dyadic_min_exp()) << "code " << c;
      EXPECT_LE(exp[c], table.dyadic_max_exp()) << "code " << c;
    }
    if (gemm::kulisch_fits(table)) fits.insert(name);
  }
  // The paper's flagship format must take the exact path; the widest-range
  // posits overflow the quire budget.
  EXPECT_EQ(fits.count("MERSIT(8,2)"), 1u);
  EXPECT_GT(fits.size(), 1u);
}

// K=1 products admit a closed-form reference (the quire holds one exact
// dyadic product; rounding it to double equals the double multiply): the
// ULP-contract formula float(double(bias) + q·(sa·sb)) must hold bit for
// bit over every finite code pair.
TEST(QgemmKulisch, SingleProductMatchesContractFormulaExactly) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto lut = decode_lut(*fmt);
  const formats::TableCodec& tab = fmt->codec();
  ASSERT_TRUE(gemm::kulisch_fits(tab));
  const double sa = 0.375, sb = 1.625;
  const float bias = 0.125f;
  for (int ca = 0; ca < 256; ++ca) {
    if (!std::isfinite(lut[static_cast<std::size_t>(ca)])) continue;
    for (int cb = 0; cb < 256; ++cb) {
      if (!std::isfinite(lut[static_cast<std::size_t>(cb)])) continue;
      const std::uint8_t a_code = static_cast<std::uint8_t>(ca);
      const std::uint8_t b_code = static_cast<std::uint8_t>(cb);
      const gemm::QOperand a{&a_code, 1, nullptr, sa};
      const gemm::QOperand b{&b_code, 1, nullptr, sb};
      float got = 0.f;
      gemm::qgemm_kulisch(1, 1, 1, a, b, tab, gemm::Init::kBiasRow, &bias,
                          &got, 1);
      const float want = static_cast<float>(
          static_cast<double>(bias) + lut[static_cast<std::size_t>(ca)] *
                                          lut[static_cast<std::size_t>(cb)] *
                                          (sa * sb));
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << "codes " << ca << "," << cb;
    }
  }
}

// The reason Kulisch exists: max + tiny - max recovers the tiny value
// exactly, where FP32 ascending-k accumulation returns 0 (the tiny addend
// is absorbed).  This is the K-independent-rounding contract in action.
TEST(QgemmKulisch, CancellationRecoversTinyAddendExactly) {
  // Posit(8,3): ~2^±48 dynamic range, far beyond the float mantissa — the
  // tapered-precision case Kulisch accumulation exists for.
  const auto fmt = core::make_format("Posit(8,3)");
  const auto kernel = fmt->kernel();
  const auto lut = decode_lut(*fmt);
  const formats::TableCodec& tab = fmt->codec();
  ASSERT_TRUE(gemm::kulisch_fits(tab));

  double vmax = 0.0, vmin = 0.0;
  for (int c = 0; c < 256; ++c) {
    const double v = lut[static_cast<std::size_t>(c)];
    if (!std::isfinite(v) || v <= 0.0) continue;
    vmax = std::max(vmax, v);
    vmin = vmin == 0.0 ? v : std::min(vmin, v);
  }
  ASSERT_GT(vmax / vmin, 0x1.0p25)  // spread exceeds the float mantissa
      << "format has too little dynamic range for this test";

  const std::uint8_t a_codes[3] = {kernel->encode(vmax), kernel->encode(vmin),
                                   kernel->encode(-vmax)};
  const std::uint8_t one = kernel->encode(1.0);
  const std::uint8_t b_codes[3] = {one, one, one};
  const gemm::QOperand a{a_codes, 3, nullptr, 1.0};
  const gemm::QOperand b{b_codes, 1, nullptr, 1.0};
  float got = -1.f;
  gemm::qgemm_kulisch(1, 1, 3, a, b, tab, gemm::Init::kZero, nullptr, &got, 1);
  EXPECT_EQ(got, static_cast<float>(vmin));
  // FP32 ascending accumulation of the same decoded values loses it.
  float fp32 = 0.f;
  fp32 += static_cast<float>(vmax);
  fp32 += static_cast<float>(vmin);
  fp32 += static_cast<float>(-vmax);
  EXPECT_EQ(fp32, 0.f);
}

}  // namespace
}  // namespace mersit::nn
