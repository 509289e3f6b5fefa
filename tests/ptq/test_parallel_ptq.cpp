// Parallel-vs-serial determinism of the PTQ pipeline: weight quantization,
// calibration, RMSE measurement and accuracy evaluation must produce
// bit-identical results whether the pool fans out or everything runs inline.
//
// The serial reference is obtained with the pool's own nesting rule: a
// parallel region entered from inside another parallel region runs inline,
// so wrapping a call in parallel_chunks(1, ...) forces its internal
// parallel_* calls onto one thread without touching any global state.  The
// fake-quant fan-out is checked across explicit pool widths (1, 2, 4) too.
#include "ptq/ptq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <span>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/quantize.h"
#include "nn/data.h"
#include "nn/layers.h"

namespace mersit::ptq {
namespace {

// Give the global pool real fan-out even on single-core CI (respects an
// explicit MERSIT_THREADS from the environment).  Static init runs before
// main(), which is before the pool's first use can construct it.
const bool kEnvReady = [] {
  setenv("MERSIT_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct Fixture {
  Fixture() : rng(9) {
    model = nn::make_vgg_mini(3, 10, rng);
    calib = nn::make_vision_dataset(96, 3, 12, 41);
    test = nn::make_vision_dataset(96, 3, 12, 42);
    nn::TrainOptions opt;
    opt.epochs = 2;
    opt.batch = 32;
    opt.lr = 2e-3f;
    train = nn::make_vision_dataset(256, 3, 12, 43);
    (void)nn::train_classifier(*model, train, opt);
  }
  std::mt19937 rng;
  nn::ModulePtr model;
  nn::Dataset train, calib, test;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Runs fn with every internal parallel_* call forced inline (serial).
template <typename Fn>
void run_serial(Fn&& fn) {
  core::global_pool().parallel_chunks(1,
                                      [&fn](std::size_t, std::size_t) { fn(); });
}

bool snapshots_bitwise_equal(const WeightSnapshot& a, const WeightSnapshot& b) {
  if (a.values.size() != b.values.size()) return false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const std::span<const float> da = a.values[i].data();
    const std::span<const float> db = b.values[i].data();
    if (da.size() != db.size()) return false;
    for (std::size_t j = 0; j < da.size(); ++j)
      if (std::bit_cast<std::uint32_t>(da[j]) !=
          std::bit_cast<std::uint32_t>(db[j]))
        return false;
  }
  return true;
}

TEST(ParallelPtq, PoolHasFanOut) {
  ASSERT_TRUE(kEnvReady);
  EXPECT_GE(core::global_pool().size(), 1);
}

TEST(ParallelPtq, WeightQuantizationMatchesSerialBitForBit) {
  auto& f = fixture();
  const auto fmt = core::make_format("MERSIT(8,2)");
  const WeightSnapshot original = snapshot_weights(*f.model);

  quantize_weights_per_channel(*f.model, *fmt,
                               formats::ScalePolicy::kMaxToUnity);
  const WeightSnapshot parallel_out = snapshot_weights(*f.model);
  restore_weights(*f.model, original);

  run_serial([&] {
    quantize_weights_per_channel(*f.model, *fmt,
                                 formats::ScalePolicy::kMaxToUnity);
  });
  const WeightSnapshot serial_out = snapshot_weights(*f.model);
  restore_weights(*f.model, original);

  EXPECT_TRUE(snapshots_bitwise_equal(parallel_out, serial_out));
  EXPECT_FALSE(snapshots_bitwise_equal(parallel_out, original));  // it did act
}

TEST(ParallelPtq, RmseMeasurementMatchesSerialBitForBit) {
  auto& f = fixture();
  const auto fmt = core::make_format("Posit(8,1)");
  const RmseReport parallel_report = measure_ptq_rmse(*f.model, f.calib, *fmt);
  RmseReport serial_report;
  run_serial([&] { serial_report = measure_ptq_rmse(*f.model, f.calib, *fmt); });
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel_report.weight_rmse),
            std::bit_cast<std::uint64_t>(serial_report.weight_rmse));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel_report.activation_rmse),
            std::bit_cast<std::uint64_t>(serial_report.activation_rmse));
  EXPECT_GT(parallel_report.weight_rmse, 0.0);
}

TEST(ParallelPtq, EvaluationIsDeterministicAndMatchesSerial) {
  auto& f = fixture();
  const auto fmt = core::make_format("FP(8,4)");
  const WeightSnapshot original = snapshot_weights(*f.model);

  const float a = evaluate_ptq(*f.model, f.calib, f.test, *fmt);
  restore_weights(*f.model, original);
  const float b = evaluate_ptq(*f.model, f.calib, f.test, *fmt);
  restore_weights(*f.model, original);
  float serial = 0.f;
  run_serial([&] { serial = evaluate_ptq(*f.model, f.calib, f.test, *fmt); });
  restore_weights(*f.model, original);

  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(serial));
}

// ------------------------------------------- fake-quant pool fan-out --
// FakeQuantizer splits each tensor into fixed blocks across the global
// pool; quantization is elementwise, so every pool width must write the
// same bits.

constexpr int kPoolWidths[] = {1, 2, 4};

/// Restores the global pool to its environment width on scope exit.
struct PoolWidthRestore {
  ~PoolWidthRestore() {
    core::resize_global_pool(core::ThreadPool::default_thread_count());
  }
};

bool tensors_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  const std::span<const float> da = a.data();
  const std::span<const float> db = b.data();
  if (da.size() != db.size()) return false;
  for (std::size_t i = 0; i < da.size(); ++i)
    if (std::bit_cast<std::uint32_t>(da[i]) != std::bit_cast<std::uint32_t>(db[i]))
      return false;
  return true;
}

/// Activation-like data: a normal stream with every third element clamped
/// at zero (ReLU), so zeros and both signs all occur.
nn::Tensor activation_tensor(int n, unsigned seed) {
  nn::Tensor t({n});
  std::mt19937 rng(seed);
  std::normal_distribution<float> normal(0.f, 1.5f);
  for (float& v : t.data()) v = normal(rng);
  for (std::size_t i = 0; i < t.data().size(); i += 3)
    t.data()[i] = std::max(t.data()[i], 0.f);
  return t;
}

TEST(ParallelPtq, FakeQuantizerIsBitIdenticalAcrossPoolWidths) {
  const PoolWidthRestore restore;
  nn::Flatten layer;
  layer.set_path("probe");
  // Below one 8192-element block, exactly two, and past three with a tail.
  for (const int n : {1000, 16384, 3 * 8192 + 77}) {
    const nn::Tensor input = activation_tensor(n, static_cast<unsigned>(n));
    CalibrationTable table;
    table.absmax["probe"] = input.abs_max();
    table.input_absmax = input.abs_max();
    for (const char* name : {"MERSIT(8,2)", "Posit(8,1)", "FP(8,4)", "INT8"}) {
      const auto fmt = core::make_format(name);
      // Reference: the scalar codec path over the whole tensor.
      nn::Tensor want = input;
      formats::fake_quantize_scalar(
          want.data(), *fmt,
          formats::scale_for_absmax(*fmt, table.absmax["probe"],
                                    formats::ScalePolicy::kMaxToUnity));
      for (const int width : kPoolWidths) {
        core::resize_global_pool(width);
        FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
        nn::Tensor act = input;
        fq.on_activation(layer, act);
        nn::Tensor in = input;
        fq.quantize_input(in);
        EXPECT_TRUE(tensors_bitwise_equal(act, want))
            << name << " n=" << n << " width=" << width;
        EXPECT_TRUE(tensors_bitwise_equal(in, want))
            << name << " n=" << n << " width=" << width;
        EXPECT_GT(act.quant_scale(), 0.0);
        EXPECT_EQ(fq.uncalibrated_layers(), 0);
      }
    }
  }
}

TEST(ParallelPtq, ResNet18W8A8ForwardIsBitIdenticalAcrossPoolWidths) {
  const PoolWidthRestore restore;
  std::mt19937 rng(21);
  nn::ModulePtr model = nn::make_resnet_mini(3, 10, 1, rng);
  const nn::Dataset calib = nn::make_vision_dataset(64, 3, 12, 51);
  const nn::Tensor batch = nn::slice_batch(
      nn::make_vision_dataset(32, 3, 12, 52).inputs, 0, 32);
  const auto fmt = core::make_format("MERSIT(8,2)");
  const CalibrationTable table = calibrate_model(*model, calib);
  quantize_weights_per_channel(*model, *fmt, formats::ScalePolicy::kMaxToUnity);
  FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
  fq.set_input_quantization(true);
  nn::Tensor reference;
  for (const int width : kPoolWidths) {
    core::resize_global_pool(width);
    nn::Tensor x = batch;
    fq.on_input(x);
    const nn::Tensor logits = model->run(x, nn::Context{/*train=*/false, &fq});
    if (width == kPoolWidths[0])
      reference = logits;
    else
      EXPECT_TRUE(tensors_bitwise_equal(logits, reference)) << "width=" << width;
  }
  EXPECT_EQ(fq.uncalibrated_layers(), 0);
}

TEST(ParallelPtq, Fp32EvaluationIsDeterministic) {
  auto& f = fixture();
  const float a = evaluate_fp32(*f.model, f.test, Metric::kAccuracy);
  const float b = evaluate_fp32(*f.model, f.test, Metric::kAccuracy);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b));
}

}  // namespace
}  // namespace mersit::ptq
