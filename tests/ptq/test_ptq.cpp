#include "ptq/ptq.h"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "ptq/sweep.h"

namespace mersit::ptq {
namespace {

using nn::Dataset;
using nn::Tensor;

/// A tiny trained-ish model fixture shared by the tests.
struct Fixture {
  Fixture() : rng(5) {
    model = nn::make_vgg_mini(3, 10, rng);
    train = nn::make_vision_dataset(320, 3, 12, 31);
    test = nn::make_vision_dataset(96, 3, 12, 32);
    nn::TrainOptions opt;
    opt.epochs = 3;
    opt.batch = 32;
    opt.lr = 2e-3f;
    (void)nn::train_classifier(*model, train, opt);
  }
  std::mt19937 rng;
  nn::ModulePtr model;
  Dataset train, test;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Calibrator, RecordsPerLayerMaxima) {
  auto& f = fixture();
  MaxCalibrator cal;
  const nn::Context ctx{false, &cal};
  const Tensor xb = nn::slice_batch(f.train.inputs, 0, 16);
  cal.observe_input(xb);
  (void)f.model->run(xb, ctx);
  EXPECT_GT(cal.table.absmax.size(), 5u);
  EXPECT_GT(cal.table.input_absmax, 0.f);
  for (const auto& [path, mx] : cal.table.absmax) {
    EXPECT_FALSE(path.empty());
    EXPECT_GE(mx, 0.f) << path;
    // Paths are rooted at the factory's root name.
    EXPECT_EQ(path.rfind("vgg", 0), 0u) << path;
  }
}

TEST(Weights, SnapshotRestoreRoundTrip) {
  auto& f = fixture();
  const WeightSnapshot snap = snapshot_weights(*f.model);
  const auto fmt = core::make_format("FP(8,3)");
  quantize_weights_per_channel(*f.model, *fmt, formats::ScalePolicy::kMaxToUnity);
  // Weights changed...
  const auto params = f.model->parameters();
  bool changed = false;
  for (std::size_t i = 0; i < params.size() && !changed; ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel() && !changed; ++j)
      changed = params[i]->value[j] != snap.values[i][j];
  EXPECT_TRUE(changed);
  // ...and restore exactly.
  restore_weights(*f.model, snap);
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], snap.values[i][j]);
}

TEST(Weights, PerChannelQuantizationPreservesChannelMax) {
  auto& f = fixture();
  const WeightSnapshot snap = snapshot_weights(*f.model);
  const auto fmt = core::make_format("MERSIT(8,2)");
  // With max->unity scaling the channel max maps to 1.0, which every
  // exponent format represents exactly -> channel maxima survive.
  std::vector<float> maxima_before;
  for (nn::Module* m : f.model->modules()) {
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m)) {
      for (int c = 0; c < cw->weight_channels(); ++c) {
        float mx = 0.f;
        for (const float v : cw->channel_span(c)) mx = std::max(mx, std::fabs(v));
        maxima_before.push_back(mx);
      }
    }
  }
  quantize_weights_per_channel(*f.model, *fmt, formats::ScalePolicy::kMaxToUnity);
  std::size_t i = 0;
  for (nn::Module* m : f.model->modules()) {
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m)) {
      for (int c = 0; c < cw->weight_channels(); ++c) {
        float mx = 0.f;
        for (const float v : cw->channel_span(c)) mx = std::max(mx, std::fabs(v));
        EXPECT_NEAR(mx, maxima_before[i++], 1e-6f);
      }
    }
  }
  restore_weights(*f.model, snap);
}

TEST(Ptq, WideFormatsPreserveAccuracy) {
  auto& f = fixture();
  const float fp32 = evaluate_fp32(*f.model, f.test, Metric::kAccuracy);
  ASSERT_GT(fp32, 70.f);  // the fixture must have learned something real
  for (const char* name : {"Posit(8,1)", "MERSIT(8,2)", "FP(8,4)"}) {
    const auto fmt = core::make_format(name);
    const float q = evaluate_ptq(*f.model, f.train, f.test, *fmt);
    EXPECT_GT(q, fp32 - 6.f) << name;
  }
}

TEST(Ptq, WeightsAreRestoredAfterEvaluation) {
  auto& f = fixture();
  const WeightSnapshot before = snapshot_weights(*f.model);
  const auto fmt = core::make_format("INT8");
  (void)evaluate_ptq(*f.model, f.train, f.test, *fmt);
  const auto params = f.model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], before.values[i][j]);
}

TEST(Ptq, QuantizerLeavesUncalibratedZero) {
  auto& f = fixture();
  MaxCalibrator cal;
  const nn::Context cctx{false, &cal};
  (void)f.model->run(nn::slice_batch(f.train.inputs, 0, 32), cctx);
  const auto fmt = core::make_format("FP(8,4)");
  FakeQuantizer fq(cal.table, *fmt, formats::ScalePolicy::kMaxToUnity);
  const nn::Context qctx{false, &fq};
  (void)f.model->run(nn::slice_batch(f.test.inputs, 0, 16), qctx);
  EXPECT_EQ(fq.uncalibrated_layers(), 0);
}

TEST(Rmse, MersitComparableToPositAndBelowFp) {
  auto& f = fixture();
  const auto fp = core::make_format("FP(8,4)");
  const auto ps = core::make_format("Posit(8,1)");
  const auto me = core::make_format("MERSIT(8,2)");
  const RmseReport r_fp = measure_ptq_rmse(*f.model, f.train, *fp);
  const RmseReport r_ps = measure_ptq_rmse(*f.model, f.train, *ps);
  const RmseReport r_me = measure_ptq_rmse(*f.model, f.train, *me);
  EXPECT_GT(r_fp.weight_rmse, 0.0);
  // Fig. 6 ordering on weights: MERSIT <= Posit (within 10%), both < FP.
  EXPECT_LT(r_me.weight_rmse, r_fp.weight_rmse);
  EXPECT_LT(r_ps.weight_rmse, r_fp.weight_rmse);
  EXPECT_LT(r_me.weight_rmse, r_ps.weight_rmse * 1.10);
  EXPECT_LT(r_me.activation_rmse, r_fp.activation_rmse * 1.10);
}

TEST(Ptq, BertPathWithTokenInputs) {
  std::mt19937 rng(9);
  auto bert = nn::make_bert_mini(48, 24, 16, 2, 1, 32, 2, rng);
  const Dataset train = nn::make_glue_dataset(nn::GlueTask::kSst2, 192, 48, 12, 3);
  const Dataset test = nn::make_glue_dataset(nn::GlueTask::kSst2, 64, 48, 12, 4);
  nn::TrainOptions opt;
  opt.epochs = 3;
  opt.batch = 32;
  opt.lr = 2e-3f;
  (void)nn::train_classifier(*bert, train, opt);
  PtqOptions popt;
  popt.quantize_input = false;  // token ids
  const auto fmt = core::make_format("MERSIT(8,2)");
  const float fp32 = evaluate_fp32(*bert, test, Metric::kAccuracy);
  const float q = evaluate_ptq(*bert, train, test, *fmt, popt);
  EXPECT_GT(q, fp32 - 12.f);
}

TEST(SweepRunner, RunsEachRowOnceAndReturnsRowsInAddOrder) {
  const int prev_width = core::global_pool().size();
  core::resize_global_pool(4);
  constexpr int kRows = 4;
  std::mutex mu;
  std::vector<int> runs(kRows, 0);
  std::vector<std::string> finished;  // on_row_done order
  SweepRunner runner;
  for (int i = 0; i < kRows; ++i) {
    runner.add_row([i, &mu, &runs] {
      // The first row finishes last, so completion order != add order.
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const std::lock_guard<std::mutex> lock(mu);
      ++runs[static_cast<std::size_t>(i)];
      return SweepRowResult{"row" + std::to_string(i), static_cast<float>(i),
                            {static_cast<float>(10 * i)}};
    });
  }
  runner.on_row_done([&finished](const SweepRowResult& row) {
    finished.push_back(row.name);  // the runner serializes this callback
  });
  const std::vector<SweepRowResult> rows = runner.run();
  core::resize_global_pool(prev_width);

  EXPECT_EQ(runs, std::vector<int>(kRows, 1));
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)].name, "row" + std::to_string(i));
    EXPECT_EQ(rows[static_cast<std::size_t>(i)].fp32, static_cast<float>(i));
    EXPECT_EQ(rows[static_cast<std::size_t>(i)].metrics,
              std::vector<float>{static_cast<float>(10 * i)});
  }
  ASSERT_EQ(finished.size(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(finished.back(), "row0");

  // run() cleared the queue: a second run computes and reports nothing.
  EXPECT_TRUE(runner.run().empty());
  EXPECT_EQ(runs, std::vector<int>(kRows, 1));
  EXPECT_EQ(finished.size(), static_cast<std::size_t>(kRows));
}

}  // namespace
}  // namespace mersit::ptq
