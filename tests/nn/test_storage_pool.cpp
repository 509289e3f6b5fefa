// The storage pool behind Tensor: freed blocks of at least kPooledBytes are
// reused by exact size, the pool never holds more than the high water of
// live pooled bytes, and a steady stream of batched PTQ forwards gets every
// activation block from the cache.
#include <gtest/gtest.h>

#include <random>

#include "core/registry.h"
#include "nn/data.h"
#include "nn/gemm/qgemm.h"
#include "nn/models.h"
#include "nn/train.h"
#include "ptq/ptq.h"
#include "reference.h"

namespace mersit::nn {
namespace {

constexpr int kPooledFloats = static_cast<int>(detail::kPooledBytes / sizeof(float));

void expect_bounded(const StoragePoolStats& s) {
  EXPECT_LE(s.cached_bytes + s.live_bytes, s.live_high_water)
      << "cached " << s.cached_bytes << " live " << s.live_bytes;
}

TEST(StoragePool, FreedBlockIsReusedBySize) {
  const float* first = nullptr;
  {
    const Tensor t({4, kPooledFloats});
    first = t.raw();
  }
  const StoragePoolStats before = storage_pool_stats();
  const Tensor again({4, kPooledFloats});
  const StoragePoolStats after = storage_pool_stats();
  EXPECT_EQ(again.raw(), first);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  // Recycled storage still honours the constructor's fill.
  for (std::int64_t i = 0; i < again.numel(); ++i) ASSERT_EQ(again[i], 0.f);
}

TEST(StoragePool, SmallBlocksBypassThePool) {
  const StoragePoolStats before = storage_pool_stats();
  { const Tensor t({kPooledFloats - 1}); }
  const StoragePoolStats after = storage_pool_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.cached_bytes, before.cached_bytes);
}

TEST(StoragePool, SizeChurnStaysWithinLiveHighWater) {
  // Batch sizes that change every step (serving, calibration tails) free
  // blocks no later request fits exactly; the bound must evict them.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> rows(1, 8), keep(0, 3);
  std::vector<Tensor> live;
  for (int step = 0; step < 400; ++step) {
    live.push_back(Tensor::uninitialized({rows(rng), kPooledFloats}));
    expect_bounded(storage_pool_stats());
    if (live.size() > 4 || keep(rng) == 0) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(
                                    rng() % live.size()));
      expect_bounded(storage_pool_stats());
    }
  }
  live.clear();
  const StoragePoolStats s = storage_pool_stats();
  expect_bounded(s);
  EXPECT_EQ(s.live_bytes, 0u);
  EXPECT_GT(s.hits, 0u);
}

TEST(StoragePool, ReleaseReturnsCachedBlocksOnly) {
  const Tensor kept({2, kPooledFloats}, 3.f);
  { const Tensor freed({4, kPooledFloats}); }
  const StoragePoolStats before = storage_pool_stats();
  ASSERT_GT(before.cached_bytes, 0u);
  release_cached_storage();
  const StoragePoolStats after = storage_pool_stats();
  EXPECT_EQ(after.cached_bytes, 0u);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  for (std::int64_t i = 0; i < kept.numel(); ++i) ASSERT_EQ(kept[i], 3.f);
}

/// A model deployed as the W8A8 benchmarks deploy it (BN folded, calibrated
/// FakeQuantizer, weight codes installed, same pool width), then forwarded
/// at batch 32 after one warm-up forward: the later forwards must take every
/// pooled block from the cache.
void expect_steady_forwards_hit(ModulePtr model, const char* format,
                                gemm::QgemmMode mode, int pool_width) {
  constexpr int kBatch = 32, kImg = 12;
  const reference::PoolWidthGuard width(pool_width);
  const gemm::QgemmMode prev = gemm::set_qgemm_mode(mode);
  const auto fmt = core::make_format(format);
  const Dataset calib = make_vision_dataset(256, 3, kImg, 11, 5);
  const Dataset data = make_vision_dataset(3 * kBatch, 3, kImg, 12, 5);
  fold_all_batchnorms(*model);
  const ptq::CalibrationTable table = ptq::calibrate_model(*model, calib);
  ptq::install_weight_codes(*model, *fmt, formats::ScalePolicy::kMaxToUnity);
  ptq::FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
  fq.set_input_quantization(true);
  const auto forward = [&](int b) {
    Tensor x = slice_batch(data.inputs, b * kBatch, kBatch);
    fq.on_input(x);
    return model->run(x, Context{false, &fq});
  };
  (void)forward(0);  // warm-up: packs weights, fills the pool
  const StoragePoolStats warm = storage_pool_stats();
  for (int rep = 0; rep < 2; ++rep)
    for (int b = 0; b < 3; ++b) (void)forward(b);
  const StoragePoolStats steady = storage_pool_stats();
  EXPECT_EQ(steady.misses, warm.misses) << format;
  EXPECT_GT(steady.hits, warm.hits) << format;
  expect_bounded(steady);
  gemm::set_qgemm_mode(prev);
}

TEST(StoragePool, SteadyInt8ForwardsOfMobileNetV3MissNothing) {
  std::mt19937 rng(3);
  expect_steady_forwards_hit(make_mobilenet_v3_mini(3, 10, rng), "INT8",
                             gemm::QgemmMode::kInt8, /*pool_width=*/1);
}

TEST(StoragePool, SteadyCodeForwardsOfResNet18MissNothing) {
  std::mt19937 rng(4);
  expect_steady_forwards_hit(make_resnet_mini(3, 10, 1, rng), "MERSIT(8,2)",
                             gemm::QgemmMode::kCode, /*pool_width=*/2);
}

}  // namespace
}  // namespace mersit::nn
