// Concurrency regression tests, designed to run under TSan
// (MERSIT_SANITIZE=thread): hammer the lazily-initialized codec and
// quant kernel from many threads starting on fresh objects.  Before
// Format::codec() used std::call_once, the first-use race here produced a
// torn unique_ptr publish that TSan flags deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "formats/format.h"
#include "formats/kernels/quant_kernel.h"

namespace mersit::formats {
namespace {

constexpr int kThreads = 8;

/// Spin barrier: releases all participants at once to maximize the window
/// in which lazy initialization can race.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : waiting_(n) {}
  void arrive_and_wait() {
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting_.load(std::memory_order_acquire) > 0) {
    }
  }

 private:
  std::atomic<int> waiting_;
};

TEST(CodecInit, ConcurrentFirstUseYieldsOneConsistentCodec) {
  // Fresh format per iteration so the lazy codec build itself races, not
  // just the post-build reads; several rounds widen the race window.
  for (int round = 0; round < 8; ++round) {
    const auto fmt = core::make_format("MERSIT(8,2)");
    SpinBarrier barrier(kThreads);
    std::vector<const TableCodec*> codec_seen(kThreads, nullptr);
    std::vector<std::uint8_t> code_seen(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        barrier.arrive_and_wait();
        codec_seen[static_cast<std::size_t>(t)] = &fmt->codec();
        code_seen[static_cast<std::size_t>(t)] = fmt->encode(0.734);
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(codec_seen[static_cast<std::size_t>(t)], codec_seen[0]);
      EXPECT_EQ(code_seen[static_cast<std::size_t>(t)], code_seen[0]);
    }
  }
}

TEST(CodecInit, AllRegisteredFormatsSurviveConcurrentFirstEncode) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::atomic<int> disagreements{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        barrier.arrive_and_wait();
        double probe = -2.5;
        std::uint8_t last = 0;
        for (int i = 0; i < 64; ++i, probe += 0.0817) {
          const std::uint8_t a = fmt->encode(probe);
          const std::uint8_t b = fmt->encode(probe);
          if (a != b) disagreements.fetch_add(1, std::memory_order_relaxed);
          last = a;
        }
        (void)last;
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(disagreements.load(), 0) << name;
  }
}

TEST(FormatKernel, ConcurrentFirstCallsBuildOneKernel) {
  for (int round = 0; round < 4; ++round) {
    // Fresh instance per round, so the first kernel() calls race the build.
    const auto fmt = core::make_format("Posit(8,1)");
    SpinBarrier barrier(kThreads);
    std::vector<std::shared_ptr<const kernels::QuantKernel>> seen(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        barrier.arrive_and_wait();
        seen[static_cast<std::size_t>(t)] = fmt->kernel();
      });
    }
    for (auto& th : threads) th.join();
    // The kernel is built exactly once, with the codec it shares.
    const auto built = fmt->kernel();
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(&built->codec(), &fmt->codec());
    for (const auto& k : seen) {
      EXPECT_EQ(k.get(), built.get());
      EXPECT_EQ(k->encode(0.31), fmt->encode(0.31));
    }
  }
}

TEST(FormatKernel, ConcurrentMixedFormatsAreIsolated) {
  const auto names = core::all_format_names();
  SpinBarrier barrier(static_cast<int>(names.size()));
  std::vector<std::thread> threads;
  threads.reserve(names.size());
  std::atomic<int> mismatches{0};
  for (const auto& name : names) {
    threads.emplace_back([&, name] {
      const auto fmt = core::make_format(name);
      barrier.arrive_and_wait();
      const auto kernel = fmt->kernel();
      if (kernel->format_name() != name)
        mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace mersit::formats
