// Artifact hot-swap under live traffic: the engine's headline robustness
// claim is that swapping MCT1/MQT1 artifacts while requests are in flight
// is observationally equivalent to a quiesced swap — every response is
// bit-identical to one of the two artifact generations' quiesced outputs —
// and that a corrupt artifact (truncated, bit-flipped, random bytes, or
// semantically poisoned) is rejected loudly while the old generation keeps
// serving.  Runs under the `concurrency` TSan label.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "formats/corruption.h"
#include "nn/data.h"
#include "nn/models.h"
#include "serve/engine.h"

namespace mersit::serve {
namespace {

constexpr int kImg = 8;
constexpr int kClasses = 10;

struct Artifact {
  std::string mct1;
  std::string mqt1;
};

/// Everything the suite needs, built once: a prototype model, two valid
/// artifact generations (A and B, packed from different weights of the same
/// architecture), and the quiesced reference output of a fixed probe under
/// each generation — computed through the exact replica path the engine
/// uses (unpack + FakeQuantizer with input quantization).
class HotSwapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fmt_ = core::make_format("MERSIT(8,2)");
    std::mt19937 rng_a(7), rng_b(99);
    proto_ = nn::make_resnet_mini(3, kClasses, 1, rng_a);
    nn::ModulePtr weights_b = nn::make_resnet_mini(3, kClasses, 1, rng_b);

    const nn::Dataset calib = nn::make_vision_dataset(16, 3, kImg, /*seed=*/5);
    table_ = std::make_unique<ptq::CalibrationTable>(
        ptq::calibrate_model(*proto_, calib));

    art_a_ = serialize(*proto_);
    art_b_ = serialize(*weights_b);

    probe_ = std::make_unique<nn::Tensor>(nn::Tensor({3, kImg, kImg}));
    std::mt19937 prng(13);
    std::normal_distribution<float> nd(0.f, 1.f);
    for (std::int64_t i = 0; i < probe_->numel(); ++i) (*probe_)[i] = nd(prng);

    ref_a_ = std::make_unique<nn::Tensor>(quiesced_reference(art_a_));
    ref_b_ = std::make_unique<nn::Tensor>(quiesced_reference(art_b_));
    // The two generations must be distinguishable for equivalence checks
    // against "A or B" to mean anything.
    ASSERT_NE(std::memcmp(ref_a_->raw(), ref_b_->raw(),
                          sizeof(float) * kClasses),
              0);
  }
  static void TearDownTestSuite() {
    proto_.reset();
    table_.reset();
    probe_.reset();
    ref_a_.reset();
    ref_b_.reset();
    fmt_.reset();
  }

  static Artifact serialize(nn::Module& weights) {
    Artifact art;
    std::ostringstream mct1, mqt1;
    table_->save(mct1);
    ptq::pack_weights(weights, *fmt_).save(mqt1);
    art.mct1 = std::move(mct1).str();
    art.mqt1 = std::move(mqt1).str();
    return art;
  }

  /// One-sample forward through a fresh clone serving this artifact —
  /// exactly what a quiesced engine replica computes.
  static nn::Tensor quiesced_reference(const Artifact& art) {
    const nn::ModulePtr replica = proto_->clone();
    std::istringstream mqt1(art.mqt1);
    const ptq::QuantizedModel qm = ptq::QuantizedModel::load(mqt1);
    ptq::unpack_weights(*replica, qm, *fmt_,
                        formats::CorruptionPolicy::kZeroSubstitute);
    ptq::FakeQuantizer fq(*table_, *fmt_, formats::ScalePolicy::kMaxToUnity);
    fq.set_input_quantization(true);
    nn::Tensor x({1, 3, kImg, kImg});
    std::memcpy(x.raw(), probe_->raw(),
                sizeof(float) * static_cast<std::size_t>(probe_->numel()));
    fq.on_input(x);
    const nn::Context ctx{/*train=*/false, &fq};
    nn::Tensor y = replica->run(x, ctx);
    EXPECT_EQ(y.numel(), kClasses);
    return y;
  }

  static void swap(Engine& engine, const Artifact& art) {
    std::istringstream mct1(art.mct1), mqt1(art.mqt1);
    engine.swap_artifacts("m", mct1, mqt1, fmt_);
  }

  static bool matches(const Response& r, const nn::Tensor& ref) {
    return r.output.numel() == ref.numel() &&
           std::memcmp(r.output.raw(), ref.raw(), sizeof(float) * kClasses) == 0;
  }

  static EngineOptions serve_options() {
    EngineOptions o;
    o.replicas = 2;
    o.max_batch = 4;
    o.batch_delay_us = 200;
    o.default_deadline_us = 60'000'000;
    o.queue_capacity = 1024;
    o.watchdog_period_us = 2'000;
    return o;
  }

  static void register_m(Engine& engine) {
    engine.register_model("m", *proto_, ModelConfig{{3, kImg, kImg}});
  }

  static nn::ModulePtr proto_;
  static std::unique_ptr<ptq::CalibrationTable> table_;
  static std::shared_ptr<const formats::Format> fmt_;
  static Artifact art_a_, art_b_;
  static std::unique_ptr<nn::Tensor> probe_, ref_a_, ref_b_;
};

nn::ModulePtr HotSwapTest::proto_;
std::unique_ptr<ptq::CalibrationTable> HotSwapTest::table_;
std::shared_ptr<const formats::Format> HotSwapTest::fmt_;
Artifact HotSwapTest::art_a_, HotSwapTest::art_b_;
std::unique_ptr<nn::Tensor> HotSwapTest::probe_, HotSwapTest::ref_a_,
    HotSwapTest::ref_b_;

// ---------------------------------------------------------------- quiesced --

TEST_F(HotSwapTest, QuiescedSwapMatchesReferenceBitwise) {
  Engine engine(serve_options());
  register_m(engine);
  EXPECT_EQ(engine.artifact_seq("m"), 0u);  // FP32 until first swap

  swap(engine, art_a_);
  EXPECT_EQ(engine.artifact_seq("m"), 1u);
  Response ra = engine.submit("m", *probe_).get();
  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_EQ(ra.artifact_seq, 1u);
  EXPECT_TRUE(matches(ra, *ref_a_));

  swap(engine, art_b_);
  EXPECT_EQ(engine.artifact_seq("m"), 2u);
  Response rb = engine.submit("m", *probe_).get();
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(rb.artifact_seq, 2u);
  EXPECT_TRUE(matches(rb, *ref_b_));

  EXPECT_EQ(engine.stats().swaps, 2u);
}

// -------------------------------------------------------- swap under load --

TEST_F(HotSwapTest, SwapUnderLoadBitIdenticalToQuiescedSwap) {
  Engine engine(serve_options());
  register_m(engine);
  swap(engine, art_a_);

  constexpr int kHammerThreads = 3, kPerThread = 30, kSwaps = 6;
  std::atomic<int> bad{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Response r = engine.submit("m", *probe_).get();
        // Per-replica artifact atomicity: every served response must be
        // bit-identical to generation A's or generation B's quiesced
        // output — a torn read of a half-applied swap matches neither.
        if (!r.ok || !(matches(r, *ref_a_) || matches(r, *ref_b_)))
          bad.fetch_add(1);
      }
    });
  }
  std::thread swapper([&] {
    for (int i = 0; i < kSwaps; ++i) {
      swap(engine, (i % 2 == 0) ? art_b_ : art_a_);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : hammers) t.join();
  swapper.join();

  EXPECT_EQ(bad.load(), 0)
      << bad.load() << " responses failed or matched neither generation";
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.served, static_cast<std::uint64_t>(kHammerThreads * kPerThread));
  EXPECT_EQ(s.swaps, static_cast<std::uint64_t>(1 + kSwaps));
  EXPECT_EQ(engine.artifact_seq("m"), static_cast<std::uint64_t>(1 + kSwaps));
}

// ------------------------------------------- stale packs / format identity --

// Regression for the prepacked-weight identity hole: under code-domain
// serving (the code path, the default) a swap installs new 8-bit codes
// WITHOUT touching the FP32 weights, so the per-Param version counters do
// not move — a weight plan keyed on version alone would keep serving GEMM
// panels decoded from the previous generation's codes, or from a different
// *format's* codes entirely.  Hammering requests while swapping between a
// MERSIT artifact and an FP(8,4) artifact of the same weights must only
// ever produce responses bit-identical to one of the two formats' quiesced
// references.
TEST_F(HotSwapTest, CrossFormatSwapUnderLoadNeverServesStalePacks) {
  const std::shared_ptr<const formats::Format> fmt2 =
      core::make_format("FP(8,4)");
  std::ostringstream mqt2s;
  ptq::pack_weights(*proto_, *fmt2).save(mqt2s);
  const Artifact art_f2{art_a_.mct1, std::move(mqt2s).str()};

  // Quiesced reference under fmt2, through the exact replica path.
  const nn::ModulePtr replica = proto_->clone();
  std::istringstream mqt2(art_f2.mqt1);
  ptq::unpack_weights(*replica, ptq::QuantizedModel::load(mqt2), *fmt2,
                      formats::CorruptionPolicy::kZeroSubstitute);
  ptq::FakeQuantizer fq2(*table_, *fmt2, formats::ScalePolicy::kMaxToUnity);
  fq2.set_input_quantization(true);
  nn::Tensor x({1, 3, kImg, kImg});
  std::memcpy(x.raw(), probe_->raw(),
              sizeof(float) * static_cast<std::size_t>(probe_->numel()));
  fq2.on_input(x);
  const nn::Tensor ref_f2 =
      replica->run(x, nn::Context{/*train=*/false, &fq2});
  ASSERT_NE(std::memcmp(ref_f2.raw(), ref_a_->raw(), sizeof(float) * kClasses),
            0)
      << "formats must be distinguishable for the stale-pack check to bite";

  Engine engine(serve_options());
  register_m(engine);
  swap(engine, art_a_);
  // Compile every replica's weight plans on generation A before swapping.
  for (int i = 0; i < 4; ++i) {
    Response r = engine.submit("m", *probe_).get();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(matches(r, *ref_a_));
  }

  constexpr int kHammerThreads = 3, kPerThread = 25, kSwaps = 6;
  std::atomic<int> bad{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Response r = engine.submit("m", *probe_).get();
        if (!r.ok || !(matches(r, *ref_a_) || matches(r, ref_f2)))
          bad.fetch_add(1);
      }
    });
  }
  std::thread swapper([&] {
    for (int i = 0; i < kSwaps; ++i) {
      if (i % 2 == 0) {
        std::istringstream mct1(art_f2.mct1), mqt1(art_f2.mqt1);
        engine.swap_artifacts("m", mct1, mqt1, fmt2);
      } else {
        swap(engine, art_a_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : hammers) t.join();
  swapper.join();

  EXPECT_EQ(bad.load(), 0)
      << bad.load() << " responses failed or matched neither format";
  EXPECT_EQ(engine.artifact_seq("m"), static_cast<std::uint64_t>(1 + kSwaps));
  // Quiesced check after the last swap (an even count ends on format A):
  // no stale panels from the other format survive.
  Response r = engine.submit("m", *probe_).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(matches(r, *ref_a_));
}

// ------------------------------------------------------- corrupt artifacts --

TEST_F(HotSwapTest, CorruptArtifactsRejectedOldGenerationKeepsServing) {
  Engine engine(serve_options());
  register_m(engine);
  swap(engine, art_a_);

  // The fuzz corpus idiom from test_serialize_fuzz, aimed at the swap path:
  // truncations, byte flips, and pure-garbage streams for both containers.
  std::mt19937 rng(0xF00D);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  auto flip = [&](const std::string& blob, int flips) {
    std::string s = blob;
    std::uniform_int_distribution<std::size_t> pos(0, s.size() - 1);
    for (int i = 0; i < flips; ++i)
      s[pos(rng)] = static_cast<char>(byte_dist(rng));
    return s;
  };
  auto garbage = [&](std::size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(byte_dist(rng));
    return s;
  };

  std::uint64_t rejects = 0;
  auto expect_rejected = [&](const std::string& mct1_bytes,
                             const std::string& mqt1_bytes) {
    std::istringstream mct1(mct1_bytes), mqt1(mqt1_bytes);
    EXPECT_THROW(engine.swap_artifacts("m", mct1, mqt1, fmt_), std::exception);
    ++rejects;
  };

  for (int iter = 0; iter < 25; ++iter) {
    expect_rejected(art_a_.mct1, art_a_.mqt1.substr(0, art_a_.mqt1.size() / 2 -
                                                           static_cast<std::size_t>(iter)));
    expect_rejected(art_a_.mct1.substr(0, art_a_.mct1.size() / 3), art_a_.mqt1);
    expect_rejected(art_a_.mct1, garbage(64 + static_cast<std::size_t>(iter)));
  }
  // Byte flips can by luck leave a container parseable AND structurally
  // compatible; what matters is that no throwing swap mutated a replica.
  for (int iter = 0; iter < 25; ++iter) {
    std::istringstream mct1(art_a_.mct1), mqt1(flip(art_a_.mqt1, 32));
    try {
      engine.swap_artifacts("m", mct1, mqt1, fmt_);
      swap(engine, art_a_);  // a flip that slipped through: restore A
    } catch (const std::exception&) {
      ++rejects;
    }
  }

  EXPECT_GE(engine.stats().swap_rejects, rejects);
  EXPECT_GT(rejects, 75u);  // the deterministic corruptions all rejected
  // After the whole campaign the old generation still serves, bit-exact.
  Response r = engine.submit("m", *probe_).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(matches(r, *ref_a_));
}

TEST_F(HotSwapTest, CorruptSwapAttemptsMidLoadLeaveTrafficBitIdentical) {
  Engine engine(serve_options());
  register_m(engine);
  swap(engine, art_a_);
  const std::uint64_t seq_before = engine.artifact_seq("m");

  std::atomic<int> bad{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 2; ++t) {
    hammers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Response r = engine.submit("m", *probe_).get();
        if (!r.ok || !matches(r, *ref_a_)) bad.fetch_add(1);
      }
    });
  }
  std::thread corruptor([&] {
    for (int i = 0; i < 5; ++i) {
      std::istringstream mct1(art_a_.mct1),
          mqt1(art_a_.mqt1.substr(0, art_a_.mqt1.size() / 4));
      EXPECT_THROW(engine.swap_artifacts("m", mct1, mqt1, fmt_),
                   std::exception);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : hammers) t.join();
  corruptor.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(engine.artifact_seq("m"), seq_before);
  EXPECT_GE(engine.stats().swap_rejects, 5u);
}

// ---------------------------------------------------------- semantic gates --

TEST_F(HotSwapTest, NonFiniteDensityGateRejectsPoisonedArtifact) {
  int nar_code = -1;
  for (int c = 0; c < 256; ++c) {
    if (!std::isfinite(fmt_->decode_value(static_cast<std::uint8_t>(c)))) {
      nar_code = c;
      break;
    }
  }
  ASSERT_GE(nar_code, 0) << "MERSIT must have a NaR encoding";

  std::istringstream parse(art_a_.mqt1);
  ptq::QuantizedModel qm = ptq::QuantizedModel::load(parse);
  for (auto& t : qm.tensors)  // poison half the codes: fraction 0.5 > 0.25
    for (std::size_t i = 0; i < t.codes.size(); i += 2)
      t.codes[i] = static_cast<std::uint8_t>(nar_code);
  std::ostringstream poisoned;
  qm.save(poisoned);

  Engine engine(serve_options());
  register_m(engine);
  swap(engine, art_a_);
  std::istringstream mct1(art_a_.mct1), mqt1(std::move(poisoned).str());
  try {
    engine.swap_artifacts("m", mct1, mqt1, fmt_);
    FAIL() << "poisoned artifact accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.artifact_seq("m"), 1u);
  Response r = engine.submit("m", *probe_).get();
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(matches(r, *ref_a_));
}

TEST_F(HotSwapTest, FormatMismatchRejected) {
  Engine engine(serve_options());
  register_m(engine);
  std::istringstream mct1(art_a_.mct1), mqt1(art_a_.mqt1);
  EXPECT_THROW(
      engine.swap_artifacts("m", mct1, mqt1, core::make_format("INT8")),
      std::runtime_error);
  EXPECT_EQ(engine.artifact_seq("m"), 0u);
  EXPECT_EQ(engine.stats().swap_rejects, 1u);
}

}  // namespace
}  // namespace mersit::serve
