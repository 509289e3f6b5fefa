// The inference-runtime layer on top of the GEMM kernel: prepacked weight
// operands, fused epilogues and the per-row BN affine, the version-stamped
// weight plans behind Conv2d/Linear (including a code swap racing forwards
// that switch paths), and the thread-local scratch arena.
//
// The contract under test is strict bit-identity: a prepacked operand is
// byte-identical to what the per-call path packs, and the fused write-back
// applies the same per-element formulas the standalone module passes do —
// so every comparison here demands bitwise equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/scratch_arena.h"
#include "core/thread_pool.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/qgemm.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/qweights.h"
#include "nn/train.h"
#include "ptq/ptq.h"
#include "reference.h"

namespace mersit::nn {
namespace {

using reference::bitwise_equal;
using reference::random_vec;
using reference::randomize_bn;
using reference::unfused_forward;

Tensor eval_forward(Module& m, const Tensor& x) {
  const Context ctx{};
  return m.forward(x, ctx);
}

/// The conv's current FP32 weights through the oracle's naive loops — no
/// weight plan involved, so a stale pack cannot match it.
Tensor oracle_forward(const Conv2d& conv, const Tensor& x) {
  return reference::conv_forward(x, conv.weight.value.raw(), conv.bias.value.raw(),
                                 reference::geometry_of(conv));
}

// ------------------------------------------------------------- the kernel --

TEST(PrepackKernel, PackedOperandsBitwiseMatchPerCallPacking) {
  ASSERT_TRUE(reference::kEnvReady);
  std::mt19937 rng(11);
  // Small shapes take the direct path (which ignores the packs); the larger
  // ones cross the blocking thresholds (kMC=120 rows, kNC=1024 columns) so
  // multi-block pack indexing is exercised too.
  const int shapes[][3] = {
      {5, 7, 3}, {37, 41, 23}, {64, 80, 40}, {130, 70, 33}, {48, 1040, 20}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int lda = ta ? M : K;
        const int ldb = tb ? K : N;
        const auto A = random_vec(static_cast<std::size_t>(ta ? K : M) * lda, rng);
        const auto B = random_vec(static_cast<std::size_t>(tb ? N : K) * ldb, rng);
        const auto bias = random_vec(static_cast<std::size_t>(M), rng);
        const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), lda, ta);
        const gemm::PackedMatrix pb = gemm::pack_b_matrix(K, N, B.data(), ldb, tb);

        std::vector<float> plain(static_cast<std::size_t>(M) * N);
        gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, plain.data(),
                    N, gemm::Init::kBiasRow, bias.data());
        const gemm::PackedMatrix* combos[][2] = {
            {&pa, nullptr}, {nullptr, &pb}, {&pa, &pb}};
        for (const auto& c : combos) {
          std::vector<float> out(plain.size(), -1.f);
          gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, out.data(),
                      N, gemm::Init::kBiasRow, bias.data(), nullptr,
                      gemm::Epilogue::kNone, c[0], c[1]);
          EXPECT_TRUE(bitwise_equal(out, plain))
              << "M=" << M << " N=" << N << " K=" << K << " ta=" << ta
              << " tb=" << tb << " pa=" << (c[0] != nullptr)
              << " pb=" << (c[1] != nullptr);
        }
      }
    }
  }
}

TEST(PrepackKernel, ThreadCountInvariantWithPackedOperands) {
  std::mt19937 rng(12);
  const int M = 150, N = 1100, K = 40;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
  const gemm::PackedMatrix pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
  std::vector<std::vector<float>> outs;
  for (const int threads : {1, 2, 5}) {
    core::ThreadPool pool(threads);
    std::vector<float> out(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, out.data(), N,
                gemm::Init::kZero, nullptr, &pool, gemm::Epilogue::kNone, &pa,
                &pb);
    outs.push_back(std::move(out));
  }
  EXPECT_TRUE(bitwise_equal(outs[0], outs[1]));
  EXPECT_TRUE(bitwise_equal(outs[0], outs[2]));
}

TEST(PrepackKernel, FusedEpilogueAndAffineBitwiseMatchSeparatePasses) {
  std::mt19937 rng(13);
  using gemm::Epilogue;
  const Epilogue kinds[] = {Epilogue::kReLU, Epilogue::kReLU6, Epilogue::kSiLU,
                            Epilogue::kHardSwish, Epilogue::kGELU};
  // One blocked-path shape (with edge tiles) and one direct-path shape.
  const int shapes[][3] = {{37, 41, 23}, {4, 5, 6}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
    const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
    const auto bias = random_vec(static_cast<std::size_t>(M), rng);
    const auto scale = random_vec(static_cast<std::size_t>(M), rng);
    const auto shift = random_vec(static_cast<std::size_t>(M), rng);
    const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    std::vector<float> base(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(),
                N, gemm::Init::kBiasRow, bias.data());
    for (const Epilogue epi : kinds) {
      const gemm::RowAffine aff{scale.data(), shift.data()};
      for (const bool with_affine : {false, true}) {
        std::vector<float> fused(base.size());
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    fused.data(), N, gemm::Init::kBiasRow, bias.data(),
                    nullptr, epi, &pa, nullptr, with_affine ? &aff : nullptr);
        // Reference: the separate passes the modules would run — affine,
        // then the activation, per element.
        std::vector<float> ref = base;
        for (int m = 0; m < M; ++m)
          for (int n = 0; n < N; ++n) {
            float& v = ref[static_cast<std::size_t>(m) * N + n];
            if (with_affine) v = scale[m] * v + shift[m];
            v = gemm::epilogue_eval(epi, v);
          }
        EXPECT_TRUE(bitwise_equal(fused, ref))
            << "M=" << M << " epi=" << static_cast<int>(epi)
            << " affine=" << with_affine;
      }
    }
  }
}

// The bulk write-back (vectorized; gemm.cpp compiles with
// -fno-trapping-math so the compares and the divide if-convert) against the
// per-element formula: random normals plus every special value and both
// neighbours of each clamp boundary, at lengths that exercise the vector
// body, its remainder, and a lone element.
TEST(PrepackKernel, EpilogueApplyMatchesPerElementEval) {
  std::mt19937 rng(14);
  std::vector<float> pool = random_vec(257, rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float fmax = std::numeric_limits<float>::max();
  const float fmin = std::numeric_limits<float>::min();
  for (const float v : {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                        0.f, -0.f, 3.f, -3.f, 6.f, fmin, -fmin,
                        std::numeric_limits<float>::denorm_min(), -fmin / 2.f,
                        fmax, -fmax})
    pool.push_back(v);
  for (const float edge : {0.f, 3.f, -3.f, 6.f}) {
    pool.push_back(std::nextafter(edge, -inf));
    pool.push_back(std::nextafter(edge, inf));
  }
  using gemm::Epilogue;
  for (const Epilogue epi : {Epilogue::kNone, Epilogue::kReLU, Epilogue::kReLU6,
                             Epilogue::kSiLU, Epilogue::kHardSwish,
                             Epilogue::kGELU}) {
    for (const std::size_t len : {std::size_t{1}, std::size_t{7}, std::size_t{257}}) {
      // Windows that slide the special values (the tail of `pool`) through
      // every position of the vector body and remainder.
      for (std::size_t start = 0; start + len <= pool.size(); ++start) {
        const std::span<const float> src(pool.data() + start, len);
        std::vector<float> dst(len);
        gemm::epilogue_apply(epi, src.data(), dst.data(), static_cast<int>(len));
        std::vector<float> ref(len);
        for (std::size_t i = 0; i < len; ++i) ref[i] = gemm::epilogue_eval(epi, src[i]);
        EXPECT_TRUE(bitwise_equal(dst, ref))
            << "epi=" << static_cast<int>(epi) << " len=" << len << " start=" << start;
      }
      // In place, as the layer write-backs call it.
      std::vector<float> inplace(pool.end() - static_cast<std::ptrdiff_t>(len), pool.end());
      std::vector<float> ref(len);
      for (std::size_t i = 0; i < len; ++i) ref[i] = gemm::epilogue_eval(epi, inplace[i]);
      gemm::epilogue_apply(epi, inplace.data(), inplace.data(), static_cast<int>(len));
      EXPECT_TRUE(bitwise_equal(inplace, ref)) << "in place epi=" << static_cast<int>(epi);
    }
  }
}

TEST(PrepackKernel, InvalidCombinationsThrow) {
  std::mt19937 rng(15);
  const int M = 4, N = 4, K = 4;
  // (M + 1) rows, so the wrong-shape pack below stays inside A.
  const auto A = random_vec(static_cast<std::size_t>(M + 1) * K, rng);
  const auto B = random_vec(16, rng);
  std::vector<float> C(16, 0.f);
  const auto scale = random_vec(4, rng);
  // An epilogue or affine over a partial accumulation would fire before the
  // element sums are complete.
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kAccumulate, nullptr,
                           nullptr, gemm::Epilogue::kReLU),
               std::invalid_argument);
  const gemm::RowAffine aff{scale.data(), scale.data()};
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kAccumulate, nullptr,
                           nullptr, gemm::Epilogue::kNone, nullptr, nullptr,
                           &aff),
               std::invalid_argument);
  const gemm::RowAffine half{scale.data(), nullptr};
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, nullptr, nullptr, &half),
               std::invalid_argument);
  // A pack built for a different shape must be rejected, not silently read.
  const gemm::PackedMatrix wrong = gemm::pack_a_matrix(M + 1, K, A.data(), K,
                                                       false);
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, &wrong),
               std::invalid_argument);
}

// ------------------------------------------------------------- the layers --

TEST(LayerPrepack, SequentialBnActFusionBitwiseMatchesModulePasses) {
  std::mt19937 rng(22);
  // Conv -> BN -> act chains covering every fusable activation plus one
  // non-fusable tail (sigmoid), a unit conv, and a depthwise conv (whose
  // BN/act fuse into the direct loop's second pass instead of the GEMM).
  auto seq = std::make_unique<Sequential>();
  const struct {
    const char* prefix;
    int in, out, k, pad, groups;
    Act a;
  } chain[] = {{"c1", 3, 12, 3, 1, 1, Act::kSiLU},
               {"c2", 12, 12, 1, 0, 1, Act::kReLU6},
               {"c3", 12, 12, 3, 1, 12, Act::kHardSwish},
               {"c4", 12, 10, 3, 1, 2, Act::kReLU},
               {"c5", 10, 8, 1, 0, 1, Act::kSigmoid}};
  for (const auto& l : chain) {
    seq->add(std::string(l.prefix) + "_conv",
             std::make_unique<Conv2d>(l.in, l.out, l.k, 1, l.pad, l.groups, rng));
    auto bn = std::make_unique<BatchNorm2d>(l.out);
    randomize_bn(*bn, rng);
    seq->add(std::string(l.prefix) + "_bn", std::move(bn));
    seq->add(std::string(l.prefix) + "_act", std::make_unique<Activation>(l.a));
  }
  const Tensor x = Tensor::randn({2, 3, 10, 10}, rng, 1.f);
  const Tensor y_ref = unfused_forward(*seq, x);
  const Tensor y_fused = eval_forward(*seq, x);
  const Tensor y_warm = eval_forward(*seq, x);
  EXPECT_TRUE(bitwise_equal(y_fused.data(), y_ref.data()));
  EXPECT_TRUE(bitwise_equal(y_fused.data(), y_warm.data()));
}

TEST(LayerPrepack, BnFusedForwardRejectsFoldedAndMismatchedBn) {
  std::mt19937 rng(24);
  Conv2d conv(3, 8, 3, 1, 1, 1, rng);
  const Tensor x = Tensor::randn({1, 3, 8, 8}, rng, 1.f);
  const Context ctx{};
  BatchNorm2d mismatched(4);
  EXPECT_THROW(conv.forward_bn_fused(x, ctx, mismatched, gemm::Epilogue::kNone),
               std::invalid_argument);
  BatchNorm2d bn(8);
  bn.fold_into(conv);
  EXPECT_THROW(conv.forward_bn_fused(x, ctx, bn, gemm::Epilogue::kNone),
               std::logic_error);
}

TEST(LayerPrepack, QuantizeAndRestoreInvalidateStalePacks) {
  std::mt19937 rng(25);
  Conv2d conv(3, 16, 3, 1, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng, 1.f);
  const Tensor y0 = eval_forward(conv, x);  // compiles the plan
  EXPECT_TRUE(bitwise_equal(y0.data(), oracle_forward(conv, x).data()));

  const ptq::WeightSnapshot snap = ptq::snapshot_weights(conv);
  const auto fmt = core::make_format("MERSIT(8,2)");
  ptq::quantize_weights_per_channel(conv, *fmt,
                                    formats::ScalePolicy::kMaxToUnity);
  // A stale pack would reproduce y0 here; the version bump must force a
  // repack of the quantized weights.
  const Tensor y_q = eval_forward(conv, x);
  EXPECT_FALSE(bitwise_equal(y_q.data(), y0.data()));
  EXPECT_TRUE(bitwise_equal(y_q.data(), oracle_forward(conv, x).data()));

  ptq::restore_weights(conv, snap);
  const Tensor y_r = eval_forward(conv, x);
  EXPECT_TRUE(bitwise_equal(y_r.data(), y0.data()));
}

TEST(LayerPrepack, OptimizerStepInvalidatesStalePacks) {
  std::mt19937 rng(26);
  Conv2d conv(3, 12, 3, 1, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng, 1.f);
  const Tensor y0 = eval_forward(conv, x);  // compiles the plan

  const Context train_ctx{/*train=*/true};
  const Tensor y_train = conv.forward(x, train_ctx);
  conv.backward(Tensor(y_train.shape(), 1.f));
  Adam opt(conv.parameters(), /*lr=*/0.05f);
  opt.step();

  const Tensor y1 = eval_forward(conv, x);
  EXPECT_FALSE(bitwise_equal(y1.data(), y0.data()));
  EXPECT_TRUE(bitwise_equal(y1.data(), oracle_forward(conv, x).data()));
}

TEST(LayerPrepack, CloneDoesNotSharePacksWithItsSource) {
  std::mt19937 rng(27);
  Conv2d conv(3, 12, 3, 1, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng, 1.f);
  const Tensor y0 = eval_forward(conv, x);  // the parent's plan is compiled

  const ModulePtr copy = conv.clone();
  // Mutate the parent's weights in place through the quantization seam.
  for (int c = 0; c < conv.weight_channels(); ++c)
    for (float& v : conv.channel_span(c)) v *= 2.f;
  conv.weight_param().bump_version();

  // The parent repacks its mutated weights; the clone must still see the
  // original values — a shared pack (or a clone serving the parent's stale
  // panels) would break one of the two.
  const Tensor y_parent = eval_forward(conv, x);
  const Tensor y_clone = eval_forward(*copy, x);
  EXPECT_FALSE(bitwise_equal(y_parent.data(), y0.data()));
  EXPECT_TRUE(bitwise_equal(y_parent.data(), oracle_forward(conv, x).data()));
  EXPECT_TRUE(bitwise_equal(y_clone.data(), y0.data()));
}

// ------------------------------------------------- code swap racing forwards --

/// Forwards `layer` from two threads while a third alternates its
/// installed codes between `a` and `b`.  Before each forward a thread
/// requests the next of `paths`; the request is process-wide, so a forward
/// may run under the other thread's path.  set_weight_codes promises that a
/// racing forward runs one whole plan, old or new, so every output must be
/// bitwise equal to one payload's output under one path.  The plan slot is
/// where that promise can break: a forward under other codes or another
/// path recompiles the layer's plan while the first forward is still
/// reading its panels (ASan reports heap-use-after-free when the recompile
/// frees them).
template <typename Layer>
void run_code_swap_race(Layer& layer, const Tensor& x,
                        const std::shared_ptr<const WeightCodes>& a,
                        const std::shared_ptr<const WeightCodes>& b,
                        std::initializer_list<gemm::QgemmMode> paths) {
  const reference::ModeGuard restore(gemm::qgemm_mode());
  const Context ctx{};
  std::vector<Tensor> refs;
  for (const gemm::QgemmMode path : paths)
    for (const auto& codes : {a, b}) {
      gemm::set_qgemm_mode(path);
      layer.set_weight_codes(codes);
      refs.push_back(layer.forward(x, ctx));
    }
  EXPECT_FALSE(bitwise_equal(refs[0], refs[1]));  // the two payloads are told apart

  constexpr int kForwards = 48;
  std::atomic<int> running{2};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kForwards; ++i) {
        gemm::set_qgemm_mode(paths.begin()[(t + i) % paths.size()]);
        try {
          const Tensor y = layer.forward(x, ctx);
          if (std::none_of(refs.begin(), refs.end(),
                           [&](const Tensor& r) { return bitwise_equal(y, r); }))
            bad.fetch_add(1);
        } catch (...) {
          bad.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  threads.emplace_back([&] {
    for (int i = 0; running.load() > 0; ++i) {
      layer.set_weight_codes(i % 2 == 0 ? a : b);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

/// Installs `fmt` codes on `layer` and returns the installed payload.
template <typename Layer>
std::shared_ptr<const WeightCodes> codes_for(Layer& layer, const char* fmt) {
  ptq::install_weight_codes(layer, *core::make_format(fmt),
                            formats::ScalePolicy::kMaxToUnity);
  return layer.weight_codes();
}

TEST(LayerPrepack, CodeSwapRacingForwardsServesOneWholeFormat) {
  std::mt19937 rng(31);
  {
    SCOPED_TRACE("Linear 512x512");
    Linear lin(512, 512, rng);
    const Tensor x = Tensor::randn({8, 512}, rng, 1.f);
    const auto mersit = codes_for(lin, "MERSIT(8,2)");
    const auto fp8 = codes_for(lin, "FP(8,4)");
    run_code_swap_race(lin, x, mersit, fp8, {gemm::QgemmMode::kCode});
  }
  {
    SCOPED_TRACE("grouped Conv2d");
    Conv2d conv(32, 64, 3, 1, 1, /*groups=*/2, rng);
    const Tensor x = Tensor::randn({2, 32, 16, 16}, rng, 1.f);
    const auto mersit = codes_for(conv, "MERSIT(8,2)");
    const auto fp8 = codes_for(conv, "FP(8,4)");
    run_code_swap_race(conv, x, mersit, fp8, {gemm::QgemmMode::kCode});
  }
  {
    // An INT8 payload runs the int8 kernel under the int8 path and the
    // FP32 kernel under the code path; the MERSIT payload has no affine
    // table, so both paths run it on FP32.  Inputs on the INT8 grid with
    // a stamped scale.
    SCOPED_TRACE("Linear 512x512, INT8 payload, code and int8 paths");
    Linear lin(512, 512, rng);
    Tensor x = Tensor::randn({8, 512}, rng, 1.f);
    reference::fake_quantize(x, *core::make_format("INT8"));
    const auto i8 = codes_for(lin, "INT8");
    const auto mersit = codes_for(lin, "MERSIT(8,2)");
    run_code_swap_race(lin, x, i8, mersit, {gemm::QgemmMode::kCode, gemm::QgemmMode::kInt8});
  }
}

// -------------------------------------------------------------- the arena --

TEST(ScratchArena, ScopesAreLifoWithStablePointers) {
  core::ScratchArena arena;
  EXPECT_EQ(arena.alloc(0), nullptr);
  const core::ScratchArena::Scope outer(arena);
  float* a = arena.alloc(100);
  for (int i = 0; i < 100; ++i) a[i] = static_cast<float>(i);
  float* inner_ptr = nullptr;
  {
    const core::ScratchArena::Scope inner(arena);
    inner_ptr = arena.alloc(50);
    for (int i = 0; i < 50; ++i) inner_ptr[i] = -1.f;
  }
  // The inner scope's space is reusable once it ends...
  float* b = arena.alloc(50);
  EXPECT_EQ(b, inner_ptr);
  // ...and growth appends blocks without moving earlier allocations.
  float* big = arena.alloc(std::size_t{1} << 16);
  big[0] = 1.f;
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(a[i], static_cast<float>(i)) << "grow moved a live allocation";
}

TEST(ScratchArena, SteadyStateReusesCapacity) {
  core::ScratchArena arena;
  for (int warm = 0; warm < 3; ++warm) {
    const core::ScratchArena::Scope scope(arena);
    (void)arena.alloc(2000);
    (void)arena.alloc(3000);
  }
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GT(cap, 0u);
  for (int i = 0; i < 100; ++i) {
    const core::ScratchArena::Scope scope(arena);
    float* p = arena.alloc(2000);
    float* q = arena.alloc(3000);
    p[0] = q[0] = static_cast<float>(i);
  }
  EXPECT_EQ(arena.capacity_bytes(), cap) << "steady state should not grow";
}

TEST(ScratchArena, NestedParallelForKeepsPerTaskBuffersDisjoint) {
  core::ThreadPool pool(4);
  std::atomic<int> errors{0};
  pool.parallel_for(8, [&](std::size_t task) {
    core::ScratchArena& arena = core::ScratchArena::local();
    const core::ScratchArena::Scope scope(arena);
    float* buf = arena.alloc(256);
    const float tag = static_cast<float>(task + 1);
    for (int i = 0; i < 256; ++i) buf[i] = tag;
    // Nested regions run inline on this thread and share its arena; their
    // scopes must nest without clobbering the outer allocation.
    pool.parallel_for(4, [&](std::size_t j) {
      const core::ScratchArena::Scope inner_scope(arena);
      float* inner = arena.alloc(64);
      const float itag = tag * 100.f + static_cast<float>(j);
      for (int i = 0; i < 64; ++i) inner[i] = itag;
      for (int i = 0; i < 64; ++i)
        if (inner[i] != itag) errors.fetch_add(1);
    });
    for (int i = 0; i < 256; ++i)
      if (buf[i] != tag) errors.fetch_add(1);
  });
  EXPECT_EQ(errors.load(), 0);
}

TEST(StoragePool, TensorsAllocatedOnOneThreadAreFreedOnAnother) {
  // A serving replica produces outputs its caller frees on another thread:
  // the pool's lists and counters must stay consistent when blocks cross
  // threads while both sides allocate.
  constexpr int kFloats = static_cast<int>(detail::kPooledBytes / sizeof(float));
  const StoragePoolStats before = storage_pool_stats();
  std::mutex mu;
  std::vector<Tensor> handoff;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread consumer([&] {
    std::mt19937 rng(2);
    for (;;) {
      std::vector<Tensor> got;
      {
        const std::lock_guard<std::mutex> lock(mu);
        got.swap(handoff);
      }
      for (const Tensor& t : got)
        for (std::int64_t i = 0; i < t.numel(); i += 997)
          if (t[i] != static_cast<float>(t.dim(0))) errors.fetch_add(1);
      got.clear();
      // Allocate and free locally too, racing the producer.
      const Tensor local({1 + static_cast<int>(rng() % 3), kFloats});
      if (done.load()) {
        const std::lock_guard<std::mutex> lock(mu);
        if (handoff.empty()) return;
      }
    }
  });
  std::mt19937 rng(1);
  for (int i = 0; i < 500; ++i) {
    const int rows = 1 + static_cast<int>(rng() % 4);
    Tensor t({rows, kFloats}, static_cast<float>(rows));
    const std::lock_guard<std::mutex> lock(mu);
    handoff.push_back(std::move(t));
  }
  done.store(true);
  consumer.join();
  EXPECT_EQ(errors.load(), 0);
  const StoragePoolStats after = storage_pool_stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_LE(after.cached_bytes + after.live_bytes, after.live_high_water);
  EXPECT_GT(after.hits, before.hits);
}

}  // namespace
}  // namespace mersit::nn
