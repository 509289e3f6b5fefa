// The GEMM engine and the contract matrix built on it.
//
// Kernel level: sgemm against a triple loop, thread-count invariance, and
// every SIMD backend bitwise against scalar.  Layer level: one table of
// Conv2d / Linear / MHSA geometries checked against the naive loops of the
// test oracle (tests/nn/reference.h), in FP32 and, as a weight-path column,
// with installed codes under the code, int8 and Kulisch paths.  Model level:
// every zoo model under every path, against its reference, across backends
// and pool widths.
//
// The GEMM paths reproduce the naive rounding sequence exactly (fixed
// ascending-k summation from the same initial value), so forwards and
// gradients must match bitwise.  The conv input gradient is the exception:
// col2im reassociates its per-element sums, so it gets a small numeric
// tolerance instead.
#include "nn/gemm/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/quantize.h"
#include "nn/attention.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/im2col.h"
#include "nn/gemm/qgemm.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/qweights.h"
#include "ptq/ptq.h"
#include "reference.h"

namespace mersit::nn {
namespace {

using reference::bitwise_equal;
using reference::ModeGuard;
using reference::PoolWidthGuard;
using reference::random_vec;
using reference::randomize;
using reference::randomize_bn;
using test::executable_tiers;
using test::TierGuard;

/// Naive triple loop with the contract sgemm promises to reproduce: each
/// element starts from its init value and accumulates k-ascending.
void ref_gemm(int M, int N, int K, const float* A, int lda, bool ta,
              const float* B, int ldb, bool tb, float* C, int ldc,
              gemm::Init init, const float* bias) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      float acc = 0.f;
      switch (init) {
        case gemm::Init::kZero: break;
        case gemm::Init::kBiasRow: acc = bias[m]; break;
        case gemm::Init::kBiasCol: acc = bias[n]; break;
        case gemm::Init::kAccumulate: acc = C[static_cast<std::size_t>(m) * ldc + n]; break;
      }
      for (int k = 0; k < K; ++k) {
        const float a = ta ? A[static_cast<std::size_t>(k) * lda + m]
                           : A[static_cast<std::size_t>(m) * lda + k];
        const float b = tb ? B[static_cast<std::size_t>(n) * ldb + k]
                           : B[static_cast<std::size_t>(k) * ldb + n];
        acc += a * b;
      }
      C[static_cast<std::size_t>(m) * ldc + n] = acc;
    }
  }
}

// ------------------------------------------------------------- the kernel --

TEST(GemmKernel, MatchesReferenceAcrossShapesTransposesAndInits) {
  ASSERT_TRUE(reference::kEnvReady);
  std::mt19937 rng(7);
  // Shapes straddle the register tile (6x8), its edges, and a few larger
  // panels; every (trans_a, trans_b, init) combination runs on each.
  const int shapes[][3] = {{1, 1, 1},   {1, 8, 5},   {6, 8, 16},  {5, 7, 3},
                           {13, 9, 21}, {48, 33, 17}, {64, 80, 40}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int lda = ta ? M : K;
        const int ldb = tb ? K : N;
        const auto A = random_vec(static_cast<std::size_t>(ta ? K : M) * lda, rng);
        const auto B = random_vec(static_cast<std::size_t>(tb ? N : K) * ldb, rng);
        const auto bias = random_vec(static_cast<std::size_t>(std::max(M, N)), rng);
        for (const auto init : {gemm::Init::kZero, gemm::Init::kBiasRow,
                                gemm::Init::kBiasCol, gemm::Init::kAccumulate}) {
          const auto seed = random_vec(static_cast<std::size_t>(M) * N, rng);
          std::vector<float> want = seed, got = seed;
          ref_gemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, want.data(),
                   N, init, bias.data());
          gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, got.data(),
                      N, init, bias.data());
          EXPECT_TRUE(bitwise_equal(got, want))
              << "M=" << M << " N=" << N << " K=" << K << " ta=" << ta
              << " tb=" << tb << " init=" << static_cast<int>(init);
        }
      }
    }
  }
}

TEST(GemmKernel, BlockingBoundariesMatchReference) {
  // Crosses the cache-block edges (MC=120, KC=256) so multi-panel k
  // accumulation and edge tiles are exercised.
  std::mt19937 rng(11);
  const int M = 123, N = 70, K = 300;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> want(static_cast<std::size_t>(M) * N);
  std::vector<float> got(want.size());
  ref_gemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(), N,
           gemm::Init::kZero, nullptr);
  gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, got.data(), N);
  EXPECT_TRUE(bitwise_equal(got, want));
}

TEST(GemmKernel, StridedOutputLeavesGapsUntouched) {
  std::mt19937 rng(13);
  const int M = 9, N = 5, K = 12, ldc = 8;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> c(static_cast<std::size_t>(M) * ldc, 42.f);
  std::vector<float> want = c;
  ref_gemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(), ldc,
           gemm::Init::kZero, nullptr);
  gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, c.data(), ldc);
  EXPECT_TRUE(bitwise_equal(c, want));
  for (int m = 0; m < M; ++m)
    for (int n = N; n < ldc; ++n)
      EXPECT_EQ(c[static_cast<std::size_t>(m) * ldc + n], 42.f);
}

// ------------------------------------------------------ thread invariance --

TEST(GemmThreads, ResultInvariantAcrossPoolSizes) {
  std::mt19937 rng(17);
  const int M = 150, N = 90, K = 64;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> base(static_cast<std::size_t>(M) * N);
  gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(), N);
  for (const int threads : {1, 4, 13}) {
    core::ThreadPool pool(threads);
    std::vector<float> out(base.size());
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, out.data(), N,
                gemm::Init::kZero, nullptr, &pool);
    EXPECT_TRUE(bitwise_equal(out, base)) << "threads=" << threads;
  }
}

TEST(GemmThreads, ConvForwardSerialVsParallelBitwise) {
  // The conv batch loop fans out on the global pool; forcing it inline via
  // the pool's nesting rule must not change a single bit.
  std::mt19937 rng(19);
  Conv2d conv(6, 8, 3, 1, 1, 2, rng);
  const Tensor x = Tensor::randn({8, 6, 9, 7}, rng, 1.f);
  const Context ctx;
  const Tensor parallel_y = conv.forward(x, ctx);
  Tensor serial_y;
  core::global_pool().parallel_chunks(
      1, [&](std::size_t, std::size_t) { serial_y = conv.forward(x, ctx); });
  EXPECT_TRUE(bitwise_equal(serial_y.data(), parallel_y.data()));
}

// ---------------------------------------------------------------- im2col ---

TEST(GemmIm2col, RoundTripAccumulatesEveryTapOnce)
{
  // col2im_add(im2col(x)) multiplies each pixel by the number of kernel
  // windows covering it; with k=1/stride=1/pad=0 that count is exactly 1.
  std::mt19937 rng(61);
  const int c = 3, h = 5, w = 4;
  const auto x = random_vec(static_cast<std::size_t>(c) * h * w, rng);
  std::vector<float> col(x.size());
  std::vector<float> back(x.size(), 0.f);
  gemm::im2col(x.data(), c, h, w, 1, 1, 0, col.data());
  EXPECT_TRUE(bitwise_equal(col, x));
  gemm::col2im_add(col.data(), c, h, w, 1, 1, 0, back.data());
  EXPECT_TRUE(bitwise_equal(back, x));
}

// ---------------------------------------------------------- SIMD backends --
//
// The backend of every tier the host can execute is gated bitwise against
// the scalar reference: same shapes/transposes/inits, strided C, thread
// counts, fused epilogues, and the prepacked-operand path.  Bit identity
// holds because every backend accumulates ascending-k with a separately
// rounded multiply and add per step (no FMA) — tile geometry may differ.

TEST(GemmBackend, EachTierRunsItsOwnDescriptor) {
  std::set<int> ids;
  for (const core::Tier t : executable_tiers()) {
    const TierGuard g(t);
    const gemm::Backend& be = gemm::active_backend();
    EXPECT_STREQ(be.name, core::tier_name(t));
    EXPECT_EQ(be.id, static_cast<int>(t)) << be.name;
    EXPECT_TRUE(ids.insert(be.id).second) << "duplicate id: " << be.name;
    EXPECT_EQ(be.mc % be.mr, 0) << be.name;  // full tiles inside a block
  }
  EXPECT_EQ(ids.count(0), 1u);  // scalar always runs
}

TEST(GemmBackend, EveryBackendBitIdenticalToScalarAcrossShapesAndInits) {
  ASSERT_TRUE(reference::kEnvReady);
  std::mt19937 rng(67);
  // All shapes exceed the direct-path cutoff so the packed kernels actually
  // run; they are ragged against every backend's register tile (4x8, 6x16,
  // 8x16, 6x8) and the last one crosses the MC=120 / KC=256 cache blocks.
  const int shapes[][3] = {
      {17, 19, 50}, {48, 33, 17}, {64, 80, 40}, {123, 70, 300}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int lda = ta ? M : K;
        const int ldb = tb ? K : N;
        const auto A = random_vec(static_cast<std::size_t>(ta ? K : M) * lda, rng);
        const auto B = random_vec(static_cast<std::size_t>(tb ? N : K) * ldb, rng);
        const auto bias = random_vec(static_cast<std::size_t>(std::max(M, N)), rng);
        for (const auto init : {gemm::Init::kZero, gemm::Init::kBiasRow,
                                gemm::Init::kBiasCol, gemm::Init::kAccumulate}) {
          const auto seed = random_vec(static_cast<std::size_t>(M) * N, rng);
          std::vector<float> want = seed;
          {
            const TierGuard g(core::Tier::kScalar);
            gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb,
                        want.data(), N, init, bias.data());
          }
          for (const core::Tier t : executable_tiers()) {
            const TierGuard g(t);
            const gemm::Backend* be = &gemm::active_backend();
            std::vector<float> got = seed;
            gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb,
                        got.data(), N, init, bias.data());
            EXPECT_TRUE(bitwise_equal(got, want))
                << be->name << " M=" << M << " N=" << N << " K=" << K
                << " ta=" << ta << " tb=" << tb
                << " init=" << static_cast<int>(init);
          }
        }
      }
    }
  }
}

TEST(GemmBackend, StridedOutputGapsUntouchedPerBackend) {
  std::mt19937 rng(71);
  const int M = 33, N = 29, K = 11, ldc = 37;  // above the direct-path cutoff
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> want(static_cast<std::size_t>(M) * ldc, 42.f);
  {
    const TierGuard g(core::Tier::kScalar);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(),
                ldc);
  }
  for (const core::Tier t : executable_tiers()) {
    const TierGuard g(t);
    const gemm::Backend* be = &gemm::active_backend();
    std::vector<float> c(static_cast<std::size_t>(M) * ldc, 42.f);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, c.data(), ldc);
    EXPECT_TRUE(bitwise_equal(c, want)) << be->name;
    for (int m = 0; m < M; ++m)
      for (int n = N; n < ldc; ++n)
        EXPECT_EQ(c[static_cast<std::size_t>(m) * ldc + n], 42.f)
            << be->name << " m=" << m << " n=" << n;
  }
}

TEST(GemmBackend, EpiloguesAndRowAffineBitIdenticalToScalarPerBackend) {
  std::mt19937 rng(79);
  const int M = 50, N = 26, K = 33;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  const auto scale = random_vec(static_cast<std::size_t>(M), rng);
  const auto shift = random_vec(static_cast<std::size_t>(M), rng);
  const gemm::RowAffine affine{scale.data(), shift.data()};
  for (const auto epi :
       {gemm::Epilogue::kNone, gemm::Epilogue::kReLU, gemm::Epilogue::kReLU6,
        gemm::Epilogue::kSiLU, gemm::Epilogue::kHardSwish,
        gemm::Epilogue::kGELU}) {
    for (const gemm::RowAffine* aff : {static_cast<const gemm::RowAffine*>(nullptr), &affine}) {
      std::vector<float> want(static_cast<std::size_t>(M) * N);
      {
        const TierGuard g(core::Tier::kScalar);
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    want.data(), N, gemm::Init::kZero, nullptr, nullptr, epi,
                    nullptr, nullptr, aff);
      }
      for (const core::Tier t : executable_tiers()) {
        const TierGuard g(t);
        const gemm::Backend* be = &gemm::active_backend();
        std::vector<float> got(want.size());
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    got.data(), N, gemm::Init::kZero, nullptr, nullptr, epi,
                    nullptr, nullptr, aff);
        EXPECT_TRUE(bitwise_equal(got, want))
            << be->name << " epi=" << static_cast<int>(epi)
            << " affine=" << (aff != nullptr);
      }
    }
  }
}

TEST(GemmBackend, ThreadCountInvariantPerBackend) {
  std::mt19937 rng(83);
  const int M = 150, N = 90, K = 64;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  for (const core::Tier t : executable_tiers()) {
    const TierGuard g(t);
    const gemm::Backend* be = &gemm::active_backend();
    std::vector<float> base(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(), N);
    for (const int threads : {1, 4, 13}) {
      core::ThreadPool pool(threads);
      std::vector<float> out(base.size());
      gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, out.data(),
                  N, gemm::Init::kZero, nullptr, &pool);
      EXPECT_TRUE(bitwise_equal(out, base))
          << be->name << " threads=" << threads;
    }
  }
}

TEST(GemmBackend, PrepackedOperandsBitIdenticalAndStampedPerBackend) {
  std::mt19937 rng(89);
  const int M = 70, N = 51, K = 123;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  for (const core::Tier t : executable_tiers()) {
    const TierGuard g(t);
    const gemm::Backend* be = &gemm::active_backend();
    std::vector<float> base(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(), N);
    const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    const gemm::PackedMatrix pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
    // Self-describing layout: packs carry the geometry they were built for.
    EXPECT_EQ(pa.backend_id, be->id) << be->name;
    EXPECT_EQ(pb.backend_id, be->id) << be->name;
    EXPECT_EQ(pa.mr, be->mr) << be->name;
    EXPECT_EQ(pb.nr, be->nr) << be->name;
    std::vector<float> got(base.size());
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, got.data(), N,
                gemm::Init::kZero, nullptr, nullptr, gemm::Epilogue::kNone,
                &pa, &pb);
    EXPECT_TRUE(bitwise_equal(got, base)) << be->name;
  }
}

TEST(GemmBackend, RejectsOperandsPackedForAForeignBackend) {
  const core::Tier other = executable_tiers().back();
  if (other == core::Tier::kScalar)
    GTEST_SKIP() << "host executes only the scalar tier";
  std::mt19937 rng(97);
  const int M = 64, N = 48, K = 32;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  gemm::PackedMatrix pa, pb;
  {
    const TierGuard g(other);
    pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
  }
  const TierGuard g(core::Tier::kScalar);
  std::vector<float> c(static_cast<std::size_t>(M) * N);
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           c.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, &pa, nullptr),
               std::invalid_argument);
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           c.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, nullptr, &pb),
               std::invalid_argument);
}

// ---------------------------------------------------------- layer contract --
//
// One table, one checker.  Each row is a Conv2d, Linear or MHSA geometry:
// a hand-picked grid (every kernel x stride x pad x groups combination on a
// ragged plane, degenerate planes, the unit and depthwise fast paths) plus
// one row per distinct layer geometry in the vision zoo and BERT-mini, so
// the zoo's shapes are covered by construction.  Every row runs at pool
// widths 1 and 4 against the oracle: forwards (cold and warm weight plan)
// over epilogue x BN affine on every executable tier, and backward.
// Each test below checks one slice of the table (a layer kind, a row
// group, forward or backward).

using gemm::Epilogue;

constexpr Epilogue kEpilogues[] = {Epilogue::kNone,  Epilogue::kReLU,
                                   Epilogue::kReLU6, Epilogue::kSiLU,
                                   Epilogue::kHardSwish, Epilogue::kGELU};

enum class Kind { kConv, kLinear, kMhsa };
enum class Group { kGrid, kDegenerate, kPrepack, kZoo };

struct LayerRow {
  Kind kind;
  Group group;
  std::string where;               // grid label or zoo module path
  reference::ConvGeometry conv{};  // kConv
  int h = 0, w = 0;                // kConv input plane; kMhsa: h = tokens
  int in = 0, out = 0;             // kLinear features; kMhsa: dim, heads
  bool sweep = true;  // every epilogue x BN; zoo rows take two variants
};

std::vector<LayerRow> contract_rows() {
  std::vector<LayerRow> rows;
  for (const int k : {1, 3, 5})
    for (const int stride : {1, 2})
      for (const int pad : {0, 1, 2})
        for (const int groups : {1, 2, 4}) {  // groups == in == out: depthwise
          if (7 + 2 * pad < k || 5 + 2 * pad < k) continue;
          rows.push_back({Kind::kConv, Group::kGrid, "grid",
                          {4, groups == 4 ? 4 : 6, k, stride, pad, groups}, 7, 5});
        }
  // Depthwise rows that leave tail lanes in every backend's channel block
  // (17 and 33 channels against blocks of 4, 8 and 16) and a plane wider
  // than 16 output columns.
  for (const auto& [c, k, stride, pad, h, w] :
       {std::tuple{17, 3, 1, 1, 7, 5}, {33, 5, 2, 2, 9, 8}, {17, 3, 2, 0, 7, 5},
        {5, 3, 1, 1, 19, 23}, {5, 5, 1, 2, 19, 23}, {5, 3, 2, 1, 19, 23}})
    rows.push_back({Kind::kConv, Group::kGrid, "depthwise", {c, c, k, stride, pad, c}, h, w});
  const int degenerate[][5] = {{1, 9, 3, 1, 1}, {9, 1, 3, 1, 1}, {3, 3, 3, 1, 0},
                               {4, 4, 1, 2, 0}, {6, 10, 5, 2, 2}};
  for (const auto& d : degenerate)
    rows.push_back({Kind::kConv, Group::kDegenerate, "degenerate", {3, 5, d[2], d[3], d[4], 1}, d[0], d[1]});
  rows.push_back({Kind::kConv, Group::kPrepack, "3x3", {3, 16, 3, 1, 1, 1}, 12, 12});
  rows.push_back({Kind::kConv, Group::kPrepack, "1x1-unit", {8, 16, 1, 1, 0, 1}, 12, 12});
  rows.push_back({Kind::kConv, Group::kPrepack, "grouped", {8, 12, 3, 2, 1, 2}, 12, 12});
  rows.push_back({Kind::kConv, Group::kPrepack, "depthwise", {8, 8, 3, 1, 1, 8}, 12, 12});
  rows.push_back({Kind::kLinear, Group::kPrepack, "linear", {}, 0, 0, 48, 33});
  // 300 inputs cross a 256-deep k block with ragged row and column panels.
  for (const auto& [in, out] : {std::pair{37, 19}, {23, 15}, {300, 19}})
    rows.push_back({Kind::kLinear, Group::kGrid, "grid", {}, 0, 0, in, out});
  rows.push_back({Kind::kMhsa, Group::kGrid, "grid", {}, 7, 0, 16, 4});

  std::mt19937 rng(101);
  std::vector<NamedModel> zoo = make_vision_zoo(3, 10, 101, 12);
  zoo.push_back({"BERT-mini", make_bert_mini(50, 10, 32, 4, 2, 64, 4, rng)});
  std::set<std::tuple<Kind, int, int, int, int, int, int, int, int>> seen;
  for (NamedModel& entry : zoo)
    for (Module* m : entry.model->modules()) {
      LayerRow row{Kind::kConv, Group::kZoo, entry.name + ":" + m->path()};
      row.sweep = false;
      if (const auto* conv = dynamic_cast<const Conv2d*>(m)) {
        row.conv = reference::geometry_of(*conv);
        row.h = row.w = 7;
      } else if (const auto* lin = dynamic_cast<const Linear*>(m)) {
        row.kind = Kind::kLinear;
        row.in = lin->weight.value.dim(1);
        row.out = lin->weight.value.dim(0);
      } else if (auto* attn = dynamic_cast<MultiHeadSelfAttention*>(m)) {
        row.kind = Kind::kMhsa;
        row.in = attn->parameters()[0]->value.dim(0);  // wq: [dim, dim]
        row.out = attn->heads();
        row.h = 8;
      } else {
        continue;
      }
      const reference::ConvGeometry& g = row.conv;
      if (seen.emplace(row.kind, g.in_ch, g.out_ch, g.k, g.stride, g.pad,
                       g.groups, row.in, row.out)
              .second)
        rows.push_back(std::move(row));
    }
  return rows;
}

/// (epilogue, BN affine) pairs a row runs: the full cross for grid rows;
/// plain plus one rotating fused variant for zoo rows.
std::vector<std::pair<Epilogue, bool>> variants(const LayerRow& row, std::size_t idx,
                                                bool has_bn) {
  if (!row.sweep) return {{Epilogue::kNone, false}, {kEpilogues[1 + idx % 5], has_bn}};
  std::vector<std::pair<Epilogue, bool>> out;
  for (const Epilogue epi : kEpilogues)
    for (const bool bn : {false, true})
      if (!bn || has_bn) out.emplace_back(epi, bn);
  return out;
}

std::string describe(const LayerRow& row) {
  const reference::ConvGeometry& g = row.conv;
  std::ostringstream os;
  os << row.where;
  if (row.kind == Kind::kConv)
    os << " conv " << g.in_ch << "->" << g.out_ch << " k=" << g.k << " stride=" << g.stride
       << " pad=" << g.pad << " groups=" << g.groups << " plane=" << row.h << "x" << row.w;
  else
    os << (row.kind == Kind::kLinear ? " linear " : " mhsa ") << row.in << "/" << row.out;
  return os.str();
}

float max_abs_diff(std::span<const float> a, std::span<const float> b) {
  float m = 0.f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

bool is_depthwise(const reference::ConvGeometry& g) {
  return g.groups == g.in_ch && g.groups == g.out_ch;
}

/// The geometry the oracle checks a row as: a Linear is the 1x1 conv over
/// [n, in, 1, 1] (same products in the same order, so the same bits).
reference::ConvGeometry geometry(const LayerRow& row) {
  return row.kind == Kind::kConv ? row.conv
                                 : reference::ConvGeometry{row.in, row.out, 1, 1, 0, 1};
}

/// `t` in the oracle's [n, c, h, w] layout, and back in the layout of `like`.
Tensor as_conv(const Tensor& t) {
  return t.ndim() == 4 ? t : t.reshaped({t.dim(0), t.dim(1), 1, 1});
}
Tensor as_layer(const Tensor& t, const Tensor& like) {
  return like.ndim() == 4 ? t : t.reshaped({t.dim(0), t.dim(1)});
}

/// The row's Conv2d or Linear, with a random bias; parameters() is
/// {weight, bias}.
ModulePtr make_layer(const LayerRow& row, std::mt19937& rng) {
  const reference::ConvGeometry g = geometry(row);
  ModulePtr layer;
  if (row.kind == Kind::kConv)
    layer = std::make_unique<Conv2d>(g.in_ch, g.out_ch, g.k, g.stride, g.pad, g.groups, rng);
  else
    layer = std::make_unique<Linear>(row.in, row.out, rng);
  randomize(layer->parameters()[1]->value, rng);
  return layer;
}

Tensor row_input(const LayerRow& row, std::mt19937& rng) {
  return row.kind == Kind::kConv ? Tensor::randn({2, row.conv.in_ch, row.h, row.w}, rng, 1.f)
                                 : Tensor::randn({11, row.in}, rng, 1.f);
}

Tensor layer_forward(Module& layer, const Tensor& x, Epilogue epi, const BatchNorm2d* bn) {
  const Context ctx;
  if (auto* conv = dynamic_cast<Conv2d*>(&layer))
    return bn != nullptr ? conv->forward_bn_fused(x, ctx, *bn, epi) : conv->forward_fused(x, ctx, epi);
  return dynamic_cast<Linear&>(layer).forward_fused(x, ctx, epi);
}

// A weight path and format under test.  Without a format the layer keeps
// its FP32 weights; with one it gets installed codes (see the weight-path
// column below).
using gemm::QgemmMode;
constexpr auto kPolicy = formats::ScalePolicy::kMaxToUnity;

struct PathCell {
  QgemmMode mode;
  const char* path;    // the path's name in failure traces
  const char* format;  // nullptr: FP32 weights
  /// The plan's reason on a non-depthwise row with a stamped input and no
  /// fused BN: kNone where the path runs its own kernel (and on the float
  /// and code paths), kNoTable where the book lacks the path's table.
  PlanFallback reason = PlanFallback::kNone;
  bool stamped = true;  // false: the input's quant scale is cleared
};

constexpr PathCell kFp32[] = {{QgemmMode::kFloat, "float", nullptr}};

/// The reason a cell's plan must report for one row variant, in the
/// layer's precedence (depthwise, unstamped input, fused BN under Kulisch,
/// then the payload), and the kernel it then runs.
std::pair<PlanFallback, WeightKernel> expected_plan(const PathCell& cell, bool depthwise,
                                                    bool with_bn) {
  const bool int8 = cell.mode == QgemmMode::kInt8;
  if (!int8 && cell.mode != QgemmMode::kKulisch) return {PlanFallback::kNone, WeightKernel::kFp32};
  const PlanFallback reason = depthwise       ? PlanFallback::kDepthwise
                              : !cell.stamped ? PlanFallback::kUnstampedInput
                              : !int8 && with_bn ? PlanFallback::kFusedAffine
                                                 : cell.reason;
  return {reason, reason != PlanFallback::kNone ? WeightKernel::kFp32
                  : int8                        ? WeightKernel::kInt8
                                                : WeightKernel::kKulisch};
}

/// The row's forwards under each cell and variant, at each pool width, on
/// every executable tier.  Each forward's plan must report the cell's
/// kernel and reason, and its output must equal that kernel's reference:
/// the path's direct reference for int8 / Kulisch (itself within
/// 1e-4·(1+|y|) of the code oracle), else the oracle over the FP32 or
/// decoded weights.
void check_forward(const LayerRow& row, std::size_t idx, std::span<const PathCell> cells,
                   std::initializer_list<int> widths, std::mt19937& rng) {
  const reference::ConvGeometry g = geometry(row);
  const bool depthwise = row.kind == Kind::kConv && is_depthwise(g);
  const ModulePtr layer = make_layer(row, rng);
  const float* bias = layer->parameters()[1]->value.raw();
  BatchNorm2d bn(g.out_ch);
  randomize_bn(bn, rng);
  const auto [scale, shift] = reference::bn_affine(bn);
  const Tensor x0 = row_input(row, rng);
  const auto vs = variants(row, idx, row.kind == Kind::kConv);
  for (const PathCell& cell : cells) {
    const std::string where = std::string("path=") + cell.path + " format=" +
                              (cell.format != nullptr ? cell.format : "FP32") +
                              (cell.stamped ? "" : " unstamped");
    SCOPED_TRACE(where);
    const auto fmt = cell.format != nullptr ? core::make_format(cell.format) : nullptr;
    Tensor x = x0;
    const std::span<float> live = layer->parameters()[0]->value.data();
    std::vector<float> w(live.begin(), live.end());
    std::shared_ptr<const WeightCodes> wc;
    if (fmt != nullptr) {
      ptq::install_weight_codes(*layer, *fmt, kPolicy);
      wc = dynamic_cast<ChannelWeights&>(*layer).weight_codes();
      reference::fake_quantize(x, *fmt);
      if (!cell.stamped) x.set_quant_scale(0.0);
      w = reference::decoded_weights(*wc);
    }
    const Tensor xc = as_conv(x);
    std::vector<Tensor> want;
    for (const auto& [epi, with_bn] : vs) {
      const float* s = with_bn ? scale.data() : nullptr;
      const float* t = with_bn ? shift.data() : nullptr;
      Tensor y = reference::conv_forward(xc, w.data(), bias, g, epi, s, t);
      const WeightKernel kernel = expected_plan(cell, depthwise, with_bn).second;
      if (kernel != WeightKernel::kFp32) {
        const double xs = x.quant_scale();
        const auto encode = [&](double v) { return fmt->encode(v); };
        const Tensor k = kernel == WeightKernel::kInt8
                             ? reference::int8_forward(xc, xs, *wc, bias, g, epi, s, t)
                             : reference::kulisch_forward(xc, xs, *wc, bias, g, epi, encode);
        for (std::int64_t i = 0; i < y.numel(); ++i)
          EXPECT_NEAR(k[i], y[i], 1e-4f * (1.f + std::fabs(y[i])))
              << where << " epi=" << static_cast<int>(epi) << " bn=" << with_bn
              << ": kernel vs code at " << i;
        y = k;
      }
      want.push_back(as_layer(y, x));
    }
    const ModeGuard mode(cell.mode);
    for (const int width : widths) {
      const PoolWidthGuard pool(width);
      for (const core::Tier t : executable_tiers()) {
        const TierGuard guard(t);
        const gemm::Backend* be = &gemm::active_backend();
        for (std::size_t v = 0; v < vs.size(); ++v) {
          const auto [epi, with_bn] = vs[v];
          EXPECT_TRUE(bitwise_equal(layer_forward(*layer, x, epi, with_bn ? &bn : nullptr), want[v]))
              << where << " backend=" << be->name << " width=" << width
              << " epi=" << static_cast<int>(epi) << " bn=" << with_bn;
          const auto plan = dynamic_cast<ChannelWeights&>(*layer).weight_plan();
          const auto [reason, kernel] = expected_plan(cell, depthwise, with_bn);
          EXPECT_EQ(plan->kernel, kernel) << "bn=" << with_bn << " " << kernel_name(plan->kernel);
          EXPECT_EQ(plan->reason, reason) << "bn=" << with_bn << " " << fallback_name(plan->reason);
          EXPECT_EQ(plan->codes, wc);
        }
      }
    }
  }
}

/// The FP32 forwards at pool widths 1 and 4; the second width reads the
/// packs the first one cached.
void check_fp32_forward(const LayerRow& row, std::size_t idx, std::mt19937& rng) {
  check_forward(row, idx, kFp32, {1, 4}, rng);
}

/// dW/db bitwise at pool widths 1 and 4; dx bitwise for Linear and within
/// 1e-4 relative for Conv2d (col2im regroups the sums).
void check_backward(const LayerRow& row, std::size_t /*idx*/, std::mt19937& rng) {
  const ModulePtr layer = make_layer(row, rng);
  const Param& weight = *layer->parameters()[0];
  const Param& bias = *layer->parameters()[1];
  const Tensor x = row_input(row, rng);
  const Tensor gy = Tensor::randn(layer->forward(x, Context{}).shape(), rng, 1.f);
  const reference::Grads ref =
      reference::conv_backward(as_conv(x), as_conv(gy), weight.value.raw(), geometry(row));
  for (const int width : {1, 4}) {
    const PoolWidthGuard pool(width);
    SCOPED_TRACE("pool width " + std::to_string(width));
    (void)layer->forward(x, Context{/*train=*/true});
    layer->zero_grad();
    const Tensor dx = layer->backward(gy);
    EXPECT_TRUE(bitwise_equal(weight.grad.data(), ref.dw.data()));
    EXPECT_TRUE(bitwise_equal(bias.grad.data(), ref.db.data()));
    if (row.kind == Kind::kConv)
      EXPECT_LE(max_abs_diff(dx.data(), ref.dx.data()), 1e-4f * std::max(1.f, ref.dx.abs_max()));
    else
      EXPECT_TRUE(bitwise_equal(dx.data(), ref.dx.data()));
  }
}

void check_mhsa_row(const LayerRow& row, std::size_t /*idx*/, std::mt19937& rng) {
  MultiHeadSelfAttention attn(row.in, row.out, rng);
  for (Param* p : attn.parameters())
    if (p->value.ndim() == 1) randomize(p->value, rng);  // the four biases
  const Tensor x = Tensor::randn({3, row.h, row.in}, rng, 1.f);
  const Tensor want = reference::mhsa_forward(attn, x);
  for (const int width : {1, 4}) {
    const PoolWidthGuard pool(width);
    EXPECT_TRUE(bitwise_equal(attn.forward(x, Context{}), want))
        << "pool width " << width;
  }
}

constexpr std::initializer_list<Group> kAllGroups = {Group::kGrid, Group::kDegenerate,
                                                     Group::kPrepack, Group::kZoo};

/// Calls check(row, index, rng) on each row of `kind` in `groups`, under a
/// trace naming the row.
template <typename Check>
void for_each_row(Kind kind, std::initializer_list<Group> groups, Check&& check) {
  ASSERT_TRUE(reference::kEnvReady);
  static const std::vector<LayerRow> rows = contract_rows();
  std::mt19937 rng(23);
  int checked = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LayerRow& row = rows[i];
    if (row.kind != kind || std::find(groups.begin(), groups.end(), row.group) == groups.end())
      continue;
    SCOPED_TRACE(describe(row));
    ++checked;
    check(row, i, rng);
  }
  EXPECT_GT(checked, 0);
}

TEST(GemmConv, ForwardMatchesNaiveBitwiseAcrossGeometries) {
  for_each_row(Kind::kConv, {Group::kGrid, Group::kZoo}, check_fp32_forward);
}

TEST(GemmConv, ForwardMatchesNaiveOnDegenerateSpatialShapes) {
  for_each_row(Kind::kConv, {Group::kDegenerate}, check_fp32_forward);
}

TEST(GemmConv, BackwardMatchesNaiveWithinTolerance) {
  for_each_row(Kind::kConv, kAllGroups, check_backward);
}

TEST(GemmLinear, ForwardMatchesNaiveBitwise) {
  for_each_row(Kind::kLinear, kAllGroups, check_fp32_forward);
}

TEST(GemmLinear, BackwardMatchesNaiveBitwise) {
  for_each_row(Kind::kLinear, kAllGroups, check_backward);
}

TEST(GemmAttention, MhsaForwardMatchesNaiveBitwise) {
  for_each_row(Kind::kMhsa, kAllGroups, check_mhsa_row);
}

// Depthwise special values, on every backend: ±0, ±Inf and NaN in the
// input at border pixels, an Inf weight on a tap that is out of bounds at
// the plane edge, a -0 bias over an all -0 plane and one over an all +0
// plane.  A kernel that padded the input with zeros instead of skipping
// out-of-bounds taps would turn the Inf tap into NaN at the edge and
// -0 + +0 into +0.  The NaN is the host's default NaN (what Inf - Inf
// yields), the one every NaN-producing step here yields too, so results
// never hinge on which NaN operand an add propagates (IEEE leaves that
// open, and compilers may commute the operands).
TEST(GemmConv, DepthwiseSpecialValuesMatchNaiveBitwisePerBackend) {
  ASSERT_TRUE(reference::kEnvReady);
  constexpr int kC = 17, kH = 6, kW = 7;
  std::mt19937 rng(31);
  Conv2d conv(kC, kC, 3, 1, 1, kC, rng);
  randomize(conv.bias.value, rng);
  BatchNorm2d bn(kC);
  randomize_bn(bn, rng);
  const auto [scale, shift] = reference::bn_affine(bn);
  volatile float inf_v = std::numeric_limits<float>::infinity();
  const float inf = inf_v, nan = inf_v - inf_v;
  Tensor x = Tensor::randn({2, kC, kH, kW}, rng, 1.f);
  const float border[] = {0.f, -0.f, inf, -inf, nan};
  for (int b = 0; b < 2; ++b)
    for (int c = 0; c < kC; ++c) {
      const int s = b + c;
      x.at(b, c, 0, s % kW) = border[s % 5];
      x.at(b, c, kH - 1, (s + 2) % kW) = border[(s + 1) % 5];
      x.at(b, c, (s + 1) % kH, 0) = border[(s + 2) % 5];
      x.at(b, c, (s + 3) % kH, kW - 1) = border[(s + 3) % 5];
    }
  // Channel 1: an all -0 plane under a -0 bias (every output -0); channel 2:
  // an all +0 plane under a -0 bias (every output +0).
  for (int b = 0; b < 2; ++b)
    for (int i = 0; i < kH; ++i)
      for (int j = 0; j < kW; ++j) {
        x.at(b, 1, i, j) = -0.f;
        x.at(b, 2, i, j) = 0.f;
      }
  conv.bias.value[1] = -0.f;
  conv.bias.value[2] = -0.f;
  for (int t = 0; t < 9; ++t) {
    conv.weight.value.at(1, 0, t / 3, t % 3) = std::fabs(conv.weight.value.at(1, 0, t / 3, t % 3));
    conv.weight.value.at(2, 0, t / 3, t % 3) = std::fabs(conv.weight.value.at(2, 0, t / 3, t % 3));
  }
  // Inf weights on taps that fall outside the plane at the top-left and
  // bottom-right edges.
  conv.weight.value.at(0, 0, 0, 0) = inf;
  conv.weight.value.at(3, 0, 2, 2) = -inf;
  conv.weight.value.at(kC - 1, 0, 0, 2) = inf;
  const reference::ConvGeometry g = reference::geometry_of(conv);
  for (const int width : {1, 4}) {
    const PoolWidthGuard pool(width);
    SCOPED_TRACE("pool width " + std::to_string(width));
    const Context ctx;
    for (const Epilogue epi : kEpilogues)
      for (const bool with_bn : {false, true}) {
        const Tensor want = reference::conv_forward(
            x, conv.weight.value.raw(), conv.bias.value.raw(), g, epi,
            with_bn ? scale.data() : nullptr, with_bn ? shift.data() : nullptr);
        for (const core::Tier t : executable_tiers()) {
          const TierGuard guard(t);
          const gemm::Backend* be = &gemm::active_backend();
          const Tensor y = with_bn ? conv.forward_bn_fused(x, ctx, bn, epi)
                                   : conv.forward_fused(x, ctx, epi);
          EXPECT_TRUE(bitwise_equal(y, want))
              << be->name << " epi=" << static_cast<int>(epi) << " bn=" << with_bn;
        }
      }
  }
}

// GlobalAvgPool and SEBlock run over contiguous channel planes; both must
// equal the naive indexed loops bit for bit.  SE covers every distinct
// (channels, reduced) geometry of the vision zoo, in inference mode and
// under a pass-through quant session, on a square and a ragged plane.
TEST(LayerSE, ForwardMatchesNaiveBitwiseForEveryZooGeometry) {
  ASSERT_TRUE(reference::kEnvReady);
  std::mt19937 rng(41);
  std::set<std::pair<int, int>> geoms;
  for (NamedModel& entry : make_vision_zoo(3, 10, 101, 12))
    for (Module* m : entry.model->modules())
      if (auto* se = dynamic_cast<SEBlock*>(m)) {
        std::vector<NamedChild> fc;
        se->collect_children(fc);
        const auto& fc1 = dynamic_cast<const Linear&>(*fc[0].module);
        geoms.emplace(fc1.weight.value.dim(1), fc1.weight.value.dim(0));
      }
  ASSERT_FALSE(geoms.empty());
  reference::PassThroughSession pass;
  for (const auto& [channels, reduced] : geoms) {
    SEBlock se(channels, reduced, rng);
    for (Param* p : se.parameters())
      if (p->value.ndim() == 1) randomize(p->value, rng);  // fc biases
    for (const auto& [h, w] : {std::pair{7, 7}, {5, 3}}) {
      const Tensor x = Tensor::randn({3, channels, h, w}, rng, 1.f);
      const Tensor want = reference::se_forward(se, x);
      for (const int width : {1, 4}) {
        const PoolWidthGuard pool(width);
        SCOPED_TRACE("SE " + std::to_string(channels) + "/" + std::to_string(reduced) +
                     " plane " + std::to_string(h) + "x" + std::to_string(w) +
                     " pool width " + std::to_string(width));
        EXPECT_TRUE(bitwise_equal(se.forward(x, Context{}), want));
        EXPECT_TRUE(bitwise_equal(se.run(x, Context{false, &pass}), want));
      }
    }
  }
}

TEST(LayerGlobalAvgPool, ForwardMatchesNaiveBitwise) {
  ASSERT_TRUE(reference::kEnvReady);
  std::mt19937 rng(43);
  reference::PassThroughSession pass;
  GlobalAvgPool pool;
  for (const auto& [c, h, w] : {std::tuple{16, 7, 7}, {33, 5, 3}, {8, 1, 1}, {3, 19, 23}}) {
    const Tensor x = Tensor::randn({3, c, h, w}, rng, 1.f);
    const Tensor want = reference::global_avg_pool(x);
    for (const int width : {1, 4}) {
      const PoolWidthGuard guard(width);
      EXPECT_TRUE(bitwise_equal(pool.forward(x, Context{}), want)) << c << " " << h << "x" << w;
      EXPECT_TRUE(bitwise_equal(pool.run(x, Context{false, &pass}), want))
          << c << " " << h << "x" << w;
    }
  }
}

// The conv cases where packing differs (plain, unit, grouped, depthwise)
// and a Linear, each forward cold then warm from the compiled plan.
TEST(LayerPrepack, ConvAndLinearForwardsBitwiseAcrossPrepackModes) {
  for_each_row(Kind::kConv, {Group::kPrepack}, check_fp32_forward);
  for_each_row(Kind::kLinear, {Group::kPrepack}, check_fp32_forward);
}

// ------------------------------------------------------- weight-path column --
//
// The conv and Linear rows again, now with installed weight codes, under
// each (path, format) cell below.  Inputs are fake-quantized onto the
// format's grid with a stamped scale, as the PTQ session leaves them (one
// cell clears it).  Each forward's plan report names the kernel that ran
// and, for a declined int8 / Kulisch request, the typed reason:
//   code    x MERSIT(8,2), FP(8,4), Posit(8,1), INT8: FP32 kernel;
//   int8    x INT8: int8 kernel, except depthwise rows (kDepthwise); with
//             the input's scale cleared, FP32 (kUnstampedInput); MERSIT(8,2)
//             has no int8 grid (kNoTable);
//   kulisch x MERSIT(8,2), FP(8,4), Posit(8,1): Kulisch kernel, except
//             depthwise rows and fused-BN variants (kFusedAffine).
// The output must equal the direct reference (reference.h) of the kernel
// the plan ran, or the code path's oracle over the decoded weights where
// it ran FP32; a direct reference must stay within 1e-4·(1+|y|) of that
// oracle (K float roundings apart at most).  Every cell runs on every
// executable tier; the pool width is the test parameter.

constexpr PathCell kPathCells[] = {
    {QgemmMode::kCode, "code", "MERSIT(8,2)"},
    {QgemmMode::kCode, "code", "FP(8,4)"},
    {QgemmMode::kCode, "code", "Posit(8,1)"},
    {QgemmMode::kCode, "code", "INT8"},
    {QgemmMode::kInt8, "int8", "INT8"},
    {QgemmMode::kInt8, "int8", "INT8", PlanFallback::kNone, /*stamped=*/false},
    {QgemmMode::kInt8, "int8", "MERSIT(8,2)", PlanFallback::kNoTable},
    {QgemmMode::kKulisch, "kulisch", "MERSIT(8,2)"},
    {QgemmMode::kKulisch, "kulisch", "FP(8,4)"},
    {QgemmMode::kKulisch, "kulisch", "Posit(8,1)"}};

class LayerPath : public ::testing::TestWithParam<int> {  // pool width
 protected:
  void check(Kind kind) {
    for_each_row(kind, kAllGroups, [&](const LayerRow& row, std::size_t i, std::mt19937& rng) {
      check_forward(row, i, kPathCells, {GetParam()}, rng);
    });
  }
};

TEST_P(LayerPath, ConvCellsMatchTheirPathReference) { check(Kind::kConv); }

TEST_P(LayerPath, LinearCellsMatchTheirPathReference) { check(Kind::kLinear); }

INSTANTIATE_TEST_SUITE_P(Gemm, LayerPath, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "width" + std::to_string(info.param);
                         });

// ------------------------------------------------------------ model table --
//
// Every zoo model (the eight vision rows and BERT-mini) with randomized BN
// statistics, BN folded (as perfbench, table2_ptq_accuracy and
// bench_serving deploy it) and unfolded.  Each weight path runs under a
// FakeQuantizer calibrated on the model's own input batch (input
// quantization for images); float runs without one:
//   float   the fused default equals the module-by-module forward;
//   code    x 4 formats: bitwise equal to the FP32 forward over
//           quantize_weights_per_channel weights in float mode; the FP32
//           Params stay untouched, and clearing the codes restores FP32;
//   int8    x INT8: within 2e-3·(1+|code|) of code (one logit grid step on
//           the grid-flip cells below), tie-aware top-1 unchanged;
//   kulisch x 3 formats: no bound against code (the layer column gates its
//           numerics).
// Each path must be bitwise invariant across every executable tier at
// pool widths 1 and 4, and across widths 2 and 13 on the active tier.
// int8 and code logits mostly agree bitwise (each quant point snaps the
// accumulation noise back to the grid): only the layer column can tell
// that the integer path ran.

constexpr int kModelBatch = 4, kImg = 12, kSeq = 8, kVocab = 50;
constexpr const char* kCodeFormats[] = {"MERSIT(8,2)", "FP(8,4)", "Posit(8,1)", "INT8"};
constexpr const char* kKulischFormats[] = {"MERSIT(8,2)", "FP(8,4)", "Posit(8,1)"};

/// int8 logits stay within kInt8Tol·(1+|code|) of code, except on the
/// grid-flip cells: there exact int32 and FP32 accumulation straddle a
/// fake-quant rounding boundary, one activation flips by a whole grid step,
/// and the logits it reaches land one step of the output quant point away.
/// Those are bounded by that step instead.  ResNet101-mini with BN
/// unfolded moves 5 of 40 logits by exactly one step (0.448, logit absmax
/// 56.9; 0.309 relative, above even kInt8RelTol = 0.15), and the exact
/// Kulisch path moves the same logits the same way.
constexpr float kInt8Tol = 2e-3f;
const std::set<std::pair<std::string, bool>> kGridFlipCells = {
    {"ResNet101-mini", false}};  // (model, BN folded)

/// A model set up as the PTQ paths run it.
struct Deployed {
  std::string name;
  bool folded = false;
  ModulePtr model;
  Tensor x;
  ptq::CalibrationTable table;

  /// m's forward of x under a FakeQuantizer for `fmt` (the replica path).
  Tensor quant_forward(Module& m, const formats::Format& fmt) const {
    ptq::FakeQuantizer fq(table, fmt, kPolicy);
    fq.set_input_quantization(x.ndim() == 4);
    Tensor in = x;
    fq.on_input(in);
    return m.run(in, Context{/*train=*/false, &fq});
  }
  [[nodiscard]] std::string cell(const char* path, const char* format) const {
    return name + (folded ? " BN folded" : " BN unfolded") + " path=" + path +
           " format=" + format;
  }
};

Deployed deploy(const std::string& name, bool folded, int batch) {
  std::mt19937 rng(101);
  Deployed d{name, folded, nullptr, {}, {}};
  if (name == "BERT-mini") {
    d.model = make_bert_mini(kVocab, kSeq + 2, 32, 4, 2, 64, 4, rng);
    d.x = Tensor({batch, kSeq});
    std::uniform_int_distribution<int> tok(0, kVocab - 1);
    for (auto& t : d.x.data()) t = static_cast<float>(tok(rng));
  } else {
    for (NamedModel& entry : make_vision_zoo(3, 10, 101, kImg))
      if (entry.name == name) d.model = std::move(entry.model);
    d.x = Tensor::randn({batch, 3, kImg, kImg}, rng, 1.f);
  }
  for (Module* m : d.model->modules())
    if (auto* bn = dynamic_cast<BatchNorm2d*>(m)) randomize_bn(*bn, rng);
  if (folded) fold_all_batchnorms(*d.model);
  d.table = ptq::calibrate_model(*d.model, Dataset{d.x, std::vector<int>(batch, 0), 10},
                                 /*observe_input=*/d.x.ndim() == 4);
  return d;
}

using Configs = std::vector<std::pair<core::Tier, int>>;  // (tier, width)

Configs matrix_configs() {
  Configs out;
  for (const core::Tier t : executable_tiers())
    for (const int width : {1, 4}) out.emplace_back(t, width);
  for (const int width : {2, 13}) out.emplace_back(core::active_tier(), width);
  return out;
}

/// Runs forward() under each configuration and expects every output
/// bitwise equal to *want, or to the first configuration's output when
/// `want` is null.  Returns that output.
template <typename Forward>
Tensor expect_invariant(const std::string& cell, const Configs& configs, Forward&& forward,
                        const Tensor* want = nullptr) {
  std::optional<Tensor> base;
  if (want != nullptr) base = *want;
  for (const auto& [tier, width] : configs) {
    const TierGuard guard(tier);
    const PoolWidthGuard pool(width);
    Tensor y = forward();
    if (!base) base = std::move(y);
    else
      EXPECT_TRUE(bitwise_equal(y, *base))
          << cell << " backend=" << core::tier_name(tier) << " width=" << width;
  }
  return *base;
}

void check_code_cell(const Deployed& d, const char* format, const Configs& configs) {
  const std::string cell = d.cell("code", format);
  const auto fmt = core::make_format(format);
  const ModulePtr ref_model = d.model->clone();
  ptq::quantize_weights_per_channel(*ref_model, *fmt, kPolicy);
  Tensor want;
  {
    const ModeGuard mode(QgemmMode::kFloat);
    want = d.quant_forward(*ref_model, *fmt);
  }
  const ModulePtr model = d.model->clone();
  const ptq::WeightSnapshot before = ptq::snapshot_weights(*model);
  ptq::install_weight_codes(*model, *fmt, kPolicy);
  const ModeGuard mode(QgemmMode::kCode);
  expect_invariant(cell, configs, [&] { return d.quant_forward(*model, *fmt); }, &want);
  const ptq::WeightSnapshot after = ptq::snapshot_weights(*model);
  for (std::size_t i = 0; i < before.values.size(); ++i)
    EXPECT_TRUE(bitwise_equal(before.values[i], after.values[i])) << cell << ": Param " << i;
  ptq::clear_weight_codes(*model);
  EXPECT_TRUE(bitwise_equal(d.quant_forward(*model, *fmt), d.quant_forward(*d.model, *fmt)))
      << cell << ": codes cleared";
}

/// Each row's reference top-1 class attains the row maximum of `got`:
/// fake-quantized logits can tie exactly, and argmax then picks by index.
bool top1_kept(const Tensor& got, const Tensor& ref) {
  const int classes = ref.dim(1);
  for (int r = 0; r < ref.dim(0); ++r) {
    const float* g = got.raw() + static_cast<std::size_t>(r) * classes;
    const float* e = ref.raw() + static_cast<std::size_t>(r) * classes;
    if (g[std::max_element(e, e + classes) - e] != *std::max_element(g, g + classes))
      return false;
  }
  return true;
}

void check_int8_cell(const Deployed& d, const Configs& configs) {
  const std::string cell = d.cell("int8", "INT8");
  const auto fmt = core::make_format("INT8");
  const ModulePtr model = d.model->clone();
  ptq::install_weight_codes(*model, *fmt, kPolicy);
  Tensor code;
  {
    const ModeGuard mode(QgemmMode::kCode);
    code = d.quant_forward(*model, *fmt);
  }
  const ModeGuard mode(QgemmMode::kInt8);
  const Tensor y = expect_invariant(cell, configs, [&] { return d.quant_forward(*model, *fmt); });
  const bool flips = kGridFlipCells.count({d.name, d.folded}) != 0;
  // One grid step of the output quant point: the int8 grid pitch at its scale.
  const double step = fmt->codec().int8_grid().pitch * code.quant_scale();
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const double bound = flips ? step * (1.0 + 1e-5) : kInt8Tol * (1.f + std::fabs(code[i]));
    EXPECT_LE(std::fabs(y[i] - code[i]), bound) << cell << ": logit " << i;
  }
  EXPECT_TRUE(top1_kept(y, code)) << cell << ": top-1 changed";
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const NamedModel& entry : make_vision_zoo(3, 10, 101, kImg)) names.push_back(entry.name);
  names.push_back("BERT-mini");
  return names;
}

class ModelPath : public ::testing::TestWithParam<std::tuple<std::string, bool>> {
 protected:  // (model, BN folded)
  const Deployed d = deploy(std::get<0>(GetParam()), std::get<1>(GetParam()), kModelBatch);
};

TEST_P(ModelPath, FloatFusedDefaultMatchesModulePasses) {
  const Tensor want = reference::unfused_forward(*d.model, d.x);
  expect_invariant(d.cell("float", "FP32"), matrix_configs(),
                   [&] { return d.model->forward(d.x, Context{}); }, &want);
}

TEST_P(ModelPath, CodeEqualsFp32OverFakeQuantizedWeights) {
  for (const char* format : kCodeFormats) check_code_cell(d, format, matrix_configs());
}

TEST_P(ModelPath, Int8WithinToleranceOfCodeAndTop1Kept) { check_int8_cell(d, matrix_configs()); }

TEST_P(ModelPath, KulischInvariantAcrossBackendsAndWidths) {
  for (const char* format : kKulischFormats) {
    const auto fmt = core::make_format(format);
    const ModulePtr model = d.model->clone();
    ptq::install_weight_codes(*model, *fmt, kPolicy);
    const ModeGuard mode(QgemmMode::kKulisch);
    expect_invariant(d.cell("kulisch", format), matrix_configs(),
                     [&] { return d.quant_forward(*model, *fmt); });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gemm, ModelPath, ::testing::Combine(::testing::ValuesIn(zoo_names()), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      std::string id = std::get<0>(info.param) + (std::get<1>(info.param) ? "_folded" : "");
      std::replace(id.begin(), id.end(), '-', '_');
      return id;
    });

// The benchmark's own cells (BENCHMARK.json): trunk-mersit and mobile-int8
// at their batch and pool width, BN folded, on the active tier.
TEST(GemmBenchCell, TrunkMersitResNet18CodeBatch32Width2) {
  check_code_cell(deploy("ResNet18-mini", true, 32), "MERSIT(8,2)",
                  {{core::active_tier(), 2}});
}

TEST(GemmBenchCell, MobileInt8MobileNetV3Int8Batch32Width1) {
  check_int8_cell(deploy("MobileNet_v3-mini", true, 32), {{core::active_tier(), 1}});
}
}  // namespace
}  // namespace mersit::nn
