// The GEMM engine and the layer contract built on it.
//
// Kernel level: sgemm against a triple loop, thread-count invariance, and
// every SIMD backend bitwise against scalar.  Layer level: one table of
// Conv2d / Linear / MHSA geometries checked against the naive loops of the
// test oracle (tests/nn/reference.h).  Model level: the fused default
// forward of every zoo model against its own module-by-module forward.
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
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/thread_pool.h"
#include "nn/attention.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/im2col.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "reference.h"

namespace mersit::nn {
namespace {

using reference::bitwise_equal;

// Give the global pool real fan-out even on single-core CI (respects an
// explicit MERSIT_THREADS from the environment).  Static init runs before
// main(), which is before the pool's first use can construct it.
const bool kEnvReady = [] {
  setenv("MERSIT_THREADS", "4", /*overwrite=*/0);
  return true;
}();

std::vector<float> random_vec(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<float> dist(0.f, 1.f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Naive triple loop with the contract sgemm promises to reproduce: each
/// element starts from its init value and accumulates k-ascending.
void ref_gemm(int M, int N, int K, const float* A, int lda, bool ta,
              const float* B, int ldb, bool tb, float* C, int ldc,
              gemm::Init init, const float* bias) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      float acc;
      switch (init) {
        case gemm::Init::kZero: acc = 0.f; break;
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
  ASSERT_TRUE(kEnvReady);
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
// Every compiled-in backend the host can execute is gated bitwise against
// the scalar reference: same shapes/transposes/inits, strided C, thread
// counts, fused epilogues, and the prepacked-operand path.  Bit identity
// holds because every backend accumulates ascending-k with a separately
// rounded multiply and add per step (no FMA) — tile geometry may differ.

/// Restores the active GEMM backend on scope exit.
struct BackendGuard {
  explicit BackendGuard(const gemm::Backend& be)
      : prev(gemm::set_backend(&be)) {}
  ~BackendGuard() { gemm::set_backend(prev); }
  const gemm::Backend* prev;
};

TEST(GemmBackend, RegistryListsScalarLastWithUniqueIdsAndNames) {
  const auto list = gemm::backends();
  ASSERT_FALSE(list.empty());
  // Scalar terminates detection: always compiled in, always supported.
  EXPECT_EQ(list.back(), &gemm::scalar_backend());
  EXPECT_TRUE(gemm::scalar_backend().supported());
  EXPECT_TRUE(gemm::active_backend().supported());
  std::set<int> ids;
  for (const gemm::Backend* be : list) {
    EXPECT_GE(be->id, 0) << be->name;
    EXPECT_TRUE(ids.insert(be->id).second) << "duplicate id: " << be->name;
    EXPECT_EQ(gemm::find_backend(be->name), be);
    EXPECT_EQ(be->mc % be->mr, 0) << be->name;  // full tiles inside a block
  }
}

TEST(GemmBackend, ParseBackendRejectsUnknownNamesListingTheRegistry) {
  EXPECT_EQ(&gemm::parse_backend("scalar"), &gemm::scalar_backend());
  EXPECT_EQ(gemm::find_backend("bogus"), nullptr);
  try {
    (void)gemm::parse_backend("bogus");
    FAIL() << "unknown backend name accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    // The message lists every compiled-in backend so the fix is self-evident.
    for (const gemm::Backend* be : gemm::backends())
      EXPECT_NE(what.find(be->name), std::string::npos) << what;
  }
}

TEST(GemmBackend, SetBackendRoundTripsAndRejectsNull) {
  const gemm::Backend& before = gemm::active_backend();
  {
    const BackendGuard g(gemm::scalar_backend());
    EXPECT_EQ(&gemm::active_backend(), &gemm::scalar_backend());
  }
  EXPECT_EQ(&gemm::active_backend(), &before);
  EXPECT_THROW(gemm::set_backend(nullptr), std::invalid_argument);
}

TEST(GemmBackend, EveryBackendBitIdenticalToScalarAcrossShapesAndInits) {
  ASSERT_TRUE(kEnvReady);
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
            const BackendGuard g(gemm::scalar_backend());
            gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb,
                        want.data(), N, init, bias.data());
          }
          for (const gemm::Backend* be : gemm::backends()) {
            if (!be->supported()) continue;
            const BackendGuard g(*be);
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
    const BackendGuard g(gemm::scalar_backend());
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(),
                ldc);
  }
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    const BackendGuard g(*be);
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
        const BackendGuard g(gemm::scalar_backend());
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    want.data(), N, gemm::Init::kZero, nullptr, nullptr, epi,
                    nullptr, nullptr, aff);
      }
      for (const gemm::Backend* be : gemm::backends()) {
        if (!be->supported()) continue;
        const BackendGuard g(*be);
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
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    const BackendGuard g(*be);
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
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    const BackendGuard g(*be);
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
  const gemm::Backend* other = nullptr;
  for (const gemm::Backend* be : gemm::backends())
    if (be != &gemm::scalar_backend() && be->supported()) {
      other = be;
      break;
    }
  if (other == nullptr)
    GTEST_SKIP() << "host supports only the scalar backend";
  std::mt19937 rng(97);
  const int M = 64, N = 48, K = 32;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  gemm::PackedMatrix pa, pb;
  {
    const BackendGuard g(*other);
    pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
  }
  const BackendGuard g(gemm::scalar_backend());
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
// widths 1 and 4 against the oracle: forwards (cold and warm pack cache)
// over epilogue x BN affine, and backward.  Each test below checks one
// slice of the table (a layer kind, a row group, forward or backward).

using gemm::Epilogue;

constexpr Epilogue kEpilogues[] = {Epilogue::kNone,  Epilogue::kReLU,
                                   Epilogue::kReLU6, Epilogue::kSiLU,
                                   Epilogue::kHardSwish, Epilogue::kGELU};

enum class Kind { kConv, kLinear, kMhsa };
enum class Group { kGrid, kDegenerate, kPrepack, kZoo };
enum Pass : unsigned { kForward = 1u, kBackward = 2u };

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
  for (const auto& [in, out] : {std::pair{37, 19}, {23, 15}})
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

void randomize(Tensor& t, std::mt19937& rng) {
  std::normal_distribution<float> nd(0.f, 1.f);
  for (auto& v : t.data()) v = nd(rng);
}

/// Non-trivial BN statistics, so the fused affine is not near-identity.
void randomize_bn(BatchNorm2d& bn, std::mt19937& rng) {
  std::normal_distribution<float> nd(0.f, 0.5f);
  std::uniform_real_distribution<float> ud(0.5f, 2.f);
  for (auto& v : bn.gamma.value.data()) v = 1.f + nd(rng);
  for (auto& v : bn.beta.value.data()) v = nd(rng);
  for (auto& v : bn.running_mean.data()) v = nd(rng);
  for (auto& v : bn.running_var.data()) v = ud(rng);
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

/// The backends a conv row's forwards run under: every backend the host
/// can execute for depthwise rows (each has its own depthwise lane block),
/// else only the active one (the GEMM kernels are gated against scalar in
/// the GemmBackend tests above).
std::vector<const gemm::Backend*> forward_backends(const reference::ConvGeometry& g) {
  if (!is_depthwise(g)) return {&gemm::active_backend()};
  std::vector<const gemm::Backend*> out;
  for (const gemm::Backend* be : gemm::backends())
    if (be->supported()) out.push_back(be);
  return out;
}

void check_conv_row(const LayerRow& row, std::size_t idx, unsigned passes,
                    std::mt19937& rng) {
  const reference::ConvGeometry& g = row.conv;
  Conv2d conv(g.in_ch, g.out_ch, g.k, g.stride, g.pad, g.groups, rng);
  randomize(conv.bias.value, rng);
  BatchNorm2d bn(g.out_ch);
  randomize_bn(bn, rng);
  const auto [scale, shift] = reference::bn_affine(bn);
  const Tensor x = Tensor::randn({2, g.in_ch, row.h, row.w}, rng, 1.f);
  const float* wt = conv.weight.value.raw();
  const auto vs = variants(row, idx, /*has_bn=*/true);
  std::vector<Tensor> want;
  for (const auto& [epi, with_bn] : vs)
    want.push_back(reference::conv_forward(x, wt, conv.bias.value.raw(), g, epi,
                                           with_bn ? scale.data() : nullptr,
                                           with_bn ? shift.data() : nullptr));
  const Tensor gy = Tensor::randn(want[0].shape(), rng, 1.f);
  const reference::Grads ref = reference::conv_backward(x, gy, wt, g);
  for (const int width : {1, 4}) {
    core::resize_global_pool(width);
    SCOPED_TRACE("pool width " + std::to_string(width));
    const Context ctx;
    for (const gemm::Backend* be : forward_backends(g)) {
      const BackendGuard guard(*be);
      for (std::size_t v = 0; v < vs.size() && (passes & kForward); ++v) {
        const auto [epi, with_bn] = vs[v];
        const Tensor y = with_bn ? conv.forward_bn_fused(x, ctx, bn, epi)
                                 : conv.forward_fused(x, ctx, epi);
        EXPECT_TRUE(bitwise_equal(y, want[v]))
            << be->name << " epi=" << static_cast<int>(epi) << " bn=" << with_bn;
      }
    }
    if (!(passes & kBackward)) continue;
    const Context train{/*train=*/true};
    (void)conv.forward(x, train);
    conv.zero_grad();
    const Tensor dx = conv.backward(gy);
    EXPECT_TRUE(bitwise_equal(conv.weight.grad, ref.dw));
    EXPECT_TRUE(bitwise_equal(conv.bias.grad, ref.db));
    EXPECT_LE(max_abs_diff(dx.data(), ref.dx.data()),
              1e-4f * std::max(1.f, ref.dx.abs_max()));
  }
}

void check_linear_row(const LayerRow& row, std::size_t idx, unsigned passes,
                      std::mt19937& rng) {
  Linear lin(row.in, row.out, rng);
  randomize(lin.bias.value, rng);
  const Tensor x = Tensor::randn({11, row.in}, rng, 1.f);
  const float* wt = lin.weight.value.raw();
  const auto vs = variants(row, idx, /*has_bn=*/false);
  std::vector<Tensor> want;
  for (const auto& [epi, with_bn] : vs)
    want.push_back(reference::linear_forward(x, wt, lin.bias.value.raw(), row.out, epi));
  const Tensor gy = Tensor::randn(want[0].shape(), rng, 1.f);
  const reference::Grads ref = reference::linear_backward(x, gy, wt, row.out);
  for (const int width : {1, 4}) {
    core::resize_global_pool(width);
    SCOPED_TRACE("pool width " + std::to_string(width));
    const Context ctx;
    for (std::size_t v = 0; v < vs.size() && (passes & kForward); ++v)
      EXPECT_TRUE(bitwise_equal(lin.forward_fused(x, ctx, vs[v].first), want[v]))
          << "epi=" << static_cast<int>(vs[v].first);
    if (!(passes & kBackward)) continue;
    const Context train{/*train=*/true};
    (void)lin.forward(x, train);
    lin.zero_grad();
    EXPECT_TRUE(bitwise_equal(lin.backward(gy), ref.dx));
    EXPECT_TRUE(bitwise_equal(lin.weight.grad, ref.dw));
    EXPECT_TRUE(bitwise_equal(lin.bias.grad, ref.db));
  }
}

void check_mhsa_row(const LayerRow& row, std::mt19937& rng) {
  MultiHeadSelfAttention attn(row.in, row.out, rng);
  for (Param* p : attn.parameters())
    if (p->value.ndim() == 1) randomize(p->value, rng);  // the four biases
  const Tensor x = Tensor::randn({3, row.h, row.in}, rng, 1.f);
  const Tensor want = reference::mhsa_forward(attn, x);
  for (const int width : {1, 4}) {
    core::resize_global_pool(width);
    EXPECT_TRUE(bitwise_equal(attn.forward(x, Context{}), want))
        << "pool width " << width;
  }
}

constexpr std::initializer_list<Group> kAllGroups = {Group::kGrid, Group::kDegenerate,
                                                     Group::kPrepack, Group::kZoo};

/// Checks the rows of `kind` in `groups` for `passes`.  MHSA rows check the
/// forward only.
void check_rows(Kind kind, std::initializer_list<Group> groups, unsigned passes) {
  ASSERT_TRUE(kEnvReady);
  static const std::vector<LayerRow> rows = contract_rows();
  std::mt19937 rng(23);
  const int prev_width = core::global_pool().size();
  int checked = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LayerRow& row = rows[i];
    if (row.kind != kind || std::find(groups.begin(), groups.end(), row.group) == groups.end())
      continue;
    SCOPED_TRACE(describe(row));
    ++checked;
    switch (row.kind) {
      case Kind::kConv: check_conv_row(row, i, passes, rng); break;
      case Kind::kLinear: check_linear_row(row, i, passes, rng); break;
      case Kind::kMhsa: check_mhsa_row(row, rng); break;
    }
  }
  core::resize_global_pool(prev_width);
  EXPECT_GT(checked, 0);
}

TEST(GemmConv, ForwardMatchesNaiveBitwiseAcrossGeometries) {
  check_rows(Kind::kConv, {Group::kGrid, Group::kZoo}, kForward);
}

TEST(GemmConv, ForwardMatchesNaiveOnDegenerateSpatialShapes) {
  check_rows(Kind::kConv, {Group::kDegenerate}, kForward);
}

// dW/db bitwise; dx within 1e-4 relative (col2im regroups the sums).
TEST(GemmConv, BackwardMatchesNaiveWithinTolerance) {
  check_rows(Kind::kConv, kAllGroups, kBackward);
}

TEST(GemmLinear, ForwardMatchesNaiveBitwise) {
  check_rows(Kind::kLinear, kAllGroups, kForward);
}

TEST(GemmLinear, BackwardMatchesNaiveBitwise) {
  check_rows(Kind::kLinear, kAllGroups, kBackward);
}

TEST(GemmAttention, MhsaForwardMatchesNaiveBitwise) {
  check_rows(Kind::kMhsa, kAllGroups, kForward);
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
  ASSERT_TRUE(kEnvReady);
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
  const int prev_width = core::global_pool().size();
  for (const int width : {1, 4}) {
    core::resize_global_pool(width);
    SCOPED_TRACE("pool width " + std::to_string(width));
    const Context ctx;
    for (const Epilogue epi : kEpilogues)
      for (const bool with_bn : {false, true}) {
        const Tensor want = reference::conv_forward(
            x, conv.weight.value.raw(), conv.bias.value.raw(), g, epi,
            with_bn ? scale.data() : nullptr, with_bn ? shift.data() : nullptr);
        for (const gemm::Backend* be : forward_backends(g)) {
          const BackendGuard guard(*be);
          const Tensor y = with_bn ? conv.forward_bn_fused(x, ctx, bn, epi)
                                   : conv.forward_fused(x, ctx, epi);
          EXPECT_TRUE(bitwise_equal(y, want))
              << be->name << " epi=" << static_cast<int>(epi) << " bn=" << with_bn;
        }
      }
  }
  core::resize_global_pool(prev_width);
}

// GlobalAvgPool and SEBlock run over contiguous channel planes; both must
// equal the naive indexed loops bit for bit.  SE covers every distinct
// (channels, reduced) geometry of the vision zoo, in inference mode and
// under a pass-through quant session, on a square and a ragged plane.
TEST(LayerSE, ForwardMatchesNaiveBitwiseForEveryZooGeometry) {
  ASSERT_TRUE(kEnvReady);
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
  const int prev_width = core::global_pool().size();
  for (const auto& [channels, reduced] : geoms) {
    SEBlock se(channels, reduced, rng);
    for (Param* p : se.parameters())
      if (p->value.ndim() == 1) randomize(p->value, rng);  // fc biases
    for (const auto& [h, w] : {std::pair{7, 7}, {5, 3}}) {
      const Tensor x = Tensor::randn({3, channels, h, w}, rng, 1.f);
      const Tensor want = reference::se_forward(se, x);
      for (const int width : {1, 4}) {
        core::resize_global_pool(width);
        SCOPED_TRACE("SE " + std::to_string(channels) + "/" + std::to_string(reduced) +
                     " plane " + std::to_string(h) + "x" + std::to_string(w) +
                     " pool width " + std::to_string(width));
        EXPECT_TRUE(bitwise_equal(se.forward(x, Context{}), want));
        EXPECT_TRUE(bitwise_equal(se.run(x, Context{false, &pass}), want));
      }
    }
  }
  core::resize_global_pool(prev_width);
}

TEST(LayerGlobalAvgPool, ForwardMatchesNaiveBitwise) {
  ASSERT_TRUE(kEnvReady);
  std::mt19937 rng(43);
  reference::PassThroughSession pass;
  GlobalAvgPool pool;
  const int prev_width = core::global_pool().size();
  for (const auto& [c, h, w] : {std::tuple{16, 7, 7}, {33, 5, 3}, {8, 1, 1}, {3, 19, 23}}) {
    const Tensor x = Tensor::randn({3, c, h, w}, rng, 1.f);
    const Tensor want = reference::global_avg_pool(x);
    for (const int width : {1, 4}) {
      core::resize_global_pool(width);
      EXPECT_TRUE(bitwise_equal(pool.forward(x, Context{}), want)) << c << " " << h << "x" << w;
      EXPECT_TRUE(bitwise_equal(pool.run(x, Context{false, &pass}), want))
          << c << " " << h << "x" << w;
    }
  }
  core::resize_global_pool(prev_width);
}

// The conv cases where packing differs (plain, unit, grouped, depthwise)
// and a Linear, each forward cold then warm from the pack cache.
TEST(LayerPrepack, ConvAndLinearForwardsBitwiseAcrossPrepackModes) {
  check_rows(Kind::kConv, {Group::kPrepack}, kForward);
  check_rows(Kind::kLinear, {Group::kPrepack}, kForward);
}

// ---------------------------------------------------------- model contract --

// The default inference forward — prepacked weights, BN and activations
// fused into the GEMM write-back — is bitwise equal to the same model run
// module by module under a pass-through quant session (no fusions).  With
// the layer contract above, every zoo model's fused forward thus equals the
// naive loops end to end.  Covers every vision-zoo model plus BERT-mini at
// pool widths 1 and 4.
TEST(GemmZoo, DefaultForwardBitwiseMatchesUnfusedModulePasses) {
  constexpr int kBatch = 2, kImg = 12, kSeq = 8, kVocab = 50;
  std::mt19937 rng(101);
  std::vector<NamedModel> zoo = make_vision_zoo(3, 10, 101, kImg);
  zoo.push_back({"BERT-mini",
                 make_bert_mini(kVocab, kSeq + 2, 32, 4, 2, 64, 4, rng)});
  for (NamedModel& entry : zoo)
    for (Module* m : entry.model->modules())
      if (auto* bn = dynamic_cast<BatchNorm2d*>(m)) randomize_bn(*bn, rng);
  const Tensor image = Tensor::randn({kBatch, 3, kImg, kImg}, rng, 1.f);
  Tensor tokens({kBatch, kSeq});
  std::uniform_int_distribution<int> tok(0, kVocab - 1);
  for (auto& t : tokens.data()) t = static_cast<float>(tok(rng));

  const int prev_width = core::global_pool().size();
  const Context ctx;
  for (const int width : {1, 4}) {
    core::resize_global_pool(width);
    for (NamedModel& entry : zoo) {
      const Tensor& x = entry.name == "BERT-mini" ? tokens : image;
      const Tensor unfused = reference::unfused_forward(*entry.model, x);
      const Tensor fused = entry.model->forward(x, ctx);
      EXPECT_TRUE(bitwise_equal(fused, unfused))
          << entry.name << " at pool width " << width;
    }
  }
  core::resize_global_pool(prev_width);
}
}  // namespace
}  // namespace mersit::nn
