// The GEMM drivers: epilogue formulas, cache-blocked tiling, and the
// prepack machinery, for FP32 (sgemm) and for int8 levels (qgemm_int8).
// Both drivers share one pack skeleton (pack_panels), one packed-operand
// check (check_packed) and one tile fan-out (for_each_tile); they differ
// only in the element type and in what a tile does.  All register-tile
// work — packing panels and the micro-kernels — dispatches through the
// active SIMD backend (nn/gemm/backend.h); this TU stays ISA-agnostic.
#include "nn/gemm/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/aligned.h"
#include "core/scratch_arena.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/backend_impl.h"
#include "nn/gemm/qgemm.h"

namespace mersit::nn::gemm {

namespace {

/// Row write-back of completed sums with the epilogue switch hoisted out of
/// the element loop: each case instantiates epilogue_eval with a constant
/// kind, so the per-element switch folds away and the clamp-style cases
/// (ReLU/ReLU6/HardSwish) vectorize.  Same formula per element, so results
/// are bit-identical to the per-element dispatch.
template <Epilogue E>
void finish_row(const float* src, float* dst, int n) {
  for (int i = 0; i < n; ++i) dst[i] = epilogue_eval(E, src[i]);
}

void finish_row(Epilogue epi, const float* src, float* dst, int n) {
  switch (epi) {
    case Epilogue::kNone: finish_row<Epilogue::kNone>(src, dst, n); return;
    case Epilogue::kReLU: finish_row<Epilogue::kReLU>(src, dst, n); return;
    case Epilogue::kReLU6: finish_row<Epilogue::kReLU6>(src, dst, n); return;
    case Epilogue::kSiLU: finish_row<Epilogue::kSiLU>(src, dst, n); return;
    case Epilogue::kHardSwish:
      finish_row<Epilogue::kHardSwish>(src, dst, n);
      return;
    case Epilogue::kGELU: finish_row<Epilogue::kGELU>(src, dst, n); return;
  }
}

/// Problems below this many multiply-adds skip the packing machinery: a
/// direct m / k / n loop nest is faster there and keeps the identical
/// per-element ascending-k accumulation order (row-at-a-time, so the inner
/// n loop still vectorizes).  Sized for the per-head attention matmuls of
/// short sequences, which would otherwise spend more time packing than
/// multiplying.  Reads the raw operands directly, so it is backend-
/// independent by construction.
constexpr std::int64_t kSmallWork = 1 << 13;

void small_gemm(int M, int N, int K, const float* a, int lda, bool trans_a,
                const float* b, int ldb, bool trans_b, float* c, int ldc,
                Init init, const float* bias, Epilogue epi, const float* asc,
                const float* ash) {
  for (int m = 0; m < M; ++m) {
    float* row = c + static_cast<std::size_t>(m) * ldc;
    switch (init) {
      case Init::kZero:
        for (int n = 0; n < N; ++n) row[n] = 0.f;
        break;
      case Init::kBiasRow:
        for (int n = 0; n < N; ++n) row[n] = bias[m];
        break;
      case Init::kBiasCol:
        for (int n = 0; n < N; ++n) row[n] = bias[n];
        break;
      case Init::kAccumulate:
        break;
    }
    for (int k = 0; k < K; ++k) {
      const float av = detail::a_elem(a, lda, trans_a, m, k);
      for (int n = 0; n < N; ++n)
        row[n] += av * detail::b_elem(b, ldb, trans_b, k, n);
    }
    if (asc != nullptr) {
      const float s = asc[m], t = ash[m];
      for (int n = 0; n < N; ++n) row[n] = s * row[n] + t;
    }
    if (epi != Epilogue::kNone) finish_row(epi, row, row, N);
  }
}

constexpr int round_up(int v, int m) { return (v + m - 1) / m * m; }

struct TileArgs {
  const Backend* be;
  int M, N, K;
  const float* a;
  int lda;
  bool trans_a;
  const float* b;
  int ldb;
  bool trans_b;
  float* c;
  int ldc;
  Init init;
  const float* bias;
  Epilogue epi;
  const PackedMatrix* pa;
  const PackedMatrix* pb;
  const float* asc;  ///< fused per-row affine scale (null when absent)
  const float* ash;  ///< fused per-row affine shift
};

/// Compute one (MC x NC) output tile end to end: init, then all KC panels
/// in ascending k order.  Per-call packing buffers come from the thread's
/// ScratchArena (released on return, reused by the next call); prepacked
/// operands skip the pack and index straight into their stored blocks,
/// which are byte-identical to what the backend's pack would write here.
void run_tile(const TileArgs& t, int m0, int mc, int n0, int nc) {
  const Backend& be = *t.be;
  float* c0 = t.c + static_cast<std::size_t>(m0) * t.ldc + n0;
  switch (t.init) {
    case Init::kZero:
      for (int m = 0; m < mc; ++m)
        for (int n = 0; n < nc; ++n) c0[static_cast<std::size_t>(m) * t.ldc + n] = 0.f;
      break;
    case Init::kBiasRow:
      for (int m = 0; m < mc; ++m) {
        const float v = t.bias[m0 + m];
        for (int n = 0; n < nc; ++n) c0[static_cast<std::size_t>(m) * t.ldc + n] = v;
      }
      break;
    case Init::kBiasCol:
      for (int m = 0; m < mc; ++m)
        for (int n = 0; n < nc; ++n)
          c0[static_cast<std::size_t>(m) * t.ldc + n] = t.bias[n0 + n];
      break;
    case Init::kAccumulate:
      break;  // start from the existing C
  }

  const int kc_max = std::min(t.K, be.kc);
  const int kblocks = (t.K + be.kc - 1) / be.kc;
  const int mpanels = (mc + be.mr - 1) / be.mr;
  const int npanels = (nc + be.nr - 1) / be.nr;
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  float* abuf =
      t.pa != nullptr
          ? nullptr
          : arena.alloc(static_cast<std::size_t>(mpanels) * be.mr * kc_max);
  float* bbuf =
      t.pb != nullptr
          ? nullptr
          : arena.alloc(static_cast<std::size_t>(npanels) * be.nr * kc_max);

  for (int k0 = 0; k0 < t.K; k0 += be.kc) {
    const int kc = std::min(be.kc, t.K - k0);
    const int kb = k0 / be.kc;
    const float* apack = abuf;
    const float* bpack = bbuf;
    if (t.pa != nullptr) {
      apack = t.pa->data.data() +
              t.pa->block_off[static_cast<std::size_t>(m0 / be.mc) * kblocks + kb];
    } else {
      be.pack_a(t.a, t.lda, t.trans_a, m0, mc, k0, kc, abuf);
    }
    if (t.pb != nullptr) {
      bpack = t.pb->data.data() +
              t.pb->block_off[static_cast<std::size_t>(n0 / be.nc) * kblocks + kb];
    } else {
      be.pack_b(t.b, t.ldb, t.trans_b, k0, kc, n0, nc, bbuf);
    }
    MERSIT_ASSERT_ALIGNED(apack);
    MERSIT_ASSERT_ALIGNED(bpack);
    // The fused epilogue/affine fires only on the final k-block's
    // write-back, when every element of this tile has its complete
    // k-summation.
    const bool last = k0 + kc >= t.K;
    const Epilogue epi = last ? t.epi : Epilogue::kNone;
    for (int jp = 0; jp < nc; jp += be.nr) {
      const int nr = std::min(be.nr, nc - jp);
      const float* bp = bpack + static_cast<std::size_t>(jp / be.nr) * kc * be.nr;
      for (int ip = 0; ip < mc; ip += be.mr) {
        const int mr = std::min(be.mr, mc - ip);
        const float* ap = apack + static_cast<std::size_t>(ip / be.mr) * kc * be.mr;
        float* c = c0 + static_cast<std::size_t>(ip) * t.ldc + jp;
        const float* asc = (last && t.asc != nullptr) ? t.asc + m0 + ip : nullptr;
        const float* ash = asc != nullptr ? t.ash + m0 + ip : nullptr;
        be.micro(kc, ap, bp, c, t.ldc, mr, nr, epi, asc, ash);
      }
    }
  }
}

/// Byte-sized scratch carved from the float-typed arena: round the byte
/// count up to whole floats; alignment (64B) carries over unchanged.
std::int8_t* alloc_bytes(core::ScratchArena& arena, std::size_t bytes) {
  return reinterpret_cast<std::int8_t*>(
      arena.alloc((bytes + sizeof(float) - 1) / sizeof(float)));
}

struct Int8TileArgs {
  const Backend* be;
  int K;
  const PackedInt8* a;
  const double* a_scales;
  const std::int8_t* b;
  int ldb;
  double b_scale;
  float* c;
  int ldc;
  const float* bias;  ///< per-row init (null for Init::kZero)
  Epilogue epi;
  const float* asc;  ///< fused per-row affine scale (null when absent)
  const float* ash;  ///< fused per-row affine shift
};

/// One (MC x NC) output tile end to end: zero the int32 accumulator, pack
/// B and run every k-block through the backend's int8 micro-kernel, then
/// dequant into C in a single write-back pass.
void run_tile(const Int8TileArgs& t, int m0, int mc, int n0, int nc) {
  const Backend& be = *t.be;
  const int kg = be.kg8;
  const int kblocks = (t.K + be.kc - 1) / be.kc;
  const int kcpad_max = round_up(std::min(t.K, be.kc), kg);
  const int npanels = (nc + be.nr - 1) / be.nr;
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  // int32 and float share a size, so the accumulator reuses float scratch.
  std::int32_t* acc = reinterpret_cast<std::int32_t*>(
      arena.alloc(static_cast<std::size_t>(mc) * nc));
  for (std::size_t i = 0; i < static_cast<std::size_t>(mc) * nc; ++i)
    acc[i] = 0;
  std::int8_t* bpack = alloc_bytes(
      arena, static_cast<std::size_t>(npanels) * be.nr * kcpad_max);

  for (int k0 = 0; k0 < t.K; k0 += be.kc) {
    const int kc = std::min(be.kc, t.K - k0);
    const int kcpad = round_up(kc, kg);
    const std::int8_t* apack =
        t.a->data.data() +
        t.a->block_off[static_cast<std::size_t>(m0 / be.mc) * kblocks +
                       k0 / be.kc];
    be.pack_b_int8(t.b, t.ldb, k0, kc, n0, nc, bpack);
    MERSIT_ASSERT_ALIGNED(apack);
    MERSIT_ASSERT_ALIGNED(bpack);
    for (int jp = 0; jp < nc; jp += be.nr) {
      const int nr = std::min(be.nr, nc - jp);
      const std::int8_t* bp =
          bpack + static_cast<std::size_t>(jp / be.nr) * kcpad * be.nr;
      for (int ip = 0; ip < mc; ip += be.mr) {
        const int mr = std::min(be.mr, mc - ip);
        const std::int8_t* ap =
            apack + static_cast<std::size_t>(ip / be.mr) * kcpad * be.mr;
        be.micro_int8(kc, ap, bp,
                      acc + static_cast<std::size_t>(ip) * nc + jp, nc, mr,
                      nr);
      }
    }
  }

  // Dequant write-back: one pass, one integer→float conversion per element.
  for (int m = 0; m < mc; ++m) {
    const double s = t.a_scales[m0 + m] * t.b_scale;
    const double binit =
        t.bias != nullptr ? static_cast<double>(t.bias[m0 + m]) : 0.0;
    const std::int32_t* arow = acc + static_cast<std::size_t>(m) * nc;
    float* crow = t.c + static_cast<std::size_t>(m0 + m) * t.ldc + n0;
    for (int n = 0; n < nc; ++n)
      crow[n] = static_cast<float>(binit + static_cast<double>(arow[n]) * s);
    if (t.asc != nullptr) {
      const float sc = t.asc[m0 + m], sh = t.ash[m0 + m];
      for (int n = 0; n < nc; ++n) crow[n] = sc * crow[n] + sh;
    }
    if (t.epi != Epilogue::kNone) epilogue_apply(t.epi, crow, crow, nc);
  }
}

/// Shared skeleton of the three pack entry points: compute the block-offset
/// table for the active backend's tile geometry, then run `pack_block` per
/// (outer, k) cache block.  A block holds whole register panels over the k
/// extent rounded up to the k-group width (kg: 1 for FP32, the backend's
/// kg8 for int8 levels), and its size is rounded up to a whole cache line
/// so block starts stay 64-byte aligned inside the aligned data vector;
/// resize() zero-fills, so the rounding gaps hold deterministic zeros and
/// packs stay byte-comparable.
template <typename T, typename PackBlockFn>
PackedPanels<T> pack_panels(bool is_a, int other, int K,
                            PackBlockFn&& pack_block) {
  const Backend& be = active_backend();
  PackedPanels<T> p;
  p.is_a = is_a;
  p.other = other;
  p.k = K;
  p.mr = be.mr;
  p.nr = be.nr;
  p.kg = std::is_same_v<T, std::int8_t> ? be.kg8 : 1;
  p.oc = is_a ? be.mc : be.nc;
  p.kc = be.kc;
  p.backend_id = be.id;
  if (other == 0 || K == 0) return p;
  const int reg = is_a ? be.mr : be.nr;  // panel register-tile extent
  const int oblocks = (other + p.oc - 1) / p.oc;
  const int kblocks = (K + be.kc - 1) / be.kc;
  constexpr std::size_t kLine = core::kSimdAlign / sizeof(T);
  p.block_off.resize(static_cast<std::size_t>(oblocks) * kblocks);
  std::size_t total = 0;
  for (int ob = 0; ob < oblocks; ++ob) {
    const int oc = std::min(p.oc, other - ob * p.oc);
    const int panels = (oc + reg - 1) / reg;
    for (int kb = 0; kb < kblocks; ++kb) {
      const int kc = std::min(be.kc, K - kb * be.kc);
      p.block_off[static_cast<std::size_t>(ob) * kblocks + kb] = total;
      const std::size_t elems =
          static_cast<std::size_t>(panels) * reg * round_up(kc, p.kg);
      total += (elems + kLine - 1) / kLine * kLine;
    }
  }
  p.data.resize(total);
  MERSIT_ASSERT_ALIGNED(p.data.data());
  for (int ob = 0; ob < oblocks; ++ob) {
    const int o0 = ob * p.oc;
    const int oc = std::min(p.oc, other - o0);
    for (int kb = 0; kb < kblocks; ++kb) {
      const int k0 = kb * be.kc;
      const int kc = std::min(be.kc, K - k0);
      pack_block(be, o0, oc, k0, kc,
                 p.data.data() +
                     p.block_off[static_cast<std::size_t>(ob) * kblocks + kb]);
    }
  }
  return p;
}

/// Validate a prepacked operand against the call: the right side and shape
/// first, then the backend.  Panel layouts are backend-specific; a pack
/// built under a different backend (different Backend::id) would be
/// misindexed, so it is refused.  Layer weight plans are compiled for one
/// backend id, so this never fires in normal operation.
template <typename T>
void check_packed(const char* who, const PackedPanels<T>* p, bool is_a,
                  int other, int K, const Backend& be) {
  if (p == nullptr) return;
  // The message is only built on the throw path: this runs on every call.
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument(std::string(who) + ": packed " +
                                (is_a ? "A" : "B") + why);
  };
  if (p->is_a != is_a || p->other != other || p->k != K)
    fail(" does not match the call shape");
  if (!p->empty() && p->backend_id != be.id)
    fail(std::string(" was built for another backend; active is '") +
         be.name + "'");
}

/// Fan the (MC x NC) output tiles of an M x N problem out over `pool` (or
/// the global pool): tile(m0, mc, n0, nc) computes one tile end to end, so
/// the result is independent of the worker count.  A single tile runs
/// inline, skipping the pool round-trip for the common small case.
template <typename TileFn>
void for_each_tile(const Backend& be, int M, int N, core::ThreadPool* pool,
                   TileFn&& tile) {
  const int mtiles = (M + be.mc - 1) / be.mc;
  const int ntiles = (N + be.nc - 1) / be.nc;
  const auto run = [&](std::size_t idx) {
    const int m0 = static_cast<int>(idx) / ntiles * be.mc;
    const int n0 = static_cast<int>(idx) % ntiles * be.nc;
    tile(m0, std::min(be.mc, M - m0), n0, std::min(be.nc, N - n0));
  };
  const std::size_t tiles = static_cast<std::size_t>(mtiles) * ntiles;
  if (tiles == 1) {
    run(0);
    return;
  }
  core::ThreadPool& p = pool != nullptr ? *pool : core::global_pool();
  p.parallel_for(tiles, run);
}

}  // namespace

float epilogue_eval(Epilogue e, float x) {
  // These are the single definitions of the fusable activations; nn::act_eval
  // delegates the matching Act kinds here, so the fused write-back and the
  // standalone Activation modules agree bit for bit by construction.
  switch (e) {
    case Epilogue::kNone:
      return x;
    case Epilogue::kReLU:
      return x > 0.f ? x : 0.f;
    case Epilogue::kReLU6:
      return x < 0.f ? 0.f : (x > 6.f ? 6.f : x);
    case Epilogue::kSiLU:
      return x * (1.f / (1.f + std::exp(-x)));
    case Epilogue::kHardSwish:
      if (x <= -3.f) return 0.f;
      if (x >= 3.f) return x;
      return x * (x + 3.f) / 6.f;
    case Epilogue::kGELU: {
      const float u = 0.7978845608f * (x + 0.044715f * x * x * x);
      return 0.5f * x * (1.f + std::tanh(u));
    }
  }
  return x;
}

void epilogue_apply(Epilogue e, const float* src, float* dst, int n) {
  finish_row(e, src, dst, n);
}

PackedMatrix pack_a_matrix(int M, int K, const float* A, int lda, bool trans_a) {
  if (M < 0 || K < 0)
    throw std::invalid_argument("pack_a_matrix: negative dim");
  return pack_panels<float>(/*is_a=*/true, M, K,
                            [&](const Backend& be, int m0, int mc, int k0,
                                int kc, float* dst) {
                              be.pack_a(A, lda, trans_a, m0, mc, k0, kc, dst);
                            });
}

PackedMatrix pack_b_matrix(int K, int N, const float* B, int ldb, bool trans_b) {
  if (K < 0 || N < 0)
    throw std::invalid_argument("pack_b_matrix: negative dim");
  return pack_panels<float>(/*is_a=*/false, N, K,
                            [&](const Backend& be, int n0, int nc, int k0,
                                int kc, float* dst) {
                              be.pack_b(B, ldb, trans_b, k0, kc, n0, nc, dst);
                            });
}

void decode_codes(const std::uint8_t* codes, std::size_t n, const double* lut,
                  const double* scales, std::size_t per_channel, float* out) {
  if (per_channel == 0) throw std::invalid_argument("decode_codes: empty channel");
  for (std::size_t c = 0; c * per_channel < n; ++c) {
    const double scale = scales[c];
    const std::size_t lo = c * per_channel;
    const std::size_t hi = std::min(n, lo + per_channel);
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = static_cast<float>(lut[codes[i]] * scale);
  }
}

void sgemm(int M, int N, int K, const float* A, int lda, bool trans_a,
           const float* B, int ldb, bool trans_b, float* C, int ldc, Init init,
           const float* bias, core::ThreadPool* pool, Epilogue epilogue,
           const PackedMatrix* packed_a, const PackedMatrix* packed_b,
           const RowAffine* affine) {
  if (M < 0 || N < 0 || K < 0) throw std::invalid_argument("sgemm: negative dim");
  if (M == 0 || N == 0) return;
  if ((init == Init::kBiasRow || init == Init::kBiasCol) && bias == nullptr)
    throw std::invalid_argument("sgemm: bias init without bias pointer");
  if ((epilogue != Epilogue::kNone || affine != nullptr) &&
      init == Init::kAccumulate)
    throw std::invalid_argument("sgemm: epilogue over an incomplete accumulation");
  if (affine != nullptr && (affine->scale == nullptr || affine->shift == nullptr))
    throw std::invalid_argument("sgemm: affine with null scale/shift");
  const Backend& be = active_backend();
  check_packed("sgemm", packed_a, /*is_a=*/true, M, K, be);
  check_packed("sgemm", packed_b, /*is_a=*/false, N, K, be);
  const float* asc = affine != nullptr ? affine->scale : nullptr;
  const float* ash = affine != nullptr ? affine->shift : nullptr;

  if (static_cast<std::int64_t>(M) * N * K <= kSmallWork) {
    // The direct path reads the raw operands; values are identical to the
    // packed panels, so skipping them changes nothing observable.
    small_gemm(M, N, K, A, lda, trans_a, B, ldb, trans_b, C, ldc, init, bias,
               epilogue, asc, ash);
    return;
  }

  const TileArgs t{&be,  M,    N,   K,    A,        lda,      trans_a,  B,
                   ldb,  trans_b,   C,    ldc,      init,     bias,
                   epilogue, packed_a, packed_b, asc,   ash};
  for_each_tile(be, M, N, pool, [&t](int m0, int mc, int n0, int nc) {
    run_tile(t, m0, mc, n0, nc);
  });
}

// ---------------------------------------------------------------------------
// Decode-free int8 driver (QgemmMode::kInt8)
//
// Mirrors the sgemm driver's cache-blocked tiling, prepack machinery, and
// thread-pool fan-out (the same pack_panels, check_packed and
// for_each_tile), but carries both operands as int8 levels and accumulates
// in int32:
//
//  * Pack.  The weight codes go through their 256-byte code→level remap
//    (Int8Grid::level) into the active backend's int8 panel layout once,
//    when the weight plan is built (pack_a_int8_matrix).  The activations
//    arrive as levels (im2col_int8) and are interleaved into B panels per
//    tile — one byte moved per element on both sides, against four for the
//    FP32 panels a code-mode forward streams.
//  * Accumulate.  A per-tile int32 accumulator (mc x nc, thread-local
//    scratch) is zeroed once, then every k-block's panels are fed through
//    Backend::micro_int8, which adds exact integer level products.  The
//    driver bounds K at kInt8MaxK so the full k-summation fits int32 —
//    accumulation is exact, hence independent of k order, tile shape,
//    thread count, and SIMD backend (the per-backend ULP-0 gate is free).
//  * Dequant write-back.  After the last k-block, each element leaves the
//    integer domain exactly once:
//        v = float( double(bias[m]) + double(acc) · (s_a[m] · s_b) )
//    followed by the optional RowAffine (v = scale[m]·v + shift[m]) and the
//    fused epilogue — the same fixed, K-independent rounding count qgemm.h
//    documents.
//
// Like qgemm_kulisch, Init::kAccumulate is rejected: an exact sum cannot
// continue a rounded partial.
// ---------------------------------------------------------------------------

PackedInt8 pack_a_int8_matrix(int M, int K, const std::uint8_t* codes, int ld,
                              const std::int8_t* level) {
  if (M < 0 || K < 0)
    throw std::invalid_argument("pack_a_int8_matrix: negative dim");
  if (level == nullptr)
    throw std::invalid_argument("pack_a_int8_matrix: null level map");
  return pack_panels<std::int8_t>(
      /*is_a=*/true, M, K,
      [&](const Backend& be, int m0, int mc, int k0, int kc,
          std::int8_t* dst) {
        be.pack_a_int8(codes, ld, level, m0, mc, k0, kc, dst);
      });
}

void qgemm_int8(int M, int N, int K, const PackedInt8& a,
                const double* a_scales, const std::int8_t* b, int ldb,
                double b_scale, Init init, const float* bias, float* c,
                int ldc, core::ThreadPool* pool, Epilogue epi,
                const RowAffine* affine) {
  if (M < 0 || N < 0 || K < 0)
    throw std::invalid_argument("qgemm_int8: negative dim");
  if (K > kInt8MaxK)
    throw std::invalid_argument(
        "qgemm_int8: K exceeds the exact-int32 bound kInt8MaxK");
  if (M == 0 || N == 0) return;
  if (init == Init::kAccumulate)
    throw std::invalid_argument(
        "qgemm_int8: cannot accumulate into a rounded partial");
  if (init == Init::kBiasCol)
    throw std::invalid_argument("qgemm_int8: bias is per row (kBiasRow)");
  if (init == Init::kBiasRow && bias == nullptr)
    throw std::invalid_argument("qgemm_int8: bias init without bias pointer");
  if (affine != nullptr &&
      (affine->scale == nullptr || affine->shift == nullptr))
    throw std::invalid_argument("qgemm_int8: affine with null scale/shift");
  const Backend& be = active_backend();
  check_packed("qgemm_int8", &a, /*is_a=*/true, M, K, be);

  const Int8TileArgs t{&be, K, &a, a_scales, b, ldb, b_scale, c, ldc,
                       init == Init::kBiasRow ? bias : nullptr, epi,
                       affine != nullptr ? affine->scale : nullptr,
                       affine != nullptr ? affine->shift : nullptr};
  for_each_tile(be, M, N, pool, [&t](int m0, int mc, int n0, int nc) {
    run_tile(t, m0, mc, n0, nc);
  });
}

}  // namespace mersit::nn::gemm
