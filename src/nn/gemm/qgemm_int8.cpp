// Driver for the decode-free int8 GEMM path (MERSIT_QGEMM=int8).
//
// Mirrors the sgemm driver's cache-blocked tiling, prepack machinery, and
// thread-pool fan-out, but carries both operands as int8 levels and
// accumulates in int32:
//
//  * Pack.  Each operand's 8-bit codes go through a 256-byte code→level
//    remap (AffineLut::q for weights, the identity map for pre-quantized
//    activations) straight into the active backend's int8 panel layout —
//    one byte moved per element on both sides, against four for the FP32
//    panels a code-mode forward streams.  An A operand may instead carry a
//    float source that the pack quantizes onto the level grid.
//  * Accumulate.  A per-tile int32 accumulator (mc x nc, thread-local
//    scratch) is zeroed once, then every k-block's panels are fed through
//    Backend::micro_int8, which adds exact integer level products.  The
//    driver bounds K at kInt8MaxK so the full k-summation fits int32 —
//    accumulation is exact, hence independent of k order, tile shape,
//    thread count, and SIMD backend (the per-backend ULP-0 gate is free).
//  * Dequant write-back.  After the last k-block, each element leaves the
//    integer domain exactly once:
//        v = float( double(init) + double(acc) · (s_a · s_b) )
//    followed by the optional RowAffine (v = scale[m]·v + shift[m]) and the
//    fused epilogue — the same fixed, K-independent rounding count the
//    header documents.
//
// Like qgemm_kulisch, Init::kAccumulate is rejected: an exact sum cannot
// continue a rounded partial.
#include "nn/gemm/qgemm.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/scratch_arena.h"
#include "core/thread_pool.h"
#include "nn/gemm/backend.h"

namespace mersit::nn::gemm {

namespace {

constexpr int round_up(int v, int m) { return (v + m - 1) / m * m; }

/// Byte-sized scratch carved from the float-typed arena: round the byte
/// count up to whole floats; alignment (64B) carries over unchanged.
std::int8_t* alloc_bytes(core::ScratchArena& arena, std::size_t bytes) {
  return reinterpret_cast<std::int8_t*>(
      arena.alloc((bytes + sizeof(float) - 1) / sizeof(float)));
}

/// Shared skeleton of the two int8 pack entry points, the byte-domain twin
/// of pack_generic in gemm.cpp: per-block offsets are rounded up to whole
/// cache lines (so prepacked panel bases stay 64-byte aligned) and resize()
/// zero-fills the rounding gaps, keeping packs byte-comparable.
template <typename PackBlockFn>
PackedInt8 pack_int8_generic(bool is_a, int other, int K,
                             PackBlockFn&& pack_block) {
  const Backend& be = active_backend();
  PackedInt8 p;
  p.is_a = is_a;
  p.other = other;
  p.k = K;
  p.mr = be.mr;
  p.nr = be.nr;
  p.kg = be.kg8;
  p.oc = is_a ? be.mc : be.nc;
  p.kc = be.kc;
  p.backend_id = be.id;
  if (other == 0 || K == 0) return p;
  const int reg = is_a ? be.mr : be.nr;
  const int oblocks = (other + p.oc - 1) / p.oc;
  const int kblocks = (K + be.kc - 1) / be.kc;
  p.block_off.resize(static_cast<std::size_t>(oblocks) * kblocks);
  std::size_t total = 0;
  for (int ob = 0; ob < oblocks; ++ob) {
    const int oc = std::min(p.oc, other - ob * p.oc);
    const int panels = (oc + reg - 1) / reg;
    for (int kb = 0; kb < kblocks; ++kb) {
      const int kc = std::min(be.kc, K - kb * be.kc);
      p.block_off[static_cast<std::size_t>(ob) * kblocks + kb] = total;
      const std::size_t bytes = static_cast<std::size_t>(panels) * reg *
                                round_up(kc, be.kg8);
      total += (bytes + core::kSimdAlign - 1) / core::kSimdAlign *
               core::kSimdAlign;
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

struct TileArgs {
  const Backend* be;
  int M, N, K;
  const Int8Operand* a;
  const Int8Operand* b;
  float* c;
  int ldc;
  Init init;
  const float* bias;
  Epilogue epi;
  const PackedInt8* pa;
  const PackedInt8* pb;
  const float* asc;  ///< fused per-row affine scale (null when absent)
  const float* ash;  ///< fused per-row affine shift
};

/// One (MC x NC) output tile end to end: zero the int32 accumulator, run
/// every k-block through the backend's int8 micro-kernel, then dequant into
/// C in a single write-back pass.
void run_tile(const TileArgs& t, int m0, int mc, int n0, int nc) {
  const Backend& be = *t.be;
  const int kg = be.kg8;
  const int kblocks = (t.K + be.kc - 1) / be.kc;
  const int kc_max = std::min(t.K, be.kc);
  const int kcpad_max = round_up(kc_max, kg);
  const int mpanels = (mc + be.mr - 1) / be.mr;
  const int npanels = (nc + be.nr - 1) / be.nr;
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  // int32 and float share a size, so the accumulator reuses float scratch.
  std::int32_t* acc = reinterpret_cast<std::int32_t*>(
      arena.alloc(static_cast<std::size_t>(mc) * nc));
  for (std::size_t i = 0; i < static_cast<std::size_t>(mc) * nc; ++i)
    acc[i] = 0;
  std::int8_t* abuf =
      t.pa != nullptr
          ? nullptr
          : alloc_bytes(arena,
                        static_cast<std::size_t>(mpanels) * be.mr * kcpad_max);
  std::int8_t* bbuf =
      t.pb != nullptr
          ? nullptr
          : alloc_bytes(arena,
                        static_cast<std::size_t>(npanels) * be.nr * kcpad_max);

  for (int k0 = 0; k0 < t.K; k0 += be.kc) {
    const int kc = std::min(be.kc, t.K - k0);
    const int kb = k0 / be.kc;
    const int kcpad = round_up(kc, kg);
    const std::int8_t* apack = abuf;
    const std::int8_t* bpack = bbuf;
    if (t.pa != nullptr) {
      apack = t.pa->data.data() +
              t.pa->block_off[static_cast<std::size_t>(m0 / be.mc) * kblocks +
                              kb];
    } else if (t.a->fsrc != nullptr) {
      be.pack_a_int8_f32(t.a->fsrc, t.a->ld, t.a->trans, t.a->finv, t.a->flo,
                         t.a->fhi, m0, mc, k0, kc, abuf);
    } else {
      be.pack_a_int8(t.a->codes, t.a->ld, t.a->trans, t.a->qlut, m0, mc, k0,
                     kc, abuf);
    }
    if (t.pb != nullptr) {
      bpack = t.pb->data.data() +
              t.pb->block_off[static_cast<std::size_t>(n0 / be.nc) * kblocks +
                              kb];
    } else {
      be.pack_b_int8(t.b->codes, t.b->ld, t.b->trans, t.b->qlut, k0, kc, n0,
                     nc, bbuf);
    }
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
    const double sa = t.a->channel_scales != nullptr
                          ? t.a->channel_scales[m0 + m]
                          : t.a->uniform_scale;
    const std::int32_t* arow = acc + static_cast<std::size_t>(m) * nc;
    float* crow = t.c + static_cast<std::size_t>(m0 + m) * t.ldc + n0;
    const double binit =
        t.init == Init::kBiasRow ? static_cast<double>(t.bias[m0 + m]) : 0.0;
    if (t.b->channel_scales == nullptr && t.init != Init::kBiasCol) {
      // Hot shape: uniform B scale and row/zero init — hoist the per-element
      // branches so the loop is a bare fma chain.  Same expression, same
      // double product (sa·sb), bit-identical to the general loop.
      const double s = sa * t.b->uniform_scale;
      for (int n = 0; n < nc; ++n)
        crow[n] =
            static_cast<float>(binit + static_cast<double>(arow[n]) * s);
    } else {
      for (int n = 0; n < nc; ++n) {
        const double sb = t.b->channel_scales != nullptr
                              ? t.b->channel_scales[n0 + n]
                              : t.b->uniform_scale;
        const double init_v =
            t.init == Init::kBiasCol ? static_cast<double>(t.bias[n0 + n])
                                     : binit;
        crow[n] = static_cast<float>(
            init_v + static_cast<double>(arow[n]) * (sa * sb));
      }
    }
    if (t.asc != nullptr) {
      const float s = t.asc[m0 + m], sh = t.ash[m0 + m];
      for (int n = 0; n < nc; ++n) crow[n] = s * crow[n] + sh;
    }
    if (t.epi != Epilogue::kNone) epilogue_apply(t.epi, crow, crow, nc);
  }
}

}  // namespace

PackedInt8 pack_a_int8_matrix(int M, int K, const std::uint8_t* codes, int ld,
                              bool trans, const std::int8_t* qlut) {
  if (M < 0 || K < 0)
    throw std::invalid_argument("pack_a_int8_matrix: negative dim");
  if (qlut == nullptr)
    throw std::invalid_argument("pack_a_int8_matrix: null qlut");
  return pack_int8_generic(
      /*is_a=*/true, M, K,
      [&](const Backend& be, int m0, int mc, int k0, int kc,
          std::int8_t* dst) {
        be.pack_a_int8(codes, ld, trans, qlut, m0, mc, k0, kc, dst);
      });
}

PackedInt8 pack_b_int8_matrix(int K, int N, const std::uint8_t* codes, int ld,
                              bool trans, const std::int8_t* qlut) {
  if (K < 0 || N < 0)
    throw std::invalid_argument("pack_b_int8_matrix: negative dim");
  if (qlut == nullptr)
    throw std::invalid_argument("pack_b_int8_matrix: null qlut");
  return pack_int8_generic(
      /*is_a=*/false, N, K,
      [&](const Backend& be, int n0, int nc, int k0, int kc,
          std::int8_t* dst) {
        be.pack_b_int8(codes, ld, trans, qlut, k0, kc, n0, nc, dst);
      });
}

void qgemm_int8(int M, int N, int K, const Int8Operand& a,
                const Int8Operand& b, Init init, const float* bias, float* c,
                int ldc, core::ThreadPool* pool, Epilogue epi,
                const PackedInt8* packed_a, const PackedInt8* packed_b,
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
  if ((init == Init::kBiasRow || init == Init::kBiasCol) && bias == nullptr)
    throw std::invalid_argument("qgemm_int8: bias init without bias pointer");
  if (affine != nullptr &&
      (affine->scale == nullptr || affine->shift == nullptr))
    throw std::invalid_argument("qgemm_int8: affine with null scale/shift");
  if (b.fsrc != nullptr)
    throw std::invalid_argument(
        "qgemm_int8: a float source is supported on the A operand only");
  if ((packed_a == nullptr && a.qlut == nullptr && a.fsrc == nullptr) ||
      (packed_b == nullptr && b.qlut == nullptr))
    throw std::invalid_argument(
        "qgemm_int8: operand without a level map or float source");
  if (packed_a != nullptr &&
      (!packed_a->is_a || packed_a->other != M || packed_a->k != K))
    throw std::invalid_argument(
        "qgemm_int8: packed A does not match the call shape");
  if (packed_b != nullptr &&
      (packed_b->is_a || packed_b->other != N || packed_b->k != K))
    throw std::invalid_argument(
        "qgemm_int8: packed B does not match the call shape");
  const Backend& be = active_backend();
  if (packed_a != nullptr && !packed_a->empty() &&
      packed_a->backend_id != be.id)
    throw std::invalid_argument(
        std::string(
            "qgemm_int8: packed A was built for another backend; active is '") +
        be.name + "'");
  if (packed_b != nullptr && !packed_b->empty() &&
      packed_b->backend_id != be.id)
    throw std::invalid_argument(
        std::string(
            "qgemm_int8: packed B was built for another backend; active is '") +
        be.name + "'");

  const TileArgs t{&be,
                   M,
                   N,
                   K,
                   &a,
                   &b,
                   c,
                   ldc,
                   init,
                   bias,
                   epi,
                   packed_a,
                   packed_b,
                   affine != nullptr ? affine->scale : nullptr,
                   affine != nullptr ? affine->shift : nullptr};
  const int mtiles = (M + be.mc - 1) / be.mc;
  const int ntiles = (N + be.nc - 1) / be.nc;
  const std::size_t tiles = static_cast<std::size_t>(mtiles) * ntiles;
  const auto tile = [&t, &be, ntiles](std::size_t idx) {
    const int mb = static_cast<int>(idx) / ntiles;
    const int nb = static_cast<int>(idx) % ntiles;
    const int m0 = mb * be.mc;
    const int n0 = nb * be.nc;
    run_tile(t, m0, std::min(be.mc, t.M - m0), n0,
             std::min(be.nc, t.N - n0));
  };
  if (tiles == 1) {
    tile(0);
    return;
  }
  core::ThreadPool& p = pool != nullptr ? *pool : core::global_pool();
  p.parallel_for(tiles, tile);
}

}  // namespace mersit::nn::gemm
