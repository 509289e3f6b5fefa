// The GEMM engine's SIMD backends.
//
// One Backend descriptor per core::Tier — scalar (the reference, and the
// only backend built off x86-64), avx2 and avx512 — each bundling eight
// entry points: the float micro-kernel and its two panel-pack routines, the
// int8 micro-kernel and its two panel-pack routines, the depthwise conv
// kernel and int8 level quantization (quantize_levels); plus its tile
// geometry (MR/NR register tile, MC/KC/NC cache blocks).  There is no
// registry of its own: active_backend() returns the descriptor of
// core::active_tier(), the one tier (MERSIT_BACKEND, else the widest the
// host executes; core/cpu.h) that every SIMD loop in the library runs —
// GEMM, depthwise, fake-quant and level quantization alike.
//
// The cross-backend contract is the engine's existing bit-identity tower:
//
//  * Packs are byte-identical.  Every backend's float pack routines write
//    the exact bytes the generic reference pack produces for that backend's
//    tile geometry — same values, same zero padding.  Code-mode weights
//    are decoded once (decode_codes) and packed through these same
//    routines, so there is no separate code-domain pack to gate.
//
//  * C panels are bit-identical to scalar.  Every backend accumulates each
//    output element's K products in ascending k order with a separately
//    rounded multiply and add per step (no fused multiply-add anywhere —
//    FMA skips the product rounding and would break ULP 0 against the
//    scalar reference; every library TU compiles with -ffp-contract=off
//    so the compiler cannot fuse behind the intrinsics).  Tile geometry may
//    differ per backend because the per-element rounding sequence depends
//    only on k order, never on MR/NR/cache blocking — test_gemm gates every
//    tier the host executes bitwise against scalar across the full shape/
//    transpose/strided-C/thread-count matrix.
//
//  * Depthwise outputs are bit-identical to the naive conv loop.  Each
//    output starts from its bias and adds the taps that are in bounds at
//    that output pixel, in ascending (ki, kj) order, one separately
//    rounded multiply and add per tap; out-of-bounds taps are skipped, not
//    multiplied by a padded zero (an Inf weight times a padded 0 would give
//    NaN, and -0 + +0 would give +0).  The write-back then applies the
//    optional affine s*v + t and the epilogue per element, the same
//    operations the BatchNorm2d and Activation modules apply.  Backends
//    differ only in how many channels share one vector (the lane block),
//    which never changes a rounding sequence.
//
// Because pack layouts differ across tile geometries, a pack (PackedMatrix
// or PackedInt8) records the backend it was packed for, sgemm and
// qgemm_int8 reject operands packed for a foreign backend, and the
// layer weight plans are compiled for one backend id — switching backends
// can never serve a foreign-layout pack.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/gemm/gemm.h"

namespace mersit::nn::gemm {

/// One sample's depthwise conv (groups == in == out channels): `channels`
/// input planes of h x w, one k x k filter per channel, output planes of
/// oh x ow.  All planes are contiguous and channel-major.
struct DepthwiseShape {
  int channels, h, w, oh, ow, k, stride, pad;
};

/// Widest channel block any backend's depthwise kernel uses.
inline constexpr int kMaxDepthwiseLanes = 16;

/// Floats of scratch a depthwise entry needs for `s` on any backend: the
/// input, output and filter taps of one channel block, transposed.
[[nodiscard]] constexpr std::size_t depthwise_scratch(const DepthwiseShape& s) {
  return (static_cast<std::size_t>(s.h) * s.w +
          static_cast<std::size_t>(s.oh) * s.ow +
          static_cast<std::size_t>(s.k) * s.k) *
         kMaxDepthwiseLanes;
}

/// One SIMD backend: tile geometry plus the kernel entry points.  All
/// instances are immutable statics with process lifetime; identity
/// comparison (pointer equality) is meaningful.
struct Backend {
  const char* name;  ///< core::tier_name of its tier
  int id;            ///< its tier's ordinal; stamps packs and weight plans

  int mr, nr;        ///< register tile: MR x NR accumulator block
  int mc, kc, nc;    ///< cache blocks: MC x KC A panels, KC x NC B panels

  /// Pack an (mc x kc) block of op(A) into mr-row panels, k-major within a
  /// panel, short final panels zero-padded.  `dst` must be 64-byte aligned
  /// and hold ceil(mc/mr)*mr*kc floats.
  void (*pack_a)(const float* a, int lda, bool trans, int m0, int mc, int k0,
                 int kc, float* dst);
  /// Pack a (kc x nc) block of op(B) into nr-column panels, [k][n] within a
  /// panel, zero-padded like pack_a.
  void (*pack_b)(const float* b, int ldb, bool trans, int k0, int kc, int n0,
                 int nc, float* dst);

  /// One (mr x nr) C tile: load C, accumulate kc products in ascending k
  /// order, write back with the optional per-row affine then epilogue.
  /// mr/nr may be short on edge tiles; the packed panels are zero-padded to
  /// the full register tile, so kernels may compute full width internally
  /// as long as only real C entries are read and written.
  void (*micro)(int kc, const float* ap, const float* bp, float* c, int ldc,
                int mr, int nr, Epilogue epi, const float* asc,
                const float* ash);

  // --- Decode-free int8 path (QgemmMode::kInt8) ----------------------------
  // The int8 kernels accumulate level products in int32, which is exact and
  // associative, so the bit-identity contract holds across backends with no
  // ordering rules at all — any k order, any widening scheme, FMA-free by
  // nature.  Panel layouts group k in `kg8`-wide runs: A panels are
  // [group][m][j] (j < kg8), B panels [group][n][j], the packed k extent
  // rounded up to a multiple of kg8 with zero levels in the padding.  Panel
  // bytes are backend-private (the AVX-512 pack biases A levels by 128 for
  // vpdpbusd's u8 operand); a pack is only valid for the backend that made
  // it, enforced exactly like PackedMatrix via PackedInt8::backend_id.
  // A is always the layer's weight codes, packed once per plan; B is always
  // the per-call activation levels (im2col_int8), already int8.

  /// K-group width of this backend's int8 panel layout (1, 2, or 4).
  int kg8;

  /// Pack an (mc x kc) block of row-major 8-bit weight codes through the
  /// code→level remap `qlut` into mr-row int8 panels.  `dst` must be
  /// 64-byte aligned and hold ceil(mc/mr)*mr*round_up(kc, kg8) bytes.
  void (*pack_a_int8)(const std::uint8_t* a, int lda, const std::int8_t* qlut,
                      int m0, int mc, int k0, int kc, std::int8_t* dst);
  /// Pack a (kc x nc) block of row-major int8 levels into nr-column panels.
  void (*pack_b_int8)(const std::int8_t* b, int ldb, int k0, int kc, int n0,
                      int nc, std::int8_t* dst);

  /// One (mr x nr) int32 tile: acc[m*ldacc + n] += Σ_k qa·qb over this
  /// k-block's kc levels (kc is the unpadded extent; the panels are padded
  /// to round_up(kc, kg8) with zeros, which add nothing).  Accumulation is
  /// += so k-blocks chain; the driver zeroes acc at tile start and dequants
  /// after the last k-block.  Edge tiles (mr/nr short) must write only the
  /// real acc entries.
  void (*micro_int8)(int kc, const std::int8_t* ap, const std::int8_t* bp,
                     std::int32_t* acc, int ldacc, int mr, int nr);

  // --- Depthwise conv ------------------------------------------------------

  /// One sample's depthwise forward: y[c] = epi(asc[c]*(bias[c] + taps) +
  /// ash[c]) per output pixel, taps as in the contract above.  `wt` holds
  /// channels x k x k weights, `asc`/`ash` are null or hold `channels`
  /// entries each.  `scratch` holds depthwise_scratch(s) floats (callers
  /// take it from their ScratchArena; backend TUs allocate nothing).
  void (*depthwise)(const DepthwiseShape& s, const float* x, const float* wt,
                    const float* bias, float* y, Epilogue epi,
                    const float* asc, const float* ash, float* scratch);

  // --- Int8 level quantization --------------------------------------------

  /// gemm::quantize_levels (qgemm.h) on this tier: every body forms the
  /// product x·inv in double and rounds it to the same level, so all tiers
  /// write the same bytes.
  void (*quantize_levels)(const float* x, std::size_t n, double inv, int lo,
                          int hi, std::int8_t* out);
};

/// The descriptor of core::active_tier().  Every pack, every sgemm call and
/// every quantize_levels call reads this.
[[nodiscard]] const Backend& active_backend();

// Descriptor accessors defined by the backend_*.cpp translation units
// (active_backend and the SIMD bodies' scalar tails are their callers).
const Backend* backend_scalar();
#if defined(__x86_64__) || defined(_M_X64)
const Backend* backend_avx2();
const Backend* backend_avx512();
#endif

}  // namespace mersit::nn::gemm
