// Runtime-dispatched SIMD backend registry for the GEMM engine.
//
// One Backend descriptor per instruction set — scalar (the reference),
// avx2, avx512 on x86-64, neon on aarch64 — each bundling the float
// micro-kernel and its two panel-pack routines, the int8 micro-kernel and
// its two panel-pack routines, and its tile geometry (MR/NR register
// tile, MC/KC/NC cache blocks).  The registry is CPUID-backed:
// auto-detection walks the compiled-in list best-first and activates the
// first backend the host can execute; MERSIT_BACKEND forces a specific one,
// strict-parsed (unknown names and backends the host cannot run both
// throw).
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
//    scalar reference; the backend TUs also compile with -ffp-contract=off
//    so the compiler cannot fuse behind the intrinsics).  Tile geometry may
//    differ per backend because the per-element rounding sequence depends
//    only on k order, never on MR/NR/cache blocking — test_gemm gates every
//    compiled-in backend bitwise against scalar across the full shape/
//    transpose/strided-C/thread-count matrix.
//
// Because pack layouts differ across tile geometries, a pack (PackedMatrix
// or PackedInt8) records the backend it was packed for, sgemm and
// qgemm_int8 reject operands packed for a foreign backend, and the
// layer-side pack caches key on the backend id — switching MERSIT_BACKEND
// can never serve a foreign-layout pack.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "nn/gemm/gemm.h"

namespace mersit::nn::gemm {

/// One SIMD backend: tile geometry plus the kernel entry points.  All
/// instances are immutable statics with process lifetime; identity
/// comparison (pointer equality) is meaningful.
struct Backend {
  const char* name;  ///< registry / MERSIT_BACKEND name
  int id;            ///< stable unique id; stamps packs, joins pack-cache keys

  int mr, nr;        ///< register tile: MR x NR accumulator block
  int mc, kc, nc;    ///< cache blocks: MC x KC A panels, KC x NC B panels

  /// Host can execute this backend's instructions (CPUID-backed; constant
  /// per process).
  bool (*supported)();

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

  // --- Decode-free int8 path (MERSIT_QGEMM=int8) ---------------------------
  // The int8 kernels accumulate level products in int32, which is exact and
  // associative, so the bit-identity contract holds across backends with no
  // ordering rules at all — any k order, any widening scheme, FMA-free by
  // nature.  Panel layouts group k in `kg8`-wide runs: A panels are
  // [group][m][j] (j < kg8), B panels [group][n][j], the packed k extent
  // rounded up to a multiple of kg8 with zero levels in the padding.  Panel
  // bytes are backend-private (the AVX-512 pack biases A levels by 128 for
  // vpdpbusd's u8 operand); a pack is only valid for the backend that made
  // it, enforced exactly like PackedMatrix via PackedInt8::backend_id.
  // Activations reach these packs as levels already (im2col_int8 for conv,
  // quantize_levels for Linear), passed through the identity map.

  /// K-group width of this backend's int8 panel layout (1, 2, or 4).
  int kg8;

  /// Pack an (mc x kc) block of op(A) 8-bit codes through the code→level
  /// remap `qlut` into mr-row int8 panels.  `dst` must be 64-byte aligned
  /// and hold ceil(mc/mr)*mr*round_up(kc, kg8) bytes.
  void (*pack_a_int8)(const std::uint8_t* a, int lda, bool trans,
                      const std::int8_t* qlut, int m0, int mc, int k0, int kc,
                      std::int8_t* dst);
  /// Pack a (kc x nc) block of op(B) codes into nr-column int8 panels.
  void (*pack_b_int8)(const std::uint8_t* b, int ldb, bool trans,
                      const std::int8_t* qlut, int k0, int kc, int n0, int nc,
                      std::int8_t* dst);

  /// One (mr x nr) int32 tile: acc[m*ldacc + n] += Σ_k qa·qb over this
  /// k-block's kc levels (kc is the unpadded extent; the panels are padded
  /// to round_up(kc, kg8) with zeros, which add nothing).  Accumulation is
  /// += so k-blocks chain; the driver zeroes acc at tile start and dequants
  /// after the last k-block.  Edge tiles (mr/nr short) must write only the
  /// real acc entries.
  void (*micro_int8)(int kc, const std::int8_t* ap, const std::int8_t* bp,
                     std::int32_t* acc, int ldacc, int mr, int nr);
};

/// Compiled-in backends in detection order: best first, scalar last (scalar
/// is always present and always supported, so detection always terminates).
[[nodiscard]] std::span<const Backend* const> backends();

/// The reference backend (always compiled in, always supported).
[[nodiscard]] const Backend& scalar_backend();

/// Lookup by registry name; nullptr when no such backend is compiled in.
[[nodiscard]] const Backend* find_backend(std::string_view name);

/// Strict MERSIT_BACKEND parsing: unknown names throw listing the
/// compiled-in backends; a known backend the host cannot execute throws
/// naming the missing capability.  Same loud-beats-lucky policy as
/// core::env_int and MERSIT_QGEMM.
[[nodiscard]] const Backend& parse_backend(const std::string& value);

/// The active backend: MERSIT_BACKEND when set (strict-parsed once), else
/// the best supported compiled-in backend.  Every pack and every sgemm call
/// reads this.
[[nodiscard]] const Backend& active_backend();

/// Programmatic override (tests, benches); returns the previous backend.
/// Rejects backends the host cannot execute.
const Backend* set_backend(const Backend* b);

// Descriptor accessors defined by the backend_*.cpp translation units (the
// registry in backend.cpp is their only caller).
const Backend* backend_scalar();
#if defined(__x86_64__) || defined(_M_X64)
const Backend* backend_avx2();
const Backend* backend_avx512();
#endif
#if defined(__aarch64__)
const Backend* backend_neon();
#endif

}  // namespace mersit::nn::gemm
