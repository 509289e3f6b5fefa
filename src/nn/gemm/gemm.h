// Dense single-precision GEMM for the inference hot paths.
//
// A cache-blocked, packing SGEMM whose register-tiled micro-kernel and
// panel-pack routines come from the SIMD backend of the active tier
// (nn/gemm/backend.h): scalar (plain C++, the reference, and the only
// backend off x86-64), AVX2 and AVX-512 — the widest the host executes, or
// the one MERSIT_BACKEND names for every SIMD loop in the library (GEMM,
// depthwise, fake-quant, level quantization; core/cpu.h), and all
// bit-identical to scalar (no -ffast-math, no fused multiply-adds).  Three properties the rest of the repo leans on:
//
//  * Fixed k-order summation.  Every output element accumulates its K
//    products in ascending k order, starting from its initial value (zero,
//    a broadcast bias, or the existing C for accumulating calls).  The
//    compiler cannot reassociate float adds, so the per-element rounding
//    sequence is exactly the naive triple loop's — GEMM outputs are
//    bit-identical to the reference layer implementations.
//
//  * Thread-count invariance.  Parallelism is over disjoint (MC x NC)
//    output tiles; each tile is computed in full by whichever worker picks
//    it up, so the result is independent of MERSIT_THREADS and of how
//    parallel_for chunks the tile list.
//
//  * Safe nesting.  The tile loop runs on core::ThreadPool, whose nested
//    parallel regions execute inline — callers that already fan out (the
//    per-batch conv loop, the parallel PTQ evaluators) compose without
//    oversubscription.
//
// On top of the kernel sits the inference-runtime layer:
//
//  * Prepacked operands.  pack_a_matrix / pack_b_matrix run the kernel's
//    panel packing once for a frozen operand (layer weights); sgemm calls
//    that pass the resulting PackedMatrix skip the per-call pack entirely.
//    The packed panels are byte-identical to what the per-call path would
//    build, so prepacked results are bit-identical too.  Inference layers
//    always serve their weights from these packs.
//
//  * Fused epilogues.  An Epilogue applies an elementwise activation
//    inside the micro-kernel's final write-back, after the full k-summation
//    of each element — numerically indistinguishable from a separate
//    activation pass over the stored output, but without materializing the
//    pre-activation tensor.  A RowAffine slots in before the activation and
//    applies the per-row `scale[m]*v + shift[m]` that inference BatchNorm
//    reduces to — so conv -> BN -> act collapses into the GEMM write-back
//    with bit-identical results (no weight folding involved).
//
//  * Scratch arenas.  Per-call pack buffers come from the thread-local
//    core::ScratchArena instead of the heap, so steady-state inference
//    allocates nothing.
//
// The naive layer loops this engine reproduces bit for bit are the test
// oracle in tests/nn/reference.h.
#pragma once

#include <cstdint>
#include <vector>

#include "core/aligned.h"
#include "core/cpu.h"
#include "core/thread_pool.h"

namespace mersit::nn::gemm {

/// What each C element starts from before the k-summation.
enum class Init {
  kZero,     ///< C = op(A)·op(B)
  kBiasRow,  ///< C[m,n] = bias[m] + ...   (conv: per-output-channel bias)
  kBiasCol,  ///< C[m,n] = bias[n] + ...   (linear: per-output-feature bias)
  kAccumulate,  ///< C += op(A)·op(B)      (gradient accumulation)
};

/// Elementwise function applied to each C element after its k-summation
/// completes, inside the final write-back.
enum class Epilogue {
  kNone,
  kReLU,       ///< conv/linear + ReLU fusion
  kReLU6,      ///< MobileNetV2-style clamp
  kSiLU,       ///< EfficientNet swish
  kHardSwish,  ///< MobileNetV3 h-swish
  kGELU,       ///< linear + GELU fusion (tanh approximation)
};

/// The scalar the fused write-back applies; nn::act_eval delegates the
/// matching Act kinds here so fused and unfused paths share one formula
/// and stay bit-identical by construction.  The formulas are defined once,
/// as detail::epilogue_value in nn/gemm/backend_impl.h, which every
/// backend's write-back compiles too.
[[nodiscard]] float epilogue_eval(Epilogue e, float x);

/// dst[i] = epilogue_eval(e, src[i]) for n elements (src may alias dst) on
/// the active tier: the Backend::epilogue entry, whose element loop runs
/// vectorized for the clamp-style kinds.  Same per-element formula on every
/// tier, so results are bit-identical to calling epilogue_eval in a loop.
void epilogue_apply(Epilogue e, const float* src, float* dst, int n);

/// Per-row affine stage of the fused write-back: v = scale[m]*v + shift[m],
/// applied after the k-summation and before the Epilogue activation.  This
/// is exactly the per-channel form inference BatchNorm evaluates (with
/// scale = gamma/sqrt(var+eps), shift = beta - mean*scale), so fusing it
/// reproduces the standalone BN pass bit for bit.  Rows of a conv GEMM are
/// output channels; callers offset the pointers per group.
struct RowAffine {
  const float* scale = nullptr;  ///< M entries
  const float* shift = nullptr;  ///< M entries
};

/// A GEMM operand packed once into the active backend's panel layout, for
/// reuse across many calls over frozen data (layer weights).  One template
/// serves both element types: PackedMatrix holds FP32 panels (from
/// pack_a_matrix / pack_b_matrix, read by sgemm) and PackedInt8 holds int8
/// weight-level panels (from pack_a_int8_matrix in qgemm.h, read by
/// qgemm_int8).  The fields are internal to the engine — treat instances as
/// opaque tokens.
///
/// The layout is self-describing: the tile geometry it was packed for
/// (mr/nr register tile, kg k-group width, oc/kc cache blocks) and the
/// tier of the packing backend are recorded, and both drivers reject a
/// pack whose tier is not the active one — panel layouts differ across tile
/// geometries, so a foreign-layout pack must never be consumed silently.
/// Panel storage is 64-byte aligned (core::AlignedVector) and every block
/// offset is rounded to a whole cache line, so SIMD backends read panels
/// with aligned loads; the rounding gaps are zero-filled, keeping packs
/// byte-comparable.
template <typename T>
struct PackedPanels {
  bool is_a = false;  ///< A-operand (mr-row panels) vs B (nr-col panels)
  int other = 0;      ///< M for an A-pack, N for a B-pack
  int k = 0;          ///< shared K extent
  int mr = 0;         ///< register-tile rows (A panels) of the packing backend
  int nr = 0;         ///< register-tile cols (B panels) of the packing backend
  int kg = 1;         ///< k-group width: 1 for FP32, Backend::kg8 for int8
  int oc = 0;         ///< outer cache block: MC for an A-pack, NC for a B-pack
  int kc = 0;         ///< K cache block of the packing backend
  core::Tier tier = core::Tier::kScalar;  ///< the tier that packed it
  core::AlignedVector<T> data;         ///< all blocks, contiguous, 64B-aligned
  std::vector<std::size_t> block_off;  ///< [outer_block * kblocks + kblock]

  [[nodiscard]] bool empty() const { return data.empty(); }
};

using PackedMatrix = PackedPanels<float>;

/// Pack op(A) (M x K; trans_a reads A[k*lda + m]) into the kernel's A-panel
/// layout — byte-identical to what the per-call path packs, block by block.
[[nodiscard]] PackedMatrix pack_a_matrix(int M, int K, const float* A, int lda,
                                         bool trans_a);
/// Pack op(B) (K x N; trans_b reads B[n*ldb + k]) into the B-panel layout.
[[nodiscard]] PackedMatrix pack_b_matrix(int K, int N, const float* B, int ldb,
                                         bool trans_b);

/// Eager decode of a channel-major code array: out[i] =
/// float(lut[codes[i]] * scales[i / per_channel]) — one double multiply,
/// one float cast, exactly the quantize→dequantize value.  This is how
/// code-mode weights enter the GEMM: layers decode their codes once per
/// installed payload and pack the result with pack_a_matrix /
/// pack_b_matrix like any FP32 weight, so the panels a code-mode forward
/// reads are the panels of the dequantized weights.
void decode_codes(const std::uint8_t* codes, std::size_t n, const double* lut,
                  const double* scales, std::size_t per_channel, float* out);

/// C (M x N, row-major, leading dim ldc) = epilogue(init + op(A)·op(B)).
///
/// op(A) is M x K: element (m,k) is A[m*lda + k], or A[k*lda + m] when
/// trans_a.  op(B) is K x N: element (k,n) is B[k*ldb + n], or B[n*ldb + k]
/// when trans_b.  `bias` must have M (kBiasRow) or N (kBiasCol) entries and
/// may be null otherwise.  `pool` defaults to the global pool; tests pass
/// their own to pin thread-count invariance.
///
/// `packed_a` / `packed_b`, when non-null, must have been produced by
/// pack_a_matrix / pack_b_matrix from the *same logical operand* (same
/// M/N/K and values); the kernel then skips that operand's per-call pack.
/// The raw pointers are still required — the small-problem direct path and
/// the shape validation read them.  Neither an epilogue nor an affine may
/// combine with Init::kAccumulate (the element sum would not be complete);
/// `affine`, when non-null, must carry both pointers with M entries each.
void sgemm(int M, int N, int K, const float* A, int lda, bool trans_a,
           const float* B, int ldb, bool trans_b, float* C, int ldc,
           Init init = Init::kZero, const float* bias = nullptr,
           core::ThreadPool* pool = nullptr,
           Epilogue epilogue = Epilogue::kNone,
           const PackedMatrix* packed_a = nullptr,
           const PackedMatrix* packed_b = nullptr,
           const RowAffine* affine = nullptr);

}  // namespace mersit::nn::gemm
