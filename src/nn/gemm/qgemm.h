// Code-domain quantized GEMM paths and the exact Kulisch-style accumulator.
//
// Once a layer carries 8-bit weight codes (nn::WeightCodes, installed by the
// PTQ layer or from an MQT1 artifact), inference can run one of four weight
// paths, selected in-process with set_qgemm_mode.  Each layer compiles the
// requested path into its weight plan (nn/qweights.h), which records the
// kernel that runs and, when an int8 / Kulisch request is declined, the
// typed reason (nn::weight_plans reports both):
//
//  * float   — ignore the codes; layers keep using their FP32 weights
//              (the reference the code path is checked against).
//  * code    — the default.  Each payload's codes are decoded once,
//              float(value[code] * scale) through the install's shared
//              code book (gemm::decode_codes), and packed like FP32
//              weights, so layer outputs are bit-identical to the
//              quantize→dequantize FP32 path.  The 8-bit payload is what
//              an artifact stores and a swap ships; a warm layer holds
//              FP32 panels and reads FP32-path weight traffic.
//  * kulisch — opt-in exact-accumulation study path mirroring the paper's
//              §1.4 Kulisch MAC: both operands are 8-bit codes, every
//              product is formed exactly as a dyadic rational
//              (mant_a·mant_b, 2^(exp_a+exp_b)) and summed into a wide
//              fixed-point quire with no intermediate rounding.
//  * int8    — decode-free path for formats whose values lie on a
//              uniform int8 grid, value[code] == pitch·level[code] (the
//              format's TableCodec::Int8Grid; INT8): weight codes remap
//              once to their int8 levels, activations quantize to the same
//              grid at the GEMM boundary, and the micro-kernel accumulates
//              q_a·q_b in int32, so both operands move as bytes (≈4x less
//              panel traffic than the code path) and float math waits for
//              the epilogue.  Other formats (MERSIT, posit, FP8) have no
//              usable grid; their plans run the code path's FP32 kernel,
//              as Kulisch plans do on formats that do not fit the quire.
//
// Int8 ULP contract: each output element is computed as
//   float( double(bias) + double(acc) · (s_a · s_b) )
// where `acc` is the exact int32 k-summation of the level products (exact
// whenever K ≤ kInt8MaxK, validated by the driver).  The only roundings are
// (1) the double scale product s_a·s_b, (2) the final multiply/add chain
// and float cast, plus the RowAffine fold when present — a fixed,
// K-independent number of roundings, independent of thread count and of
// the SIMD backend: integer accumulation is associative, so every backend
// is bitwise identical to the scalar integer reference by construction
// (gated at ULP 0 in tests).  Against the float code path the result
// differs only by the code path's K data-dependent float roundings, a
// bounded relative error on the order of K·2^-24 per element.
//
// Kulisch ULP contract: each output element is computed as
//   float( double(bias) + quire · (scale_a · scale_b) )
// where `quire` is the *exactly rounded* double of the full k-summation of
// the integer products.  The only roundings are (1) quire → double (exactly
// rounded, ≤ 0.5 ulp), (2) the double scale product, (3) the final fused
// multiply/add chain and float cast — a fixed, K-independent number of
// roundings.  FP32 ascending-k accumulation performs K data-dependent
// roundings instead, so the Kulisch result is the reference the FP32 path
// drifts from, not vice versa.  This path trades throughput for exactness
// (a software 512-bit quire per output element); it is a numerics
// instrument, not a fast path.
//
// Backend note: the float and code paths ride the active tier's SIMD
// backend (nn/gemm/backend.h) through the same float pack routines and
// sgemm — the code path differs only in where the FP32 weights come from.
// The int8 path's kernels and quantize_levels run that same backend, so
// MERSIT_BACKEND, which names the one tier every SIMD loop runs (GEMM,
// depthwise, fake-quant, level quantization; core/cpu.h), moves them too.
// qgemm_kulisch reads raw codes and accumulates in integer arithmetic, so
// it is independent of the active backend by construction and needs no
// per-backend gating.
#pragma once

#include <cstddef>
#include <cstdint>

#include "formats/format.h"
#include "nn/gemm/gemm.h"

namespace mersit::nn::gemm {

/// Weight path for layers that carry 8-bit codes.
enum class QgemmMode {
  kFloat,    ///< ignore codes, use the FP32 weights
  kCode,     ///< the default — decode once, pack as FP32
  kKulisch,  ///< exact fixed-point accumulation
  kInt8,     ///< decode-free integer path (uniform int8 grids)
};

/// The process-wide requested path; every inference forward of a layer
/// with a weight plan reads it once.  Starts at kCode.
[[nodiscard]] QgemmMode qgemm_mode();

/// Sets the requested path (tests, benches); returns the previous one.
/// Layers recompile their plan on the next forward under a new path.
QgemmMode set_qgemm_mode(QgemmMode mode);

/// True when the Kulisch path can run the format of `table`: every finite
/// value has its exact dyadic pair (TableCodec::dyadic_exact) and the
/// format's dynamic range fits the 512-bit quire.  Plans on other formats
/// run the FP32 kernel and report PlanFallback::kNoTable.
[[nodiscard]] bool kulisch_fits(const formats::TableCodec& table);

/// One code-domain GEMM operand: a row-major 8-bit code matrix plus its
/// scales.  A element (m,k) is codes[m*ld + k]; B element (k,n) is
/// codes[k*ld + n].  `channel_scales`, when non-null, holds one scale per
/// row of A / per column of B (output channels); otherwise
/// `uniform_scale` applies to every element (quantized activations).
struct QOperand {
  const std::uint8_t* codes = nullptr;
  int ld = 0;
  const double* channel_scales = nullptr;
  double uniform_scale = 1.0;
};

/// C (M x N, row-major, ldc) = epi(init + exact(A·B) · scales), with the
/// k-summation of each element performed exactly in a software
/// quire (see the ULP contract above).  Both operands are codes of the
/// format of `table`, whose dyadic pairs form each product
/// mant_a·mant_b·2^(exp_a+exp_b); codes with a non-finite value must not
/// occur (their pair is (0, 0)).  `table` must pass kulisch_fits.
/// Init is kZero or kBiasRow (bias[m], one per output channel);
/// Init::kAccumulate is rejected (the exact sum cannot continue a rounded
/// partial), and so is kBiasCol.  Runs the M·N element grid serially per
/// call; callers parallelize over samples.
void qgemm_kulisch(int M, int N, int K, const QOperand& a, const QOperand& b,
                   const formats::TableCodec& table, Init init,
                   const float* bias, float* c, int ldc,
                   Epilogue epi = Epilogue::kNone);

// ---------------------------------------------------------------------------
// Decode-free int8 path (QgemmMode::kInt8)
// ---------------------------------------------------------------------------

/// Largest K the int8 driver accepts: the worst-case |Σ q_a·q_b| is
/// K·128·128, which must stay below 2^31 for the int32 accumulation to be
/// exact.  (2^31 / 2^14 = 2^17; one spare bit for safety.)
inline constexpr int kInt8MaxK = 1 << 16;

/// Quantize a float tensor straight to int8 levels on the uniform grid:
/// out[i] = clamp(RNE(x[i] · inv), lo, hi) with inv = 1/(grid.pitch ·
/// tensor_scale).  For activations already fake-quantized onto the grid
/// (the PTQ eval and serving paths) the rounding is exact, so this matches
/// the format's own encode kernel code-for-code (pinned by test).
/// Non-finite inputs clamp (NaN → 0).  Runs the active backend's body;
/// every tier writes the same bytes (pinned by test).
void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out);

/// The int8 path's weight operand, packed once per weight plan —
/// PackedPanels over int8 levels, with kg = Backend::kg8.  Panel bytes are
/// backend-specific (the AVX-512 kernel stores A biased by 128 for
/// vpdpbusd); a pack is only valid for the backend that produced it,
/// enforced via its tier stamp.
using PackedInt8 = PackedPanels<std::int8_t>;

/// Pack the M x K row-major weight codes (leading dim ld) through the
/// code→level map `level` (Int8Grid::level) for the active backend.
[[nodiscard]] PackedInt8 pack_a_int8_matrix(int M, int K,
                                            const std::uint8_t* codes, int ld,
                                            const std::int8_t* level);

/// A segmented C operand for qgemm_int8: each row's N columns are written
/// as runs of `seg` columns, run j starting j·stride floats after the
/// row's start, so column n of row m lands at
///   c[m·ldc + (n / seg)·stride + n % seg].
/// Plain row-major C is the single run seg = N.  A batched conv passes
/// seg = oh·ow and stride = out_channels·oh·ow: its GEMM columns are the
/// samples' pixels side by side, and each sample's run lands in that
/// sample's slice of the [sample][channel][pixel] output.
struct Int8Segments {
  int seg = 0;              ///< columns per run, > 0
  std::size_t stride = 0;   ///< floats between the starts of two runs
};

/// C (M x N, row-major, ldc; or segmented, see below) =
/// epi(affine(init + double(acc) · (s_a[m]·s_b))) with acc the exact int32
/// k-summation of level products (see the int8
/// ULP contract above).  A is the prepacked weight levels `a`, with one
/// dequant scale per row in `a_scales` (Int8Grid::pitch · the channel's
/// WeightCodes scale).  B is K x N row-major int8 activation levels `b`
/// (leading dim ldb, im2col_int8's output) with one uniform scale `b_scale`
/// (Int8Grid::pitch · the tensor's quant scale), packed per call.  Init is
/// kZero or kBiasRow (bias[m]); kAccumulate (the exact sum cannot continue
/// a rounded partial) and kBiasCol are rejected, and K must be
/// ≤ kInt8MaxK.  `a` must match M and K and have been packed under the
/// active backend.  `affine`, when non-null, is the per-output-row fold
/// applied before the epilogue, exactly as in sgemm.  `segments`, when
/// non-null, lays C out in runs (Int8Segments); each element is written
/// once, in its final place, and nothing between the runs is touched.
/// Parallelises over output tiles on `pool` (or the global pool); results
/// are invariant to thread count and backend by construction.
void qgemm_int8(int M, int N, int K, const PackedInt8& a,
                const double* a_scales, const std::int8_t* b, int ldb,
                double b_scale, Init init, const float* bias, float* c,
                int ldc, core::ThreadPool* pool = nullptr,
                Epilogue epi = Epilogue::kNone,
                const RowAffine* affine = nullptr,
                const Int8Segments* segments = nullptr);

}  // namespace mersit::nn::gemm
