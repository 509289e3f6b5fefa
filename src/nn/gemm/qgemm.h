// Code-domain quantized GEMM modes and the exact Kulisch-style accumulator.
//
// Once a layer carries 8-bit weight codes (nn::WeightCodes, installed by the
// PTQ layer or from an MQT1 artifact), inference can run in one of four
// modes, selected by MERSIT_QGEMM:
//
//  * float   — ignore the codes; layers keep using their FP32 weights
//              (the pre-code-domain behaviour, for A/B comparisons).
//  * code    — the default.  The installed 8-bit codes are decoded once
//              per payload, float(lut[code] * scale) per element
//              (gemm::decode_codes), and packed like FP32 weights; the
//              layer never reads its FP32 Param.  Decoded values are
//              bit-identical to the quantize→dequantize FP32 path, so
//              layer outputs are bit-identical too.  The 8-bit payload is
//              what an artifact stores and a swap ships (~4x smaller than
//              FP32); a warm layer holds FP32 panels, so the forward-time
//              weight traffic is that of the FP32 path.
//  * kulisch — opt-in exact-accumulation study mode mirroring the paper's
//              §1.4 Kulisch MAC: both operands are 8-bit codes, every
//              product is formed exactly as a dyadic rational
//              (mant_a·mant_b, 2^(exp_a+exp_b)) and summed into a wide
//              fixed-point quire with no intermediate rounding.
//  * int8    — decode-free integer fast path for formats whose decode LUT
//              is exactly affine, lut[code] == s·(code − z) (the INT8
//              family).  Weight codes are remapped once to int8 levels
//              q = code − z, activations are quantized per-tensor to the
//              same level grid at the GEMM boundary, and the micro-kernel
//              accumulates q_a·q_b in int32 — both operands move as 8-bit
//              levels (≈4x less panel traffic than code mode's FP32
//              panels) and no float math happens until the epilogue.  Formats whose
//              LUT is not affine (MERSIT, posit, FP8) fall back to code
//              mode per layer, silently, exactly like Kulisch fallback.
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
// roundings instead, so the Kulisch result is the reference the FP32 mode
// drifts from, not vice versa.  This mode trades throughput for exactness
// (a software 512-bit quire per output element); it is a numerics
// instrument, not a fast path.
//
// Backend note: the float and code modes ride the SIMD backend registry
// (nn/gemm/backend.h) through the same float pack routines and sgemm —
// code mode differs only in where the FP32 weights come from.
// qgemm_kulisch reads raw codes and accumulates in integer arithmetic, so
// it is independent of the active backend by construction and needs no
// per-backend gating.
#pragma once

#include <cstdint>
#include <string>

#include "nn/gemm/gemm.h"

namespace mersit::nn::gemm {

/// Weight-path execution mode for layers that carry 8-bit codes.
enum class QgemmMode {
  kFloat,    ///< MERSIT_QGEMM=float — ignore codes, use FP32 weights
  kCode,     ///< MERSIT_QGEMM=code (default) — decode once, pack as FP32
  kKulisch,  ///< MERSIT_QGEMM=kulisch — exact fixed-point accumulation
  kInt8,     ///< MERSIT_QGEMM=int8 — decode-free integer path (affine LUTs)
};

/// Strict parse of a MERSIT_QGEMM value; throws std::runtime_error with a
/// message enumerating all valid values on anything else.  Exposed so tests
/// can exercise rejection without re-running static env initialisation.
[[nodiscard]] QgemmMode parse_qgemm_mode(const std::string& value);

/// Current mode; first call parses MERSIT_QGEMM (strict: any value other
/// than float/code/kulisch/int8 throws, consistent with core/env.h).
[[nodiscard]] QgemmMode qgemm_mode();

/// Programmatic override (tests, benches); returns the previous mode.
QgemmMode set_qgemm_mode(QgemmMode mode);

/// Per-code exact dyadic decomposition of a 256-entry decode LUT:
/// lut[c] == mant[c] · 2^exp[c] exactly, with mant odd (or 0) and
/// |mant| < 2^30.  Non-finite LUT entries get mant = 0 — callers must
/// guarantee such codes never reach the accumulator (the layer plumbing
/// gates Kulisch on a zero non-finite-code count).
struct KulischTable {
  std::int64_t mant[256] = {};
  int exp[256] = {};
  /// Quire LSB exponent: 2·min finite exponent, so every product shift is
  /// a non-negative int.
  int base = 0;
  /// False when a finite entry is not exactly representable in the scheme
  /// or the format's dynamic range exceeds the quire — Kulisch mode then
  /// falls back to code mode for layers using this table.
  bool usable = false;
};

/// Build the table from a decode LUT.  Verifies each decomposition by exact
/// reconstruction and checks the quire range budget; failures clear
/// `usable` instead of throwing (Kulisch is opt-in, fallback is silent).
[[nodiscard]] KulischTable build_kulisch_table(const double* lut);

/// One code-domain GEMM operand: an 8-bit code matrix plus its scales.
/// op(A) element (m,k) is codes[m*ld + k] (codes[k*ld + m] when trans);
/// op(B) element (k,n) is codes[k*ld + n] (codes[n*ld + k] when trans).
/// `channel_scales`, when non-null, holds one scale per logical row of
/// op(A) / per logical column of op(B) (output channels); otherwise
/// `uniform_scale` applies to every element (quantized activations).
struct QOperand {
  const std::uint8_t* codes = nullptr;
  int ld = 0;
  bool trans = false;
  const double* channel_scales = nullptr;
  double uniform_scale = 1.0;
};

/// C (M x N, row-major, ldc) = epi(init + exact(op(A)·op(B)) · scales),
/// with the k-summation of each element performed exactly in a software
/// quire (see the ULP contract above).  Both operands must decode through
/// the same registered-format LUT family as `tab` (weights and activations
/// may use different tables only if their LUTs coincide — the layer
/// plumbing passes the weight table and re-encodes activations through the
/// same format, so they do).  Init::kAccumulate is rejected: the exact sum
/// cannot continue a rounded partial.  Runs the M·N element grid serially
/// per call; callers parallelize over samples.
void qgemm_kulisch(int M, int N, int K, const QOperand& a, const QOperand& b,
                   const KulischTable& tab, Init init, const float* bias,
                   float* c, int ldc, Epilogue epi = Epilogue::kNone);

// ---------------------------------------------------------------------------
// Decode-free int8 path (MERSIT_QGEMM=int8)
// ---------------------------------------------------------------------------

/// Exact affine remap of a 256-entry decode LUT: for every finite entry,
/// lut[c] == scale · q[c] exactly (double compare, no tolerance), with q an
/// int8 level.  Detection tries the signed code interpretation first
/// (level = int8(c), the INT8-family layout), then unsigned (level = c, for
/// zero-point LUTs such as s·(c − 128)).  Finite entries that are exactly
/// 0.0 map to q = 0 regardless of level, so artifact LUTs whose non-finite
/// codes were policy-zeroed still qualify.  Non-finite entries get bad[c];
/// they never reach the kernel (the layer plumbing gates int8 on a zero
/// non-finite-code count, same as Kulisch).
struct AffineLut {
  std::int8_t q[256] = {};   ///< code → int8 level, lut[c] == scale·q[c]
  bool bad[256] = {};        ///< non-finite decode entry
  double scale = 0.0;        ///< exact affine step s
  std::int8_t qmin = 0;      ///< smallest finite level (activation clamp)
  std::int8_t qmax = 0;      ///< largest finite level (activation clamp)
  bool usable = false;       ///< false → layers fall back to code mode
};

/// Build the remap from a decode LUT.  The 256-code verification is
/// exhaustive and exact; any mismatch (MERSIT, posit, FP8, or a level that
/// does not fit int8) clears `usable` instead of throwing — int8 is opt-in
/// and fallback is silent, mirroring build_kulisch_table.
[[nodiscard]] AffineLut build_affine_lut(const double* lut);

/// The identity level map q[c] = int8(c), for operands whose bytes already
/// are int8 levels (activations quantized by quantize_levels below).
[[nodiscard]] const std::int8_t* identity_qlut();

/// Largest K the int8 driver accepts: the worst-case |Σ q_a·q_b| is
/// K·128·128, which must stay below 2^31 for the int32 accumulation to be
/// exact.  (2^31 / 2^14 = 2^17; one spare bit for safety.)
inline constexpr int kInt8MaxK = 1 << 16;

/// Quantize a float tensor straight to int8 levels on the affine grid:
/// out[i] = clamp(RNE(x[i] · inv), lo, hi) with inv = 1/(alut.scale ·
/// tensor_scale).  For activations already fake-quantized onto the grid
/// (the PTQ eval and serving paths) the rounding is exact, so this matches
/// the format's own encode kernel code-for-code (pinned by test).
/// Non-finite inputs clamp (NaN → 0).
void quantize_levels(const float* x, std::size_t n, double inv, int lo,
                     int hi, std::int8_t* out);

/// One int8-path GEMM operand: an 8-bit code matrix plus the code→level
/// remap to apply in the pack step and the operand's dequant scales.
/// Addressing follows QOperand.  For weights, `qlut` is AffineLut::q and
/// `channel_scales[ch]` = AffineLut::scale · WeightCodes::scales[ch]; for
/// activations, `codes` holds levels already (quantize_levels for Linear,
/// im2col_int8 for conv), `qlut` is identity_qlut() and `uniform_scale` =
/// AffineLut::scale · tensor quant_scale.
struct Int8Operand {
  const std::uint8_t* codes = nullptr;
  int ld = 0;
  bool trans = false;
  const std::int8_t* qlut = nullptr;
  const double* channel_scales = nullptr;
  double uniform_scale = 1.0;
};

/// A fully packed int8 operand (all k-blocks), for prepacking weights once
/// and reusing across calls — PackedPanels over int8 levels, with
/// kg = Backend::kg8.  Panel bytes are backend-specific (the AVX-512 kernel
/// stores A biased by 128 for vpdpbusd); a pack is only valid for the
/// backend that produced it, enforced via backend_id.
using PackedInt8 = PackedPanels<std::int8_t>;

/// Pack all of op(A) (M x K) / op(B) (K x N) int8 levels for the active
/// backend.  `codes` + `qlut` follow Int8Operand conventions.
[[nodiscard]] PackedInt8 pack_a_int8_matrix(int M, int K,
                                            const std::uint8_t* codes, int ld,
                                            bool trans,
                                            const std::int8_t* qlut);
[[nodiscard]] PackedInt8 pack_b_int8_matrix(int K, int N,
                                            const std::uint8_t* codes, int ld,
                                            bool trans,
                                            const std::int8_t* qlut);

/// C (M x N, row-major, ldc) = epi(affine(init + double(acc) · (s_a·s_b)))
/// with acc the exact int32 k-summation of level products (see the int8
/// ULP contract above).  Init::kAccumulate is rejected (the exact sum
/// cannot continue a rounded partial) and K must be ≤ kInt8MaxK.  `affine`,
/// when non-null, is the per-output-row fold applied before the epilogue,
/// exactly as in sgemm.  `packed_a` / `packed_b`, when non-null, must have
/// been produced by pack_{a,b}_int8_matrix under the same active backend.
/// Parallelises over output tiles on `pool` (or the global pool); results
/// are invariant to thread count and backend by construction.
void qgemm_int8(int M, int N, int K, const Int8Operand& a,
                const Int8Operand& b, Init init, const float* bias, float* c,
                int ldc, core::ThreadPool* pool = nullptr,
                Epilogue epi = Epilogue::kNone,
                const PackedInt8* packed_a = nullptr,
                const PackedInt8* packed_b = nullptr,
                const RowAffine* affine = nullptr);

}  // namespace mersit::nn::gemm
