// Code-domain weight storage for ChannelWeights modules, and the weight
// plan a layer compiles from it.
//
// A CodeBook is one registered format's 256 codes under one corruption
// policy: each code's policy-applied value, and a share of the format's
// quant kernel, which holds its code table (formats::TableCodec: classes
// before the policy, encode, the dyadic pairs the Kulisch path runs from
// and the int8 grid the int8 path runs from).  Non-finite codes hold the
// pair (0, 0) and level 0 in that table, which is what a kZeroSubstitute
// value of 0.0 gives, so one table serves both policies.
// ptq::make_code_book builds the book (the one loop over the 256 codes in
// src/nn and src/ptq), once per install call, and every layer of that
// install shares it.
//
// A WeightCodes instance is an immutable 8-bit view of one module's weight
// tensor: channel-major code words, one scale per output channel, and the
// shared book.  ChannelWeights::set_weight_codes checks it against the
// layer's shape once, at install.
//
// A WeightPlan is what an inference forward runs: the kernel (FP32 GEMM,
// int8 or Kulisch), the typed reason when a requested int8/Kulisch path was
// declined, the codes snapshot it was built from and its packs.  Under the
// code path the plan decodes float(book->value[code] * scale) once into an
// FP32 copy and packs that, so a warm layer holds FP32 panels (the 1-byte
// payload is the artifact and swap format, not the in-process forward
// footprint); the int8 and Kulisch kernels consume the codes as is.  A
// layer keeps one plan, next to its codes, and compiles a new one when the
// payload, the Param version, the requested path or the backend changes.
//
// The PTQ layer owns the two installers:
//
//  * ptq::install_weight_codes  — in-process: encodes the live FP32
//    weights exactly as QuantKernel::fake_quantize would (multiply by the
//    reciprocal scale), so decoded values are bit-identical to the
//    quantize→dequantize path.
//  * ptq::install_code_weights  — from an MQT1 artifact: stored codes +
//    stored float scales + the policy-applied book, so decoded values are
//    bit-identical to ptq::unpack_weights output.
//
// Payloads and plans are shared immutably (shared_ptr<const ...>); a swap
// installs a *new* payload rather than mutating and drops the layer's plan,
// and a forward holds the plan it took (with its codes) until it returns.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cpu.h"
#include "formats/kernels/quant_kernel.h"
#include "nn/gemm/qgemm.h"

namespace mersit::nn {

struct CodeBook {
  double value[256] = {};  ///< decode_with_policy(code): policy applied
  /// The format's kernel: its encode re-encodes already-fake-quantized
  /// activations for Kulisch mode, bit-identical to the scalar codec.
  std::shared_ptr<const formats::kernels::QuantKernel> kernel;

  /// The format's code table (pre-policy classes, dyadic pairs, int8 grid).
  [[nodiscard]] const formats::TableCodec& table() const { return kernel->codec(); }
};

struct WeightCodes {
  int channels = 0;                 ///< output channels (scale granularity)
  int per_channel = 0;              ///< weights per channel
  std::vector<std::uint8_t> codes;  ///< [channels * per_channel], channel-major
  std::vector<double> scales;       ///< per-channel dequant scale
  std::shared_ptr<const CodeBook> book;

  /// Codes whose *book* value is non-finite.  The Kulisch and int8 paths
  /// require 0; the code path handles any value.  kZeroSubstitute books map
  /// every non-finite code to 0.0, so corrupted artifacts keep both paths.
  std::uint64_t nonfinite = 0;
};

/// The kernel a weight plan runs.
enum class WeightKernel : std::uint8_t {
  kFp32,     ///< sgemm / depthwise over FP32 weights (live or decoded)
  kInt8,     ///< gemm::qgemm_int8 over int8 level panels
  kKulisch,  ///< gemm::qgemm_kulisch over the raw codes
};

/// Why a requested int8 or Kulisch path runs the FP32 kernel instead.
enum class PlanFallback : std::uint8_t {
  kNone,
  kNoCodes,         ///< the layer has no weight codes installed
  kDepthwise,       ///< depthwise convs run only the FP32 depthwise kernel
  kUnstampedInput,  ///< the input tensor carries no quant scale
  kFusedAffine,     ///< a fused BN affine under Kulisch
  kNoTable,         ///< the format has no int8 grid / does not fit the quire
  kNonFinite,       ///< the payload has codes whose book value is non-finite
  kKTooLarge,       ///< K > gemm::kInt8MaxK (int32 accumulation not exact)
};

[[nodiscard]] const char* kernel_name(WeightKernel k);
[[nodiscard]] const char* fallback_name(PlanFallback f);

/// What one forward asks of its layer: the requested path and the decline
/// the call itself decided (depthwise layer, unstamped input, fused BN).
struct PlanRequest {
  gemm::QgemmMode path = gemm::QgemmMode::kCode;
  PlanFallback declined = PlanFallback::kNone;

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

/// How a layer's weights split into GEMM operands: `groups` channel-major
/// blocks of rows x k.  FP32 panels pack them as op(A) (conv) or as the
/// transposed op(B) (Linear); int8 level panels always as op(A), since
/// the int8 and Kulisch kernels run a Linear as the 1x1 conv.  A depthwise
/// conv runs no GEMM: 0 groups.
struct WeightLayout {
  int groups = 1;
  int rows = 0;
  int k = 0;
  bool b_operand = false;
};

/// One layer's compiled inference plan; immutable once built.
struct WeightPlan {
  PlanRequest request;
  WeightKernel kernel = WeightKernel::kFp32;
  PlanFallback reason = PlanFallback::kNone;  ///< kNone when nothing declined
  /// The payload the plan runs from; null when it runs the live Param (no
  /// codes installed, or the kFloat path).
  std::shared_ptr<const WeightCodes> codes;
  std::uint64_t version = 0;  ///< weight Param version compiled against
  core::Tier tier = core::Tier::kScalar;  ///< the tier the packs are laid out for

  /// kFp32 from codes: the decoded weights, the packs' source and what the
  /// raw-pointer paths (depthwise, the small-problem direct GEMM) read.
  std::vector<float> decoded;
  /// kFp32: the panel packs (one per conv group, one for Linear; none for
  /// depthwise convs, which run no GEMM).
  std::vector<gemm::PackedMatrix> packs;
  /// kInt8: the level panels (one per conv group, one for Linear) and the
  /// fused per-channel dequant scales Int8Grid::pitch * scales[ch].
  std::vector<gemm::PackedInt8> ipacks;
  std::vector<double> iscales;
};

}  // namespace mersit::nn
