// Code-domain weight storage for ChannelWeights modules.
//
// A WeightCodes instance is an immutable 8-bit view of one module's weight
// tensor: channel-major code words, one scale per output channel, and the
// 256-entry decode LUT the codes decode through.  Layers that find one
// installed (and MERSIT_QGEMM != float) run their GEMMs from the codes
// instead of from the FP32 Param, which the code path then never reads: in
// code mode the layer decodes float(lut[code] * scale) once per payload
// into an FP32 copy and packs that, so a warm layer holds FP32 panels
// (the 1-byte payload is the artifact and swap format, not the in-process
// forward footprint); the int8 and Kulisch modes consume the codes as is.
//
// The struct is deliberately formats-agnostic (raw LUT + an encode
// std::function) so mersit_nn does not grow a dependency on
// mersit_formats; the PTQ layer owns the two installers:
//
//  * ptq::install_weight_codes  — in-process: encodes the live FP32
//    weights exactly as QuantKernel::fake_quantize would (multiply by the
//    reciprocal scale), so decoded values are bit-identical to the
//    quantize→dequantize path.
//  * ptq::install_code_weights  — from an MQT1 artifact: stored codes +
//    stored float scales + the corruption-policy-applied decode LUT, so
//    decoded values are bit-identical to ptq::unpack_weights output.
//
// Instances are shared immutably (shared_ptr<const WeightCodes>); a swap
// installs a *new* instance rather than mutating, and the process-unique
// `id` feeds the prepacked-weight cache key so a racing pack lookup can
// never pair old codes with a new LUT (or vice versa).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm/qgemm.h"

namespace mersit::nn {

struct WeightCodes {
  std::string format_name;  ///< registered format these codes decode under
  int channels = 0;         ///< output channels (scale granularity)
  int per_channel = 0;      ///< weights per channel
  std::vector<std::uint8_t> codes;  ///< [channels * per_channel], channel-major
  std::vector<double> scales;       ///< per-channel dequant scale
  double lut[256] = {};             ///< code → value, policy already applied

  /// Format encode (value → code), bit-identical to the scalar codec; used
  /// to re-encode already-fake-quantized activations for Kulisch mode.
  /// May be empty (Kulisch then falls back to code mode).
  std::function<std::uint8_t(double)> encode;

  /// Exact dyadic decomposition of `lut` for the Kulisch accumulator; null
  /// when the format's values do not decompose (fallback to code mode).
  std::shared_ptr<const gemm::KulischTable> kulisch;

  /// Exact affine remap of `lut` for the decode-free int8 path; null when
  /// the LUT is not affine (MERSIT/posit/FP8 — fallback to code mode).
  std::shared_ptr<const gemm::AffineLut> affine;

  /// Codes whose *pre-policy* decode is non-finite (NaR/Inf).  Kulisch mode
  /// requires 0 under kPropagate semantics; code mode handles any value
  /// (the LUT already reflects the policy).
  std::uint64_t nonfinite = 0;

  /// Process-unique identity for the prepacked-weight cache keys; never 0.
  std::uint64_t id = next_id();

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

}  // namespace mersit::nn
