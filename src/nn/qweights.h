// Code-domain weight storage for ChannelWeights modules.
//
// A CodeBook is one registered format's 256 codes under one corruption
// policy: each code's policy-applied value, which codes are non-finite
// before the policy, the format's encode, and the exact tables the Kulisch
// and int8 modes run from.  ptq::make_code_book builds it (the one loop
// over the 256 codes in src/nn and src/ptq), once per install call, and
// every layer of that install shares it.
//
// A WeightCodes instance is an immutable 8-bit view of one module's weight
// tensor: channel-major code words, one scale per output channel, and the
// shared book.  Layers that find one installed (and MERSIT_QGEMM != float)
// run their GEMMs from the codes instead of from the FP32 Param, which the
// code path then never reads: in code mode the layer decodes
// float(book->value[code] * scale) once per payload into an FP32 copy and
// packs that, so a warm layer holds FP32 panels (the 1-byte payload is the
// artifact and swap format, not the in-process forward footprint); the
// int8 and Kulisch modes consume the codes as is.
//
// Both structs are formats-agnostic (raw values + an encode std::function)
// so mersit_nn does not depend on mersit_formats; the PTQ layer owns the
// two installers:
//
//  * ptq::install_weight_codes  — in-process: encodes the live FP32
//    weights exactly as QuantKernel::fake_quantize would (multiply by the
//    reciprocal scale), so decoded values are bit-identical to the
//    quantize→dequantize path.
//  * ptq::install_code_weights  — from an MQT1 artifact: stored codes +
//    stored float scales + the policy-applied book, so decoded values are
//    bit-identical to ptq::unpack_weights output.
//
// Instances are shared immutably (shared_ptr<const WeightCodes>); a swap
// installs a *new* instance rather than mutating, and the process-unique
// `id` feeds the prepacked-weight cache key so a racing pack lookup can
// never pair old codes with a new book (or vice versa).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/gemm/qgemm.h"

namespace mersit::nn {

struct CodeBook {
  double value[256] = {};  ///< decode_with_policy(code): policy applied
  bool finite[256] = {};   ///< code is finite *before* the policy
  /// Format encode (value → code), bit-identical to the scalar codec; used
  /// to re-encode already-fake-quantized activations for Kulisch mode.
  std::function<std::uint8_t(double)> encode;
  /// Exact tables of `value` for the Kulisch and int8 modes; null when not
  /// usable (layers then fall back to code mode).
  std::unique_ptr<const gemm::KulischTable> kulisch;
  std::unique_ptr<const gemm::AffineLut> affine;
};

struct WeightCodes {
  int channels = 0;                 ///< output channels (scale granularity)
  int per_channel = 0;              ///< weights per channel
  std::vector<std::uint8_t> codes;  ///< [channels * per_channel], channel-major
  std::vector<double> scales;       ///< per-channel dequant scale
  std::shared_ptr<const CodeBook> book;

  /// Codes whose *book* value is non-finite.  The Kulisch and int8 modes
  /// require 0; code mode handles any value.  kZeroSubstitute books map
  /// every non-finite code to 0.0, so corrupted artifacts keep both modes.
  std::uint64_t nonfinite = 0;

  /// Process-unique identity for the prepacked-weight cache keys; never 0.
  std::uint64_t id = next_id();

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

}  // namespace mersit::nn
