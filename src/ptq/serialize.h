// Quantized-artifact serialization: pack the per-channel quantized weights
// of a model into true 8-bit code words plus FP32 scales (the artifact an
// 8-bit accelerator actually ships), restore them, and persist calibration
// tables.
//
// Weight container (little-endian):
//   "MQT1" | u32 format-name length | name bytes
//   u32 tensor count, then per tensor:
//     u32 ndim | i32 shape[ndim] | u32 channels |
//     f32 scale[channels] | u8 codes[numel]
//
// Calibration container (little-endian, see ptq::CalibrationTable):
//   "MCT1" | u32 model-name length | name bytes | f32 input_absmax
//   u32 entry count, then per entry:
//     u32 path length | path bytes | f32 absmax
// Entries are written in sorted path order (std::map) so two identical
// tables always serialize to identical bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "formats/corruption.h"
#include "formats/quantize.h"
#include "nn/module.h"
#include "ptq/ptq.h"  // CalibrationTable (held by value in ArtifactPair)

namespace mersit::ptq {

struct QuantizedTensor {
  std::vector<int> shape;            ///< original parameter shape
  int channels = 1;                  ///< leading quantization-group count
  std::vector<float> scales;         ///< one scale per channel
  std::vector<std::uint8_t> codes;   ///< one code per element

  /// Module path of the layer this tensor came from (e.g.
  /// "resnet18/stem_conv").  In-memory only — filled by pack_weights for
  /// per-layer reporting/targeting; NOT serialized (the MQT1 byte format is
  /// unchanged), so tensors parsed by load() carry an empty path.
  std::string path;

  [[nodiscard]] std::int64_t numel() const {
    return static_cast<std::int64_t>(codes.size());
  }
};

struct QuantizedModel {
  std::string format_name;           ///< e.g. "MERSIT(8,2)"
  std::vector<QuantizedTensor> tensors;  ///< one per ChannelWeights module

  void save(std::ostream& os) const;

  /// Parse a container from `is`.  Hardened against malformed input: every
  /// length field is bounds-checked against the remaining stream size (when
  /// the stream is seekable) and against hard caps, payloads are read in
  /// bounded chunks (no allocation sized by an attacker-controlled u32),
  /// and shape/channel/numel consistency is validated.  Any truncated,
  /// corrupted, or random byte stream yields a descriptive
  /// std::runtime_error — never a crash, hang, or OOM.
  [[nodiscard]] static QuantizedModel load(std::istream& is);

  /// Serialized size in bytes.
  [[nodiscard]] std::size_t byte_size() const;
};

/// Encode every ChannelWeights module of `model` into true 8-bit codes
/// (per-channel |max| scaling under `policy`).  The model is not modified.
[[nodiscard]] QuantizedModel pack_weights(nn::Module& model,
                                          const formats::Format& fmt,
                                          formats::ScalePolicy policy =
                                              formats::ScalePolicy::kMaxToUnity);

/// Decode `qm` back into the model's ChannelWeights modules (module order
/// and shapes must match).  `fmt` must be the format named in `qm`.
/// Structural compatibility (tensor count, channel counts, element counts)
/// is validated for the whole model *before* any weight is written, so a
/// mismatched artifact throws std::invalid_argument naming the offending
/// layer instead of leaving the model half-overwritten.
/// `policy` governs non-finite (NaR/Inf/NaN) codes, which a clean artifact
/// never contains but a corrupted one may: kPropagate writes IEEE specials
/// into the weights, kZeroSubstitute writes 0 and counts the substitution
/// in `stats` (see formats/corruption.h).
void unpack_weights(nn::Module& model, const QuantizedModel& qm,
                    const formats::Format& fmt,
                    formats::CorruptionPolicy policy = formats::CorruptionPolicy::kPropagate,
                    formats::CorruptionStats* stats = nullptr);

/// The structural validation pass of unpack_weights on its own: checks that
/// `qm` has one tensor per ChannelWeights module of `model` and that every
/// tensor's channel count, scale count, and element count match that
/// module's weight shape.  Mutates nothing.  Throws std::invalid_argument
/// naming the offending layer path on the first mismatch — the static gate
/// the serving engine (and the model-aware load_artifact_pair overload)
/// runs before an artifact gets anywhere near live replicas.
void validate_weight_shapes(nn::Module& model, const QuantizedModel& qm);

/// Code-domain twin of unpack_weights: instead of decoding the artifact
/// into the FP32 weights, install a nn::WeightCodes view (artifact codes,
/// double-widened per-channel scales, one policy-applied code book shared
/// by every layer) on every ChannelWeights module.  On the code path each
/// layer's weight plan then decodes and packs the codes once; the decoded
/// values are bit-identical to what unpack_weights would have written, so
/// layer outputs match the unpack path exactly.  The FP32 weights are left
/// untouched.  Validates like unpack_weights before installing anything.
/// Non-finite codes are counted into `stats` regardless of policy; with
/// kZeroSubstitute the book maps them to 0.0, so the GEMM never sees an
/// IEEE special and the Kulisch and int8 paths stay available.
void install_code_weights(nn::Module& model, const QuantizedModel& qm,
                          const formats::Format& fmt,
                          formats::CorruptionPolicy policy = formats::CorruptionPolicy::kPropagate,
                          formats::CorruptionStats* stats = nullptr);

// ------------------------------------------------------- serving artifacts --

/// The two artifacts a serving replica runs on: an MCT1 calibration table
/// (activation scales) and an MQT1 weight container.  Always produced by
/// load_artifact_pair, so holding one implies both streams parsed cleanly.
struct ArtifactPair {
  CalibrationTable table;
  QuantizedModel weights;
};

/// Parse-and-validate seam for artifact hot-swap: read an MCT1 stream and
/// an MQT1 stream through the hardened loaders and check that the weight
/// container names `fmt`.  Either stream being truncated, corrupted, or
/// random throws std::runtime_error before the caller touches any replica —
/// the first gate of the serving engine's validate-then-swap contract.
[[nodiscard]] ArtifactPair load_artifact_pair(std::istream& mct1,
                                              std::istream& mqt1,
                                              const formats::Format& fmt);

/// Model-aware overload: additionally validates the parsed weight container
/// against `model`'s structure (validate_weight_shapes), so an artifact
/// whose tensor element counts do not match the target modules' weight
/// shapes is rejected *at load* — naming the offending layer path — instead
/// of surfacing later, mid-swap, from unpack_weights.
[[nodiscard]] ArtifactPair load_artifact_pair(std::istream& mct1,
                                              std::istream& mqt1,
                                              const formats::Format& fmt,
                                              nn::Module& model);

/// Count the code words of `qm` that decode non-finite (NaR/Inf/NaN) under
/// `fmt`.  Clean PTQ artifacts contain none (encode saturates), so a
/// nonzero count is evidence of corruption in storage or transport; the
/// serving engine rejects swaps whose non-finite fraction exceeds its
/// configured bound instead of serving a poisoned model.
[[nodiscard]] std::uint64_t count_nonfinite_codes(const QuantizedModel& qm,
                                                  const formats::Format& fmt);

}  // namespace mersit::ptq
