// Scaled (fake-)quantization helpers used by the PTQ pipeline.
//
// The paper's methodology (Section 4.1): the calibration-set maximum of each
// weight channel / activation tensor becomes a scaling parameter.  We map
// that maximum onto the format's largest finite value, encode the scaled
// data, and decode back — so the dynamic range *below* the maximum is the
// resource each format competes on (the Fig. 4 story).
#pragma once

#include <span>

#include "formats/format.h"

namespace mersit::formats {

/// Scaling policy for mapping calibration maxima into a format's range.
///
/// kMaxToUnity is the experiment default: mapping the calibration max onto
/// the format's calibration_target() (1.0 for exponent-coded formats, the
/// top integer for INT8) reproduces the paper's Fig. 6 RMSE ordering
/// (MERSIT <= Posit < FP8) and matches the Posit-PTQ literature, whereas
/// mapping onto max_finite() parks the data bulk in the fraction-less top
/// binades of Posit/MERSIT and inverts the ordering.  kMaxToFormatMax is
/// kept as an ablation (bench/ablation_scaling).
enum class ScalePolicy {
  kMaxToFormatMax,  ///< absmax maps to the largest finite value (ablation)
  kMaxToUnity,      ///< absmax maps to calibration_target() (paper-shape default)
};

/// Scale divisor such that `absmax / scale` lands on the policy target.
[[nodiscard]] double scale_for_absmax(const Format& fmt, double absmax,
                                      ScalePolicy policy = ScalePolicy::kMaxToUnity);

/// Quantize one value through the format at the given scale.
[[nodiscard]] inline double fake_quantize_value(double x, const Format& fmt,
                                                double scale) {
  return fmt.quantize(x / scale) * scale;
}

/// In-place fake quantization of a buffer.  Runs on the format's LUT kernel
/// (Format::kernel, formats/kernels) — bit-identical to the scalar reference
/// below, an order of magnitude faster, and safe to call concurrently.
void fake_quantize(std::span<float> data, const Format& fmt, double scale);

/// Root-mean-square error between `data` and its fake-quantized image
/// (the metric of the paper's Fig. 6).  Kernel-backed like fake_quantize.
[[nodiscard]] double quantization_rmse(std::span<const float> data, const Format& fmt,
                                       double scale);

/// Reference implementations routing every element through Format::quantize
/// (two codec() acquisitions + a binary search per scalar).  The kernel path
/// is verified bit-for-bit against these; benches measure the speedup.
void fake_quantize_scalar(std::span<float> data, const Format& fmt, double scale);
[[nodiscard]] double quantization_rmse_scalar(std::span<const float> data,
                                              const Format& fmt, double scale);

}  // namespace mersit::formats
