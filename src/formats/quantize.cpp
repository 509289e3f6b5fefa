#include "formats/quantize.h"

#include <cmath>
#include <stdexcept>

#include "formats/kernels/quant_kernel.h"

namespace mersit::formats {

double scale_for_absmax(const Format& fmt, double absmax, ScalePolicy policy) {
  if (absmax <= 0.0) return 1.0;  // degenerate tensor: identity scale
  switch (policy) {
    case ScalePolicy::kMaxToFormatMax:
      return absmax / fmt.max_finite();
    case ScalePolicy::kMaxToUnity:
      return absmax / fmt.calibration_target();
  }
  // Exhaustive switch above — reaching here means the enum was corrupted
  // (bad deserialization, stale config); refuse to masquerade as identity.
  throw std::invalid_argument("scale_for_absmax: invalid ScalePolicy value " +
                              std::to_string(static_cast<int>(policy)));
}

void fake_quantize(std::span<float> data, const Format& fmt, double scale) {
  fmt.kernel()->fake_quantize(data, scale);
}

double quantization_rmse(std::span<const float> data, const Format& fmt,
                         double scale) {
  return fmt.kernel()->quantization_rmse(data, scale);
}

// ------------------------------------------------------ scalar reference --
// The original per-element path through Format::quantize().  Kept verbatim
// as the reference implementation: tests/formats/test_kernels.cpp proves the
// kernel path bit-identical to it, and bench/micro_codecs measures the gap.

void fake_quantize_scalar(std::span<float> data, const Format& fmt,
                          double scale) {
  const double inv = 1.0 / scale;
  for (float& v : data)
    v = static_cast<float>(fmt.quantize(static_cast<double>(v) * inv) * scale);
}

double quantization_rmse_scalar(std::span<const float> data, const Format& fmt,
                                double scale) {
  if (data.empty()) return 0.0;
  const double inv = 1.0 / scale;
  double se = 0.0;
  for (const float v : data) {
    const double q = fmt.quantize(static_cast<double>(v) * inv) * scale;
    const double d = q - static_cast<double>(v);
    se += d * d;
  }
  return std::sqrt(se / static_cast<double>(data.size()));
}

}  // namespace mersit::formats
