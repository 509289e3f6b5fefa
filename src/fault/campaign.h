// Resilience-measurement campaigns over formats, netlists, and artifacts.
//
// Artifact level: corrupt a packed QuantizedModel at a bit-error rate (or a
// targeted bit position), unpack with zero-substitution of non-finite codes
// (formats::CorruptionPolicy::kZeroSubstitute), re-run the PTQ evaluation,
// and report accuracy-vs-BER plus per-bit-position sensitivity.
//
// Gate level: superimpose stuck-at faults (and optionally transients) on
// the FP8/Posit/MERSIT MAC netlists via rtl::FaultPlan, replay a fixed
// operand stream, and cross-check every cycle against the bit-exact
// hw::MacReference to classify each fault as
//   masked   — accumulator bit-identical to the golden run throughout;
//   detected — corrupted, but the unit's special/NaR flag deviated from
//              the expected flag at some cycle (observable detection);
//   SDC      — silent data corruption: wrong accumulator, no flag.
//
// All sampling is driven by explicit 64-bit seeds (bitflip.h): fixed seed
// => bit-identical campaign results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/bitflip.h"
#include "nn/train.h"
#include "ptq/serialize.h"

namespace mersit::fault {

// ----------------------------------------------------- artifact campaigns --

struct BerPoint {
  double ber = 0.0;
  float accuracy = 0.f;             ///< percent
  std::uint64_t bits_flipped = 0;
  std::uint64_t non_finite = 0;     ///< NaR/Inf/NaN codes hit during unpack
};

struct BitPositionPoint {
  int bit = 0;                      ///< 0 = LSB .. 7 = MSB (sign)
  float accuracy = 0.f;             ///< percent
  std::uint64_t bits_flipped = 0;
  std::uint64_t non_finite = 0;
};

/// Accuracy after corrupting one named layer's tensor alone.
struct LayerSensitivityPoint {
  std::string path;                 ///< module path of the corrupted layer
  float accuracy = 0.f;             ///< percent
  std::uint64_t bits_flipped = 0;
  std::uint64_t non_finite = 0;
};

struct ArtifactCampaignConfig {
  std::vector<double> bers{1e-4, 1e-3, 1e-2, 5e-2};
  /// Per-code flip rate for the per-bit-position sweep; 0 skips the sweep
  /// (e.g. when only the per-layer pass below is wanted).
  double bit_rate = 0.02;
  std::uint64_t seed = 2024;

  /// When > 0, additionally corrupt each packed tensor *alone* at this BER
  /// and evaluate, producing ArtifactCampaignResult::layer_profile (the
  /// per-layer sensitivity table).  0 (default): skip the per-layer pass.
  double layer_ber = 0.0;
};

struct ArtifactCampaignResult {
  std::string format_name;
  float clean_accuracy = 0.f;       ///< weights quantized+packed, no corruption
  std::vector<BerPoint> ber_curve;
  std::vector<BitPositionPoint> bit_profile;
  std::vector<LayerSensitivityPoint> layer_profile;  ///< when layer_ber > 0
};

/// Pack `model`'s weights into `fmt`, then measure accuracy on `test` under
/// the configured BER sweep and per-bit-position flips.  The model's FP32
/// weights are restored before returning.
[[nodiscard]] ArtifactCampaignResult run_artifact_campaign(
    nn::Module& model, const nn::Dataset& test, const formats::Format& fmt,
    const ArtifactCampaignConfig& cfg = {});

// --------------------------------------------------------- gate campaigns --

struct GateCampaignConfig {
  std::uint64_t seed = 2024;
  std::size_t max_sites = 160;  ///< sampled injection nets (each run at s-a-0 and s-a-1)
  int cycles = 24;              ///< MAC cycles simulated per injection
};

struct StuckAtReport {
  std::string format_name;
  std::uint64_t sites = 0;      ///< distinct nets injected
  std::uint64_t trials = 0;     ///< injections (sites x 2 polarities)
  std::uint64_t masked = 0;
  std::uint64_t detected = 0;
  std::uint64_t sdc = 0;

  [[nodiscard]] double sdc_rate() const {
    return trials > 0 ? static_cast<double>(sdc) / static_cast<double>(trials) : 0.0;
  }
};

/// Stuck-at campaign over the MAC netlist of `fmt` (must be one of the
/// exponent-coded formats with a hardware decoder).  Samples up to
/// `max_sites` gate/DFF output nets, injects each stuck-at-0 and stuck-at-1,
/// and classifies against hw::MacReference as documented above.
[[nodiscard]] StuckAtReport run_stuckat_campaign(const formats::Format& fmt,
                                                 const GateCampaignConfig& cfg = {});

/// Single-transient campaign: one SEU-style flip on a sampled net at a
/// sampled cycle per trial, classified the same way.  Fills `trials` with
/// max_sites trials (one flip each).
[[nodiscard]] StuckAtReport run_transient_campaign(const formats::Format& fmt,
                                                   const GateCampaignConfig& cfg = {});

}  // namespace mersit::fault
