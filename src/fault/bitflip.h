// Seeded bit-error injection into quantized-model artifacts.
//
// Corrupts the 8-bit code words of a ptq::QuantizedModel the way memory
// faults corrupt a shipped artifact: either uniformly (every bit of every
// code flips independently with probability BER) or at one targeted bit
// position (to measure per-bit-position sensitivity — tapered-precision
// formats concentrate dynamic range in the leading bits, so their profile
// differs sharply from FP8/INT8).
//
// All randomness comes from the explicit 64-bit seed: identical seed +
// artifact + parameters reproduce the identical corruption pattern, so
// every campaign number is exactly reproducible run-to-run.  Library code
// never touches std::random_device.
#pragma once

#include <cstdint>

#include "ptq/serialize.h"

namespace mersit::fault {

/// Minimal seeded PRNG (splitmix64) used for all campaign sampling: unlike
/// mt19937 it is seeding-robust (any 64-bit seed yields an independent
/// stream), trivially portable, and has no stdlib distribution-object
/// implementation dependence — identical sequences everywhere.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  [[nodiscard]] std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0,1).
  [[nodiscard]] double next_unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// What one injection pass did.
struct InjectionReport {
  std::uint64_t total_codes = 0;   ///< code words in the artifact
  std::uint64_t codes_touched = 0; ///< codes with at least one flipped bit
  std::uint64_t bits_flipped = 0;
};

class BitFlipInjector {
 public:
  explicit BitFlipInjector(std::uint64_t seed) : rng_(seed) {}

  /// Flip every bit of every code word independently with probability
  /// `ber` (bit-error rate in [0,1]).  Throws std::invalid_argument on a
  /// NaN or out-of-range `ber`.
  InjectionReport inject_ber(ptq::QuantizedModel& qm, double ber);

  /// Same, but restricted to one tensor (`tensor_idx` into qm.tensors) —
  /// used to corrupt a single named layer and measure its sensitivity.
  /// Throws std::out_of_range on a bad index.
  InjectionReport inject_ber_tensor(ptq::QuantizedModel& qm,
                                    std::size_t tensor_idx, double ber);

  /// Flip bit `bit` (0 = LSB .. 7 = MSB) of each code word independently
  /// with probability `rate` in [0,1].  Throws std::invalid_argument on a
  /// bit outside [0,7] or a NaN or out-of-range `rate`.
  InjectionReport inject_bit_position(ptq::QuantizedModel& qm, int bit,
                                      double rate);

 private:
  void corrupt_tensor_ber(ptq::QuantizedTensor& t, double ber,
                          InjectionReport& rep);
  void corrupt_tensor_bit(ptq::QuantizedTensor& t, int bit, double rate,
                          InjectionReport& rep);

  SplitMix64 rng_;
};

/// Deterministically derive an independent sub-seed from a campaign seed
/// and a point index (splitmix-style), so each sweep point gets its own
/// reproducible stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace mersit::fault
