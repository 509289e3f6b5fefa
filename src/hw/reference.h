// Bit-exact software reference models for the hardware blocks.
//
// These mirror the netlist semantics exactly (integer Kulisch accumulation,
// zero/inf codes contributing nothing) and are used to (a) verify the gate
// netlists code-for-code and cycle-for-cycle, and (b) run fast functional
// MAC simulations in the benches.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "formats/format.h"
#include "hw/mac.h"

namespace mersit::hw {

/// Multiplier-facing fields of one code word, as the decoder must emit them.
struct DecodedFields {
  bool sign = false;
  std::int32_t exp_eff = 0;     ///< effective exponent (0 for special codes)
  std::uint32_t frac_eff = 0;   ///< M bits incl hidden; 0 for special codes
  bool special = false;         ///< zero / inf / NaN
};

/// Software mirror of the hardware decoder for `fmt`.
[[nodiscard]] DecodedFields decode_fields(const formats::ExponentCodedFormat& fmt,
                                          const DecoderSpec& spec,
                                          std::uint8_t code);

/// Exact integer Kulisch MAC; accumulator units are 2^(2*emin).
///
/// The constructor decodes all 256 codes once into a DecodedFields table;
/// copies share that immutable table, so stamping out one reference per
/// lane from a prototype costs no decoding (and, unlike a cache keyed by
/// Format address, stays correct when a Format is freed and its address
/// reused).
class MacReference {
 public:
  /// Widest accumulator (W + V bits) the int64 model can hold and wrap;
  /// the constructor throws std::invalid_argument above it.
  static constexpr int kMaxAccWidth = 62;

  explicit MacReference(const formats::ExponentCodedFormat& fmt, int v_margin = 6);

  /// One MAC step: acc += value(w_code) * value(a_code), exactly.
  void accumulate(std::uint8_t w_code, std::uint8_t a_code);

  void reset() { acc_ = 0; }

  /// Accumulator in units of 2^(2*emin).
  [[nodiscard]] std::int64_t acc_raw() const { return acc_; }
  /// Accumulated real value.
  [[nodiscard]] double value() const;
  /// True once the accumulator exceeded its W+V two's-complement range.
  [[nodiscard]] bool overflowed() const { return overflowed_; }

  [[nodiscard]] const MacConfig& config() const { return cfg_; }

 private:
  using FieldTable = std::array<DecodedFields, 256>;

  MacConfig cfg_;
  std::shared_ptr<const FieldTable> fields_;  // decode_fields() of every code
  std::int64_t acc_ = 0;
  bool overflowed_ = false;
};

/// Exact dot product of two quantized code vectors through the Kulisch
/// accumulator model: sum_i value(w[i]) * value(a[i]) with no rounding.
/// `v_margin` must provide log2(n)+2 headroom bits; throws on overflow.
[[nodiscard]] double kulisch_dot(const formats::ExponentCodedFormat& fmt,
                                 std::span<const std::uint8_t> w,
                                 std::span<const std::uint8_t> a,
                                 int v_margin = 14);

}  // namespace mersit::hw
