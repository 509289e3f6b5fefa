// Abstract interface for an 8-bit data format, plus the generic table-based
// round-to-nearest-even codec used for encoding.
//
// Every format under study decodes each of its 256 code words to a real value
// (or zero / inf / NaN).  Encoding is performed uniformly through TableCodec:
// the finite positive values are enumerated, sorted, and a nearest-value
// search with ties-to-even-code implements round-to-nearest-even for all of
// FP8 / Posit8 / MERSIT8 / INT8 (adjacent codes always differ in the code
// LSB, so "even code" coincides with IEEE/Posit RNE tie breaking).
//
// Two behavioural knobs distinguish the format families in a PTQ setting:
//  * underflow: IEEE-style formats (FP8, INT8) round tiny values to zero;
//    Posit-family formats (Posit, MERSIT) never underflow — the smallest
//    representable magnitude is returned instead (Posit standard semantics).
//  * overflow: in PTQ we never generate inf; all formats saturate to the
//    largest finite value (again Posit-standard semantics, and the usual
//    convention for quantized inference).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "formats/decoded.h"

namespace mersit::formats {

class TableCodec;
namespace kernels {
class QuantKernel;
}

/// Base class for all 8-bit formats.
///
/// Decode contract (relied upon by the fault-injection campaigns, which
/// feed arbitrary corrupted code words through these methods):
///  * decode_value() and classify() are total over all 256 codes — no UB,
///    no throw, for any input byte;
///  * classify() agrees with decode_value(): kZero <=> value == +/-0,
///    kFinite <=> finite non-zero, kInf <=> +/-infinity (including the
///    Posit/MERSIT NaR sentinel), kNaN <=> NaN (FP8 NaN payloads and codes
///    excluded from a format's value set, e.g. INT8 0x80);
///  * every kFinite code round-trips: encode(decode_value(c)) yields a code
///    with the same decoded value (codes themselves may alias only if two
///    codes decode to the same value);
///  * reserved / non-finite codes map to the defined sentinels above, never
///    to garbage — formats::decode_with_policy (corruption.h) builds on
///    this to give campaigns a finite-only view.
/// tests/formats/test_decode_contract.cpp enforces all of this for every
/// registered format.
class Format {
 public:
  virtual ~Format();

  /// Display name, e.g. "FP(8,4)", "Posit(8,1)", "MERSIT(8,2)", "INT8".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Total number of bits in a code word (always 8 in this study).
  [[nodiscard]] virtual int bits() const { return 8; }

  /// Real value represented by `code` (total: defined for all 256 codes;
  /// non-finite codes decode to +/-inf or NaN, see the class contract).
  [[nodiscard]] virtual double decode_value(std::uint8_t code) const = 0;

  /// Class of the value represented by `code` (total over all 256 codes).
  [[nodiscard]] virtual ValueClass classify(std::uint8_t code) const = 0;

  /// True when values below the smallest magnitude round to zero
  /// (IEEE-style); false for Posit-family no-underflow semantics.
  [[nodiscard]] virtual bool underflows_to_zero() const = 0;

  /// The format's code table: every per-code fact (value, class, negate
  /// code, dyadic pair, int8 grid level).  Built lazily on first use of
  /// codec() or kernel(), together with the kernel.  Thread-safe:
  /// concurrent first calls build both exactly once (std::call_once), so a
  /// freshly constructed format may be handed straight to a worker pool.
  [[nodiscard]] const TableCodec& codec() const;

  /// The format's batch quant kernel, built with the codec.  Shared, and it
  /// holds the codec, so a holder may outlive this format object.
  [[nodiscard]] std::shared_ptr<const kernels::QuantKernel> kernel() const;

  /// Encode with round-to-nearest-even, saturating to the largest finite
  /// value; honours the format's underflow semantics.
  [[nodiscard]] std::uint8_t encode(double x) const;

  /// Round-trip a value through the format: decode(encode(x)).
  [[nodiscard]] double quantize(double x) const;

  /// Largest finite representable magnitude.
  [[nodiscard]] double max_finite() const;

  /// Smallest positive representable magnitude.
  [[nodiscard]] double min_positive() const;

  /// The magnitude the calibration maximum is mapped onto under the
  /// "sweet spot" scaling policy: 1.0 for exponent-coded formats (where
  /// precision is densest around unity), max_finite() for integer formats
  /// (which have no exponent sweet spot).
  [[nodiscard]] virtual double calibration_target() const { return 1.0; }

 protected:
  Format() = default;

 private:
  void build_tables() const;

  mutable std::once_flag tables_once_;
  // Both built under tables_once_; the kernel shares the codec.
  mutable std::shared_ptr<const TableCodec> codec_;
  mutable std::shared_ptr<const kernels::QuantKernel> kernel_;
};

/// Formats that decode into the exponent/fraction normal form.
class ExponentCodedFormat : public Format {
 public:
  /// Full field decoding of `code`.
  [[nodiscard]] virtual Decoded decode(std::uint8_t code) const = 0;

  [[nodiscard]] double decode_value(std::uint8_t code) const override;
  [[nodiscard]] ValueClass classify(std::uint8_t code) const override;

  /// Smallest effective exponent of any finite non-zero value.
  [[nodiscard]] int min_exponent() const;
  /// Largest effective exponent of any finite value.
  [[nodiscard]] int max_exponent() const;
  /// Largest fraction width over all finite codes.
  [[nodiscard]] int max_frac_bits() const;
};

/// Every per-code fact of one format, derived once from its decode.  Built
/// once per Format instance; the quantizers, the code books and the exact
/// Kulisch and int8 kernels all read it, so no other layer re-derives them.
class TableCodec {
 public:
  /// One finite positive representable value and its code.
  struct Entry {
    double value = 0.0;
    std::uint8_t code = 0;
  };

  /// The uniform-grid view.  Usable when rounding to the nearest value
  /// with ties to the even code is rounding to the nearest int8 level with
  /// ties to the even level, so the SIMD level quantizer and the integer
  /// GEMM reproduce the codec bit for bit:
  ///   - the positive values are exactly pitch·{1..qmax}, qmax <= 127, so
  ///     nearest value == nearest level;
  ///   - pitch is a power of two, so the midpoints pitch·(l+0.5) are exact
  ///     doubles and dividing by the pitch commutes with double rounding;
  ///   - each positive level's code has the level's parity, so "even code"
  ///     is "even level" (level 1's code is then odd, and the underflow tie
  ///     at pitch/2 rounds to zero, RNE's choice);
  ///   - magnitudes below pitch/2 round to zero (underflows_to_zero), and
  ///     the zero code decodes to +0.0;
  ///   - every finite value is pitch·l with |l| <= qmax.
  /// INT8 is the one registered format that qualifies; MERSIT, posit and
  /// FP8 grids are non-uniform.
  struct Int8Grid {
    bool usable = false;
    double pitch = 0.0;
    int qmax = 0;  ///< levels span [-qmax, qmax]
    /// decode(c) / pitch for finite codes, 0 for non-finite codes (and for
    /// every code when unusable).
    std::int8_t level[256] = {};
  };

  TableCodec(const Format& fmt, bool underflows_to_zero);

  /// RNE encode of any real (NaN encodes to the zero code).
  [[nodiscard]] std::uint8_t encode(double x) const;

  /// Value of a code (from the owning format's decode).
  [[nodiscard]] double decode(std::uint8_t code) const { return values_[code]; }

  /// Class of a code (from the owning format's classify).
  [[nodiscard]] ValueClass classify(std::uint8_t code) const { return class_[code]; }

  /// True when the code decodes to a finite double (zero or finite class).
  [[nodiscard]] bool finite(std::uint8_t code) const {
    return class_[code] == ValueClass::kZero || class_[code] == ValueClass::kFinite;
  }

  [[nodiscard]] double max_finite() const { return positives_.back().value; }
  [[nodiscard]] double min_positive() const { return positives_.front().value; }
  [[nodiscard]] std::uint8_t zero_code() const { return zero_code_; }
  [[nodiscard]] bool underflows_to_zero() const { return underflows_to_zero_; }

  /// Code of the equal-magnitude opposite-sign value (identity for codes
  /// outside the finite-positive set).  Exposed so the batch kernels
  /// (formats/kernels) can reuse the sign-symmetry mapping.
  [[nodiscard]] std::uint8_t negate(std::uint8_t code) const { return negate_[code]; }

  /// All finite positive values, ascending.
  [[nodiscard]] const std::vector<Entry>& positives() const { return positives_; }

  /// Number of finite positive representable values.
  [[nodiscard]] std::size_t cardinality() const { return positives_.size(); }

  /// Exact dyadic pair of every finite code: decode(c) == mant[c]·2^exp[c],
  /// mant odd (0 for zero codes), |mant| < 2^30.  Non-finite codes hold
  /// (0, 0); callers keep such codes away from an accumulator.
  /// mant[w]·mant[a]·2^(exp[w]+exp[a]) is hw::MacReference's product.
  [[nodiscard]] const std::int64_t* dyadic_mant() const { return mant_; }
  [[nodiscard]] const int* dyadic_exp() const { return exp_; }
  /// False when some finite value has no such pair (the arrays are then
  /// not to be used).
  [[nodiscard]] bool dyadic_exact() const { return dyadic_exact_; }
  /// Smallest / largest exponent over the codes with mant != 0.
  [[nodiscard]] int dyadic_min_exp() const { return min_exp_; }
  [[nodiscard]] int dyadic_max_exp() const { return max_exp_; }

  [[nodiscard]] const Int8Grid& int8_grid() const { return grid_; }

 private:
  /// Encode a positive magnitude (x > 0) to the code of the nearest value.
  [[nodiscard]] std::uint8_t encode_magnitude(double x) const;

  void build_dyadic();
  void build_int8_grid();

  std::vector<Entry> positives_;     // finite positive values, ascending
  double values_[256];               // full decode table
  ValueClass class_[256];            // full classify table
  std::uint8_t negate_[256];         // code of -value(code), per format
  std::uint8_t zero_code_ = 0;
  bool underflows_to_zero_ = false;

  std::int64_t mant_[256] = {};
  int exp_[256] = {};
  bool dyadic_exact_ = false;
  int min_exp_ = 0, max_exp_ = 0;

  Int8Grid grid_;
};

}  // namespace mersit::formats
