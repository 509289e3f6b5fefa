// Batch quantization kernel for one 8-bit format.
//
// The generic path (Format::quantize) costs two codec() acquisitions plus a
// std::lower_bound over a 16-byte-stride Entry array per scalar — fine for
// building tables, far too slow for the PTQ hot loops that push every weight
// and activation element through it.  Following the LUT-driven posit-codec
// designs of Murillo et al. ("Template-Based Posit Multiplication") and Deep
// Positron (see PAPERS.md), QuantKernel precomputes, once per format:
//
//  * the candidate values (the zero code's, then the finite positive values
//    ascending) plus the rounding midpoints between neighbours (slot 0
//    holds the underflow boundary, so round-to-zero rides the same arrays);
//  * a bucketed float→candidate-index LUT keyed on the high bits (exponent +
//    top mantissa bits) of the positive double under encode.  Because IEEE
//    doubles order like their bit patterns, each bucket pins the RNE answer
//    down to at most a couple of candidates, so an encode is one table
//    lookup plus O(1) comparisons — no binary search, no virtual dispatch.
//
// All rounding decisions stay in the integer domain (index arithmetic and
// u8 code selects compile to conditional moves); the only data-dependent
// branches left are the short candidate scan and rare events (NaN/±0 input,
// exact midpoint ties).
//
// Batch dispatch: fake_quantize runs the loop of core::active_tier(), read
// per call — the one SIMD tier (MERSIT_BACKEND, else the widest the host
// executes; core/cpu.h) that the GEMM backends and quantize_levels run too,
// so a forced tier reaches every model forward's fake-quant as well:
//
//  * AVX-512 / AVX2 — vector loops with two bodies, one chosen per format
//    at construction (grid_body()):
//     - the uniform-grid body, when the codec's int8_grid() is usable (INT8
//       alone today): no table at all.  Per vector the floats widen to
//       double, multiply by (1/scale)/pitch, clamp to [-qmax, qmax] and
//       round to the nearest even level; NaN and ±0 levels become +0, and
//       the level is multiplied by pitch (exact) and then by scale in
//       double and narrowed to float once — the same product the
//       reference forms from the level's decoded value.  Nearest-value
//       ties-to-even-code rounding IS nearest-level ties-to-even-level
//       rounding on such a grid (the codec checks the code parities), so
//       no tie needs a redo;
//     - the table body, for every other format (8 lanes): the bucket key
//       is computed as in pick_index, the bucket, both midpoints and the
//       candidate value are gathered, the two boundary compares become
//       mask adds, the sign is restored with a masked xor, and ±0 / NaN
//       lanes take the zero value through a blend.  A vector holding an
//       exact midpoint tie redoes its 8 lanes with the scalar
//       quantize_value.
//    Both bodies leave the tail to the scalar loop;
//  * scalar — quantize_value per element, for every format: the reference
//    the vector loops are tested against, and the only loop on other hosts.
//
// Tests and benches pin each loop by setting the tier (core::set_tier).
//
// The decode and negate tables stay in the format's TableCodec, which the
// kernel shares; Format::kernel() builds the kernel once per format, next to
// the codec.  The kernel is immutable after construction and safe for
// concurrent use from any number of threads.  Scale is a per-call parameter: the tables are
// scale-independent (the scalar reference divides by `scale` before the
// search and multiplies after), so one kernel serves every channel scale.
//
// Contract: every operation is bit-for-bit identical to the scalar reference
// path (fake_quantize_scalar / Format::quantize), including saturation,
// underflow, ties-to-even-code and NaN/±0/±inf handling.
// tests/formats/test_kernels.cpp enforces this exhaustively for every
// registered format.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "formats/format.h"

namespace mersit::formats::kernels {

class QuantKernel {
 public:
  /// Builds the search tables from the codec of the format named `name`
  /// and keeps a share of it.  Format::kernel() is the one caller.
  QuantKernel(std::string name, std::shared_ptr<const TableCodec> codec);

  [[nodiscard]] const std::string& format_name() const { return name_; }

  /// The format's code table this kernel searches.
  [[nodiscard]] const TableCodec& codec() const { return *codec_; }

  /// Bit-identical to fmt.encode(x).
  [[nodiscard]] std::uint8_t encode(double x) const {
    // !(|x| > 0) catches +0, -0 and NaN in one (rarely taken) branch; the
    // sign selection below compiles to a conditional move, so the 50/50
    // sign of real tensor data costs no branch misprediction.
    const double mag = std::fabs(x);
    if (!(mag > 0.0)) return zero_code_;
    const std::uint8_t pos = encode_magnitude(mag);
    const std::uint8_t neg = codec_->negate(pos);
    return x < 0.0 ? neg : pos;
  }

  /// Bit-identical to fmt.decode_value(code) (as cached by TableCodec).
  [[nodiscard]] double decode(std::uint8_t code) const { return codec_->decode(code); }

  /// Bit-identical to fmt.quantize(x).
  [[nodiscard]] double quantize(double x) const { return decode(encode(x)); }

  /// Value-direct twin of quantize(): skips the code/negate table hops the
  /// batch loops don't need (one candidate-value load instead of three
  /// dependent byte-table loads).  The sign restore is pure integer ALU:
  /// nonzero magnitudes take m's sign bit — exact, because the constructor
  /// verifies decode(negate(c)) is the bitwise negation of decode(c) —
  /// while zero results keep the zero code's own sign, exactly like the
  /// scalar negate table (zero codes are their own negation).
  [[nodiscard]] double quantize_value(double m) const {
    const double mag = std::fabs(m);
    if (!(mag > 0.0)) return zero_value_;  // ±0 and NaN → zero code
    const double q = cand_value_[pick_index(mag)];
    const std::uint64_t sign = std::bit_cast<std::uint64_t>(m) & (1ull << 63);
    const std::uint64_t qb = std::bit_cast<std::uint64_t>(q);
    const auto nonzero = static_cast<std::uint64_t>((qb << 1) != 0);
    return std::bit_cast<double>(qb ^ (sign & (0 - nonzero)));
  }

  /// True when the vector loops run the uniform-grid body instead of the
  /// table body: the codec's int8_grid() is usable.
  [[nodiscard]] bool grid_body() const { return grid_body_; }

  /// In-place batched fake quantization through the active tier's loop;
  /// bit-identical to the scalar reference loop (fake_quantize_scalar).
  void fake_quantize(std::span<float> data, double scale) const;

  /// Batched RMSE between `data` and its fake-quantized image; identical
  /// accumulation order (hence bit-identical result) to the scalar path.
  [[nodiscard]] double quantization_rmse(std::span<const float> data,
                                         double scale) const;

 private:
  friend struct QuantKernelLoops;  // the loop bodies, in quant_kernel.cpp

  /// Candidate index for a positive magnitude (caller filtered ±0/NaN):
  /// slot 0 is the zero code, slot k+1 is positive value k.  The constructor
  /// refines the bucket LUT until each bucket holds at most one representable
  /// value, so at most two rounding boundaries (mid_[lo] and mid_[lo+1]) can
  /// fall inside it and counting the boundaries at or below x IS the answer
  /// — two independent compares, no scan, no data-dependent branch.
  /// Underflow and saturation need no dedicated branches either: out-of-range
  /// keys clamp onto the end buckets, whose sentinel midpoints (underflow
  /// boundary below, NaN above) steer the same arithmetic to the zero / min /
  /// max code, and ±inf saturates the same way.
  [[nodiscard]] std::size_t pick_index(double x) const {
    std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> shift_;
    key = key > key_base_ ? key - key_base_ : 0;
    key = key < key_top_ ? key : key_top_;
    const std::size_t lo = bucket_[key];
    const double* mids = mid_.data() + lo;
    const double m0 = mids[0];
    const double m1 = mids[1];
    // Candidate slot lo is the value below this bucket; each boundary x has
    // passed moves the pick up one value.
    const std::size_t pick = lo + static_cast<std::size_t>(x >= m0) +
                             static_cast<std::size_t>(x >= m1);
    // Exact value hits need no special case (a value sits strictly between
    // its boundaries); only exact midpoint ties leave the common path, to
    // the even-code rule.
    if ((x == m0) | (x == m1)) [[unlikely]]
      return tie_pick(lo + static_cast<std::size_t>(x == m1));
    return pick;
  }

  [[nodiscard]] std::uint8_t encode_magnitude(double x) const {
    return cand_code_[pick_index(x)];
  }

  /// Candidate index the even-code rule picks for a magnitude exactly on
  /// boundary mid_[j] (the tie between candidate slots j and j+1).
  [[nodiscard]] std::size_t tie_pick(std::size_t j) const {
    if (j == 0) return under_tie_code_ == zero_code_ ? 0 : 1;
    return (cand_code_[j] & 1u) == 0 ? j : j + 1;
  }

  std::string name_;
  std::shared_ptr<const TableCodec> codec_;
  std::uint8_t zero_code_ = 0;

  // Over the codec's n finite positive values p[0..n-1], ascending: mid_[j]
  // is the lower rounding boundary of value j, 0.5 * (p[j-1] + p[j]) for
  // 1 <= j < n (the exact expression the scalar reference evaluates);
  // mid_[0] is the underflow boundary — p[0] / 2 when the format rounds
  // small magnitudes to zero, or an unreachable -1 when it clamps up (posit
  // semantics) — and mid_[n] is a NaN sentinel (compares false against
  // everything, so the pick arithmetic saturates at the top value).
  // cand_code_[0] is the zero code; cand_code_[k+1] is the code of p[k].
  std::vector<double> mid_;
  std::vector<std::uint8_t> cand_code_;
  std::vector<double> cand_value_;  // decode(cand_code_[k]), same slots

  std::uint8_t under_tie_code_ = 0;  // even-code winner of an exact tie
  double zero_value_ = 0.0;          // decode(zero_code_) (keeps ±0 sign)

  // Bucket LUT: for positive x, key(x) = clamp((bits(x) >> shift_) -
  // key_base_, 0, key_top_) maps to the index of the first positive value >=
  // the bucket's start.  shift_ starts at 46 (exponent + 6 mantissa bits per
  // key) and the constructor lowers it until every bucket holds at most one
  // representable value — the precondition for the two-compare pick above.
  // 32-bit entries, so the vector loops gather them directly.
  int shift_ = 46;
  std::uint64_t key_base_ = 0;
  std::uint64_t key_top_ = 0;
  std::vector<std::uint32_t> bucket_;

  bool grid_body_ = false;
};

}  // namespace mersit::formats::kernels
