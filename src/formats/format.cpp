#include "formats/format.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

#include "formats/kernels/quant_kernel.h"

namespace mersit::formats {

Format::~Format() = default;

void Format::build_tables() const {
  std::call_once(tables_once_, [this] {
    codec_ = std::make_shared<const TableCodec>(*this, underflows_to_zero());
    kernel_ = std::make_shared<const kernels::QuantKernel>(name(), codec_);
  });
}

const TableCodec& Format::codec() const {
  build_tables();
  return *codec_;
}

std::shared_ptr<const kernels::QuantKernel> Format::kernel() const {
  build_tables();
  return kernel_;
}

std::uint8_t Format::encode(double x) const { return codec().encode(x); }

double Format::quantize(double x) const { return codec().decode(codec().encode(x)); }

double Format::max_finite() const { return codec().max_finite(); }

double Format::min_positive() const { return codec().min_positive(); }

double ExponentCodedFormat::decode_value(std::uint8_t code) const {
  return decode(code).value();
}

ValueClass ExponentCodedFormat::classify(std::uint8_t code) const {
  return decode(code).cls;
}

int ExponentCodedFormat::min_exponent() const {
  int mn = std::numeric_limits<int>::max();
  for (int c = 0; c < 256; ++c) {
    const Decoded d = decode(static_cast<std::uint8_t>(c));
    if (d.cls == ValueClass::kFinite) mn = std::min(mn, d.exponent);
  }
  return mn;
}

int ExponentCodedFormat::max_exponent() const {
  int mx = std::numeric_limits<int>::min();
  for (int c = 0; c < 256; ++c) {
    const Decoded d = decode(static_cast<std::uint8_t>(c));
    if (d.cls == ValueClass::kFinite) mx = std::max(mx, d.exponent);
  }
  return mx;
}

int ExponentCodedFormat::max_frac_bits() const {
  int mx = 0;
  for (int c = 0; c < 256; ++c) {
    const Decoded d = decode(static_cast<std::uint8_t>(c));
    if (d.cls == ValueClass::kFinite) mx = std::max(mx, d.frac_bits);
  }
  return mx;
}

TableCodec::TableCodec(const Format& fmt, bool underflows_to_zero)
    : underflows_to_zero_(underflows_to_zero) {
  std::map<double, std::uint8_t> neg_by_value;
  bool have_zero = false;
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    const double v = fmt.decode_value(code);
    values_[c] = v;
    class_[c] = fmt.classify(code);
    negate_[c] = code;
    switch (class_[c]) {
      case ValueClass::kZero:
        if (!have_zero) {
          zero_code_ = code;
          have_zero = true;
        }
        break;
      case ValueClass::kFinite:
        if (v > 0.0) {
          positives_.push_back({v, code});
        } else {
          if (neg_by_value.count(v) != 0)
            throw std::logic_error(fmt.name() + ": duplicate negative value");
          neg_by_value.emplace(v, code);
        }
        break;
      case ValueClass::kInf:
      case ValueClass::kNaN:
        break;  // never produced by PTQ encoding
    }
  }
  if (!have_zero) throw std::logic_error(fmt.name() + ": no zero code");
  if (positives_.empty()) throw std::logic_error(fmt.name() + ": no finite values");

  std::sort(positives_.begin(), positives_.end(),
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  for (std::size_t i = 1; i < positives_.size(); ++i) {
    if (positives_[i].value == positives_[i - 1].value)
      throw std::logic_error(fmt.name() + ": duplicate positive value");
  }
  // The formats under study are sign-symmetric; map each positive code to the
  // code of the equal-magnitude negative so negative encodes reuse the
  // positive search.
  for (const Entry& e : positives_) {
    const auto it = neg_by_value.find(-e.value);
    if (it == neg_by_value.end())
      throw std::logic_error(fmt.name() + ": value set is not sign-symmetric");
    negate_[e.code] = it->second;
  }
  build_dyadic();
  build_int8_grid();
}

namespace {

/// v -> (mant, exp) with v == mant · 2^exp exactly, mant odd (0 for zero).
/// Returns false for non-finite v or |mant| >= 2^30.
bool dyadic_pair(double v, std::int64_t& mant, int& exp) {
  if (v == 0.0) {
    mant = 0;
    exp = 0;
    return true;
  }
  if (!std::isfinite(v)) return false;
  int e = 0;
  const double frac = std::frexp(v, &e);      // v = frac · 2^e, |frac| ∈ [0.5, 1)
  const double scaled = std::ldexp(frac, 53);  // integer: |scaled| ∈ (2^52, 2^53]
  std::int64_t m = static_cast<std::int64_t>(std::llround(scaled));
  int x = e - 53;
  while ((m & 1) == 0) {
    m >>= 1;
    ++x;
  }
  if (m >= (std::int64_t{1} << 30) || m <= -(std::int64_t{1} << 30)) return false;
  mant = m;
  exp = x;
  return std::ldexp(static_cast<double>(m), x) == v;
}

}  // namespace

void TableCodec::build_dyadic() {
  bool any = false;
  for (int c = 0; c < 256; ++c) {
    if (!finite(static_cast<std::uint8_t>(c))) continue;  // stays (0, 0)
    if (!dyadic_pair(values_[c], mant_[c], exp_[c])) return;  // not exact
    if (mant_[c] == 0) continue;
    min_exp_ = any ? std::min(min_exp_, exp_[c]) : exp_[c];
    max_exp_ = any ? std::max(max_exp_, exp_[c]) : exp_[c];
    any = true;
  }
  dyadic_exact_ = true;
}

void TableCodec::build_int8_grid() {
  if (!underflows_to_zero_) return;
  if (std::bit_cast<std::uint64_t>(values_[zero_code_]) != 0) return;
  if (positives_.size() > 127) return;  // levels must fit int8
  const double pitch = positives_.front().value;
  int e = 0;
  if (std::frexp(pitch, &e) != 0.5) return;  // power-of-two pitch only
  for (std::size_t i = 0; i < positives_.size(); ++i) {
    if (positives_[i].value != pitch * static_cast<double>(i + 1)) return;
    if ((positives_[i].code & 1u) != ((i + 1) & 1u)) return;
  }
  const auto qmax = static_cast<double>(positives_.size());
  Int8Grid g;
  for (int c = 0; c < 256; ++c) {
    if (!finite(static_cast<std::uint8_t>(c))) continue;
    const double l = values_[c] / pitch;  // exact: power-of-two pitch
    if (l != std::trunc(l) || std::fabs(l) > qmax) return;
    g.level[c] = static_cast<std::int8_t>(l);
  }
  g.usable = true;
  g.pitch = pitch;
  g.qmax = static_cast<int>(positives_.size());
  grid_ = g;
}

std::uint8_t TableCodec::encode_magnitude(double x) const {
  assert(x > 0.0);
  if (x >= positives_.back().value) return positives_.back().code;  // saturate
  if (x <= positives_.front().value) {
    if (!underflows_to_zero_) return positives_.front().code;
    // RNE between 0 and min_positive: ties (exactly half) go to the code with
    // even LSB; zero codes are even in all our formats (0x00/0x3F... checked
    // dynamically below via code parity of min_positive).
    const Entry& lo = positives_.front();
    const double half = lo.value * 0.5;
    if (x < half) return zero_code_;
    if (x > half) return lo.code;
    return (lo.code & 1u) == 0 ? lo.code : zero_code_;
  }
  // Binary search for the first entry >= x.
  const auto it = std::lower_bound(
      positives_.begin(), positives_.end(), x,
      [](const Entry& e, double v) { return e.value < v; });
  const Entry& hi = *it;
  const Entry& lo = *(it - 1);
  if (hi.value == x) return hi.code;
  const double mid = 0.5 * (lo.value + hi.value);
  if (x < mid) return lo.code;
  if (x > mid) return hi.code;
  return (lo.code & 1u) == 0 ? lo.code : hi.code;  // tie: even code wins
}

std::uint8_t TableCodec::encode(double x) const {
  if (std::isnan(x) || x == 0.0) return zero_code_;
  if (x > 0.0) return encode_magnitude(x);
  return negate_[encode_magnitude(-x)];
}

}  // namespace mersit::formats
