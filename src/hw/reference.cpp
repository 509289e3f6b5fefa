#include "hw/reference.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace mersit::hw {

DecodedFields decode_fields(const formats::ExponentCodedFormat& fmt,
                            const DecoderSpec& spec, std::uint8_t code) {
  const formats::Decoded d = fmt.decode(code);
  DecodedFields f;
  f.sign = d.sign;
  if (d.cls != formats::ValueClass::kFinite) {
    f.special = true;
    return f;
  }
  const int maxfb = spec.m - 1;
  f.exp_eff = d.exponent;
  f.frac_eff = (1u << maxfb) | (d.fraction << (maxfb - d.frac_bits));
  return f;
}

MacReference::MacReference(const formats::ExponentCodedFormat& fmt, int v_margin)
    : cfg_(mac_config(fmt, v_margin)) {
  if (cfg_.acc_width > kMaxAccWidth)  // the register and 2^width are int64
    throw std::invalid_argument(
        "MacReference: " + fmt.name() + " needs a " +
        std::to_string(cfg_.acc_width) + "-bit accumulator; the model holds " +
        std::to_string(kMaxAccWidth));
  auto fields = std::make_shared<FieldTable>();
  for (int c = 0; c < 256; ++c)
    (*fields)[static_cast<std::size_t>(c)] =
        decode_fields(fmt, cfg_.spec, static_cast<std::uint8_t>(c));
  fields_ = std::move(fields);
}

void MacReference::accumulate(std::uint8_t w_code, std::uint8_t a_code) {
  const DecodedFields& w = (*fields_)[w_code];
  const DecodedFields& a = (*fields_)[a_code];
  if (w.special || a.special) return;  // zero contribution
  const int m = cfg_.spec.m;
  const std::int64_t prod =
      static_cast<std::int64_t>(w.frac_eff) * static_cast<std::int64_t>(a.frac_eff);
  // Product value = prod * 2^(exp_sum - (2m-2)); accumulator unit 2^(2*emin).
  const int shift = (w.exp_eff + a.exp_eff - 2 * cfg_.spec.emin) - (2 * m - 2);
  std::int64_t term;
  if (shift >= 0) {
    term = prod << shift;
  } else {
    // Low bits are provably zero for representable products.
    assert((prod & ((1ll << -shift) - 1)) == 0);
    term = prod >> -shift;
  }
  acc_ += w.sign != a.sign ? -term : term;
  const std::int64_t lim = 1ll << (cfg_.acc_width - 1);
  if (acc_ >= lim || acc_ < -lim) {
    overflowed_ = true;
    // Wrap exactly as the hardware register does.
    const std::int64_t mask = (1ll << cfg_.acc_width) - 1;
    const std::int64_t wrapped = acc_ & mask;
    acc_ = wrapped >= lim ? wrapped - (1ll << cfg_.acc_width) : wrapped;
  }
}

double MacReference::value() const {
  return std::ldexp(static_cast<double>(acc_), 2 * cfg_.spec.emin);
}

double kulisch_dot(const formats::ExponentCodedFormat& fmt,
                   std::span<const std::uint8_t> w,
                   std::span<const std::uint8_t> a, int v_margin) {
  if (w.size() != a.size())
    throw std::invalid_argument("kulisch_dot: length mismatch");
  MacReference ref(fmt, v_margin);
  for (std::size_t i = 0; i < w.size(); ++i) ref.accumulate(w[i], a[i]);
  if (ref.overflowed())
    throw std::overflow_error("kulisch_dot: accumulator overflow (raise v_margin)");
  return ref.value();
}

}  // namespace mersit::hw
