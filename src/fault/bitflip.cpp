#include "fault/bitflip.h"

#include <stdexcept>
#include <string>

namespace mersit::fault {

namespace {

void check_index(const ptq::QuantizedModel& qm, std::size_t tensor_idx) {
  if (tensor_idx >= qm.tensors.size())
    throw std::out_of_range("BitFlipInjector: tensor index " +
                            std::to_string(tensor_idx) + " out of range (" +
                            std::to_string(qm.tensors.size()) + " tensors)");
}

/// `!(p >= 0 && p <= 1)` also rejects NaN, which compares false both ways.
void check_probability(const char* what, double p) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(std::string("BitFlipInjector: ") + what + " " +
                                std::to_string(p) + " outside [0, 1]");
}

}  // namespace

InjectionReport BitFlipInjector::inject_ber(ptq::QuantizedModel& qm, double ber) {
  check_probability("ber", ber);
  InjectionReport rep;
  for (ptq::QuantizedTensor& t : qm.tensors) corrupt_tensor_ber(t, ber, rep);
  return rep;
}

InjectionReport BitFlipInjector::inject_ber_tensor(ptq::QuantizedModel& qm,
                                                   std::size_t tensor_idx,
                                                   double ber) {
  check_index(qm, tensor_idx);
  check_probability("ber", ber);
  InjectionReport rep;
  corrupt_tensor_ber(qm.tensors[tensor_idx], ber, rep);
  return rep;
}

InjectionReport BitFlipInjector::inject_bit_position(ptq::QuantizedModel& qm,
                                                     int bit, double rate) {
  if (bit < 0 || bit > 7)
    throw std::invalid_argument("BitFlipInjector: bit " + std::to_string(bit) +
                                " outside [0, 7]");
  check_probability("rate", rate);
  InjectionReport rep;
  for (ptq::QuantizedTensor& t : qm.tensors)
    corrupt_tensor_bit(t, bit, rate, rep);
  return rep;
}

void BitFlipInjector::corrupt_tensor_ber(ptq::QuantizedTensor& t, double ber,
                                         InjectionReport& rep) {
  rep.total_codes += t.codes.size();
  for (std::uint8_t& code : t.codes) {
    std::uint8_t mask = 0;
    for (int b = 0; b < 8; ++b)
      if (rng_.next_unit() < ber) mask |= static_cast<std::uint8_t>(1u << b);
    if (mask != 0) {
      code ^= mask;
      ++rep.codes_touched;
      rep.bits_flipped += static_cast<std::uint64_t>(__builtin_popcount(mask));
    }
  }
}

void BitFlipInjector::corrupt_tensor_bit(ptq::QuantizedTensor& t, int bit,
                                         double rate, InjectionReport& rep) {
  const auto mask = static_cast<std::uint8_t>(1u << bit);
  rep.total_codes += t.codes.size();
  for (std::uint8_t& code : t.codes) {
    if (rng_.next_unit() < rate) {
      code ^= mask;
      ++rep.codes_touched;
      ++rep.bits_flipped;
    }
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // Two rounds of the splitmix64 finalizer decorrelate (seed, index) pairs.
  SplitMix64 rng(seed ^ (index * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull));
  return rng.next();
}

}  // namespace mersit::fault
