// Exhaustive three-way MAC exactness: for every format whose MAC netlist
// build_mac accepts and whose accumulator fits MacReference, all 65,536
// (weight, activation) code pairs ride the 64-lane gate-level simulator in
// 1,024 sweeps, and every lane's single product is checked against the
// integer reference model (MacReference) and against the format's code
// table, whose dyadic pairs mant_w·mant_a·2^(exp_w+exp_a) are the products
// the software Kulisch path (gemm::qgemm_kulisch) accumulates.  So the
// netlist, its reference model and the nn numerics agree on every pair, not
// only on end-of-stream sums (MacReplay) or sampled pairs (MacEquivalence).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "core/registry.h"
#include "hw/mac.h"
#include "hw/reference.h"
#include "rtl/sim.h"

namespace mersit::hw {
namespace {

constexpr int kLanes = rtl::Simulator::kLanes;
constexpr int kSweeps = 256 * 256 / kLanes;

TEST(MacExhaustive, EveryCodePairGatesEqualReferenceEqualTable) {
  std::set<std::string> covered;
  for (const std::string& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(fmt.get());
    if (ef == nullptr) continue;
    if (mac_config(*ef).acc_width > MacReference::kMaxAccWidth) continue;
    rtl::Netlist nl;
    MacPorts mac;
    try {
      mac = build_mac(nl, *fmt);
    } catch (const std::invalid_argument&) {
      continue;  // no hardware decoder for this family
    }
    SCOPED_TRACE(name);
    covered.insert(name);
    rtl::Simulator sim(nl);
    MacReference ref(*ef);
    const int base = 2 * ref.config().spec.emin;  // accumulator LSB exponent
    const formats::TableCodec& table = fmt->codec();
    const std::int64_t* mant = table.dyadic_mant();
    const int* exp = table.dyadic_exp();
    ASSERT_TRUE(table.dyadic_exact());

    int mismatches = 0;
    std::array<std::uint64_t, kLanes> w_lanes{}, a_lanes{};
    for (int s = 0; s < kSweeps; ++s) {
      // Pair i = s*64 + lane is (w, a) = (i >> 8, i & 255).
      for (int l = 0; l < kLanes; ++l) {
        const int i = s * kLanes + l;
        w_lanes[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(i >> 8);
        a_lanes[static_cast<std::size_t>(l)] = static_cast<std::uint64_t>(i & 255);
      }
      // Each sweep starts from a zero accumulator, so a lane's register
      // holds its one product.
      sim.reset();
      sim.set_input_bus_lanes(mac.wdec.code, w_lanes);
      sim.set_input_bus_lanes(mac.adec.code, a_lanes);
      sim.eval();
      sim.clock();
      for (int l = 0; l < kLanes; ++l) {
        const auto w = static_cast<std::uint8_t>(w_lanes[static_cast<std::size_t>(l)]);
        const auto a = static_cast<std::uint8_t>(a_lanes[static_cast<std::size_t>(l)]);
        const std::int64_t gates = sim.get_bus_signed_lane(mac.acc, l);
        ref.reset();
        ref.accumulate(w, a);
        std::int64_t want = 0;  // special codes contribute nothing
        if (table.finite(w) && table.finite(a)) {
          const int shift = exp[w] + exp[a] - base;
          ASSERT_GE(shift, 0) << "codes " << int(w) << "," << int(a);
          ASSERT_LT(shift, 62) << "codes " << int(w) << "," << int(a);
          want = mant[w] * mant[a] * (std::int64_t{1} << shift);
        }
        if (gates != want || ref.acc_raw() != want || ref.overflowed()) {
          if (mismatches == 0)
            ADD_FAILURE() << "first mismatch at codes " << int(w) << "," << int(a)
                          << ": gates " << gates << ", reference " << ref.acc_raw()
                          << ", table " << want;
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0);
  }
  EXPECT_EQ(covered, (std::set<std::string>{"FP(8,2)", "FP(8,3)", "FP(8,4)",
                                            "Posit(8,0)", "Posit(8,1)",
                                            "MERSIT(8,2)", "MERSIT(8,3)"}));
}

}  // namespace
}  // namespace mersit::hw
