// Golden tests for the bit-parallel 64-wide simulator (rtl/sim.h).
//
// The compiled evaluator (levelised op program, DFF-cone re-settle) is
// checked against ReferenceSim below: the plain in-order evaluator it
// replaced, one switch per gate in construction order and a full re-settle
// after every clock edge.  Every net word, the toggle total and the
// per-group switching energy must match bitwise after every eval() and
// clock(), under random streams, per-lane faults, inputs driven with no
// eval() before the clock, and a lane-count shrink mid-stream.
//
// The load-bearing contract: a 64-lane batched run is bit-identical —
// output values AND toggle counts — to the 64 scalar runs it replaces, on
// every registered format's decoder and MAC netlist, under random
// stimulus.  The power model (hw/power.h) and the fault campaigns
// (fault/campaign.cpp) both lean on this identity, so it is pinned here
// rather than assumed.
//
// FaultPlan semantics (fault.h) are pinned on hand-built netlists where
// every expected level can be derived by eye: stuck-at overrides the
// driven value, a transient flips exactly one cycle on primary inputs and
// internal nets alike, an empty plan is bit-identical to no plan, and
// per-lane plans (set_fault_plans) make each lane match the scalar run
// that installs its plan alone.
#include "rtl/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "hw/decoder.h"
#include "hw/mac.h"
#include "rtl/cells.h"
#include "rtl/fault.h"
#include "rtl/netlist.h"

namespace mersit {
namespace {

constexpr int kLanes = rtl::Simulator::kLanes;

/// Every registered format with a hardware decoder (INT8 and the
/// two's-complement standard posits have none and throw).
std::vector<std::shared_ptr<const formats::Format>> decodable_formats() {
  std::vector<std::shared_ptr<const formats::Format>> out;
  for (const auto& name : core::all_format_names()) {
    auto fmt = core::make_format(name);
    rtl::Netlist probe;
    try {
      (void)hw::build_decoder(probe, *fmt);
    } catch (const std::invalid_argument&) {
      continue;
    }
    out.push_back(std::move(fmt));
  }
  return out;
}

std::uint64_t summed_toggles(const std::vector<rtl::Simulator>& sims) {
  std::uint64_t sum = 0;
  for (const auto& s : sims) sum += s.total_toggles();
  return sum;
}

/// The oracle: an uncompiled in-order evaluator with the Simulator's
/// semantics.  eval() switches on cell type per gate in construction order;
/// clock() latches every DFF and re-settles the whole netlist.
class ReferenceSim {
 public:
  explicit ReferenceSim(const rtl::Netlist& nl)
      : nl_(nl), value_(nl.net_count(), 0), toggles_(nl.gates().size(), 0),
        input_net_(nl.net_count(), 0) {
    for (const rtl::Gate& g : nl.gates())
      if (g.type == rtl::CellType::kInput) input_net_[g.out] = 1;
    eval();
    std::fill(toggles_.begin(), toggles_.end(), 0);
  }

  void set_lane_count(int lanes) {
    lane_mask_ = lanes == kLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  }
  void set_input_lanes(rtl::NetId net, std::uint64_t lanes) {
    value_[net] = has_faults_ ? faulted(net, lanes) : lanes;
  }
  void set_input_bus_lanes(const rtl::Bus& bus, std::span<const std::uint64_t> lv) {
    for (std::size_t i = 0; i < bus.size(); ++i) {
      std::uint64_t word = 0;
      for (std::size_t l = 0; l < lv.size(); ++l) word |= ((lv[l] >> i) & 1u) << l;
      set_input_lanes(bus[i], word);
    }
  }

  void eval() {
    for (const rtl::Gate& g : nl_.gates()) eval_gate(g);
  }
  void clock() {
    const auto& gates = nl_.gates();
    std::vector<std::uint64_t> sampled;
    for (const std::size_t idx : nl_.dff_gate_indices())
      sampled.push_back(value_[gates[idx].a]);
    ++cycle_;
    if (has_faults_) rebuild_transients();
    std::size_t i = 0;
    for (const std::size_t idx : nl_.dff_gate_indices())
      drive(idx, sampled[i++]);
    eval();
  }

  /// Lane L gets plans[L]; an empty span clears every plan.
  void set_fault_plans(std::span<const rtl::FaultPlan> plans) {
    for (std::size_t n = 0; n < flip_.size(); ++n)
      if (input_net_[n]) value_[n] ^= flip_[n];
    plans_.assign(plans.begin(), plans.end());
    has_faults_ = std::any_of(plans.begin(), plans.end(),
                              [](const rtl::FaultPlan& p) { return !p.empty(); });
    stuck_mask_.assign(nl_.net_count(), 0);
    stuck_val_.assign(nl_.net_count(), 0);
    flip_.assign(nl_.net_count(), 0);
    for (std::size_t l = 0; l < plans_.size(); ++l) {
      const std::uint64_t lane = std::uint64_t{1} << l;
      for (const auto& f : plans_[l].stuck) {
        stuck_mask_[f.net] |= lane;
        stuck_val_[f.net] = (stuck_val_[f.net] & ~lane) | (f.value ? lane : 0);
        value_[f.net] = (value_[f.net] & ~lane) | (f.value ? lane : 0);
      }
    }
    rebuild_transients();
  }

  [[nodiscard]] std::uint64_t get_lanes(rtl::NetId net) const { return value_[net]; }
  [[nodiscard]] std::uint64_t total_toggles() const {
    std::uint64_t t = 0;
    for (const auto n : toggles_) t += n;
    return t;
  }
  [[nodiscard]] std::vector<double> dynamic_energy_by_group_fj(
      const rtl::CellLibrary& lib) const {
    std::vector<double> by(nl_.group_names().size(), 0.0);
    for (std::size_t i = 0; i < nl_.gates().size(); ++i)
      by[nl_.gates()[i].group] += static_cast<double>(toggles_[i]) *
                                  lib.spec(nl_.gates()[i].type).switch_energy_fj;
    return by;
  }

 private:
  [[nodiscard]] std::uint64_t faulted(rtl::NetId net, std::uint64_t v) const {
    return ((v & ~stuck_mask_[net]) | stuck_val_[net]) ^ flip_[net];
  }
  void drive(std::size_t gate, std::uint64_t out) {
    const rtl::NetId net = nl_.gates()[gate].out;
    if (has_faults_) out = faulted(net, out);
    toggles_[gate] +=
        static_cast<std::uint64_t>(std::popcount((value_[net] ^ out) & lane_mask_));
    value_[net] = out;
  }
  void eval_gate(const rtl::Gate& g) {
    const auto v = [&](rtl::NetId n) { return value_[n]; };
    std::uint64_t out = 0;
    switch (g.type) {
      case rtl::CellType::kConst0: out = 0; break;
      case rtl::CellType::kConst1: out = ~std::uint64_t{0}; break;
      case rtl::CellType::kInput:
      case rtl::CellType::kDff: return;
      case rtl::CellType::kBuf: out = v(g.a); break;
      case rtl::CellType::kInv: out = ~v(g.a); break;
      case rtl::CellType::kAnd2: out = v(g.a) & v(g.b); break;
      case rtl::CellType::kOr2: out = v(g.a) | v(g.b); break;
      case rtl::CellType::kNand2: out = ~(v(g.a) & v(g.b)); break;
      case rtl::CellType::kNor2: out = ~(v(g.a) | v(g.b)); break;
      case rtl::CellType::kXor2: out = v(g.a) ^ v(g.b); break;
      case rtl::CellType::kXnor2: out = ~(v(g.a) ^ v(g.b)); break;
      case rtl::CellType::kMux2: out = (v(g.s) & v(g.b)) | (~v(g.s) & v(g.a)); break;
    }
    drive(static_cast<std::size_t>(&g - nl_.gates().data()), out);
  }
  void rebuild_transients() {
    std::vector<std::uint64_t> next(flip_.size(), 0);
    for (std::size_t l = 0; l < plans_.size(); ++l)
      for (const auto& t : plans_[l].transients)
        if (t.cycle == cycle_) next[t.net] ^= std::uint64_t{1} << l;
    for (std::size_t n = 0; n < flip_.size(); ++n)
      if (input_net_[n]) value_[n] ^= next[n] ^ flip_[n];
    flip_.swap(next);
  }

  const rtl::Netlist& nl_;
  std::uint64_t lane_mask_ = 1;
  std::vector<std::uint64_t> value_, toggles_;
  std::vector<std::uint8_t> input_net_;
  bool has_faults_ = false;
  std::uint64_t cycle_ = 0;
  std::vector<rtl::FaultPlan> plans_;
  std::vector<std::uint64_t> stuck_mask_, stuck_val_, flip_;
};

/// Every net word, the toggle total and the per-group energy, bitwise.
template <class Sim>
void expect_same_state(const rtl::Netlist& nl, const rtl::Simulator& sim,
                       const Sim& other, const std::string& when) {
  SCOPED_TRACE(when);
  for (rtl::NetId n = 0; n < nl.net_count(); ++n)
    ASSERT_EQ(sim.get_lanes(n), other.get_lanes(n)) << "net " << n;
  ASSERT_EQ(sim.total_toggles(), other.total_toggles());
  const rtl::CellLibrary& lib = rtl::CellLibrary::nangate45_like();
  ASSERT_EQ(sim.dynamic_energy_by_group_fj(lib), other.dynamic_energy_by_group_fj(lib));
}

/// Drive the compiled simulator and the oracle through one script over the
/// input `buses`, comparing them after every eval() and clock().
void run_contract(const rtl::Netlist& nl, const std::vector<rtl::Bus>& buses,
                  int lanes, std::uint64_t seed) {
  rtl::Simulator sim(nl);
  ReferenceSim ref(nl);
  expect_same_state(nl, sim, ref, "construction");
  sim.set_lane_count(lanes);
  ref.set_lane_count(lanes);
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> codes(static_cast<std::size_t>(lanes));
  int step = 0;
  const auto drive = [&] {
    for (const rtl::Bus& bus : buses) {
      for (auto& c : codes) c = rng();  // bits above the bus width are ignored
      sim.set_input_bus_lanes(bus, codes);
      ref.set_input_bus_lanes(bus, codes);
    }
  };
  const auto compare = [&](const char* what) {
    expect_same_state(nl, sim, ref, std::string(what) + " at step " + std::to_string(step));
    return !::testing::Test::HasFailure();
  };
  const auto cycle = [&] {
    ++step;
    drive();
    sim.eval();
    ref.eval();
    if (!compare("eval")) return false;
    sim.clock();
    ref.clock();
    return compare("clock");
  };

  for (int i = 0; i < 4; ++i)
    if (!cycle()) return;

  // Inputs driven, then a clock edge with no eval() in between.
  ++step;
  drive();
  sim.clock();
  ref.clock();
  if (!compare("clock without eval")) return;

  // Per-lane stuck-at and transient plans, over every kind of net.
  const auto& gates = nl.gates();
  std::vector<rtl::FaultPlan> plans(static_cast<std::size_t>(lanes));
  for (std::size_t l = 0; l < plans.size(); ++l) {
    const rtl::NetId net = gates[rng() % gates.size()].out;
    const std::uint64_t when = sim.cycle() + 1 + rng() % 4;
    if (l % 3 != 1) plans[l].stuck.push_back({net, (rng() & 1u) != 0});
    if (l % 3 != 0) plans[l].transients.push_back({when, gates[rng() % gates.size()].out});
  }
  sim.set_fault_plans(plans);
  ref.set_fault_plans(plans);
  if (!compare("fault plans installed")) return;
  for (int i = 0; i < 6; ++i)
    if (!cycle()) return;

  // Plans cleared, then a clock edge with no eval() in between.
  sim.clear_fault_plan();
  ref.set_fault_plans({});
  sim.clock();
  ref.clock();
  if (!compare("clock after clear_fault_plan")) return;
  for (int i = 0; i < 2; ++i)
    if (!cycle()) return;

  // The lane count shrinks partway through the stream.
  sim.set_lane_count(std::max(1, lanes / 2));
  ref.set_lane_count(std::max(1, lanes / 2));
  for (int i = 0; i < 3; ++i)
    if (!cycle()) return;
}

// --- compiled evaluator vs in-order reference --------------------------------

TEST(CompiledContract, DecodersMatchInOrderReference) {
  for (const auto& fmt : decodable_formats()) {
    rtl::Netlist nl;
    const hw::DecoderPorts d = hw::build_decoder(nl, *fmt);
    for (const int lanes : {1, 13, kLanes}) {
      SCOPED_TRACE(fmt->name() + " lanes " + std::to_string(lanes));
      run_contract(nl, {d.code}, lanes, 0xC0DE + static_cast<std::uint64_t>(lanes));
      if (HasFailure()) return;
    }
  }
}

TEST(CompiledContract, MacsMatchInOrderReference) {
  for (const auto& fmt : decodable_formats()) {
    rtl::Netlist nl;
    const hw::MacPorts mac = hw::build_mac(nl, *fmt);
    for (const int lanes : {1, 13, kLanes}) {
      SCOPED_TRACE(fmt->name() + " lanes " + std::to_string(lanes));
      run_contract(nl, {mac.wdec.code, mac.adec.code}, lanes,
                   0x3AC + static_cast<std::uint64_t>(lanes));
      if (HasFailure()) return;
    }
  }
}

TEST(CompiledContract, RandomNetlistsMatchInOrderReference) {
  // Random sequential graphs: every cell type, DFFs fed back from anywhere,
  // registers reaching gates through any input pin (mux selects included).
  constexpr rtl::CellType kTypes[] = {
      rtl::CellType::kBuf,  rtl::CellType::kInv,  rtl::CellType::kAnd2,
      rtl::CellType::kOr2,  rtl::CellType::kNand2, rtl::CellType::kNor2,
      rtl::CellType::kXor2, rtl::CellType::kXnor2, rtl::CellType::kMux2};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    rtl::Netlist nl;
    const rtl::Bus in = nl.input_bus("in", 1 + static_cast<int>(seed));
    std::vector<rtl::NetId> nets(in.begin(), in.end());
    nets.push_back(nl.constant(false));
    nets.push_back(nl.constant(true));
    std::vector<rtl::NetId> regs;
    for (int r = 0; r < 6; ++r) nets.push_back(regs.emplace_back(nl.dff_unbound()));
    const auto pick = [&] { return nets[rng() % nets.size()]; };
    for (int g = 0; g < 300; ++g) {
      const rtl::CellType t = kTypes[rng() % std::size(kTypes)];
      nets.push_back(t == rtl::CellType::kMux2 ? nl.mux2(pick(), pick(), pick())
                                               : nl.gate(t, pick(), pick()));
    }
    for (const rtl::NetId q : regs) nl.bind_dff(q, pick());
    for (const int lanes : {1, 13, kLanes}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " lanes " + std::to_string(lanes));
      run_contract(nl, {in}, lanes, seed * 100 + static_cast<std::uint64_t>(lanes));
      if (HasFailure()) return;
    }
  }
}

TEST(CompiledContract, ResetRestoresTheJustConstructedState) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  const std::vector<rtl::Bus> buses = {mac.wdec.code, mac.adec.code};

  rtl::Simulator used(nl);
  std::mt19937_64 rng(0x5E7u);
  std::vector<std::uint64_t> codes(kLanes);
  const auto drive = [&](std::initializer_list<rtl::Simulator*> sims) {
    for (const rtl::Bus& bus : buses) {
      for (auto& c : codes) c = rng();
      for (rtl::Simulator* s : sims) s->set_input_bus_lanes(bus, codes);
    }
  };
  // Dirty every piece of state: lanes, cycle, toggles, a live fault plan
  // with a transient still pending on a primary input.
  used.set_lane_count(13);
  rtl::FaultPlan plan;
  plan.stuck.push_back({mac.acc[0], true});
  plan.transients.push_back({9, mac.wdec.code[0]});
  used.set_fault_plan(plan);
  for (int i = 0; i < 5; ++i) {
    drive({&used});
    used.eval();
    used.clock();
  }
  drive({&used});  // left undriven into eval()
  used.reset();

  rtl::Simulator fresh(nl);
  EXPECT_EQ(used.lane_count(), fresh.lane_count());
  EXPECT_EQ(used.cycle(), fresh.cycle());
  expect_same_state(nl, used, fresh, "after reset");
  // Identical futures, including a clock with no eval() first.
  for (rtl::Simulator* s : {&used, &fresh}) s->set_lane_count(kLanes);
  for (int i = 0; i < 12 && !HasFailure(); ++i) {
    drive({&used, &fresh});
    if (i % 3 != 0)
      for (rtl::Simulator* s : {&used, &fresh}) s->eval();
    for (rtl::Simulator* s : {&used, &fresh}) s->clock();
    expect_same_state(nl, used, fresh, "cycle " + std::to_string(i));
  }
}

// --- scalar-vs-64-wide bit identity ----------------------------------------

TEST(LaneIdentity, DecoderValuesAndToggles) {
  for (const auto& fmt : decodable_formats()) {
    SCOPED_TRACE(fmt->name());
    rtl::Netlist nl;
    const hw::DecoderPorts d = hw::build_decoder(nl, *fmt);

    rtl::Simulator wide(nl);
    wide.set_lane_count(kLanes);
    std::vector<rtl::Simulator> scalar;
    scalar.reserve(kLanes);
    for (int l = 0; l < kLanes; ++l) scalar.emplace_back(nl);

    std::mt19937_64 rng(0xDEC0DEu);
    std::vector<std::uint64_t> codes(kLanes);
    for (int sweep = 0; sweep < 8; ++sweep) {
      for (auto& c : codes) c = rng() & 0xFFu;
      wide.set_input_bus_lanes(d.code, codes);
      wide.eval();
      for (int l = 0; l < kLanes; ++l) {
        rtl::Simulator& s = scalar[static_cast<std::size_t>(l)];
        s.set_input_bus(d.code, codes[static_cast<std::size_t>(l)]);
        s.eval();
        ASSERT_EQ(wide.get_lane(d.sign, l), s.get(d.sign)) << "lane " << l;
        ASSERT_EQ(wide.get_bus_signed_lane(d.exp_eff, l), s.get_bus_signed(d.exp_eff))
            << "lane " << l;
        ASSERT_EQ(wide.get_bus_lane(d.frac_eff, l), s.get_bus(d.frac_eff))
            << "lane " << l;
        ASSERT_EQ(wide.get_lane(d.is_special, l), s.get(d.is_special)) << "lane " << l;
      }
    }
    EXPECT_EQ(wide.total_toggles(), summed_toggles(scalar));
  }
}

TEST(LaneIdentity, MacValuesAndToggles) {
  for (const auto& fmt : decodable_formats()) {
    SCOPED_TRACE(fmt->name());
    rtl::Netlist nl;
    const hw::MacPorts mac = hw::build_mac(nl, *fmt);

    rtl::Simulator wide(nl);
    wide.set_lane_count(kLanes);
    std::vector<rtl::Simulator> scalar;
    scalar.reserve(kLanes);
    for (int l = 0; l < kLanes; ++l) scalar.emplace_back(nl);

    std::mt19937_64 rng(0xACCu);
    std::vector<std::uint64_t> w(kLanes), a(kLanes);
    for (int cycle = 0; cycle < 12; ++cycle) {
      for (auto& c : w) c = rng() & 0xFFu;
      for (auto& c : a) c = rng() & 0xFFu;
      wide.set_input_bus_lanes(mac.wdec.code, w);
      wide.set_input_bus_lanes(mac.adec.code, a);
      wide.eval();
      wide.clock();
      for (int l = 0; l < kLanes; ++l) {
        rtl::Simulator& s = scalar[static_cast<std::size_t>(l)];
        s.set_input_bus(mac.wdec.code, w[static_cast<std::size_t>(l)]);
        s.set_input_bus(mac.adec.code, a[static_cast<std::size_t>(l)]);
        s.eval();
        s.clock();
        // Bit-by-bit: Posit(8,3)'s Kulisch accumulator is wider than the
        // 64-bit get_bus_signed window.
        for (std::size_t q = 0; q < mac.acc.size(); ++q)
          ASSERT_EQ(wide.get_lane(mac.acc[q], l), s.get(mac.acc[q]))
              << "lane " << l << " cycle " << cycle << " acc bit " << q;
        ASSERT_EQ(wide.get_lane(mac.special_any, l), s.get(mac.special_any))
            << "lane " << l << " cycle " << cycle;
      }
    }
    EXPECT_EQ(wide.total_toggles(), summed_toggles(scalar));
  }
}

TEST(LaneIdentity, ScalarApiBroadcastsToEveryLane) {
  // The compat API drives all 64 lanes with one value: after a scalar
  // write, every lane of a wide simulator reads back the same word.
  const auto fmt = core::make_format("MERSIT(8,2)");
  rtl::Netlist nl;
  const hw::DecoderPorts d = hw::build_decoder(nl, *fmt);
  rtl::Simulator sim(nl);
  sim.set_lane_count(kLanes);
  sim.set_input_bus(d.code, 0x5A);
  sim.eval();
  const std::uint64_t lane0 = sim.get_bus_lane(d.frac_eff, 0);
  for (int l = 1; l < kLanes; ++l)
    ASSERT_EQ(sim.get_bus_lane(d.frac_eff, l), lane0) << "lane " << l;
}

// --- API bounds -------------------------------------------------------------

TEST(SimulatorApi, RejectsOutOfRangeArguments) {
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  (void)nl.inv(a);
  rtl::Simulator sim(nl);
  EXPECT_THROW(sim.set_lane_count(0), std::invalid_argument);
  EXPECT_THROW(sim.set_lane_count(kLanes + 1), std::invalid_argument);
  std::vector<rtl::FaultPlan> too_many(kLanes + 1);
  EXPECT_THROW(sim.set_fault_plans(too_many), std::invalid_argument);
  rtl::FaultPlan bad;
  bad.stuck.push_back({static_cast<rtl::NetId>(nl.net_count()), true});
  EXPECT_THROW(sim.set_fault_plan(bad), std::invalid_argument);
}

TEST(SimulatorApi, RejectsBusesWiderThan64Bits) {
  rtl::Netlist nl;
  const rtl::Bus wide = nl.input_bus("x", 65);
  rtl::Simulator sim(nl);
  const std::vector<std::uint64_t> lanes(kLanes, 1);
  EXPECT_THROW(sim.set_input_bus(wide, 1), std::invalid_argument);
  EXPECT_THROW(sim.set_input_bus_lanes(wide, lanes), std::invalid_argument);
  EXPECT_THROW((void)sim.get_bus_lane(wide, 0), std::invalid_argument);

  const rtl::Bus full(wide.begin(), wide.begin() + 64);
  sim.set_input_bus(full, ~std::uint64_t{0} - 2);
  EXPECT_EQ(sim.get_bus(full), ~std::uint64_t{0} - 2);
}

TEST(SimulatorApi, BusLanePackingKeepsLowBitsAndZeroesMissingLanes) {
  // Buses up to 8 bits pack through a bit transpose, wider ones through a
  // per-bit loop; both must give lane L the low bits of lane_values[L] and
  // every lane past lane_values.size() zero.
  rtl::Netlist nl;
  const rtl::Bus bus = nl.input_bus("x", 12);
  rtl::Simulator sim(nl);
  std::mt19937_64 rng(0xB05u);
  for (std::size_t width = 1; width <= bus.size(); ++width) {
    const rtl::Bus sub(bus.begin(), bus.begin() + static_cast<std::ptrdiff_t>(width));
    for (const std::size_t n : {0, 1, 7, 8, 9, 13, 63, 64}) {
      std::vector<std::uint64_t> values(n);
      for (auto& v : values) v = rng();
      sim.set_input_bus_lanes(sub, values);
      for (int l = 0; l < kLanes; ++l) {
        const std::size_t lane = static_cast<std::size_t>(l);
        const std::uint64_t want =
            lane < n ? values[lane] & ((std::uint64_t{1} << width) - 1) : 0;
        ASSERT_EQ(sim.get_bus_lane(sub, l), want)
            << "width " << width << " lanes " << n << " lane " << l;
      }
    }
  }
}

// --- FaultPlan semantics -----------------------------------------------------

TEST(FaultPlan, StuckAtOverridesDrivenValue) {
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  const rtl::NetId x = nl.inv(a);
  const rtl::NetId y = nl.inv(x);
  rtl::Simulator sim(nl);

  rtl::FaultPlan plan;
  plan.stuck.push_back({x, true});
  sim.set_fault_plan(plan);

  sim.set_input(a, true);  // drives x = 0, but the fault holds it at 1
  sim.eval();
  EXPECT_TRUE(sim.get(x));
  EXPECT_FALSE(sim.get(y));  // downstream logic sees the forced level
  sim.set_input(a, false);
  sim.eval();
  EXPECT_TRUE(sim.get(x));
  EXPECT_FALSE(sim.get(y));
}

TEST(FaultPlan, LastStuckAtForANetWins) {
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  const rtl::NetId x = nl.inv(a);
  rtl::Simulator sim(nl);

  rtl::FaultPlan plan;
  plan.stuck.push_back({x, true});
  plan.stuck.push_back({x, false});
  sim.set_fault_plan(plan);
  sim.set_input(a, false);  // drives x = 1, stuck-at-0 wins
  sim.eval();
  EXPECT_FALSE(sim.get(x));
}

TEST(FaultPlan, TransientFlipsInternalNetForOneCycle) {
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  const rtl::NetId x = nl.inv(a);
  const rtl::NetId q = nl.dff(x);
  rtl::Simulator sim(nl);

  rtl::FaultPlan plan;
  plan.transients.push_back({1, x});
  sim.set_fault_plan(plan);

  sim.set_input(a, false);  // x = 1 fault-free
  sim.eval();
  EXPECT_TRUE(sim.get(x));  // cycle 0: no fault yet
  sim.clock();              // q <= 1; cycle 1 begins, flip live
  EXPECT_TRUE(sim.get(q));
  EXPECT_FALSE(sim.get(x));
  sim.clock();  // q captures the corrupted 0; cycle 2, flip expired
  EXPECT_FALSE(sim.get(q));
  EXPECT_TRUE(sim.get(x));
  sim.clock();  // clean value propagates again
  EXPECT_TRUE(sim.get(q));
}

TEST(FaultPlan, TransientFlipsHeldPrimaryInputForOneCycle) {
  // Primary inputs are not re-driven between set_input calls, so the
  // simulator must apply the flip to the held level when the scheduled
  // cycle begins and remove it when it ends.
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  const rtl::NetId q = nl.dff(a);
  rtl::Simulator sim(nl);

  rtl::FaultPlan plan;
  plan.transients.push_back({1, a});
  sim.set_fault_plan(plan);

  sim.set_input(a, true);
  sim.eval();
  EXPECT_TRUE(sim.get(a));
  sim.clock();  // q <= 1; cycle 1, input flipped
  EXPECT_TRUE(sim.get(q));
  EXPECT_FALSE(sim.get(a));
  sim.clock();  // q captures the flipped 0; flip removed, held level back
  EXPECT_FALSE(sim.get(q));
  EXPECT_TRUE(sim.get(a));
  sim.clock();
  EXPECT_TRUE(sim.get(q));
}

TEST(FaultPlan, PairedTransientsOnSameNetAndCycleCancel) {
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  const rtl::NetId x = nl.inv(a);
  rtl::Simulator sim(nl);

  rtl::FaultPlan plan;
  plan.transients.push_back({1, x});
  plan.transients.push_back({1, x});
  sim.set_fault_plan(plan);
  sim.set_input(a, false);
  sim.eval();
  sim.clock();  // cycle 1: the two flips XOR away
  EXPECT_TRUE(sim.get(x));
}

TEST(FaultPlan, EmptyPlanIsBitIdenticalToNoPlan) {
  const auto fmt = core::make_format("Posit(8,1)");
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);

  rtl::Simulator golden(nl);  // never told about faults at all
  rtl::Simulator empty(nl);
  empty.set_fault_plan(rtl::FaultPlan{});

  std::mt19937_64 rng(99);
  for (int cycle = 0; cycle < 10; ++cycle) {
    const std::uint64_t w = rng() & 0xFFu, a = rng() & 0xFFu;
    for (rtl::Simulator* s : {&golden, &empty}) {
      s->set_input_bus(mac.wdec.code, w);
      s->set_input_bus(mac.adec.code, a);
      s->eval();
      s->clock();
    }
    ASSERT_EQ(empty.get_bus_signed(mac.acc), golden.get_bus_signed(mac.acc));
    ASSERT_EQ(empty.total_toggles(), golden.total_toggles()) << "cycle " << cycle;
  }
}

TEST(FaultPlan, ClearRestoresFaultFreeBehavior) {
  rtl::Netlist nl;
  const rtl::NetId a = nl.input("a");
  const rtl::NetId x = nl.inv(a);
  rtl::Simulator sim(nl);

  rtl::FaultPlan plan;
  plan.stuck.push_back({x, false});
  sim.set_fault_plan(plan);
  sim.set_input(a, false);
  sim.eval();
  EXPECT_FALSE(sim.get(x));  // forced low
  sim.clear_fault_plan();
  sim.eval();
  EXPECT_TRUE(sim.get(x));  // gate drives the net again
}

TEST(FaultPlan, PerLaneBatchedPlansMatchScalarRuns) {
  // The campaign pattern: 64 independent injections in one simulation.
  // Lane L of the batched run must match — accumulator, detection flag,
  // and (in sum) toggles — the scalar run that installs plans[L] alone.
  const auto fmt = core::make_format("MERSIT(8,2)");
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  const auto& gates = nl.gates();

  std::vector<rtl::FaultPlan> plans(kLanes);
  for (int l = 0; l < kLanes; ++l) {
    const auto g = (static_cast<std::size_t>(l) * 97 + 13) % gates.size();
    const rtl::NetId net = gates[g].out;
    auto& p = plans[static_cast<std::size_t>(l)];
    switch (l % 3) {
      case 0:
        p.stuck.push_back({net, (l & 1) != 0});
        break;
      case 1:
        p.transients.push_back({static_cast<std::uint64_t>(l % 5), net});
        break;
      default:
        break;  // empty: this lane must match the fault-free run
    }
  }

  rtl::Simulator wide(nl);
  wide.set_lane_count(kLanes);
  wide.set_fault_plans(plans);
  std::vector<rtl::Simulator> scalar;
  scalar.reserve(kLanes);
  for (int l = 0; l < kLanes; ++l) {
    scalar.emplace_back(nl);
    scalar.back().set_fault_plan(plans[static_cast<std::size_t>(l)]);
  }

  std::mt19937_64 rng(0xFA17u);
  for (int cycle = 0; cycle < 10; ++cycle) {
    const std::uint64_t w = rng() & 0xFFu, a = rng() & 0xFFu;
    wide.set_input_bus(mac.wdec.code, w);  // broadcast, like the campaigns
    wide.set_input_bus(mac.adec.code, a);
    wide.eval();
    wide.clock();
    for (int l = 0; l < kLanes; ++l) {
      rtl::Simulator& s = scalar[static_cast<std::size_t>(l)];
      s.set_input_bus(mac.wdec.code, w);
      s.set_input_bus(mac.adec.code, a);
      s.eval();
      s.clock();
      ASSERT_EQ(wide.get_bus_signed_lane(mac.acc, l), s.get_bus_signed(mac.acc))
          << "lane " << l << " cycle " << cycle;
      ASSERT_EQ(wide.get_lane(mac.special_any, l), s.get(mac.special_any))
          << "lane " << l << " cycle " << cycle;
    }
  }
  EXPECT_EQ(wide.total_toggles(), summed_toggles(scalar));
}

}  // namespace
}  // namespace mersit
