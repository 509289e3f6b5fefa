#include "rtl/sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/cpu.h"

namespace mersit::rtl {

namespace {

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

[[nodiscard]] constexpr std::uint64_t broadcast(bool value) {
  return value ? kAllLanes : 0;
}

/// Transpose an 8x8 bit matrix held one row per byte: bit c of byte r moves
/// to bit r of byte c.
[[nodiscard]] constexpr std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}
static_assert(transpose8x8(0x02) == 0x0100);  // row 0 col 1 -> row 1 col 0

}  // namespace

// The settle loops.  A friend of Simulator (they read its state) defined
// only here, so the target attribute sits on single definitions.  One
// templated body serves every program (full, cone, latch) and both the
// fault-free and the faulted path; each run is a loop over ops of one cell
// type with no branch per op.
struct SettleLoops {
  using Op = Simulator::Op;

  /// Drive `fn`'s value onto each op's net, through the fault masks when
  /// kFaults, and charge the active-lane transitions to the op's gate.
  template <bool kFaults, class Fn>
  [[gnu::always_inline]] static inline void ops(Simulator& sim, const Op* op,
                                                const Op* end, Fn fn) {
    std::uint64_t* const v = sim.value_.data();
    std::uint64_t* const toggles = sim.toggles_.data();
    const std::uint64_t mask = sim.lane_mask_;
    for (; op != end; ++op) {
      std::uint64_t out = fn(v, *op);
      if constexpr (kFaults) out = sim.faulted(op->out, out);
      const std::uint64_t prev = v[op->out];
      v[op->out] = out;
      toggles[op->gate] +=
          static_cast<std::uint64_t>(std::popcount((prev ^ out) & mask));
    }
  }

  template <bool kFaults>
  [[gnu::always_inline]] static inline void program(Simulator& sim,
                                                    const Simulator::Program& p) {
    using V = const std::uint64_t*;
    const Op* const base = p.ops.data();
    for (const Simulator::Run& r : p.runs) {
      const Op* const b = base + r.begin;
      const Op* const e = base + r.end;
      switch (r.type) {
        case CellType::kConst0:
          ops<kFaults>(sim, b, e, [](V, const Op&) { return std::uint64_t{0}; });
          break;
        case CellType::kConst1:
          ops<kFaults>(sim, b, e, [](V, const Op&) { return kAllLanes; });
          break;
        case CellType::kInput:
          break;  // sources: driven by set_input*, never compiled
        case CellType::kBuf:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return v[o.a]; });
          break;
        case CellType::kInv:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return ~v[o.a]; });
          break;
        case CellType::kAnd2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return v[o.a] & v[o.b]; });
          break;
        case CellType::kOr2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return v[o.a] | v[o.b]; });
          break;
        case CellType::kNand2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return ~(v[o.a] & v[o.b]); });
          break;
        case CellType::kNor2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return ~(v[o.a] | v[o.b]); });
          break;
        case CellType::kXor2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return v[o.a] ^ v[o.b]; });
          break;
        case CellType::kXnor2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) { return ~(v[o.a] ^ v[o.b]); });
          break;
        case CellType::kMux2:
          ops<kFaults>(sim, b, e, [](V v, const Op& o) {
            return (v[o.s] & v[o.b]) | (~v[o.s] & v[o.a]);
          });
          break;
        case CellType::kDff: {
          // Latch: Q takes the D value clock() sampled for this op.
          const std::uint64_t* const d = sim.sampled_.data();
          ops<kFaults>(sim, b, e, [d, base](V, const Op& o) { return d[&o - base]; });
          break;
        }
      }
    }
  }

  template <bool kFaults>
  static void generic(Simulator& sim, const Simulator::Program& p) {
    program<kFaults>(sim, p);
  }

#if defined(__x86_64__) || defined(_M_X64)
  // The x86-64 baseline has no popcnt; without it std::popcount is a libgcc
  // call per op.
  template <bool kFaults>
  __attribute__((target("popcnt"))) static void popcnt(Simulator& sim,
                                                       const Simulator::Program& p) {
    program<kFaults>(sim, p);
  }
#endif
};

Simulator::Simulator(const Netlist& nl)
    : nl_(nl), value_(nl.net_count(), 0), toggles_(nl.gates().size(), 0),
      input_net_(nl.net_count(), 0) {
  const std::vector<Gate>& gates = nl.gates();
  // Level of every net (sources 0, a gate 1 + its deepest input) and
  // whether it lies in the fan-out cone of a DFF output.  Construction
  // order is topological, so one forward pass settles both.
  std::vector<std::uint32_t> level(nl.net_count(), 0);
  std::vector<std::uint8_t> in_cone(nl.net_count(), 0);
  std::vector<Op> comb;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    const Op op{g.a, g.b, g.s, g.out, static_cast<std::uint32_t>(i)};
    if (g.type == CellType::kInput) {
      input_net_[g.out] = 1;
    } else if (g.type == CellType::kDff) {
      latch_.ops.push_back(op);
      in_cone[g.out] = 1;
    } else {
      const NetId in[3] = {g.a, g.b, g.s};
      std::uint32_t deepest = 0;
      for (int k = 0; k < cell_input_count(g.type); ++k) {
        deepest = std::max(deepest, level[in[k]]);
        in_cone[g.out] |= in_cone[in[k]];
      }
      level[g.out] = deepest + 1;
      comb.push_back(op);
    }
  }
  full_ = levelise(comb, level);
  std::erase_if(comb, [&](const Op& op) { return in_cone[op.out] == 0; });
  cone_ = levelise(std::move(comb), level);
  if (!latch_.ops.empty())
    latch_.runs.push_back(
        {CellType::kDff, 0, static_cast<std::uint32_t>(latch_.ops.size())});
  sampled_.assign(latch_.ops.size(), 0);
  popcnt_ = core::cpu_features().popcnt;
  reset();
}

Simulator::Program Simulator::levelise(std::vector<Op> ops,
                                       const std::vector<std::uint32_t>& level) const {
  const std::vector<Gate>& gates = nl_.gates();
  const auto key = [&](const Op& op) {
    return std::pair{level[op.out], gates[op.gate].type};
  };
  std::stable_sort(ops.begin(), ops.end(),
                   [&](const Op& x, const Op& y) { return key(x) < key(y); });
  Program p;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == 0 || key(ops[i]) != key(ops[i - 1]))
      p.runs.push_back({gates[ops[i].gate].type, static_cast<std::uint32_t>(i), 0});
    p.runs.back().end = static_cast<std::uint32_t>(i + 1);
  }
  p.ops = std::move(ops);
  return p;
}

void Simulator::reset() {
  plans_.clear();
  has_faults_ = false;
  stuck_mask_.clear();
  stuck_val_.clear();
  flip_.clear();
  flip_scratch_.clear();
  cycle_ = 0;
  set_lane_count(1);
  std::fill(value_.begin(), value_.end(), 0);
  std::fill(sampled_.begin(), sampled_.end(), 0);
  // Establish consistent initial values (constants, settled logic).  Every
  // lane starts from this same settled state.
  eval();
  reset_stats();
}

void Simulator::run(const Program& p) {
#if defined(__x86_64__) || defined(_M_X64)
  if (popcnt_) {
    has_faults_ ? SettleLoops::popcnt<true>(*this, p)
                : SettleLoops::popcnt<false>(*this, p);
    return;
  }
#endif
  has_faults_ ? SettleLoops::generic<true>(*this, p)
              : SettleLoops::generic<false>(*this, p);
}

void Simulator::set_lane_count(int lanes) {
  if (lanes < 1 || lanes > kLanes)
    throw std::invalid_argument("Simulator::set_lane_count: lanes out of [1,64]");
  lane_count_ = lanes;
  lane_mask_ = lanes == kLanes ? kAllLanes : (std::uint64_t{1} << lanes) - 1;
}

void Simulator::set_input(NetId net, bool value) {
  set_input_lanes(net, broadcast(value));
}

void Simulator::set_input_bus(const Bus& bus, std::uint64_t value) {
  if (bus.size() > 64) throw std::invalid_argument("set_input_bus: bus wider than 64");
  for (std::size_t i = 0; i < bus.size(); ++i)
    set_input(bus[i], ((value >> i) & 1u) != 0);
}

void Simulator::set_input_lanes(NetId net, std::uint64_t lanes) {
  if (has_faults_) lanes = faulted(net, lanes);
  value_[net] = lanes;
  settled_ = false;
}

void Simulator::set_input_bus_lanes(const Bus& bus,
                                    std::span<const std::uint64_t> lane_values) {
  if (lane_values.size() > static_cast<std::size_t>(kLanes))
    throw std::invalid_argument("set_input_bus_lanes: more than 64 lanes");
  if (bus.size() > 64)
    throw std::invalid_argument("set_input_bus_lanes: bus wider than 64");
  const std::size_t n = lane_values.size();
  if (bus.size() <= 8) {
    // Eight lanes at a time: their low bytes form an 8x8 bit matrix whose
    // transpose holds bit i of those lanes in byte i.
    std::uint64_t word[8] = {};
    for (std::size_t g = 0; g * 8 < n; ++g) {
      std::uint64_t rows = 0;
      for (std::size_t r = 0; r < 8 && g * 8 + r < n; ++r)
        rows |= (lane_values[g * 8 + r] & 0xFFu) << (8 * r);
      const std::uint64_t cols = transpose8x8(rows);
      for (std::size_t i = 0; i < 8; ++i)
        word[i] |= ((cols >> (8 * i)) & 0xFFu) << (8 * g);
    }
    for (std::size_t i = 0; i < bus.size(); ++i) set_input_lanes(bus[i], word[i]);
    return;
  }
  for (std::size_t i = 0; i < bus.size(); ++i) {
    std::uint64_t word = 0;
    for (std::size_t l = 0; l < n; ++l) word |= ((lane_values[l] >> i) & 1u) << l;
    set_input_lanes(bus[i], word);
  }
}

void Simulator::eval() {
  run(full_);
  settled_ = true;
}

void Simulator::clock() {
  // Sample every D simultaneously, then update the Qs.
  for (std::size_t i = 0; i < latch_.ops.size(); ++i)
    sampled_[i] = value_[latch_.ops[i].a];
  ++cycle_;
  if (has_faults_) rebuild_transients();
  run(latch_);
  // A settled fault-free graph can only change inside the DFF cone.
  run(settled_ && !has_faults_ ? cone_ : full_);
  settled_ = true;
}

std::uint64_t Simulator::get_bus(const Bus& bus) const { return get_bus_lane(bus, 0); }

std::int64_t Simulator::get_bus_signed(const Bus& bus) const {
  return get_bus_signed_lane(bus, 0);
}

std::uint64_t Simulator::get_bus_lane(const Bus& bus, int lane) const {
  if (bus.size() > 64) throw std::invalid_argument("get_bus: bus wider than 64");
  if (lane < 0 || lane >= kLanes)
    throw std::invalid_argument("get_bus_lane: lane out of [0,64)");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    v |= ((value_[bus[i]] >> lane) & 1u) << i;
  return v;
}

std::int64_t Simulator::get_bus_signed_lane(const Bus& bus, int lane) const {
  const std::uint64_t raw = get_bus_lane(bus, lane);
  const std::size_t w = bus.size();
  if (w == 0 || w >= 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t sign = 1ull << (w - 1);
  return static_cast<std::int64_t>((raw ^ sign)) - static_cast<std::int64_t>(sign);
}

void Simulator::reset_stats() {
  std::fill(toggles_.begin(), toggles_.end(), 0);
}

std::uint64_t Simulator::total_toggles() const {
  std::uint64_t t = 0;
  for (const auto n : toggles_) t += n;
  return t;
}

double Simulator::dynamic_energy_fj(const CellLibrary& lib) const {
  double e = 0.0;
  const auto& gates = nl_.gates();
  for (std::size_t i = 0; i < gates.size(); ++i)
    e += static_cast<double>(toggles_[i]) * lib.spec(gates[i].type).switch_energy_fj;
  return e;
}

std::vector<double> Simulator::dynamic_energy_by_group_fj(
    const CellLibrary& lib) const {
  std::vector<double> by(nl_.group_names().size(), 0.0);
  const auto& gates = nl_.gates();
  for (std::size_t i = 0; i < gates.size(); ++i)
    by[gates[i].group] +=
        static_cast<double>(toggles_[i]) * lib.spec(gates[i].type).switch_energy_fj;
  return by;
}

// --- fault injection --------------------------------------------------------

void Simulator::set_fault_plan(const FaultPlan& plan) {
  std::vector<LanePlan> plans;
  if (!plan.empty()) plans.push_back({kAllLanes, plan});
  install_plans(std::move(plans));
}

void Simulator::set_fault_plans(std::span<const FaultPlan> lane_plans) {
  if (lane_plans.size() > static_cast<std::size_t>(kLanes))
    throw std::invalid_argument("set_fault_plans: more than 64 lane plans");
  std::vector<LanePlan> plans;
  for (std::size_t l = 0; l < lane_plans.size(); ++l)
    if (!lane_plans[l].empty())
      plans.push_back({std::uint64_t{1} << l, lane_plans[l]});
  install_plans(std::move(plans));
}

void Simulator::clear_fault_plan() { install_plans({}); }

void Simulator::install_plans(std::vector<LanePlan> plans) {
  for (const LanePlan& lp : plans) {
    for (const auto& f : lp.plan.stuck)
      if (f.net >= nl_.net_count())
        throw std::invalid_argument("FaultPlan: stuck-at net out of range");
    for (const auto& f : lp.plan.transients)
      if (f.net >= nl_.net_count())
        throw std::invalid_argument("FaultPlan: transient net out of range");
  }
  // Undo any transient level still held on a primary input by the old plans.
  for (std::size_t n = 0; n < flip_.size(); ++n)
    if (input_net_[n]) value_[n] ^= flip_[n];
  plans_ = std::move(plans);
  has_faults_ = !plans_.empty();
  settled_ = false;
  if (!has_faults_) {
    stuck_mask_.clear();
    stuck_val_.clear();
    flip_.clear();
    return;
  }
  stuck_mask_.assign(nl_.net_count(), 0);
  stuck_val_.assign(nl_.net_count(), 0);
  flip_.assign(nl_.net_count(), 0);
  for (const LanePlan& lp : plans_) {
    for (const auto& f : lp.plan.stuck) {
      const std::uint64_t level = f.value ? lp.lanes : 0;
      stuck_mask_[f.net] |= lp.lanes;
      // Within one plan the last stuck-at on a net wins (scalar semantics).
      stuck_val_[f.net] = (stuck_val_[f.net] & ~lp.lanes) | level;
      // Force current state on the affected lanes; eval() propagates.
      value_[f.net] = (value_[f.net] & ~lp.lanes) | level;
    }
  }
  rebuild_transients();
}

void Simulator::rebuild_transients() {
  flip_scratch_.assign(flip_.size(), 0);
  for (const LanePlan& lp : plans_)
    for (const auto& t : lp.plan.transients)
      if (t.cycle == cycle_) flip_scratch_[t.net] ^= lp.lanes;
  // Gate and DFF outputs pick flips up when next driven (eval / clock), but
  // primary inputs hold their level, so apply the flip delta to them here.
  for (std::size_t n = 0; n < flip_.size(); ++n)
    if (input_net_[n]) value_[n] ^= flip_scratch_[n] ^ flip_[n];
  flip_.swap(flip_scratch_);
}

}  // namespace mersit::rtl
