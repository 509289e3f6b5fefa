#include "hw/power.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "hw/reference.h"
#include "rtl/sim.h"

namespace mersit::hw {

const ComponentCost& MacCost::component(const std::string& name) const {
  for (const auto& c : components)
    if (c.name == name) return c;
  throw std::out_of_range("MacCost::component: " + name);
}

ComponentCost MacCost::multiplier() const {
  ComponentCost m;
  m.name = "multiplier";
  for (const char* part : {"decoder", "exp_adder", "frac_multiplier"}) {
    const ComponentCost& c = component(part);
    m.area_um2 += c.area_um2;
    m.power_uw += c.power_uw;
  }
  return m;
}

struct MacReplay::Impl {
  std::string name;
  rtl::Netlist nl;
  MacPorts mac;
  std::uint8_t zero_code = 0;
  // Built once over `nl`; reset() before every stream.
  std::optional<rtl::Simulator> sim;
  // Copied into `refs`, one per lane, before every stream.
  std::optional<MacReference> proto;
  std::vector<MacReference> refs;

  // Running totals across replay() calls.
  std::size_t pairs = 0;
  double energy_fj = 0.0;
  std::vector<double> energy_by_group_fj;
};

MacReplay::MacReplay(const formats::Format& fmt, int v_margin)
    : impl_(std::make_unique<Impl>()) {
  const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(&fmt);
  if (ef == nullptr)
    throw std::invalid_argument("MacReplay: not an exponent-coded format");
  impl_->name = fmt.name();
  impl_->mac = build_mac(impl_->nl, fmt, v_margin);
  impl_->zero_code = fmt.encode(0.0);
  impl_->sim.emplace(impl_->nl);
  impl_->proto.emplace(*ef, v_margin);
  impl_->energy_by_group_fj.assign(impl_->nl.group_names().size(), 0.0);
}

MacReplay::~MacReplay() = default;

const rtl::Netlist& MacReplay::netlist() const { return impl_->nl; }
const MacPorts& MacReplay::ports() const { return impl_->mac; }
const std::vector<std::string>& MacReplay::group_names() const {
  return impl_->nl.group_names();
}

ReplayStats MacReplay::replay(const CodeStream& stream, int lanes) {
  if (lanes < 1 || lanes > rtl::Simulator::kLanes)
    throw std::invalid_argument("MacReplay::replay: lanes out of [1,64]");
  Impl& im = *impl_;
  const rtl::CellLibrary& lib = rtl::CellLibrary::nangate45_like();

  // Reset simulator and fresh references per stream: each replay is an
  // independent measurement starting from the settled reset state.
  rtl::Simulator& sim = *im.sim;
  sim.reset();
  std::vector<MacReference>& refs = im.refs;
  refs.clear();
  refs.resize(static_cast<std::size_t>(lanes), *im.proto);

  std::array<std::uint64_t, rtl::Simulator::kLanes> w_buf{}, a_buf{};
  const std::span<std::uint64_t> w_lanes(w_buf.data(), static_cast<std::size_t>(lanes));
  const std::span<std::uint64_t> a_lanes(a_buf.data(), static_cast<std::size_t>(lanes));

  ReplayStats st;
  st.pairs = stream.size();
  sim.set_lane_count(lanes);
  for (std::size_t base = 0; base < stream.size();
       base += static_cast<std::size_t>(lanes)) {
    const int active = static_cast<int>(
        std::min(stream.size() - base, static_cast<std::size_t>(lanes)));
    // A tail sweep parks idle lanes on the zero code (special codes leave
    // the accumulator untouched) and stops charging their toggles.
    if (active < lanes) sim.set_lane_count(active);
    for (int l = 0; l < lanes; ++l) {
      if (l < active) {
        const auto& [w, a] = stream[base + static_cast<std::size_t>(l)];
        w_lanes[static_cast<std::size_t>(l)] = w;
        a_lanes[static_cast<std::size_t>(l)] = a;
        refs[static_cast<std::size_t>(l)].accumulate(w, a);
      } else {
        w_lanes[static_cast<std::size_t>(l)] = im.zero_code;
        a_lanes[static_cast<std::size_t>(l)] = im.zero_code;
      }
    }
    sim.set_input_bus_lanes(im.mac.wdec.code, w_lanes);
    sim.set_input_bus_lanes(im.mac.adec.code, a_lanes);
    sim.eval();
    sim.clock();
    ++st.sweeps;
  }

  // End-of-stream cross-check: every lane that carried pairs must agree
  // with its software reference bit-for-bit (MacReference wraps exactly
  // like the hardware register, so this holds on arbitrarily long streams).
  for (int l = 0; l < lanes; ++l) {
    const bool lane_used = static_cast<std::size_t>(l) < stream.size();
    if (!lane_used) break;
    if (sim.get_bus_signed_lane(im.mac.acc, l) !=
        refs[static_cast<std::size_t>(l)].acc_raw())
      throw std::logic_error("MacReplay: netlist/reference accumulator mismatch for " +
                             im.name);
  }

  st.toggles = sim.total_toggles();
  st.energy_fj = sim.dynamic_energy_fj(lib);
  st.energy_by_group_fj = sim.dynamic_energy_by_group_fj(lib);

  im.pairs += st.pairs;
  im.energy_fj += st.energy_fj;
  for (std::size_t i = 0; i < st.energy_by_group_fj.size(); ++i)
    im.energy_by_group_fj[i] += st.energy_by_group_fj[i];
  return st;
}

MacCost MacReplay::cost(double clock_hz) const {
  const Impl& im = *impl_;
  const rtl::CellLibrary& lib = rtl::CellLibrary::nangate45_like();

  MacCost cost;
  cost.format = im.name;
  cost.cfg = im.mac.cfg;
  cost.area_um2 = lib.area_um2(im.nl);
  cost.cells = im.nl.cell_count();

  // One scalar-equivalent cycle per pair: activity-averaged power matches
  // a 1-pair-per-cycle hardware MAC regardless of replay lane width.
  const double cycles = static_cast<double>(im.pairs == 0 ? 1 : im.pairs);
  const double period_ns = 1e9 / clock_hz;
  const auto area_by_group = lib.area_by_group_um2(im.nl);

  // Leakage attributed exactly, per gate, to its component group.
  const auto& names = im.nl.group_names();
  std::vector<double> leak_by_group(names.size(), 0.0);
  for (const auto& g : im.nl.gates())
    leak_by_group[g.group] += lib.spec(g.type).leakage_nw * 1e-3;

  double total_power = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    ComponentCost c;
    c.name = names[i];
    c.area_um2 = area_by_group[i];
    c.power_uw = im.energy_by_group_fj[i] / (cycles * period_ns) + leak_by_group[i];
    total_power += c.power_uw;
    if (c.name != "top") cost.components.push_back(c);
  }
  cost.power_uw = total_power;
  return cost;
}

MacCost measure_mac(const formats::Format& fmt, const CodeStream& stream,
                    double clock_hz, int v_margin) {
  MacReplay replay(fmt, v_margin);
  (void)replay.replay(stream);
  return replay.cost(clock_hz);
}

CodeStream make_code_stream(const formats::Format& fmt,
                            std::span<const float> weights,
                            std::span<const float> activations, double w_scale,
                            double a_scale) {
  const std::size_t n = std::min(weights.size(), activations.size());
  CodeStream s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.emplace_back(fmt.encode(static_cast<double>(weights[i]) / w_scale),
                   fmt.encode(static_cast<double>(activations[i]) / a_scale));
  }
  return s;
}

}  // namespace mersit::hw
