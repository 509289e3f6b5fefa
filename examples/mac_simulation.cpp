// Gate-level MAC walkthrough: build the MERSIT(8,2) MAC netlist, run a dot
// product through it cycle by cycle, verify against the exact reference and
// a double-precision result, and print the area/power report.
//
//   ./mac_simulation [format]            default MERSIT(8,2)
//   ./mac_simulation [format] --verilog  also dump the decoder and MAC as
//                                        structural Verilog (<fmt>_decoder.v
//                                        and <fmt>_mac.v in the cwd)
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>

#include "core/registry.h"
#include "hw/decoder.h"
#include "hw/power.h"
#include "hw/reference.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"

using namespace mersit;

namespace {

/// "MERSIT(8,2)" -> "mersit_8_2" for module and file names.
std::string slug(const std::string& name) {
  std::string s;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0)
      s.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    else if (!s.empty() && s.back() != '_')
      s.push_back('_');
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

int dump_verilog(const formats::Format& fmt, const std::string& name) {
  const std::string base = slug(name);
  {
    rtl::Netlist nl;
    const hw::DecoderPorts dec = hw::build_decoder(nl, fmt);
    const auto ports = hw::decoder_output_ports(dec);
    std::ofstream os(base + "_decoder.v", std::ios::binary);
    os << rtl::to_verilog(nl, base + "_decoder", ports);
    std::printf("wrote %s_decoder.v (%zu cells)\n", base.c_str(), nl.cell_count());
  }
  {
    rtl::Netlist nl;
    const hw::MacPorts mac = hw::build_mac(nl, fmt);
    const auto ports = hw::mac_output_ports(mac);
    std::ofstream os(base + "_mac.v", std::ios::binary);
    os << rtl::to_verilog(nl, base + "_mac", ports);
    std::printf("wrote %s_mac.v (%zu cells)\n", base.c_str(), nl.cell_count());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = "MERSIT(8,2)";
  bool verilog = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verilog") == 0)
      verilog = true;
    else
      name = argv[i];
  }
  const auto fmt = core::make_format(name);
  const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(fmt.get());
  if (ef == nullptr) {
    std::fprintf(stderr, "%s has no hardware MAC in this library\n", name.c_str());
    return 1;
  }
  if (verilog) {
    const int rc = dump_verilog(*fmt, name);
    if (rc != 0) return rc;
    std::printf("\n");
  }

  // 1. Build the netlist.
  rtl::Netlist nl;
  const hw::MacPorts mac = hw::build_mac(nl, *fmt);
  std::printf("%s MAC: P=%d M=%d W=%d V=%d -> %d-bit Kulisch accumulator, %zu cells\n\n",
              name.c_str(), mac.cfg.spec.p, mac.cfg.spec.m, mac.cfg.w, mac.cfg.v,
              mac.cfg.acc_width, nl.cell_count());

  if (mac.cfg.acc_width > hw::MacReference::kMaxAccWidth) {
    std::fprintf(stderr,
                 "%s: the %d-bit accumulator is wider than the %d-bit "
                 "reference model\n",
                 name.c_str(), mac.cfg.acc_width, hw::MacReference::kMaxAccWidth);
    return 1;
  }

  // 2. Drive a small dot product through it.
  rtl::Simulator sim(nl);
  hw::MacReference ref(*ef);
  std::mt19937 rng(42);
  std::normal_distribution<double> dist(0.0, 0.8);
  double exact = 0.0;
  std::printf("%5s %10s %10s %16s %16s\n", "cycle", "w", "a", "acc(netlist)",
              "acc(value)");
  for (int cycle = 0; cycle < 12; ++cycle) {
    const double wv = dist(rng), av = dist(rng);
    const std::uint8_t wc = fmt->encode(wv), ac = fmt->encode(av);
    sim.set_input_bus(mac.wdec.code, wc);
    sim.set_input_bus(mac.adec.code, ac);
    sim.eval();
    sim.clock();
    ref.accumulate(wc, ac);
    exact += fmt->decode_value(wc) * fmt->decode_value(ac);
    std::printf("%5d %10.4f %10.4f %16lld %16.8f\n", cycle,
                fmt->decode_value(wc), fmt->decode_value(ac),
                static_cast<long long>(sim.get_bus_signed(mac.acc)), ref.value());
    if (sim.get_bus_signed(mac.acc) != ref.acc_raw()) {
      std::fprintf(stderr, "MISMATCH netlist vs reference!\n");
      return 1;
    }
  }
  std::printf("\nKulisch accumulation is exact: |netlist - fp64| = %.2e\n",
              ref.value() - exact);

  // 3. Area / power report on a realistic stream.
  std::vector<float> w(1000), a(1000);
  for (auto& v : w) v = static_cast<float>(dist(rng));
  for (auto& v : a) v = static_cast<float>(std::fabs(dist(rng)));
  const auto stream = hw::make_code_stream(*fmt, w, a, 1.0, 1.0);
  const hw::MacCost cost = hw::measure_mac(*fmt, stream);
  std::printf("\nArea %.1f um^2, power %.2f uW @100MHz. Components:\n",
              cost.area_um2, cost.power_uw);
  for (const auto& c : cost.components)
    std::printf("  %-16s %8.1f um^2 %8.2f uW\n", c.name.c_str(), c.area_um2,
                c.power_uw);
  return 0;
}
