// Area / power measurement harness (substitutes Design Compiler reports and
// PrimeTime PX averages over "actual DNN data").
//
// Area is summed from the cell library.  Dynamic power replays a stream of
// (weight, activation) code pairs through the MAC netlist at the paper's
// 100 MHz and charges every output transition its cell's switching energy;
// leakage is added per cell.
//
// Replay is bit-parallel: the 64-wide simulator (rtl/sim.h) takes 64 code
// pairs per eval()/clock() sweep, so *entire* PTQ inference code streams
// are replayed instead of subsampled — pair i rides lane i%64 of sweep
// i/64, each lane an independent MAC whose accumulator is cross-checked
// against MacReference at end of stream.  Tail sweeps shrink the active
// lane count and park idle lanes on the format's zero code (special codes
// contribute nothing to the accumulator), so reported toggles equal the
// summed per-lane scalar replays exactly.
//
// A MacReplay compiles its netlist into one Simulator at construction and
// reset()s it before every stream; the per-lane references are copies of
// one prototype MacReference, whose decoded-fields table is built once
// from the Format (never looked up by Format address).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "formats/format.h"
#include "hw/mac.h"

namespace mersit::hw {

/// One (weight, activation) input pair per cycle.
using CodeStream = std::vector<std::pair<std::uint8_t, std::uint8_t>>;

struct ComponentCost {
  std::string name;
  double area_um2 = 0.0;
  double power_uw = 0.0;  ///< dynamic + leakage
};

struct MacCost {
  std::string format;
  MacConfig cfg;
  double area_um2 = 0.0;
  double power_uw = 0.0;
  std::size_t cells = 0;
  std::vector<ComponentCost> components;  ///< decoder, exp_adder, ...

  [[nodiscard]] const ComponentCost& component(const std::string& name) const;
  /// Multiplier subtotal (decoder + exp_adder + frac_multiplier), Table 3.
  [[nodiscard]] ComponentCost multiplier() const;
};

/// Switching-activity record of one replayed code stream.
struct ReplayStats {
  std::size_t pairs = 0;        ///< code pairs fed through the MAC
  std::size_t sweeps = 0;       ///< eval()/clock() sweeps (ceil(pairs/lanes))
  std::uint64_t toggles = 0;    ///< net transitions, summed over lanes
  double energy_fj = 0.0;       ///< switching energy of this stream
  /// Per-component switching energy, indexed like Netlist::group_names().
  std::vector<double> energy_by_group_fj;
};

/// Reusable replay harness: builds the MAC netlist for `fmt` once, then
/// replays any number of code streams through it (e.g. one per DNN layer),
/// accumulating switching energy towards a single MacCost report.  Every
/// replay() starts from the simulator's reset state — streams are
/// independent measurements, not one concatenated trace.  The Format need
/// not outlive the constructor.
class MacReplay {
 public:
  explicit MacReplay(const formats::Format& fmt, int v_margin = 6);
  ~MacReplay();
  MacReplay(const MacReplay&) = delete;
  MacReplay& operator=(const MacReplay&) = delete;

  /// Replay `stream`, `lanes` pairs per sweep (1 = the historical scalar
  /// loop; 64 = full bit-parallel).  The per-lane accumulators are
  /// cross-checked against MacReference at end of stream; a mismatch
  /// throws std::logic_error.  Returns this stream's activity and adds it
  /// to the running totals reported by cost().
  ReplayStats replay(const CodeStream& stream, int lanes = 64);

  /// Aggregate cost over every replay() so far: area/leakage from the
  /// netlist, dynamic power = total switching energy averaged over the
  /// scalar-equivalent cycle count (one cycle per pair) at `clock_hz`.
  [[nodiscard]] MacCost cost(double clock_hz = 100e6) const;

  [[nodiscard]] const rtl::Netlist& netlist() const;
  [[nodiscard]] const MacPorts& ports() const;
  /// Component-group names of the MAC netlist (ReplayStats indexing).
  [[nodiscard]] const std::vector<std::string>& group_names() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Build the MAC for `fmt`, stream `stream` through it, and report cost.
/// `clock_hz` defaults to the paper's 100 MHz.  The functional result is
/// cross-checked against MacReference; a mismatch throws std::logic_error.
/// (Convenience wrapper over MacReplay for single-stream measurements.)
[[nodiscard]] MacCost measure_mac(const formats::Format& fmt, const CodeStream& stream,
                                  double clock_hz = 100e6, int v_margin = 6);

/// Quantize a real-valued data stream into a CodeStream for `fmt` using the
/// given scales (PTQ-style: value/scale then encode).
[[nodiscard]] CodeStream make_code_stream(const formats::Format& fmt,
                                          std::span<const float> weights,
                                          std::span<const float> activations,
                                          double w_scale, double a_scale);

}  // namespace mersit::hw
