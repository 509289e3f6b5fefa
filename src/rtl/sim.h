// Bit-parallel (64-wide) cycle-accurate 2-value logic simulator with
// per-gate toggle counting.
//
// Every net holds one uint64_t of state: bit L is the net's value in lane L,
// so one settle of the gate graph evaluates 64 independent stimulus vectors
// at once with word-wise boolean ops — the classic bit-parallel logic-sim
// trick.  DFF outputs act as sources during eval() and are updated by
// clock(); each lane carries its own independent register state, so a
// 64-lane run is exactly 64 scalar machines in lockstep.
//
// Compiled evaluation: the constructor compiles the netlist once into a
// levelised op program.  A gate's level is 1 + the highest level among its
// inputs (primary inputs, DFF outputs: level 0); ops are sorted by level
// and, within a level, grouped into runs of one cell type, so a settle is a
// handful of tight branch-free loops instead of a per-gate switch.  Every
// gate is still evaluated exactly once per settle, after all its inputs,
// so values and toggles equal the in-order sweep over construction order
// (netlist.h) that the program replaces.  A second, precomputed program
// holds only the fan-out cone of the DFF outputs: after a clock edge it
// re-settles just that cone when the rest of the graph is known settled —
// no fault plan installed and nothing driven since the last eval() —
// and the full program otherwise.  A gate outside the cone of what changed
// sees the same inputs, so it keeps its value and charges no toggle.  The
// loops use the hardware popcnt when the host has it (core::CpuFeatures).
//
// Toggle counts drive the activity-based power model: the paper extracts
// power "using PrimeTime PX with the average value obtained from actual DNN
// data"; here the quantized data streams are replayed through the gate
// graph and every output transition in an *active* lane is charged the
// cell's switching energy — toggles_[g] += popcount((prev ^ next) & mask),
// kept per original gate index.  A batched run therefore reports exactly
// the summed toggles of the per-lane scalar runs it replaces (pinned by
// tests/rtl/test_sim.cpp, which also checks the compiled program against
// an in-order reference evaluator).
//
// Lane discipline:
//  * lane_count() starts at 1.  The scalar API (set_input / get / get_bus)
//    drives ALL lanes with the same value and reads lane 0, so a
//    lane_count()==1 simulator is bit-identical — values and toggle
//    counts — to the historical scalar simulator.
//  * set_lane_count(n) masks toggle accounting to lanes [0, n).  All lanes
//    start from the same settled reset state and only diverge through the
//    batched entry points (set_input_lanes / set_input_bus_lanes) or
//    per-lane fault plans, so growing the lane count is always safe.
//  * inactive lanes still compute (word ops are free) but never charge
//    toggles; their register state advances with whatever is on their
//    inputs, so batched replays that shrink the lane count for a tail
//    chunk should park inactive lanes on a zero/no-op stimulus.
//
// Fault injection (fault.h): installed FaultPlans force stuck-at levels and
// single-cycle transient flips onto arbitrary nets through per-lane masks.
// set_fault_plan(plan) applies one plan to every lane; set_fault_plans(ps)
// gives lane L its own plan ps[L], which is what lets the gate-level
// campaigns classify 64 independent injections per simulation.  Faults
// intercept the value *driven* onto a net — by a gate, a DFF, or
// set_input — so downstream logic and toggle accounting see the corrupted
// level exactly as real silicon would.  Primary-input nets, which nothing
// re-drives between set_input calls, have transient flips applied directly
// to their held lanes when the scheduled cycle begins and removed when it
// ends.  Plans are copied at install time (the caller's FaultPlan may be
// destroyed or reused immediately).  With no plan (or an empty one) the
// simulator is bit-identical, toggles included, to the uninstrumented
// original.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rtl/cells.h"
#include "rtl/fault.h"
#include "rtl/netlist.h"

namespace mersit::rtl {

class Simulator {
 public:
  /// Width of the bit-parallel datapath: independent stimulus lanes per net.
  static constexpr int kLanes = 64;

  /// Compiles `nl` (which must outlive the simulator) and settles it.
  explicit Simulator(const Netlist& nl);

  /// Restore exactly the state just after construction: settled reset
  /// values, lane count 1, cycle 0, no fault plan, zero toggle statistics.
  void reset();

  // --- lane control ---------------------------------------------------------
  /// Restrict toggle accounting to lanes [0, lanes).  1..kLanes.
  void set_lane_count(int lanes);
  [[nodiscard]] int lane_count() const { return lane_count_; }

  // --- scalar compatibility API (drives every lane, reads lane 0) ----------
  void set_input(NetId net, bool value);
  /// Drive `bus` (LSB first) with the low bits of `value` on every lane.
  /// Throws std::invalid_argument for a bus wider than 64 bits.
  void set_input_bus(const Bus& bus, std::uint64_t value);
  [[nodiscard]] bool get(NetId net) const { return (value_[net] & 1u) != 0; }
  [[nodiscard]] std::uint64_t get_bus(const Bus& bus) const;
  /// Sign-extended read of a two's-complement bus (lane 0).
  [[nodiscard]] std::int64_t get_bus_signed(const Bus& bus) const;

  // --- batched (per-lane) API ----------------------------------------------
  /// Drive one net with 64 per-lane values (bit L = lane L).
  void set_input_lanes(NetId net, std::uint64_t lanes);
  /// Drive `bus` (LSB first) with one value per lane: lane L takes the low
  /// bits of `lane_values[L]`.  Lanes at and beyond lane_values.size() are
  /// driven with 0 — batched replays should pass a full kLanes-wide span
  /// with explicit padding (e.g. a format's zero code) when the tail of a
  /// stream leaves lanes idle.  Throws std::invalid_argument for a bus
  /// wider than 64 bits.
  void set_input_bus_lanes(const Bus& bus, std::span<const std::uint64_t> lane_values);
  /// Raw 64-lane word of one net.
  [[nodiscard]] std::uint64_t get_lanes(NetId net) const { return value_[net]; }
  [[nodiscard]] bool get_lane(NetId net, int lane) const {
    return ((value_[net] >> lane) & 1u) != 0;
  }
  [[nodiscard]] std::uint64_t get_bus_lane(const Bus& bus, int lane) const;
  [[nodiscard]] std::int64_t get_bus_signed_lane(const Bus& bus, int lane) const;

  // --- evaluation -----------------------------------------------------------
  /// Settle all combinational logic (DFF outputs unchanged), all lanes.
  void eval();
  /// Rising clock edge: latch every DFF's D into Q, per lane.  Call after
  /// eval(); combinational nets are re-settled automatically (only the DFF
  /// fan-out cone when the rest is known settled, see the header comment).
  void clock();

  // --- statistics -----------------------------------------------------------
  /// Clear toggle statistics (e.g. after reset/warm-up cycles).
  void reset_stats();
  [[nodiscard]] std::uint64_t total_toggles() const;
  /// Switching energy accumulated since reset_stats(), in fJ.
  [[nodiscard]] double dynamic_energy_fj(const CellLibrary& lib) const;
  /// Energy per component group, in fJ.
  [[nodiscard]] std::vector<double> dynamic_energy_by_group_fj(
      const CellLibrary& lib) const;

  // --- fault injection ------------------------------------------------------
  /// Install `plan` on every lane.  Stuck-at levels are forced onto the
  /// affected nets immediately (without charging toggles; call eval() to
  /// propagate).  Transients take effect when their cycle arrives.  The
  /// plan is copied; the caller's object may be destroyed or reused freely
  /// after the call returns.
  void set_fault_plan(const FaultPlan& plan);
  /// Install one plan per lane: lane L gets plans[L], lanes at and beyond
  /// plans.size() run fault-free.  At most kLanes plans.  Replaces any
  /// previously installed plan(s); all plans are copied.
  void set_fault_plans(std::span<const FaultPlan> plans);
  void clear_fault_plan();
  /// Number of clock() edges applied so far (transient cycles count from 0
  /// at construction; see FaultPlan::Transient).  Shared by all lanes.
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

 private:
  /// One installed plan and the lanes it applies to.
  struct LanePlan {
    std::uint64_t lanes = 0;  ///< lane mask this plan covers
    FaultPlan plan;
  };

  /// One compiled gate.  `gate` is its index in Netlist::gates(), which
  /// keys the toggle counters.  For a DFF latch op, `a` is the D net.
  struct Op {
    NetId a = 0, b = 0, s = 0, out = 0;
    std::uint32_t gate = 0;
  };
  /// Ops [begin, end) of one program: all one cell type, all one level.
  struct Run {
    CellType type = CellType::kConst0;
    std::uint32_t begin = 0, end = 0;
  };
  /// Ops in evaluation order, and the runs that partition them.
  struct Program {
    std::vector<Op> ops;
    std::vector<Run> runs;
  };
  friend struct SettleLoops;  // the loop bodies (sim.cpp)

  /// Sort `ops` by (level of the driven net, cell type) and cut the runs.
  [[nodiscard]] Program levelise(std::vector<Op> ops,
                                 const std::vector<std::uint32_t>& level) const;

  /// Evaluate `p` on every lane, charging toggles, through the loop picked
  /// for this host and the fault state.
  void run(const Program& p);
  /// Value word actually appearing on `net` when `v` is driven onto it.
  /// Branch-free: stuck lanes are overridden by their forced level, live
  /// transient lanes are flipped, untouched lanes pass through.
  [[nodiscard]] std::uint64_t faulted(NetId net, std::uint64_t v) const {
    return ((v & ~stuck_mask_[net]) | stuck_val_[net]) ^ flip_[net];
  }
  void install_plans(std::vector<LanePlan> plans);
  void rebuild_transients();

  const Netlist& nl_;
  Program full_;   // every combinational gate, levelised
  Program cone_;   // the DFF outputs' fan-out cone, levelised
  Program latch_;  // one kDff run: Q <= sampled D
  bool popcnt_ = false;  // host executes the popcnt instruction
  // True while every combinational net holds the fault-free function of
  // the current sources, so a clock edge can only change the DFF cone.
  bool settled_ = false;

  int lane_count_ = 1;
  std::uint64_t lane_mask_ = 1;              // toggle-accounting mask
  std::vector<std::uint64_t> value_;         // per net: 64 lanes
  std::vector<std::uint64_t> toggles_;       // per gate, summed over lanes
  std::vector<std::uint64_t> sampled_;       // per DFF: D sampled at the edge

  bool has_faults_ = false;
  std::uint64_t cycle_ = 0;
  std::vector<LanePlan> plans_;
  std::vector<std::uint64_t> stuck_mask_;    // per net: lanes with a stuck-at
  std::vector<std::uint64_t> stuck_val_;     // per net: forced level per lane
  std::vector<std::uint64_t> flip_;          // per net: lanes with a live transient
  std::vector<std::uint64_t> flip_scratch_;  // per net: next cycle's flip lanes
  std::vector<std::uint8_t> input_net_;      // per net: 1 if a primary input
};

}  // namespace mersit::rtl
