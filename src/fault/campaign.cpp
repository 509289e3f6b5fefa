#include "fault/campaign.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "formats/corruption.h"
#include "hw/mac.h"
#include "hw/reference.h"
#include "ptq/ptq.h"
#include "rtl/sim.h"

namespace mersit::fault {

// ----------------------------------------------------- artifact campaigns --

namespace {

/// Decode policy for every unpack: a flipped bit that lands on a NaR/Inf
/// code zeroes that weight instead of NaN-poisoning the whole evaluation.
constexpr formats::CorruptionPolicy kPolicy =
    formats::CorruptionPolicy::kZeroSubstitute;

}  // namespace

ArtifactCampaignResult run_artifact_campaign(nn::Module& model,
                                             const nn::Dataset& test,
                                             const formats::Format& fmt,
                                             const ArtifactCampaignConfig& cfg) {
  ArtifactCampaignResult res;
  res.format_name = fmt.name();

  const ptq::WeightSnapshot snap = ptq::snapshot_weights(model);
  const ptq::QuantizedModel clean = ptq::pack_weights(model, fmt);

  ptq::unpack_weights(model, clean, fmt, kPolicy);
  res.clean_accuracy = ptq::evaluate_fp32(model, test, ptq::Metric::kAccuracy);

  std::uint64_t point = 0;
  for (const double ber : cfg.bers) {
    ptq::QuantizedModel corrupt = clean;
    BitFlipInjector inj(derive_seed(cfg.seed, ++point));
    const InjectionReport rep = inj.inject_ber(corrupt, ber);
    formats::CorruptionStats stats;
    ptq::unpack_weights(model, corrupt, fmt, kPolicy, &stats);
    BerPoint p;
    p.ber = ber;
    p.bits_flipped = rep.bits_flipped;
    p.non_finite = stats.non_finite;
    p.accuracy = ptq::evaluate_fp32(model, test, ptq::Metric::kAccuracy);
    res.ber_curve.push_back(p);
  }

  for (int bit = 0; cfg.bit_rate > 0.0 && bit < 8; ++bit) {
    ptq::QuantizedModel corrupt = clean;
    BitFlipInjector inj(derive_seed(cfg.seed, 0x100u + static_cast<unsigned>(bit)));
    const InjectionReport rep = inj.inject_bit_position(corrupt, bit, cfg.bit_rate);
    formats::CorruptionStats stats;
    ptq::unpack_weights(model, corrupt, fmt, kPolicy, &stats);
    BitPositionPoint p;
    p.bit = bit;
    p.bits_flipped = rep.bits_flipped;
    p.non_finite = stats.non_finite;
    p.accuracy = ptq::evaluate_fp32(model, test, ptq::Metric::kAccuracy);
    res.bit_profile.push_back(p);
  }

  // Per-layer sensitivity: corrupt each packed tensor alone and re-evaluate,
  // so the curve reads "what breaks when only resnet18/stem_conv breaks".
  if (cfg.layer_ber > 0.0) {
    for (std::size_t t = 0; t < clean.tensors.size(); ++t) {
      ptq::QuantizedModel corrupt = clean;
      BitFlipInjector inj(derive_seed(cfg.seed, 0x200u + t));
      const InjectionReport rep = inj.inject_ber_tensor(corrupt, t, cfg.layer_ber);
      formats::CorruptionStats stats;
      ptq::unpack_weights(model, corrupt, fmt, kPolicy, &stats);
      LayerSensitivityPoint p;
      p.path = clean.tensors[t].path.empty() ? "tensor" + std::to_string(t)
                                             : clean.tensors[t].path;
      p.bits_flipped = rep.bits_flipped;
      p.non_finite = stats.non_finite;
      p.accuracy = ptq::evaluate_fp32(model, test, ptq::Metric::kAccuracy);
      res.layer_profile.push_back(p);
    }
  }

  ptq::restore_weights(model, snap);
  return res;
}

// --------------------------------------------------------- gate campaigns --

namespace {

/// Everything fixed across the injections of one gate-level campaign: the
/// netlist, the operand stream, and the golden (fault-free) per-cycle
/// traces, which are verified bit-exact against hw::MacReference once.
struct GoldenMac {
  rtl::Netlist nl;
  hw::MacPorts mac;
  std::vector<std::uint8_t> w_codes, a_codes;
  std::vector<std::int64_t> acc_trace;   ///< accumulator after each cycle
  std::vector<std::uint8_t> flag_trace;  ///< special_any during each cycle
  std::vector<rtl::NetId> sites;         ///< injectable nets (gate/DFF outputs)
};

std::uint8_t random_code(const formats::Format& fmt, SplitMix64& rng) {
  for (;;) {
    const auto code = static_cast<std::uint8_t>(rng.next() & 0xFF);
    const auto cls = fmt.classify(code);
    if (cls == formats::ValueClass::kFinite || cls == formats::ValueClass::kZero)
      return code;
  }
}

GoldenMac build_golden(const formats::Format& fmt, const GateCampaignConfig& cfg) {
  const auto* ef = dynamic_cast<const formats::ExponentCodedFormat*>(&fmt);
  if (ef == nullptr)
    throw std::invalid_argument("gate campaign: " + fmt.name() +
                                " has no hardware MAC");
  GoldenMac g;
  g.mac = hw::build_mac(g.nl, fmt);

  SplitMix64 rng(derive_seed(cfg.seed, 0xDA7A));
  for (int c = 0; c < cfg.cycles; ++c) {
    g.w_codes.push_back(random_code(fmt, rng));
    g.a_codes.push_back(random_code(fmt, rng));
  }

  rtl::Simulator sim(g.nl);
  hw::MacReference ref(*ef);
  for (int c = 0; c < cfg.cycles; ++c) {
    sim.set_input_bus(g.mac.wdec.code, g.w_codes[static_cast<std::size_t>(c)]);
    sim.set_input_bus(g.mac.adec.code, g.a_codes[static_cast<std::size_t>(c)]);
    sim.eval();
    g.flag_trace.push_back(sim.get(g.mac.special_any) ? 1 : 0);
    sim.clock();
    ref.accumulate(g.w_codes[static_cast<std::size_t>(c)],
                   g.a_codes[static_cast<std::size_t>(c)]);
    g.acc_trace.push_back(sim.get_bus_signed(g.mac.acc));
    if (g.acc_trace.back() != ref.acc_raw())
      throw std::logic_error("gate campaign: golden netlist deviates from "
                             "bit-exact reference — simulator invariant broken");
  }

  // Injection sites: every net driven by a costed cell (including the
  // accumulator DFF outputs), sampled below.
  for (const rtl::Gate& gate : g.nl.gates()) {
    switch (gate.type) {
      case rtl::CellType::kConst0:
      case rtl::CellType::kConst1:
      case rtl::CellType::kInput:
        break;
      default:
        g.sites.push_back(gate.out);
    }
  }
  // Seeded Fisher-Yates so site sampling is reproducible and stdlib-free.
  SplitMix64 shuf(derive_seed(cfg.seed, 0x517E5));
  for (std::size_t i = g.sites.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(shuf.next() % i);
    std::swap(g.sites[i - 1], g.sites[j]);
  }
  if (g.sites.size() > cfg.max_sites) g.sites.resize(cfg.max_sites);
  return g;
}

enum class Outcome { kMasked, kDetected, kSdc };

void tally(StuckAtReport& rep, Outcome o) {
  ++rep.trials;
  switch (o) {
    case Outcome::kMasked: ++rep.masked; break;
    case Outcome::kDetected: ++rep.detected; break;
    case Outcome::kSdc: ++rep.sdc; break;
  }
}

/// Run up to 64 faulted simulations at once — lane L carries plans[L] — and
/// classify each against the golden traces.  The operand stream is
/// broadcast to every lane, faults stay confined to their lane's masks, so
/// each lane reproduces its scalar injection bit-for-bit; divergence from
/// golden is collected as per-lane masks with word-wise XOR.
void run_injections(const GoldenMac& g, std::span<const rtl::FaultPlan> plans,
                    const GateCampaignConfig& cfg, StuckAtReport& rep) {
  rtl::Simulator sim(g.nl);
  sim.set_lane_count(static_cast<int>(plans.size()));
  sim.set_fault_plans(plans);
  std::uint64_t corrupted = 0;
  std::uint64_t flagged = 0;
  for (int c = 0; c < cfg.cycles; ++c) {
    sim.set_input_bus(g.mac.wdec.code, g.w_codes[static_cast<std::size_t>(c)]);
    sim.set_input_bus(g.mac.adec.code, g.a_codes[static_cast<std::size_t>(c)]);
    sim.eval();
    const std::uint64_t flag_ref =
        g.flag_trace[static_cast<std::size_t>(c)] != 0 ? ~std::uint64_t{0} : 0;
    flagged |= sim.get_lanes(g.mac.special_any) ^ flag_ref;
    sim.clock();
    const auto golden =
        static_cast<std::uint64_t>(g.acc_trace[static_cast<std::size_t>(c)]);
    for (std::size_t q = 0; q < g.mac.acc.size(); ++q) {
      const std::uint64_t bit_ref = ((golden >> q) & 1u) != 0 ? ~std::uint64_t{0} : 0;
      corrupted |= sim.get_lanes(g.mac.acc[q]) ^ bit_ref;
    }
  }
  for (std::size_t l = 0; l < plans.size(); ++l) {
    const bool corr = ((corrupted >> l) & 1u) != 0;
    const bool flg = ((flagged >> l) & 1u) != 0;
    tally(rep, !corr ? Outcome::kMasked
                     : (flg ? Outcome::kDetected : Outcome::kSdc));
  }
}

/// Feed a whole campaign's plan list through run_injections in lane-sized
/// batches.
void run_batched(const GoldenMac& g, const std::vector<rtl::FaultPlan>& plans,
                 const GateCampaignConfig& cfg, StuckAtReport& rep) {
  constexpr std::size_t kBatch = rtl::Simulator::kLanes;
  for (std::size_t base = 0; base < plans.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, plans.size() - base);
    run_injections(g, std::span<const rtl::FaultPlan>(plans.data() + base, n),
                   cfg, rep);
  }
}

}  // namespace

StuckAtReport run_stuckat_campaign(const formats::Format& fmt,
                                   const GateCampaignConfig& cfg) {
  const GoldenMac g = build_golden(fmt, cfg);
  StuckAtReport rep;
  rep.format_name = fmt.name();
  rep.sites = g.sites.size();
  std::vector<rtl::FaultPlan> plans;
  plans.reserve(g.sites.size() * 2);
  for (const rtl::NetId net : g.sites) {
    for (const bool level : {false, true}) {
      rtl::FaultPlan plan;
      plan.stuck.push_back({net, level});
      plans.push_back(std::move(plan));
    }
  }
  run_batched(g, plans, cfg, rep);
  return rep;
}

StuckAtReport run_transient_campaign(const formats::Format& fmt,
                                     const GateCampaignConfig& cfg) {
  const GoldenMac g = build_golden(fmt, cfg);
  StuckAtReport rep;
  rep.format_name = fmt.name();
  rep.sites = g.sites.size();
  SplitMix64 rng(derive_seed(cfg.seed, 0x5EU));
  std::vector<rtl::FaultPlan> plans;
  plans.reserve(g.sites.size());
  for (const rtl::NetId net : g.sites) {
    rtl::FaultPlan plan;
    plan.transients.push_back(
        {rng.next() % static_cast<std::uint64_t>(cfg.cycles), net});
    plans.push_back(std::move(plan));
  }
  run_batched(g, plans, cfg, rep);
  return rep;
}

}  // namespace mersit::fault
