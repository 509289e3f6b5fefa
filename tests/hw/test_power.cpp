#include "hw/power.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "core/registry.h"

namespace mersit::hw {
namespace {

CodeStream gaussian_stream(const formats::Format& fmt, std::size_t n,
                           unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.f, 0.3f);
  std::vector<float> w(n), a(n);
  for (auto& v : w) v = dist(rng);
  for (auto& v : a) v = std::abs(dist(rng));
  return make_code_stream(fmt, w, a, 1.0, 1.0);
}

TEST(MeasureMac, ProducesComponentBreakdown) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const MacCost cost = measure_mac(*fmt, gaussian_stream(*fmt, 200, 11));
  EXPECT_GT(cost.area_um2, 0.0);
  EXPECT_GT(cost.power_uw, 0.0);
  EXPECT_GT(cost.cells, 100u);
  // All five components present, with sensible totals.
  double comp_area = 0.0, comp_power = 0.0;
  for (const char* name :
       {"decoder", "exp_adder", "frac_multiplier", "aligner", "accumulator"}) {
    const auto& c = cost.component(name);
    EXPECT_GT(c.area_um2, 0.0) << name;
    comp_area += c.area_um2;
    comp_power += c.power_uw;
  }
  EXPECT_NEAR(comp_area, cost.area_um2, 1e-9);
  EXPECT_NEAR(comp_power, cost.power_uw, 1e-9);
}

TEST(MeasureMac, MultiplierSubtotal) {
  const auto fmt = core::make_format("FP(8,4)");
  const MacCost cost = measure_mac(*fmt, gaussian_stream(*fmt, 100, 3));
  const ComponentCost mult = cost.multiplier();
  EXPECT_DOUBLE_EQ(mult.area_um2, cost.component("decoder").area_um2 +
                                      cost.component("exp_adder").area_um2 +
                                      cost.component("frac_multiplier").area_um2);
  EXPECT_LT(mult.area_um2, cost.area_um2);
}

TEST(MeasureMac, PowerScalesWithActivity) {
  // An all-zero stream toggles almost nothing; a busy stream must burn more.
  const auto fmt = core::make_format("MERSIT(8,2)");
  CodeStream quiet(200, {fmt->encode(0.0), fmt->encode(0.0)});
  const MacCost q = measure_mac(*fmt, quiet);
  const MacCost busy = measure_mac(*fmt, gaussian_stream(*fmt, 200, 17));
  EXPECT_GT(busy.power_uw, q.power_uw);
}

TEST(MeasureMac, Table3Shape) {
  // Table 3: multiplier (decoder+exp-adder+frac-mult) areas: Posit(8,1) much
  // larger than FP(8,4) and MERSIT(8,2), which are comparable; the MERSIT
  // decoder is the smallest of the three.
  auto mult_of = [](const char* name) {
    const auto fmt = core::make_format(name);
    return measure_mac(*fmt, gaussian_stream(*fmt, 64, 5));
  };
  const MacCost fp = mult_of("FP(8,4)");
  const MacCost ps = mult_of("Posit(8,1)");
  const MacCost me = mult_of("MERSIT(8,2)");
  EXPECT_GT(ps.multiplier().area_um2, 1.05 * me.multiplier().area_um2);
  EXPECT_GT(ps.multiplier().area_um2, 1.05 * fp.multiplier().area_um2);
  EXPECT_LT(me.component("decoder").area_um2, ps.component("decoder").area_um2);
  // FP's fraction multiplier (4x4) must be smaller than MERSIT's (5x5),
  // Table 3's explanation for the near-equal multiplier totals.
  EXPECT_LT(fp.component("frac_multiplier").area_um2,
            me.component("frac_multiplier").area_um2);
}

// --- golden replay statistics ------------------------------------------------

/// Seeded stream of raw code pairs (every code, special ones included);
/// built from mt19937 words only, so it is the same on every platform.
CodeStream raw_code_stream(unsigned seed, std::size_t n) {
  std::mt19937 rng(seed);
  CodeStream s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = rng();
    s.emplace_back(static_cast<std::uint8_t>(r & 0xFFu),
                   static_cast<std::uint8_t>((r >> 8) & 0xFFu));
  }
  return s;
}

struct GoldenReplay {
  const char* format;
  int lanes;
  std::size_t pairs, sweeps;
  std::uint64_t toggles;
  double energy_fj;
};

/// raw_code_stream(20241, 5000) replayed through each headline MAC,
/// recorded with the in-order (uncompiled) simulator.  Any change to these
/// numbers is a change to the simulated hardware, not an optimisation.
constexpr GoldenReplay kGolden[] = {
    {"FP(8,4)", 64, 5000, 79, 1153994, 0x1.44f5266666664p+20},
    {"FP(8,4)", 1, 5000, 5000, 1152181, 0x1.43a02999999a2p+20},
    {"Posit(8,1)", 64, 5000, 79, 1410343, 0x1.973e519999991p+20},
    {"Posit(8,1)", 1, 5000, 5000, 1401081, 0x1.9387dccccccd1p+20},
    {"MERSIT(8,2)", 64, 5000, 79, 1297193, 0x1.77cd61999999ap+20},
    {"MERSIT(8,2)", 1, 5000, 5000, 1291889, 0x1.74c1a4ccccccbp+20},
};

void expect_golden(const ReplayStats& st, const GoldenReplay& g) {
  EXPECT_EQ(st.pairs, g.pairs);
  EXPECT_EQ(st.sweeps, g.sweeps);
  EXPECT_EQ(st.toggles, g.toggles);
  EXPECT_EQ(st.energy_fj, g.energy_fj);  // bitwise, not approximately
}

void expect_same_stats(const ReplayStats& a, const ReplayStats& b) {
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.energy_fj, b.energy_fj);
  EXPECT_EQ(a.energy_by_group_fj, b.energy_by_group_fj);
}

TEST(GoldenReplay, HeadlineFormatsMatchRecordedStatistics) {
  const CodeStream stream = raw_code_stream(20241, 5000);
  for (const GoldenReplay& g : kGolden) {
    SCOPED_TRACE(std::string(g.format) + " lanes " + std::to_string(g.lanes));
    const auto fmt = core::make_format(g.format);
    MacReplay replay(*fmt);
    expect_golden(replay.replay(stream, g.lanes), g);
  }
}

TEST(GoldenReplay, RepeatedReplayIsIdentical) {
  // Each replay() starts from the simulator's reset state, so the same
  // stream must give the same statistics however often it is replayed.
  const CodeStream stream = raw_code_stream(20241, 5000);
  for (const auto& fmt : core::headline_formats()) {
    SCOPED_TRACE(fmt->name());
    MacReplay replay(*fmt);
    const ReplayStats first = replay.replay(stream);
    (void)replay.replay(raw_code_stream(7, 777), 13);
    expect_same_stats(replay.replay(stream), first);
    expect_same_stats(replay.replay(stream), first);
  }
}

TEST(GoldenReplay, InterleavedFormatsMatchTheirSoloRuns) {
  // Two harnesses replayed alternately, each built from a Format object
  // destroyed right after construction (so the next format may reuse its
  // address): nothing may be shared or cached between them.
  const CodeStream stream = raw_code_stream(20241, 5000);
  const auto golden = [](const std::string& name, int lanes) {
    for (const GoldenReplay& g : kGolden)
      if (g.format == name && g.lanes == lanes) return g;
    throw std::out_of_range(name);
  };
  const auto build = [](const char* name) {
    auto fmt = core::make_format(name);
    return std::make_unique<MacReplay>(*fmt);
  };
  const std::unique_ptr<MacReplay> mersit = build("MERSIT(8,2)");
  const std::unique_ptr<MacReplay> posit = build("Posit(8,1)");
  for (int round = 0; round < 2; ++round) {
    for (const int lanes : {64, 1}) {
      expect_golden(mersit->replay(stream, lanes), golden("MERSIT(8,2)", lanes));
      expect_golden(posit->replay(stream, lanes), golden("Posit(8,1)", lanes));
    }
  }
}

TEST(MakeCodeStream, EncodesScaledValues) {
  const auto fmt = core::make_format("FP(8,4)");
  std::vector<float> w = {1.0f, -2.0f};
  std::vector<float> a = {0.5f, 0.25f};
  const CodeStream s = make_code_stream(*fmt, w, a, 2.0, 0.5);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].first, fmt->encode(0.5));
  EXPECT_EQ(s[0].second, fmt->encode(1.0));
  EXPECT_EQ(s[1].first, fmt->encode(-1.0));
  EXPECT_EQ(s[1].second, fmt->encode(0.5));
}

}  // namespace
}  // namespace mersit::hw
