// BitFlipInjector and campaign determinism: identical seeds must produce
// identical corruption patterns and identical campaign reports.
#include "fault/bitflip.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <stdexcept>

#include "core/registry.h"
#include "fault/campaign.h"
#include "nn/data.h"
#include "nn/models.h"
#include "ptq/ptq.h"

namespace mersit::fault {
namespace {

ptq::QuantizedModel small_artifact(const std::string& fmt_name) {
  std::mt19937 rng(3);
  auto model = nn::make_vgg_mini(3, 10, rng);
  const auto fmt = core::make_format(fmt_name);
  return ptq::pack_weights(*model, *fmt);
}

TEST(BitFlip, ZeroBerFlipsNothing) {
  ptq::QuantizedModel qm = small_artifact("MERSIT(8,2)");
  const ptq::QuantizedModel before = qm;
  BitFlipInjector inj(42);
  const InjectionReport rep = inj.inject_ber(qm, 0.0);
  EXPECT_EQ(rep.bits_flipped, 0u);
  EXPECT_EQ(rep.codes_touched, 0u);
  for (std::size_t i = 0; i < qm.tensors.size(); ++i)
    EXPECT_EQ(qm.tensors[i].codes, before.tensors[i].codes);
}

TEST(BitFlip, UnitBerFlipsEveryBit) {
  ptq::QuantizedModel qm = small_artifact("MERSIT(8,2)");
  const ptq::QuantizedModel before = qm;
  BitFlipInjector inj(42);
  const InjectionReport rep = inj.inject_ber(qm, 1.0);
  EXPECT_EQ(rep.codes_touched, rep.total_codes);
  EXPECT_EQ(rep.bits_flipped, 8u * rep.total_codes);
  for (std::size_t i = 0; i < qm.tensors.size(); ++i)
    for (std::size_t j = 0; j < qm.tensors[i].codes.size(); ++j)
      EXPECT_EQ(qm.tensors[i].codes[j],
                static_cast<std::uint8_t>(before.tensors[i].codes[j] ^ 0xFF));
}

TEST(BitFlip, SameSeedSamePattern) {
  ptq::QuantizedModel a = small_artifact("FP(8,4)");
  ptq::QuantizedModel b = a;
  BitFlipInjector ia(7), ib(7);
  const InjectionReport ra = ia.inject_ber(a, 0.01);
  const InjectionReport rb = ib.inject_ber(b, 0.01);
  EXPECT_EQ(ra.bits_flipped, rb.bits_flipped);
  EXPECT_GT(ra.bits_flipped, 0u);
  for (std::size_t i = 0; i < a.tensors.size(); ++i)
    EXPECT_EQ(a.tensors[i].codes, b.tensors[i].codes);

  ptq::QuantizedModel c = small_artifact("FP(8,4)");
  BitFlipInjector ic(8);
  (void)ic.inject_ber(c, 0.01);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.tensors.size() && !any_diff; ++i)
    any_diff = a.tensors[i].codes != c.tensors[i].codes;
  EXPECT_TRUE(any_diff) << "different seeds should give different patterns";
}

TEST(BitFlip, TargetedBitTouchesOnlyThatPosition) {
  ptq::QuantizedModel qm = small_artifact("Posit(8,1)");
  const ptq::QuantizedModel before = qm;
  BitFlipInjector inj(11);
  const InjectionReport rep = inj.inject_bit_position(qm, 7, 1.0);
  EXPECT_EQ(rep.codes_touched, rep.total_codes);
  for (std::size_t i = 0; i < qm.tensors.size(); ++i)
    for (std::size_t j = 0; j < qm.tensors[i].codes.size(); ++j)
      EXPECT_EQ(static_cast<std::uint8_t>(qm.tensors[i].codes[j] ^
                                          before.tensors[i].codes[j]),
                0x80);
}

TEST(BitFlip, RejectsBitOutsideCodeWordAndRateOutsideUnitInterval) {
  ptq::QuantizedModel qm = small_artifact("MERSIT(8,2)");
  const ptq::QuantizedModel before = qm;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  BitFlipInjector inj(5);
  for (const int bit : {-1, 8, 15})
    EXPECT_THROW((void)inj.inject_bit_position(qm, bit, 1.0),
                 std::invalid_argument)
        << "bit " << bit;
  for (const double rate : {nan, -0.01, 1.5}) {
    EXPECT_THROW((void)inj.inject_bit_position(qm, 3, rate),
                 std::invalid_argument);
    EXPECT_THROW((void)inj.inject_ber(qm, rate), std::invalid_argument);
    EXPECT_THROW((void)inj.inject_ber_tensor(qm, 0, rate), std::invalid_argument);
  }
  for (std::size_t i = 0; i < qm.tensors.size(); ++i)
    EXPECT_EQ(qm.tensors[i].codes, before.tensors[i].codes);
}

TEST(BitFlip, DeriveSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

TEST(GateCampaign, DeterministicAndExhaustiveTally) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  GateCampaignConfig cfg;
  cfg.max_sites = 24;
  cfg.cycles = 8;
  const StuckAtReport a = run_stuckat_campaign(*fmt, cfg);
  const StuckAtReport b = run_stuckat_campaign(*fmt, cfg);
  EXPECT_EQ(a.trials, 2 * a.sites);
  EXPECT_EQ(a.masked + a.detected + a.sdc, a.trials);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_GT(a.trials, 0u);
  // A stuck-at campaign over a live MAC must corrupt *something*.
  EXPECT_GT(a.detected + a.sdc, 0u);
}

TEST(GateCampaign, TransientsAreClassifiedToo) {
  const auto fmt = core::make_format("FP(8,4)");
  GateCampaignConfig cfg;
  cfg.max_sites = 24;
  cfg.cycles = 8;
  const StuckAtReport a = run_transient_campaign(*fmt, cfg);
  const StuckAtReport b = run_transient_campaign(*fmt, cfg);
  EXPECT_EQ(a.trials, a.sites);
  EXPECT_EQ(a.masked + a.detected + a.sdc, a.trials);
  EXPECT_EQ(a.sdc, b.sdc);
}

TEST(GateCampaign, RejectsFormatsWithoutMac) {
  const auto fmt = core::make_format("INT8");
  EXPECT_THROW((void)run_stuckat_campaign(*fmt), std::invalid_argument);
}

TEST(ArtifactCampaign, DeterministicAndRestoresWeights) {
  std::mt19937 rng(3);
  auto model = nn::make_vgg_mini(3, 10, rng);
  const nn::Dataset test = nn::make_vision_dataset(48, 3, 12, 5);
  const auto fmt = core::make_format("MERSIT(8,2)");

  const ptq::WeightSnapshot before = ptq::snapshot_weights(*model);
  ArtifactCampaignConfig cfg;
  cfg.bers = {1e-3, 1e-2};
  cfg.seed = 77;
  const ArtifactCampaignResult a = run_artifact_campaign(*model, test, *fmt, cfg);
  const ArtifactCampaignResult b = run_artifact_campaign(*model, test, *fmt, cfg);

  ASSERT_EQ(a.ber_curve.size(), 2u);
  ASSERT_EQ(a.bit_profile.size(), 8u);
  for (std::size_t i = 0; i < a.ber_curve.size(); ++i) {
    EXPECT_EQ(a.ber_curve[i].accuracy, b.ber_curve[i].accuracy);
    EXPECT_EQ(a.ber_curve[i].bits_flipped, b.ber_curve[i].bits_flipped);
    EXPECT_EQ(a.ber_curve[i].non_finite, b.ber_curve[i].non_finite);
  }
  for (int bit = 0; bit < 8; ++bit)
    EXPECT_EQ(a.bit_profile[static_cast<std::size_t>(bit)].accuracy,
              b.bit_profile[static_cast<std::size_t>(bit)].accuracy);

  // Weights restored bit-exactly after the campaign.
  const ptq::WeightSnapshot after = ptq::snapshot_weights(*model);
  ASSERT_EQ(before.values.size(), after.values.size());
  for (std::size_t i = 0; i < before.values.size(); ++i)
    for (std::int64_t j = 0; j < before.values[i].numel(); ++j)
      ASSERT_EQ(before.values[i][j], after.values[i][j]);

  // Zero-substitution keeps every unpacked weight finite even at high BER;
  // the non-finite counter records what was caught.
  EXPECT_EQ(nn::count_nonfinite_params(*model), 0);
}

}  // namespace
}  // namespace mersit::fault
