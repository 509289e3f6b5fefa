#include "core/cpu.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tier_guard.h"

namespace mersit::core {
namespace {

/// Sets (or, for nullptr, unsets) MERSIT_BACKEND, and restores the value it
/// had on scope exit.
struct BackendEnvGuard {
  explicit BackendEnvGuard(const char* value) {
    if (const char* old = std::getenv("MERSIT_BACKEND")) prev = old;
    if (value != nullptr)
      setenv("MERSIT_BACKEND", value, /*overwrite=*/1);
    else
      unsetenv("MERSIT_BACKEND");
  }
  ~BackendEnvGuard() {
    if (prev)
      setenv("MERSIT_BACKEND", prev->c_str(), /*overwrite=*/1);
    else
      unsetenv("MERSIT_BACKEND");
  }
  std::optional<std::string> prev;
};

TEST(CpuTier, DispatchPicksTheWidestHostTier) {
  const std::vector<Tier> tiers = test::executable_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kScalar);  // scalar always runs
  const Tier active = active_tier();
  EXPECT_EQ(active, env_tier());

  // Unset, the tier is the widest one the host executes.
  {
    const BackendEnvGuard env(nullptr);
    EXPECT_EQ(env_tier(), tiers.back());
  }

  // Setting a tier the host cannot execute throws and changes nothing; an
  // executable one round-trips.
  std::vector<Tier> bad = {static_cast<Tier>(3)};
  for (const Tier t : kTiers)
    if (!tier_executable(t)) bad.push_back(t);
  for (const Tier t : bad) {
    EXPECT_THROW(set_tier(t), std::invalid_argument);
    EXPECT_EQ(active_tier(), active);
  }
  for (const Tier t : tiers) {
    const test::TierGuard guard(t);
    EXPECT_EQ(active_tier(), t);
  }
  EXPECT_EQ(active_tier(), active);

  // A malformed MERSIT_BACKEND throws naming the variable, the value and
  // every accepted name; a known tier the host cannot run throws naming it.
  {
    const BackendEnvGuard env("bogus");
    try {
      (void)env_tier();
      ADD_FAILURE() << "MERSIT_BACKEND=bogus accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MERSIT_BACKEND='bogus'"), std::string::npos) << what;
      for (const Tier t : kTiers)
        EXPECT_NE(what.find(tier_name(t)), std::string::npos) << what;
    }
  }
  for (const Tier t : kTiers) {
    const BackendEnvGuard env(tier_name(t));
    if (tier_executable(t))
      EXPECT_EQ(env_tier(), t);
    else
      EXPECT_THROW((void)env_tier(), std::runtime_error) << tier_name(t);
  }
  EXPECT_EQ(active_tier(), active);
}

}  // namespace
}  // namespace mersit::core
