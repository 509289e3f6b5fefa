// Scope guard over the one SIMD tier every loop runs (core/cpu.h), shared
// by the suites that pin a loop per tier: the fake-quant kernels
// (tests/formats), the GEMM backends, depthwise and int8 level
// quantization (tests/nn).
#pragma once

#include <vector>

#include "core/cpu.h"

namespace mersit::test {

/// Installs a tier for every SIMD loop, and restores the previous one on
/// scope exit.
struct TierGuard {
  explicit TierGuard(core::Tier t) : prev(core::set_tier(t)) {}
  ~TierGuard() { core::set_tier(prev); }
  core::Tier prev;
};

/// Every tier this host executes, narrowest (scalar) first.
inline std::vector<core::Tier> executable_tiers() {
  std::vector<core::Tier> out;
  for (const core::Tier t : core::kTiers)
    if (core::tier_executable(t)) out.push_back(t);
  return out;
}

}  // namespace mersit::test
