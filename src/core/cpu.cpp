#include "core/cpu.h"

#include <atomic>
#include <stdexcept>
#include <string_view>

#include "core/env.h"

namespace mersit::core {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports consults libgcc's cached CPUID model, which
  // includes the XGETBV check that the OS saves/restores the wide register
  // state — a true bit means the instructions will actually execute.
  f.popcnt = __builtin_cpu_supports("popcnt") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  // VNNI rides the same XSAVE/ZMM-state check as avx512f; require both so a
  // true bit always means the int8 vpdpbusd kernel can execute.
  f.avx512vnni =
      f.avx512f && __builtin_cpu_supports("avx512vnni") != 0;
#endif
  return f;
}

std::atomic<Tier>& active_slot() {
  static std::atomic<Tier> slot{env_tier()};
  return slot;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();
  return f;
}

std::string cpu_feature_summary() {
  const CpuFeatures& f = cpu_features();
  std::string s;
#if defined(__x86_64__) || defined(_M_X64)
  s = "x86-64";
#elif defined(__aarch64__)
  s = "aarch64";
#else
  s = "baseline";
#endif
  if (f.avx2) s += " avx2";
  if (f.avx512f) s += " avx512f";
  if (f.avx512vnni) s += " avx512vnni";
  return s;
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

bool tier_executable(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return true;
    case Tier::kAvx2: return cpu_features().avx2;
    case Tier::kAvx512: return cpu_features().avx512f;
  }
  return false;
}

Tier env_tier() {
  const char* env = env_str("MERSIT_BACKEND");
  Tier widest = Tier::kScalar;
  for (const Tier t : kTiers) {
    if (env != nullptr && std::string_view(env) == tier_name(t)) {
      if (!tier_executable(t))
        throw std::runtime_error(
            std::string("MERSIT_BACKEND='") + env +
            "': this host cannot execute the " + tier_name(t) +
            " backend (host features: " + cpu_feature_summary() + ")");
      return t;
    }
    if (tier_executable(t)) widest = t;
  }
  if (env != nullptr)
    throw std::runtime_error(std::string("MERSIT_BACKEND='") + env +
                             "': expected one of avx512|avx2|scalar");
  return widest;
}

Tier active_tier() { return active_slot().load(std::memory_order_relaxed); }

Tier set_tier(Tier tier) {
  if (!tier_executable(tier))
    throw std::invalid_argument(
        std::string("set_tier: the ") + tier_name(tier) +
        " tier is not executable on this host (features: " +
        cpu_feature_summary() + ")");
  return active_slot().exchange(tier, std::memory_order_relaxed);
}

}  // namespace mersit::core
