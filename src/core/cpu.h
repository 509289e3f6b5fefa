// Host CPU feature detection and the one SIMD tier every vector loop runs.
//
// One CPUID probe per process (GCC/Clang's __builtin_cpu_supports on x86-64;
// every bit stays false elsewhere, where only the scalar loops are built),
// cached in a static so callers can query on every dispatch without cost.
//
// The tier (scalar, AVX2 or AVX-512) is decided here and nowhere else:
// MERSIT_BACKEND names it, strict-parsed through core/env.h (an unknown name
// throws listing the accepted set; a tier the host cannot execute throws
// naming the host's features instead of faulting on the first illegal
// instruction), else it is the widest tier the host executes.  Every SIMD
// loop reads active_tier() — the GEMM and depthwise kernels through
// nn::gemm::active_backend(), the fake-quant loops per
// QuantKernel::fake_quantize call, and int8 level quantization through the
// backend's quantize_levels entry — so one setting moves all of them.
#pragma once

#include <cstdint>
#include <string>

namespace mersit::core {

/// Feature bits the SIMD tiers and the gate simulator's popcnt loop
/// care about.  `avx512f` implies the host also passed the OS
/// XSAVE/ZMM-state check that __builtin_cpu_supports performs, so a true
/// bit means the instructions are actually executable, not merely
/// advertised by CPUID.
struct CpuFeatures {
  bool popcnt = false;   ///< x86: popcnt (not in the x86-64 baseline)
  bool avx2 = false;     ///< x86: 256-bit integer/float SIMD
  bool avx512f = false;  ///< x86: 512-bit foundation (masked ops included)
  bool avx512vnni = false;  ///< x86: vpdpbusd int8 dot-product (DL Boost)
};

/// The host's features, probed once per process (thread-safe static init).
[[nodiscard]] const CpuFeatures& cpu_features();

/// Human-readable summary ("x86-64 avx2 avx512f", "aarch64",
/// "baseline") for bench reports and error messages.
[[nodiscard]] std::string cpu_feature_summary();

/// The instruction tiers the SIMD loops are built for.
enum class Tier : std::uint8_t { kScalar, kAvx2, kAvx512 };

/// Every tier, narrowest first.
inline constexpr Tier kTiers[] = {Tier::kScalar, Tier::kAvx2, Tier::kAvx512};

/// The MERSIT_BACKEND name of `tier` ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier tier);

/// True when this host can execute `tier`'s instructions (scalar always).
[[nodiscard]] bool tier_executable(Tier tier);

/// MERSIT_BACKEND strict-parsed, else the widest executable tier; throws
/// std::runtime_error naming the variable on an unknown or inexecutable
/// name.  Read at every call; active_tier() caches its first answer.
[[nodiscard]] Tier env_tier();

/// The tier every SIMD loop runs: env_tier() on first use, then whatever
/// set_tier last installed.  One relaxed atomic load.
[[nodiscard]] Tier active_tier();

/// Installs `tier` for every SIMD loop (tests, benches) and returns the
/// previous one; std::invalid_argument, leaving the active tier unchanged,
/// when the host cannot execute it.
Tier set_tier(Tier tier);

}  // namespace mersit::core
