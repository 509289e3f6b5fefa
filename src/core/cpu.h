// Host CPU feature detection for the runtime-dispatched SIMD backends.
//
// One CPUID probe per process (GCC/Clang's __builtin_cpu_supports on x86-64;
// every bit stays false elsewhere, where only the scalar backend is built),
// cached in a static so callers can query on every dispatch without cost.  The GEMM backend registry keys off these
// bits: auto-detection walks its backend list best-first and picks the first
// one whose required features the host actually has, and a forced
// MERSIT_BACKEND that names a backend the host cannot execute is rejected
// loudly instead of faulting on the first illegal instruction.
#pragma once

#include <string>

namespace mersit::core {

/// Feature bits the SIMD backends and the gate simulator's popcnt loop
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

}  // namespace mersit::core
