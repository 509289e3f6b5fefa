#include "core/cpu.h"

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

}  // namespace mersit::core
