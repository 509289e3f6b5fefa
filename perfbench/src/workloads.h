// The benchmark's workloads; each runs one seeded workload and returns what
// it measured.  Why each exists is recorded in BENCHMARK.json and
// perfbench/README.md.
#pragma once

#include "report.h"

namespace perfbench {

[[nodiscard]] Result run_trunk_mersit(const Args& args);
[[nodiscard]] Result run_mobile_int8(const Args& args);
[[nodiscard]] Result run_serve_swap(const Args& args);
[[nodiscard]] Result run_gate_replay(const Args& args);

}  // namespace perfbench
