// perfbench: runs one named, seeded workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"} whose metrics map
// each name the workload measured to its value: the end-to-end set with
// --trace 0, the per-layer set with --trace 1.  Exit code 0 means the run
// completed (its outputs may still have failed their checks, which "correct"
// reports); a bad argument or an exception exits 1 without a result line.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload trunk-mersit|mobile-int8|serve-swap|"
               "gate-replay --seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 1;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      const unsigned long v = std::strtoul(val, &end, 10);
      if (*end != '\0' || v > 0xffffffffUL) return false;
      a.seed = static_cast<unsigned>(v);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a.trace = val[0] == '1';
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Print the result line.  Metric names and units live in BENCHMARK.json;
/// run.py checks these names against it and adds the units.
void print_result(const Result& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : trace ? r.layers : r.end_to_end) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (first ? "\"" : ", \"") + name + "\": " + num;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) return usage(argv[0]);

  Result (*run)(const Args&) = nullptr;
  if (args.workload == "trunk-mersit") run = &run_trunk_mersit;
  if (args.workload == "mobile-int8") run = &run_mobile_int8;
  if (args.workload == "serve-swap") run = &run_serve_swap;
  if (args.workload == "gate-replay") run = &run_gate_replay;
  if (run == nullptr) return usage(argv[0]);

  Result res;
  try {
    res = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  res.end_to_end["peak_rss_mb"] = peak_rss_mb();
  for (const std::string& e : res.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  print_result(res, args.trace);
  return 0;
}
