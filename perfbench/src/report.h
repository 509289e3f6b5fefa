// Shared plumbing for the perfbench workloads: run arguments, timing,
// summary statistics and the result record that main() prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< per-path rows of the traced run ("" = none)
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile with linear interpolation between closest ranks (numpy's
/// default); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// On hosts whose cores are shared with other tenants (a 4-core x86 VM
/// measured slowdowns of 1.2-1.6x lasting seconds to minutes), a run's
/// median wall time follows the neighbours.  Wall times that are not
/// normalised to host speed (host_speed.h) are therefore compared at this
/// quantile of a run's samples, which follows the code whenever a tenth of
/// the run is uncontended.
inline constexpr double kFastQuantile = 0.10;

/// Set-up is repeated this many times per run and reported as the median,
/// so one slow repetition does not move setup_s.
inline constexpr int kSetupReps = 5;

/// Spreads set-up repetitions 2..kSetupReps evenly over the timed period
/// (the first runs before it), so setup_s samples the same machine
/// conditions as the timed operations rather than one moment of the run.
class SetupSchedule {
 public:
  SetupSchedule(Clock::time_point start, double seconds)
      : start_(start), period_(seconds / kSetupReps) {}
  /// True, and counts the repetition, when the next one is due.
  bool due() {
    if (done_ >= kSetupReps ||
        Clock::now() < start_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(period_ * done_)))
      return false;
    ++done_;
    return true;
  }
  /// True, and counts it, while a repetition is still owed after the period.
  bool owed() {
    if (done_ >= kSetupReps) return false;
    ++done_;
    return true;
  }

 private:
  Clock::time_point start_;
  double period_;
  int done_ = 1;
};

/// Derive an independent sub-seed for one input stream of a workload, so
/// every generated input is a function of the run's --seed alone.
inline unsigned sub_seed(unsigned seed, unsigned stream) {
  return seed * 7919u + stream * 104729u + 17u;
}

/// What one run measured.  Metric names must appear in BENCHMARK.json;
/// run.py reports the per-layer metrics a workload does not set as 0.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void fail(std::string why, std::int64_t n = 1) {
    failed += n;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

}  // namespace perfbench
