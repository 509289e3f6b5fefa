// Host-speed normalisation of the end-to-end times.
//
// The benchmark runs on hosts whose cores are shared with other tenants.  On
// a 4-core x86 VM every thread slowed by 1.2-1.6x for stretches of seconds to
// minutes: over five seeds of 20 s gate-replay runs, even the sum of each
// replay() call's 10th-percentile time spread by 39% of its median
// (interquartile range), and the sum of minima by 25%.  No statistic of wall
// time alone removes a slowdown that covers a whole run.  The slowdown comes
// from contention inside the core, not from lost CPU time: thread CPU time
// equalled wall time and the hypervisor reported no steal.
//
// So every timed operation is paired with a probe run on the same thread
// right before it: two fixed, benchmark-owned kernels, one integer
// (shift/xor/add over an 8 KiB array) and one float (multiply-add over 48x48
// matrices, vectorised by the compiler).  A kernel's time over its nominal
// time is how much slower this core runs at that moment.  The two kernels
// slow differently (the float one by up to 1.8x where the integer one slowed
// by 1.27x), and the workloads' operations lie in between: fitted on 20 s
// runs, log(operation time) moved with log(slowdown) at a slope of ~0.6-1.1
// for the integer kernel and ~0.4-0.7 for the float one.  The geometric mean
// of both kernels' slowdowns left the smallest residual on every workload
// measured, so an operation's time divided by that mean is its time at
// nominal host speed.  On five seeds this cut the spread of gate-replay's
// pass time from 39% to 2-5%.  The probe is benchmark code, so a change to
// the library cannot change it; it runs while the library is idle (the GEMM
// pool's workers block on a condition variable between calls).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "report.h"

namespace perfbench {

/// The probe kernels' times that define nominal host speed: about what they
/// take on an uncontended core of the 4-core x86 VM the benchmark was tuned
/// on.
inline constexpr double kIntNominalMs = 0.066;
inline constexpr double kFpNominalMs = 0.0085;

/// How many times slower than nominal the core ran one probe's kernels.
struct Slowdown {
  double integer = 1.0;
  double fp = 1.0;
  [[nodiscard]] double mixed() const { return std::sqrt(integer * fp); }
};

class HostProbe {
 public:
  HostProbe()
      : words_(1 << 10, 1), a_(kDim * kDim, 1.0f), b_(kDim * kDim, 0.5f),
        c_(kDim * kDim, 0.0f) {}

  /// Run the probe once.
  Slowdown measure() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0;
    for (int r = 0; r < 64; ++r)
      for (std::uint64_t& w : words_) {
        w = (w ^ (w << 7)) + x;
        x += w >> 3;
      }
    const auto t1 = Clock::now();
    for (int i = 0; i < kDim; ++i)
      for (int k = 0; k < kDim; ++k) {
        const float av = a_[i * kDim + k];
        for (int j = 0; j < kDim; ++j) c_[i * kDim + j] += av * b_[k * kDim + j];
      }
    const auto t2 = Clock::now();
    sink_ = sink_ + x + static_cast<std::uint64_t>(c_[7]);
    return {ms_between(t0, t1) / kIntNominalMs, ms_between(t1, t2) / kFpNominalMs};
  }

  /// Per-kernel medians of `n` probes: the host speed around a long
  /// operation (a set-up).
  Slowdown measure(int n) {
    std::vector<double> integer, fp;
    for (int i = 0; i < n; ++i) {
      const Slowdown s = measure();
      integer.push_back(s.integer);
      fp.push_back(s.fp);
    }
    return {median(std::move(integer)), median(std::move(fp))};
  }

 private:
  static constexpr int kDim = 48;
  std::vector<std::uint64_t> words_;
  std::vector<float> a_, b_, c_;
  volatile std::uint64_t sink_ = 0;
};

/// Probes taken before and after each set-up repetition.
inline constexpr int kSetupProbes = 9;

/// Time of one pass over every distinct operation of a workload: the sum,
/// over operations, of the median of that operation's normalised timings.
/// `ms[i]` holds every timing of operation i, which runs the same code on
/// the same input each time, so a regression in any one operation moves the
/// sum.
inline double pass_ms(const std::vector<std::vector<double>>& ms) {
  double sum = 0.0;
  for (const std::vector<double>& op : ms) sum += median(op);
  return sum;
}

}  // namespace perfbench
