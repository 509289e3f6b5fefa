#include "ptq/sweep.h"

#include <mutex>

#include "core/thread_pool.h"

namespace mersit::ptq {

std::vector<float> run_format_sweep(
    nn::Module& model, const nn::Dataset& calib, const nn::Dataset& test,
    const std::vector<std::shared_ptr<const formats::Format>>& fmts,
    const PtqOptions& opt) {
  std::vector<float> metrics;
  metrics.reserve(fmts.size());
  // Calibration observes FP32 activations only — it is independent of the
  // format under evaluation — so one pass serves every row instead of
  // re-calibrating per format.
  const CalibrationTable table = calibrate_model(model, calib, opt.quantize_input);
  for (const auto& fmt : fmts)
    metrics.push_back(evaluate_with_table(model, table, test, *fmt, opt));
  return metrics;
}

std::vector<SweepRowResult> SweepRunner::run() {
  std::vector<SweepRowResult> results(rows_.size());
  std::mutex progress_mu;
  core::global_pool().parallel_for(rows_.size(), [&](std::size_t i) {
    results[i] = rows_[i]();
    const std::lock_guard<std::mutex> lock(progress_mu);
    if (progress_) progress_(results[i]);
  });
  rows_.clear();
  return results;
}

}  // namespace mersit::ptq
