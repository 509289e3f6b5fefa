// Parallel PTQ sweep runner (the Table-2 model×format grid).
//
// Two levels of parallelism compose here:
//  * rows (one model each: train → fold BN → evaluate every format) are
//    independent Module trees, so the runner fans them out across the
//    thread pool;
//  * within a row, the per-format evaluations share one mutable model
//    (weights are quantized in place and restored), so formats run serially
//    — but the PTQ hot loops inside each evaluation (calibration batches,
//    per-channel weight quantization, test batches) parallelize through the
//    same pool, which runs them inline when called from a row worker
//    (nested regions) and across threads when rows are scarce.
//
// Results come back in submission order regardless of completion order, so
// a sweep prints identical tables at any MERSIT_THREADS setting.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptq/ptq.h"

namespace mersit::ptq {

/// Metric column per format for one model row, plus the FP32 baseline.
struct SweepRowResult {
  std::string name;
  float fp32 = 0.f;
  std::vector<float> metrics;  // one per format, in sweep order
};

/// Evaluate `model` against every format in `fmts` (serially — weights are
/// mutated in place and restored between formats), returning one metric per
/// format.  The hot loops inside each evaluation use the thread pool.
[[nodiscard]] std::vector<float> run_format_sweep(
    nn::Module& model, const nn::Dataset& calib, const nn::Dataset& test,
    const std::vector<std::shared_ptr<const formats::Format>>& fmts,
    const PtqOptions& opt = {});

/// Deferred sweep rows, executed across the pool by run().  A whole
/// full-sizing Table-2 sweep takes well under a minute on four threads, so
/// rows keep no state between runs: a rerun recomputes everything.
class SweepRunner {
 public:
  using RowFn = std::function<SweepRowResult()>;

  /// Queue one row (the closure owns/creates its model and must not touch
  /// state shared with other rows).
  void add_row(RowFn fn) { rows_.push_back(std::move(fn)); }

  /// Optional progress callback, invoked (serialized) as each row finishes.
  void on_row_done(std::function<void(const SweepRowResult&)> cb) {
    progress_ = std::move(cb);
  }

  /// Run every queued row across the thread pool; results are returned in
  /// add_row() order.  Clears the queue.
  [[nodiscard]] std::vector<SweepRowResult> run();

 private:
  std::vector<RowFn> rows_;
  std::function<void(const SweepRowResult&)> progress_;
};

}  // namespace mersit::ptq
