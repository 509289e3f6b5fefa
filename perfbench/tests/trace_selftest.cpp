// Self-test of the benchmark's tracing decorator: a traced forward must
// produce bit-identical outputs to an untraced one, its spans must sum to the
// untraced forward's wall time within kReconcileTol, and the layer
// classification must find the layer kinds each model is known to contain.
// Exits nonzero on failure.
//
// Run with: python3 perfbench/run.py --selftest
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "nn/gemm/qgemm.h"
#include "nn/models.h"
#include "ptq/ptq.h"
#include "../src/report.h"
#include "../src/trace_session.h"

using namespace mersit;
using perfbench::Kind;

namespace {

constexpr std::uint32_t kForwards = 101;
constexpr int kRounds = 3;
constexpr double kTol = perfbench::kReconcileTol;
int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "trace_selftest: FAILED: %s\n", what.c_str());
    ++failures;
  }
}

nn::Tensor forward(nn::Module& model, nn::QuantSession& s, const nn::Tensor& batch) {
  nn::Tensor x = batch;
  s.on_input(x);
  return model.run(x, nn::Context{false, &s});
}

void run_case(const char* label, nn::ModulePtr model, const char* format,
              nn::gemm::QgemmMode mode, std::initializer_list<Kind> expected) {
  nn::gemm::set_qgemm_mode(mode);
  nn::fold_all_batchnorms(*model);
  const nn::Dataset data = nn::make_vision_dataset(48, 3, 12, 5, 6);
  const auto fmt = core::make_format(format);
  const ptq::CalibrationTable table = ptq::calibrate_model(*model, data);
  ptq::install_weight_codes(*model, *fmt, formats::ScalePolicy::kMaxToUnity);
  ptq::FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
  fq.set_input_quantization(true);
  const nn::Tensor batch = nn::slice_batch(data.inputs, 0, 32);

  perfbench::TracingSession tracer(*model, fq);
  (void)forward(*model, fq, batch);  // prepacks, outside the timed forwards
  // Reconcile the spans with the untraced forward, as the workloads do.  A
  // neighbour on a shared host can skew one round of forwards, so a round
  // that misses is retried; a real tracing cost misses every round.
  std::uint32_t traced_forwards = 0;
  double ratio = 0.0;
  for (int round = 0; round < kRounds && std::fabs(ratio - 1.0) > kTol; ++round) {
    std::vector<double> plain_ms;
    for (std::uint32_t i = 0; i < kForwards; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const nn::Tensor plain = forward(*model, fq, batch);
      plain_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0).count());
      tracer.begin_batch(traced_forwards++);
      const nn::Tensor traced = forward(*model, tracer, batch);
      check(plain.shape() == traced.shape() &&
                std::memcmp(plain.raw(), traced.raw(),
                            static_cast<std::size_t>(plain.numel()) * sizeof(float)) == 0,
            std::string(label) + ": traced output differs from untraced");
    }
    const auto fwd = perfbench::breakdown(tracer);
    std::vector<double> attributed_ms;
    for (std::size_t i = fwd.size() - kForwards; i < fwd.size(); ++i)
      attributed_ms.push_back(fwd[i].attributed_ms());
    ratio = perfbench::quantile(attributed_ms, perfbench::kFastQuantile) /
            perfbench::quantile(plain_ms, perfbench::kFastQuantile);
  }
  check(std::fabs(ratio - 1.0) <= kTol,
        std::string(label) + ": spans sum to " + std::to_string(ratio) +
            " of the untraced forward's wall time");
  check(fq.uncalibrated_layers() == 0, std::string(label) + ": uncalibrated layers");

  const auto fwd = perfbench::breakdown(tracer);
  check(fwd.size() == traced_forwards, std::string(label) + ": one breakdown per traced forward");
  for (const Kind k : expected)
    check(fwd.back().kind_ms[static_cast<std::size_t>(k)] > 0.0,
          std::string(label) + ": no time attributed to " + perfbench::kind_name(k));
  std::size_t quant_points = 0;
  for (nn::Module* m : model->modules()) quant_points += m->quant_point() ? 1 : 0;
  std::size_t hooks = 0;
  for (const auto& sp : tracer.spans())
    hooks += sp.batch == 0 && !sp.fakequant && sp.module >= 0 ? 1 : 0;
  check(hooks > 0 && hooks <= quant_points,
        std::string(label) + ": hook spans do not match quant points");
}

}  // namespace

int main() {
  core::resize_global_pool(2);
  std::mt19937 rng(11);
  run_case("ResNet18-mini/MERSIT(8,2)/code", nn::make_resnet_mini(3, 10, 1, rng),
           "MERSIT(8,2)", nn::gemm::QgemmMode::kCode,
           {Kind::kConvKxK, Kind::kLinear, Kind::kAct, Kind::kResidual});
  run_case("MobileNet_v3-mini/INT8/int8", nn::make_mobilenet_v3_mini(3, 10, rng),
           "INT8", nn::gemm::QgemmMode::kInt8,
           {Kind::kConvDw, Kind::kConv1x1, Kind::kSE, Kind::kAct});
  if (failures == 0) std::printf("trace_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
