// trunk-mersit and mobile-int8: closed-loop batched W8A8 PTQ inference with
// one client.  Weights are installed as 8-bit codes, activations are
// fake-quantized by a calibrated FakeQuantizer session, and every batch is
// checked against a reference computed before the timed loop.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "nn/gemm/qgemm.h"
#include "nn/models.h"
#include "ptq/ptq.h"
#include "trace_session.h"
#include "host_speed.h"
#include "workloads.h"

namespace perfbench {

using namespace mersit;

namespace {

using nn::gemm::QgemmMode;

constexpr int kBatch = 32;
constexpr int kImg = 12;
constexpr int kCalibImages = 1000;  // the paper calibrates on 1000 images
constexpr int kPoolBatches = 4;
/// Host probes per batch (their median): a batch takes 5-25 ms, so three
/// probes of ~0.08 ms add little and steady the pairing.
constexpr int kBatchProbes = 3;
constexpr auto kPolicy = formats::ScalePolicy::kMaxToUnity;

/// int8-vs-code logit tolerance documented in bench_inference (kInt8RelTol):
/// exact int32 accumulation and FP32 accumulation can straddle a fake-quant
/// rounding boundary, flipping an activation by one grid step.
constexpr float kInt8RelTol = 0.15f;

struct PtqSpec {
  const char* format;
  QgemmMode mode;
  nn::ModulePtr (*make)(std::mt19937&);
  int pool_width;  ///< GEMM thread-pool width
};

nn::ModulePtr make_resnet18(std::mt19937& rng) {
  return nn::make_resnet_mini(3, 10, 1, rng);
}
nn::ModulePtr make_mobilenet_v3(std::mt19937& rng) {
  return nn::make_mobilenet_v3_mini(3, 10, rng);
}

/// A model as a user deploys it: built, BN folded, calibrated, weight codes
/// installed and prepacked by one forward.  Heap-pinned because the
/// FakeQuantizer keeps a reference to `table`.
struct Deployment {
  nn::ModulePtr model;
  ptq::CalibrationTable table;
  std::unique_ptr<ptq::FakeQuantizer> fq;
  double calibrate_ms = 0.0, install_ms = 0.0, first_forward_ms = 0.0;
  double total_s = 0.0;
};

nn::Tensor forward(nn::Module& model, nn::QuantSession& session,
                   const nn::Tensor& batch) {
  nn::Tensor x = batch;
  session.on_input(x);
  return model.run(x, nn::Context{/*train=*/false, &session});
}

std::unique_ptr<Deployment> deploy(const PtqSpec& spec, const formats::Format& fmt,
                                   unsigned seed, const nn::Dataset& calib,
                                   const nn::Tensor& first_batch) {
  auto d = std::make_unique<Deployment>();
  const auto t0 = Clock::now();
  std::mt19937 rng(sub_seed(seed, 1));
  d->model = spec.make(rng);
  nn::fold_all_batchnorms(*d->model);
  const auto t1 = Clock::now();
  d->table = ptq::calibrate_model(*d->model, calib);
  const auto t2 = Clock::now();
  ptq::install_weight_codes(*d->model, fmt, kPolicy);
  d->fq = std::make_unique<ptq::FakeQuantizer>(d->table, fmt, kPolicy);
  d->fq->set_input_quantization(true);
  const auto t3 = Clock::now();
  (void)forward(*d->model, *d->fq, first_batch);
  const auto t4 = Clock::now();
  d->calibrate_ms = ms_between(t1, t2);
  d->install_ms = ms_between(t2, t3);
  d->first_forward_ms = ms_between(t3, t4);
  d->total_s = ms_between(t0, t4) / 1e3;
  return d;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// mobile-int8 check: logits within kInt8RelTol, and each row's reference
/// top-1 class attains the row maximum.  The logits are fake-quantized, so
/// two classes can tie exactly on the grid; argmax would then pick one by
/// index, which is not a disagreement.
bool int8_matches(const nn::Tensor& got, const nn::Tensor& ref) {
  if (got.shape() != ref.shape()) return false;
  const int rows = ref.dim(0), classes = ref.dim(1);
  for (int r = 0; r < rows; ++r) {
    const float* g = got.raw() + static_cast<std::size_t>(r) * classes;
    const float* e = ref.raw() + static_cast<std::size_t>(r) * classes;
    int g_top = 0, e_top = 0;
    for (int c = 0; c < classes; ++c) {
      if (std::fabs(g[c] - e[c]) > kInt8RelTol * std::max(1.f, std::fabs(e[c])))
        return false;
      if (g[c] > g[g_top]) g_top = c;
      if (e[c] > e[e_top]) e_top = c;
    }
    if (g[e_top] != g[g_top]) return false;
  }
  return true;
}

void add_trace_metrics(Result& res, const TracingSession& tracer,
                       const std::vector<double>& traced_ms,
                       const std::vector<double>& untraced_ms) {
  const std::vector<ForwardBreakdown> fwd = breakdown(tracer);
  if (fwd.size() != traced_ms.size())
    throw std::logic_error("trace: span batches do not match traced forwards");
  std::array<std::vector<double>, kKinds> kind_ms, kind_macs;
  std::vector<double> fq_ms, fq_elems, attributed_ms;
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    for (int k = 0; k < kKinds; ++k) {
      kind_ms[k].push_back(fwd[i].kind_ms[k]);
      kind_macs[k].push_back(fwd[i].kind_macs[k]);
    }
    fq_ms.push_back(fwd[i].fakequant_ms);
    fq_elems.push_back(fwd[i].fakequant_elems);
    attributed_ms.push_back(fwd[i].attributed_ms());
  }
  for (int k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<Kind>(k);
    if (kind == Kind::kOther) continue;
    const std::string base = std::string("nn.") + kind_name(kind);
    const double ms = median(kind_ms[k]);
    res.layers[base + ".ms"] = ms;
    if (kind != Kind::kConvKxK && kind != Kind::kConvDw && kind != Kind::kConv1x1 &&
        kind != Kind::kLinear)
      continue;
    const double macs = median(kind_macs[k]);
    res.layers[base + ".macs"] = macs;
    if (kind != Kind::kLinear) res.layers[base + ".gmac_per_s"] = ms > 0.0 ? macs / (ms * 1e6) : 0.0;
  }

  const double fq50 = median(fq_ms), elems50 = median(fq_elems);
  res.layers["formats.fakequant.ms"] = fq50;
  res.layers["formats.fakequant.elems"] = elems50;
  res.layers["formats.fakequant.ns_per_elem"] = elems50 > 0 ? fq50 * 1e6 / elems50 : 0.0;
  // Reconciliation against the untraced forward: the spans tile the traced
  // forward by construction, so only this comparison can expose time the
  // spans add (tracing overhead) or miss.  Fast quantiles, like the
  // end-to-end times, so neighbours on a shared host do not decide it.
  res.layers["trace.overhead_frac"] = median(traced_ms) / median(untraced_ms) - 1.0;
  const double unattr = 1.0 - quantile(attributed_ms, kFastQuantile) /
                                  quantile(untraced_ms, kFastQuantile);
  res.layers["trace.unattributed_frac"] = unattr;
  if (std::fabs(unattr) > kReconcileTol)
    res.fail("trace: spans sum to " + std::to_string(100.0 * (1.0 - unattr)) +
             "% of the untraced forward's wall time (tolerance " +
             std::to_string(100.0 * kReconcileTol) + "%)");
}

Result run_ptq(const Args& args, const PtqSpec& spec) {
  Result res;
  core::resize_global_pool(spec.pool_width);
  const QgemmMode prev_mode = nn::gemm::set_qgemm_mode(spec.mode);
  const auto fmt = core::make_format(spec.format);

  // Generated inputs: calibration images and a pool of input batches that
  // share class prototypes (same task seed) but not samples.
  const unsigned task = sub_seed(args.seed, 2);
  const nn::Dataset calib =
      nn::make_vision_dataset(kCalibImages, 3, kImg, sub_seed(args.seed, 3), task);
  const nn::Dataset pool_data = nn::make_vision_dataset(
      kPoolBatches * kBatch, 3, kImg, sub_seed(args.seed, 4), task);
  std::vector<nn::Tensor> pool;
  for (int p = 0; p < kPoolBatches; ++p)
    pool.push_back(nn::slice_batch(pool_data.inputs, p * kBatch, kBatch));

  HostProbe probe;
  std::vector<double> setup_s, calibrate_ms, install_ms, first_ms;
  const auto timed_deploy = [&] {
    const Slowdown before = probe.measure(kSetupProbes);
    std::unique_ptr<Deployment> r = deploy(spec, *fmt, args.seed, calib, pool[0]);
    const Slowdown after = probe.measure(kSetupProbes);
    setup_s.push_back(r->total_s / std::sqrt(before.mixed() * after.mixed()));
    calibrate_ms.push_back(r->calibrate_ms);
    install_ms.push_back(r->install_ms);
    first_ms.push_back(r->first_forward_ms);
    return r;
  };
  const std::unique_ptr<Deployment> d = timed_deploy();

  // References, outside set-up and the timed loop.
  std::vector<nn::Tensor> refs;
  if (spec.mode == QgemmMode::kCode) {
    // FP32 forward over fake-quantized weights under the same session: the
    // code path must reproduce it to the last bit.
    nn::ModulePtr ref_model = d->model->clone();
    ptq::quantize_weights_per_channel(*ref_model, *fmt, kPolicy);
    nn::gemm::set_qgemm_mode(QgemmMode::kFloat);
    for (const nn::Tensor& b : pool) refs.push_back(forward(*ref_model, *d->fq, b));
  } else {
    nn::gemm::set_qgemm_mode(QgemmMode::kCode);
    for (const nn::Tensor& b : pool) refs.push_back(forward(*d->model, *d->fq, b));
  }
  nn::gemm::set_qgemm_mode(spec.mode);
  const auto matches = [&](const nn::Tensor& y, std::size_t p) {
    return spec.mode == QgemmMode::kCode ? bitwise_equal(y, refs[p])
                                         : int8_matches(y, refs[p]);
  };
  // Warm-up over the pool so mode switches above leave no repack in the loop.
  for (const nn::Tensor& b : pool) (void)forward(*d->model, *d->fq, b);

  TracingSession tracer(*d->model, *d->fq);
  std::vector<nn::Tensor> untraced_out(pool.size());
  std::vector<double> untraced_ms, traced_ms;
  /// Untraced batch times per pool batch, normalised to nominal host speed.
  std::vector<std::vector<double>> pool_ms(pool.size());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(args.seconds);
  SetupSchedule setups(start, args.seconds);
  for (std::uint32_t i = 0; Clock::now() < end; ++i) {
    if (setups.due()) (void)timed_deploy();  // a fresh deployment, discarded
    // Traced runs alternate untraced and traced forwards of the same batch,
    // so both see the same machine state and their outputs can be compared.
    const bool traced = args.trace && i % 2 == 1;
    const std::size_t p = (args.trace ? i / 2 : i) % pool.size();
    const double slowdown = probe.measure(kBatchProbes).mixed();
    const auto t0 = Clock::now();
    if (traced) tracer.begin_batch(i);
    const nn::Tensor y =
        traced ? forward(*d->model, tracer, pool[p]) : forward(*d->model, *d->fq, pool[p]);
    const double ms = ms_between(t0, Clock::now());
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (!traced) pool_ms[p].push_back(ms / slowdown);
    ++res.attempted;
    if (!matches(y, p)) res.fail("batch " + std::to_string(i) + " output mismatch");
    if (traced && !bitwise_equal(y, untraced_out[p]))
      res.fail("batch " + std::to_string(i) + ": traced output differs from untraced");
    if (!traced) untraced_out[p] = y;
  }
  while (setups.owed()) (void)timed_deploy();
  if (d->fq->uncalibrated_layers() != 0) res.fail("uncalibrated quant points fired");

  res.end_to_end["setup_s"] = median(setup_s);
  // One operation is a batch: the median normalised time of each pool batch,
  // averaged over the pool.
  const double batch_ms = pass_ms(pool_ms) / static_cast<double>(pool.size());
  res.end_to_end["op_ms"] = batch_ms;
  res.layers["ptq.calibrate_ms"] = median(calibrate_ms);
  res.layers["ptq.install_ms"] = median(install_ms);
  res.layers["nn.first_forward_ms"] = median(first_ms);
  std::printf("%s: %zu batches of %d, pool width %d; at nominal host speed batch_ms "
              "%.3f, img_per_s %.1f; wall batch_ms p10 %.3f p50 %.3f p90 %.3f\n",
              args.workload.c_str(), untraced_ms.size(), kBatch, spec.pool_width, batch_ms,
              1e3 * kBatch / batch_ms, quantile(untraced_ms, kFastQuantile),
              median(untraced_ms), quantile(untraced_ms, 0.90));

  if (args.trace) {
    add_trace_metrics(res, tracer, traced_ms, untraced_ms);
    if (!args.trace_out.empty() &&
        !write_path_rows(tracer, args.trace_out, args.workload))
      res.fail("cannot write " + args.trace_out);
  }
  nn::gemm::set_qgemm_mode(prev_mode);
  return res;
}

}  // namespace

Result run_trunk_mersit(const Args& args) {
  return run_ptq(args, {"MERSIT(8,2)", QgemmMode::kCode, &make_resnet18, 2});
}

Result run_mobile_int8(const Args& args) {
  return run_ptq(args, {"INT8", QgemmMode::kInt8, &make_mobilenet_v3, 1});
}

}  // namespace perfbench
