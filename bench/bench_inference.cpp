// Inference-runtime benchmark across the model zoo for the default
// inference path (each layer's compiled weight plan, BN and activations
// fused into the GEMM write-back).
//
// For every vision model (and BERT-mini) this times a full forward batch
// and cross-checks it element by element against the same model run module
// by module under a pass-through quant session, which declines every
// structural fusion.  The fused write-back applies the same per-element
// formulas as the separate BN and activation passes, so any non-zero ULP
// distance is a bug and the bench exits nonzero (the CI perf-smoke stage
// relies on this).  The layer-level bit identity against the naive loops is
// the test suite's job (GemmConv/GemmLinear/GemmAttention in
// tests/nn/test_gemm.cpp).
//
// The whole sweep runs at two pool widths (1 and 4 worker threads, via
// core::resize_global_pool) to demonstrate thread-count invariance of the
// bit-exact modes and multi-thread scaling of the prepacked path.
//
// A second column runs the code-domain quantized path (QgemmMode::kCode):
// weights are installed as 8-bit codes (ptq::install_weight_codes), and
// each layer decodes them once through the per-format LUT and packs the
// decoded FP32 array.  The decode is bit-identical to quantize→dequantize,
// so the column is gated at max ULP 0 against an FP32 forward over the same
// fake-quantized weights.  The report records the code payload's size
// (weight_bytes_codes, ~4x below FP32: what an artifact stores and a swap
// ships) alongside the latency; a warm layer holds FP32 panels, so this is
// not the in-process footprint or the forward-time weight traffic.
// A one-shot Kulisch probe documents the exact-accumulator ULP contract by
// measuring how far FP32 ascending-k accumulation drifts from the quire.
//
// A third column runs the decode-free integer path (QgemmMode::kInt8,
// INT8 weights): codes are remapped to the levels of the format's int8 grid,
// activations are quantized to levels at each GEMM boundary, and the
// accumulation runs in int32 (nn/gemm/qgemm.h documents the ULP contract).
// Because the integer path needs quantization scales on its activations,
// both sides of this comparison run under a calibrated FakeQuantizer
// session — the same hooks, so the timing difference is the GEMM path.
// Gates: logits within the contract tolerance of the code path, identical
// batch top-1, and (full sizing, SIMD host) at least 1.3x over the code
// path single-threaded on ResNet18-mini and VGG16-mini.
//
// A final single-thread sweep times the prepacked forward of every vision
// model under every SIMD tier the host executes (core::Tier, the
// MERSIT_BACKEND names scalar/avx2/avx512), cross-checking each
// backend's logits bitwise against the scalar backend — the backends
// promise the identical ascending-k rounding sequence, so any ULP distance
// is a bug.  The report records the per-backend latencies, the
// best-vs-scalar geomean, and the largest single-model speedup.
//
// Flags: --json=PATH writes the per-model latency/speedup report consumed
// by EXPERIMENTS.md ("Prepacked inference", "Code-domain inference",
// "SIMD backends") and the committed BENCH_inference.json.
// MERSIT_BENCH_FAST=1 shrinks the batch and image/sequence sizes; the
// output is labeled with the sizing mode.  --check_json=PATH validates
// that a committed report carries every field the current bench emits —
// the staleness guard CI runs so schema growth cannot silently leave
// BENCH_inference.json behind.  --backends lists the tiers with the host's
// support verdict, each executable tier's tile and the active tier (the CI
// self-check: a MERSIT_BACKEND the host cannot execute stops it).
//
// Perf gates: on ResNet18-mini the code-domain path must not regress
// against prepacked FP32 (with a measurement-noise allowance; the two
// forwards are timed in alternating pairs and their medians compared, so
// host noise hits both sides alike); the detected
// backend must not lose to scalar on the sweep geomean; and in full sizing
// at least one vision model must clear a 1.5x single-thread best-vs-scalar
// speedup (the SIMD backends must pay for their dispatch).  A regression
// exits nonzero.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/cpu.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/qgemm.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "nn/qweights.h"
#include "ptq/ptq.h"

using namespace mersit;

namespace {

/// Allowance for timer noise in the detected-backend >= scalar gate.
constexpr double kPerfSlack = 1.02;

/// Allowance for the code-domain >= prepacked-FP32 gate.  Both paths serve
/// steady-state forwards from their compiled weight plans (the LUT
/// decode happens once, in the warm-up pack), so they should tie — but the
/// margin between two near-equal timings is all noise, hence the wider
/// slack than kPerfSlack.
constexpr double kCodeSlack = 1.10;

/// The model the code-domain gate runs on, and how many alternating
/// (prepacked, code) forward pairs its medians take.
constexpr const char* kCodeGateModel = "ResNet18-mini";
constexpr int kCodeGatePairs = 25;

/// Weight format for the code-domain column and the Kulisch probe.
constexpr const char* kCodeFormat = "MERSIT(8,2)";

/// Weight format for the decode-free integer column: INT8 is the one format
/// with a usable int8 grid (MERSIT/posit/FP8 grids are non-uniform, so
/// their plans run the FP32 kernel).  The text output prints the column's
/// plan census per vision model.
constexpr const char* kInt8Format = "INT8";

/// Single-thread speedup the integer path must clear over the code path on
/// ResNet18-mini and VGG16-mini in full sizing on a SIMD host — skipping
/// the decode and accumulating 8-bit levels in int32 must pay.
constexpr double kInt8SpeedupGate = 1.3;

/// Logit tolerance for int8 vs code under the same quant session.  The raw
/// accumulation residual (exact int32 vs FP32's K data-dependent roundings)
/// is ~1e-6 relative, but each fake-quantize point re-rounds the activations
/// to the session grid: when the two accumulations straddle a round-to-
/// nearest-even boundary, one element flips by a FULL grid step (~1/127 of
/// the layer's absmax, i.e. a few e-2 relative on these nets).  Deep stacks
/// hit a handful of such flips, so the logit bound sits above a few steps;
/// semantic agreement is gated separately via exact batch top-1 match.
constexpr float kInt8RelTol = 0.15f;

/// Single-thread best-vs-scalar speedup at least one vision model must
/// clear in full sizing — the SIMD backends must pay for their dispatch.
constexpr double kBackendSpeedupGate = 1.5;

/// ULP distance between two finite floats (monotone integer mapping).
std::uint32_t ulp_distance(float a, float b) {
  const auto key = [](float v) {
    const auto u = std::bit_cast<std::uint32_t>(v);
    return (u & 0x8000'0000u) != 0 ? 0x8000'0000u - (u & 0x7fff'ffffu)
                                   : 0x8000'0000u + u;
  };
  const std::uint32_t ka = key(a), kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

std::uint32_t max_ulp(const nn::Tensor& a, const nn::Tensor& b) {
  std::uint32_t m = 0;
  const auto da = a.data(), db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    m = std::max(m, ulp_distance(da[i], db[i]));
  return m;
}

/// Observes nothing; its presence alone makes every container run its
/// modules one by one (nn::fuse_inference_ok needs ctx.quant == nullptr).
class PassThroughSession final : public nn::QuantSession {
 public:
  void on_activation(const nn::Module& layer, nn::Tensor& t) override {
    (void)layer;
    (void)t;
  }
};

/// Best-of-R wall time for one forward batch, in milliseconds (one untimed
/// warm-up pass absorbs lazy work — including the one-time weight prepack,
/// which is exactly what the persistent cache amortizes away).
double time_forward_ms(nn::Module& model, const nn::Tensor& x, int reps,
                       const nn::Context& ctx = nn::Context{}) {
  (void)model.forward(x, ctx);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)model.forward(x, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Median wall times of forwards `a` and `b`, in milliseconds, timed in
/// `pairs` alternating pairs whose order flips every pair, after one
/// untimed warm-up of each.  Both medians sample the same stretch of host
/// time, so a ratio of the two is not decided by when each side ran.
template <typename A, typename B>
std::pair<double, double> paired_median_ms(A&& a, B&& b, int pairs) {
  a();
  b();
  const auto time_ms = [](auto&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> ta, tb;
  for (int p = 0; p < pairs; ++p) {
    if (p % 2 == 0) ta.push_back(time_ms(a));
    tb.push_back(time_ms(b));
    if (p % 2 == 1) ta.push_back(time_ms(a));
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(ta), median(tb)};
}

/// The layers of `model` per plan kernel, then the declined requests per
/// fallback reason, e.g. "int8 13, fp32 15 (depthwise 5, unstamped input
/// 10)".
std::string plan_census(nn::Module& model) {
  constexpr int kKernels = static_cast<int>(nn::WeightKernel::kKulisch) + 1;
  constexpr int kReasons = static_cast<int>(nn::PlanFallback::kKTooLarge) + 1;
  int kernels[kKernels] = {}, reasons[kReasons] = {};
  for (const nn::LayerPlan& lp : nn::weight_plans(model)) {
    ++kernels[static_cast<int>(lp.plan->kernel)];
    ++reasons[static_cast<int>(lp.plan->reason)];
  }
  std::string out, why;
  for (int k = 0; k < kKernels; ++k)
    if (kernels[k] > 0)
      out += (out.empty() ? "" : ", ") +
             std::string(nn::kernel_name(static_cast<nn::WeightKernel>(k))) + " " +
             std::to_string(kernels[k]);
  for (int r = 1; r < kReasons; ++r)  // 0 is PlanFallback::kNone
    if (reasons[r] > 0)
      why += (why.empty() ? "" : ", ") +
             std::string(nn::fallback_name(static_cast<nn::PlanFallback>(r))) + " " +
             std::to_string(reasons[r]);
  return why.empty() ? out : out + " (" + why + ")";
}

struct Row {
  std::string model;
  int batch = 0;
  bool vision = true;        ///< image input: runs the int8 column and gates
  double prepacked_ms = 0.0; ///< per forward batch: prepack + fused BN/epilogues
  double code_ms = 0.0;      ///< 8-bit weight codes, decoded once and packed
  std::uint32_t prepacked_ulp = 0;  ///< vs the unfused module-by-module forward
  std::uint32_t code_ulp = 0;  ///< vs FP32 forward over fake-quantized weights
  /// Medians of alternating (prepacked, code) pairs; kCodeGateModel only.
  double gate_prepacked_ms = 0.0, gate_code_ms = 0.0;
  /// kCodeGateModel only: empty when both timed models ran the FP32 kernel
  /// on every layer (plan_fault), else what differed.
  std::string gate_plan_fault;
  std::uint64_t weight_bytes_fp32 = 0;   ///< FP32 footprint of coded weights
  std::uint64_t weight_bytes_codes = 0;  ///< code payload: codes + scales
  // Decode-free integer column (vision models; INT8 weights, quant session
  // on both sides so the only difference is the GEMM path).
  bool int8_eligible = false;   ///< kInt8Format has a usable int8 grid
  double int8_code_ms = 0.0;    ///< quant-session forward, code path
  double int8_ms = 0.0;         ///< quant-session forward, int8 path
  float int8_max_rel = 0.f;     ///< max |int8-code| / max(1,|code|) on logits
  int int8_top1_delta = 0;      ///< batch argmax disagreements vs code
  std::string int8_census;      ///< int8 column's plans (text output only)
  [[nodiscard]] double speedup_code_vs_prepacked() const {
    return code_ms > 0.0 ? prepacked_ms / code_ms : 0.0;
  }
  [[nodiscard]] double speedup_int8_vs_code() const {
    return int8_ms > 0.0 ? int8_code_ms / int8_ms : 0.0;
  }
  [[nodiscard]] double img_per_s() const {
    return prepacked_ms > 0.0 ? 1e3 * batch / prepacked_ms : 0.0;
  }
};

/// Empty when every ChannelWeights layer of `model` last ran the FP32
/// kernel with no fallback on the active backend, from installed codes
/// exactly when `coded`; else the first layer that did not.
std::string plan_fault(nn::Module& model, bool coded) {
  std::size_t layers = 0;
  for (nn::Module* m : model.modules())
    if (dynamic_cast<nn::ChannelWeights*>(m) != nullptr) ++layers;
  const std::vector<nn::LayerPlan> plans = nn::weight_plans(model);
  if (plans.size() != layers)
    return std::to_string(plans.size()) + " of " + std::to_string(layers) +
           " layers compiled a plan";
  const nn::gemm::Backend& be = nn::gemm::active_backend();
  for (const nn::LayerPlan& lp : plans) {
    const nn::WeightPlan& p = *lp.plan;
    if (p.kernel != nn::WeightKernel::kFp32 || p.reason != nn::PlanFallback::kNone ||
        p.backend_id != be.id || (p.codes != nullptr) != coded)
      return lp.layer + " ran " + nn::kernel_name(p.kernel) + " (fallback: " +
             nn::fallback_name(p.reason) + ", " +
             (p.codes != nullptr ? "codes" : "FP32 weights") + ") on backend id " +
             std::to_string(p.backend_id) + ", expected fp32 from " +
             (coded ? "codes" : "FP32 weights") + " on " + be.name;
  }
  return {};
}

Row measure(const std::string& name, nn::Module& model, const nn::Tensor& x,
            int reps, bool vision) {
  Row row;
  row.model = name;
  row.batch = x.dim(0);
  row.vision = vision;
  const nn::Context ctx;

  PassThroughSession pass;
  const nn::Tensor unfused = model.forward(x, nn::Context{false, &pass});
  row.prepacked_ulp = max_ulp(unfused, model.forward(x, ctx));
  row.prepacked_ms = time_forward_ms(model, x, reps);

  // Code domain: the bit-identity reference is an FP32 forward over the
  // *fake-quantized* weights (quantize→dequantize in place, then restore);
  // install_weight_codes leaves the FP32 weights untouched and encodes the
  // same values, so the code-mode forward must reproduce that reference to
  // the last bit.
  const auto fmt = core::make_format(kCodeFormat);
  const auto snap = ptq::snapshot_weights(model);
  ptq::quantize_weights_per_channel(model, *fmt,
                                    formats::ScalePolicy::kMaxToUnity);
  const auto prev_mode =
      nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kFloat);
  const nn::Tensor ref_q = model.forward(x, ctx);
  ptq::restore_weights(model, snap);
  const nn::ModulePtr plain = model.clone();  // FP32, no codes: the gate's baseline

  ptq::install_weight_codes(model, *fmt, formats::ScalePolicy::kMaxToUnity);
  nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);
  row.code_ulp = max_ulp(ref_q, model.forward(x, ctx));
  row.code_ms = time_forward_ms(model, x, reps);
  if (name == kCodeGateModel) {
    std::tie(row.gate_prepacked_ms, row.gate_code_ms) = paired_median_ms(
        [&] { (void)plain->forward(x, ctx); }, [&] { (void)model.forward(x, ctx); },
        kCodeGatePairs);
    // The fact the timing gate rests on: both models ran the same kernel
    // on every layer.
    if (const std::string f = plan_fault(model, /*coded=*/true); !f.empty())
      row.gate_plan_fault = "code model: " + f;
    else if (const std::string g = plan_fault(*plain, /*coded=*/false); !g.empty())
      row.gate_plan_fault = "prepacked model: " + g;
  }
  for (nn::Module* m : model.modules()) {
    auto* cw = dynamic_cast<nn::ChannelWeights*>(m);
    if (cw == nullptr) continue;
    if (const auto wc = cw->weight_codes()) {
      row.weight_bytes_fp32 += wc->codes.size() * sizeof(float);
      row.weight_bytes_codes +=
          wc->codes.size() + wc->scales.size() * sizeof(double);
    }
  }
  ptq::clear_weight_codes(model);

  // Decode-free integer column.  Token-id models are skipped: the integer
  // path needs a quantization scale on the model input, which token ids do
  // not have (every intermediate scale comes from the quant session).
  if (vision) {
    const auto fmt8 = core::make_format(kInt8Format);
    nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kFloat);
    ptq::MaxCalibrator cal;
    cal.observe_input(x);
    const nn::Context cal_ctx{/*train=*/false, &cal};
    (void)model.forward(x, cal_ctx);

    ptq::install_weight_codes(model, *fmt8,
                              formats::ScalePolicy::kMaxToUnity);
    row.int8_eligible = fmt8->codec().int8_grid().usable;

    ptq::FakeQuantizer fq(cal.table, *fmt8, formats::ScalePolicy::kMaxToUnity);
    nn::Tensor xq = x;
    fq.quantize_input(xq);
    const nn::Context qctx{/*train=*/false, &fq};

    nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);
    const nn::Tensor y_code = model.forward(xq, qctx);
    row.int8_code_ms = time_forward_ms(model, xq, reps, qctx);

    nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kInt8);
    const nn::Tensor y_int8 = model.forward(xq, qctx);
    row.int8_census = plan_census(model);
    row.int8_ms = time_forward_ms(model, xq, reps, qctx);

    const auto dc = y_code.data(), di = y_int8.data();
    for (std::size_t i = 0; i < dc.size(); ++i)
      row.int8_max_rel = std::max(
          row.int8_max_rel,
          std::fabs(di[i] - dc[i]) / std::max(1.f, std::fabs(dc[i])));
    const int classes = y_code.dim(1);
    for (int b = 0; b < row.batch; ++b) {
      const float* rc = y_code.raw() + static_cast<std::size_t>(b) * classes;
      const float* ri = y_int8.raw() + static_cast<std::size_t>(b) * classes;
      const auto top1 = [classes](const float* r) {
        return static_cast<int>(std::max_element(r, r + classes) - r);
      };
      if (top1(rc) != top1(ri)) ++row.int8_top1_delta;
    }
    ptq::clear_weight_codes(model);
  }

  nn::gemm::set_qgemm_mode(prev_mode);
  return row;
}

/// One-shot Kulisch-accumulator probe on a synthetic code-domain GEMM:
/// decode the same codes into FP32 and accumulate ascending-k (what the
/// float microkernel does), then run qgemm_kulisch over the codes, and
/// report the max ULP distance between the two.  Per the ULP contract the
/// quire result carries a fixed K-independent number of roundings, so this
/// measures how far FP32's K data-dependent roundings drift from exact.
struct KulischProbe {
  bool usable = false;
  int m = 0, k = 0, n = 0;
  std::uint32_t fp32_max_ulp_vs_exact = 0;
};

KulischProbe kulisch_probe() {
  KulischProbe probe;
  const auto fmt = core::make_format(kCodeFormat);
  const formats::TableCodec& tab = fmt->codec();
  probe.usable = nn::gemm::kulisch_fits(tab);
  if (!probe.usable) return probe;
  double lut[256];
  std::vector<std::uint8_t> finite;
  for (int c = 0; c < 256; ++c) {
    lut[c] = tab.decode(static_cast<std::uint8_t>(c));
    if (tab.finite(static_cast<std::uint8_t>(c))) finite.push_back(static_cast<std::uint8_t>(c));
  }

  constexpr int M = 8, K = 256, N = 16;
  probe.m = M, probe.k = K, probe.n = N;
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, finite.size() - 1);
  std::vector<std::uint8_t> ac(M * K), bc(K * N);
  for (auto& c : ac) c = finite[pick(rng)];
  for (auto& c : bc) c = finite[pick(rng)];
  const double sa = 0.375;
  std::vector<double> sb(N);
  for (int n = 0; n < N; ++n) sb[n] = 0.25 * (n % 5 + 1);

  const nn::gemm::QOperand a{ac.data(), K, nullptr, sa};
  const nn::gemm::QOperand b{bc.data(), N, sb.data(), 0.0};
  std::vector<float> exact(M * N);
  nn::gemm::qgemm_kulisch(M, N, K, a, b, tab, nn::gemm::Init::kZero, nullptr,
                          exact.data(), N);

  for (int m = 0; m < M; ++m)
    for (int n = 0; n < N; ++n) {
      float acc = 0.f;
      for (int k = 0; k < K; ++k)
        acc += static_cast<float>(lut[ac[m * K + k]] * sa) *
               static_cast<float>(lut[bc[k * N + n]] * sb[n]);
      probe.fp32_max_ulp_vs_exact = std::max(
          probe.fp32_max_ulp_vs_exact, ulp_distance(acc, exact[m * N + n]));
    }
  return probe;
}

// ------------------------------------------------------ SIMD backend sweep --

/// Single-thread prepacked latency of every vision model under one backend.
struct BackendRun {
  std::string backend;
  bool active = false;            ///< the tier active when the sweep began
  std::vector<double> model_ms;   ///< parallel to BackendSweep::models
  std::uint32_t max_ulp_vs_scalar = 0;  ///< bitwise gate: must be 0
};

struct BackendSweep {
  std::vector<std::string> models;  ///< vision-zoo model names
  std::vector<BackendRun> runs;     ///< widest tier first, scalar last
  double geomean_best_vs_scalar = 0.0;
  double max_speedup_best_vs_scalar = 0.0;
  std::string max_speedup_model;
};

/// Times the prepacked FP32 forward of each vision model once per
/// SIMD tier the host executes, single-threaded, cross-checking
/// logits bitwise against the scalar backend.  A layer's weight plan is
/// compiled for one backend, so switching backends repacks the panels in
/// the untimed warm-up pass — exactly the hot-swap path serving exercises.
template <typename Zoo>
BackendSweep backend_sweep(Zoo& zoo, const nn::Tensor& x, int reps) {
  BackendSweep sweep;
  core::resize_global_pool(1);
  const nn::Context ctx;
  // Scalar runs last, so collect the bitwise references up front with an
  // explicit scalar pass.
  const core::Tier detected = core::set_tier(core::Tier::kScalar);
  std::vector<nn::Tensor> scalar_ref;
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    sweep.models.push_back(zoo[i].name);
    scalar_ref.push_back(zoo[i].model->forward(x, ctx));
  }
  for (auto t = std::rbegin(core::kTiers); t != std::rend(core::kTiers); ++t) {
    if (!core::tier_executable(*t)) continue;
    core::set_tier(*t);
    BackendRun run;
    run.backend = core::tier_name(*t);
    run.active = *t == detected;
    for (std::size_t i = 0; i < zoo.size(); ++i) {
      run.max_ulp_vs_scalar = std::max(
          run.max_ulp_vs_scalar,
          max_ulp(scalar_ref[i], zoo[i].model->forward(x, ctx)));
      run.model_ms.push_back(time_forward_ms(*zoo[i].model, x, reps));
    }
    sweep.runs.push_back(std::move(run));
  }
  core::set_tier(detected);

  // Scalar runs last, so its timings close the list; the best backend is
  // the active one.  Compare best vs scalar per model.
  const BackendRun* scalar = nullptr;
  const BackendRun* best = nullptr;
  for (const BackendRun& r : sweep.runs) {
    if (r.backend == "scalar") scalar = &r;
    if (r.active) best = &r;
  }
  if (scalar != nullptr && best != nullptr) {
    double log_sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < sweep.models.size(); ++i) {
      if (best->model_ms[i] <= 0.0) continue;
      const double s = scalar->model_ms[i] / best->model_ms[i];
      log_sum += std::log(s);
      ++n;
      if (s > sweep.max_speedup_best_vs_scalar) {
        sweep.max_speedup_best_vs_scalar = s;
        sweep.max_speedup_model = sweep.models[i];
      }
    }
    sweep.geomean_best_vs_scalar = n > 0 ? std::exp(log_sum / n) : 0.0;
  }
  return sweep;
}

void print_backend_sweep(const BackendSweep& sweep) {
  std::printf("\n--- SIMD backend sweep (1 thread, prepacked ms; host: %s) ---\n",
              core::cpu_feature_summary().c_str());
  std::printf("%-22s", "model");
  for (const BackendRun& r : sweep.runs)
    std::printf(" %9s%s", r.backend.c_str(), r.active ? "*" : " ");
  std::printf("\n");
  bench::print_rule(22 + 11 * static_cast<int>(sweep.runs.size()));
  for (std::size_t i = 0; i < sweep.models.size(); ++i) {
    std::printf("%-22s", sweep.models[i].c_str());
    for (const BackendRun& r : sweep.runs)
      std::printf(" %9.3f ", r.model_ms[i]);
    std::printf("\n");
  }
  std::printf("best-vs-scalar geomean %.2fx; peak %.2fx on %s "
              "(* = detected backend)\n",
              sweep.geomean_best_vs_scalar, sweep.max_speedup_best_vs_scalar,
              sweep.max_speedup_model.c_str());
}

struct RunReport {
  int threads = 0;
  std::vector<Row> rows;
};

void print_run(const RunReport& run) {
  std::printf("\n--- %d worker thread(s) ---\n", run.threads);
  std::printf("%-22s %6s %11s %8s %8s %7s %7s %7s %7s\n", "model", "batch",
              "prepack ms", "code ms", "int8 ms", "i8/code", "ULP pp",
              "ULP cd", "w MB");
  bench::print_rule(92);
  for (const Row& r : run.rows)
    std::printf("%-22s %6d %11.3f %8.3f %8.3f %6.2fx %7u %7u %7.2f\n",
                r.model.c_str(), r.batch, r.prepacked_ms, r.code_ms,
                r.int8_ms, r.speedup_int8_vs_code(), r.prepacked_ulp,
                r.code_ulp,
                static_cast<double>(r.weight_bytes_codes) / (1024.0 * 1024.0));
  for (const Row& r : run.rows)
    if (!r.int8_census.empty())
      std::printf("int8 plans on %s: %s\n", r.model.c_str(), r.int8_census.c_str());
  for (const Row& r : run.rows)
    if (r.model == kCodeGateModel)
      std::printf("code gate on %s, medians of %d alternating pairs: code %.3f ms vs "
                  "prepacked %.3f ms (%.2fx, bound %.2fx)\n",
                  r.model.c_str(), kCodeGatePairs, r.gate_code_ms, r.gate_prepacked_ms,
                  r.gate_code_ms / r.gate_prepacked_ms, kCodeSlack);
}

int write_json(const char* path, const bench::Sizes& sizes,
               const std::vector<RunReport>& runs, const KulischProbe& kp,
               const BackendSweep& sweep) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_inference: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_inference/forward\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", sizes.mode());
  std::fprintf(f, "  \"backend\": \"%s\",\n", nn::gemm::active_backend().name);
  std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
               core::cpu_feature_summary().c_str());
  std::fprintf(f, "  \"qgemm_format\": \"%s\",\n", kCodeFormat);
  std::fprintf(f, "  \"int8_format\": \"%s\",\n", kInt8Format);
  std::fprintf(f,
               "  \"backend_sweep\": {\"threads\": 1, "
               "\"geomean_best_vs_scalar\": %.2f, "
               "\"max_speedup_best_vs_scalar\": %.2f, "
               "\"max_speedup_model\": \"%s\", \"backends\": [\n",
               sweep.geomean_best_vs_scalar, sweep.max_speedup_best_vs_scalar,
               sweep.max_speedup_model.c_str());
  for (std::size_t b = 0; b < sweep.runs.size(); ++b) {
    const BackendRun& r = sweep.runs[b];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"active\": %s, "
                 "\"max_ulp_vs_scalar\": %u, \"models\": [",
                 r.backend.c_str(), r.active ? "true" : "false",
                 r.max_ulp_vs_scalar);
    for (std::size_t i = 0; i < sweep.models.size(); ++i)
      std::fprintf(f, "%s{\"model\": \"%s\", \"prepacked_ms\": %.3f}",
                   i > 0 ? ", " : "", sweep.models[i].c_str(), r.model_ms[i]);
    std::fprintf(f, "]}%s\n", b + 1 < sweep.runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"kulisch_probe\": {\"usable\": %s, \"m\": %d, \"k\": %d, "
               "\"n\": %d, \"fp32_max_ulp_vs_exact\": %u},\n",
               kp.usable ? "true" : "false", kp.m, kp.k, kp.n,
               kp.fp32_max_ulp_vs_exact);
  std::fprintf(f, "  \"img\": %d,\n  \"seq\": %d,\n  \"runs\": [\n", sizes.img,
               sizes.seq);
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const RunReport& run = runs[k];
    std::fprintf(f, "    {\"threads\": %d, \"models\": [\n", run.threads);
    for (std::size_t i = 0; i < run.rows.size(); ++i) {
      const Row& r = run.rows[i];
      std::fprintf(
          f,
          "      {\"model\": \"%s\", \"batch\": %d, "
          "\"prepacked_ms\": %.3f, \"code_ms\": %.3f, "
          "\"speedup_code_vs_prepacked\": %.2f, "
          "\"prepacked_img_per_s\": %.1f, "
          "\"prepacked_ulp\": %u, \"code_ulp\": %u, "
          "\"weight_bytes_fp32\": %llu, \"weight_bytes_codes\": %llu, "
          "\"int8_eligible\": %s, \"int8_code_ms\": %.3f, \"int8_ms\": %.3f, "
          "\"speedup_int8_vs_code\": %.2f, \"int8_max_rel_vs_code\": %.2e, "
          "\"int8_top1_delta\": %d}%s\n",
          r.model.c_str(), r.batch, r.prepacked_ms, r.code_ms,
          r.speedup_code_vs_prepacked(), r.img_per_s(),
          r.prepacked_ulp, r.code_ulp,
          static_cast<unsigned long long>(r.weight_bytes_fp32),
          static_cast<unsigned long long>(r.weight_bytes_codes),
          r.int8_eligible ? "true" : "false",
          r.int8_code_ms, r.int8_ms, r.speedup_int8_vs_code(),
          static_cast<double>(r.int8_max_rel), r.int8_top1_delta,
          i + 1 < run.rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", k + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

/// Staleness guard for the committed BENCH_inference.json: every field the
/// current bench emits.
int check_json(const char* path) {
  return bench::check_report(path, "bench_inference", {
      "\"bench\": \"bench_inference/forward\"",
      "\"mode\"",
      "\"backend\"",
      "\"cpu_features\"",
      "\"backend_sweep\"",
      "\"geomean_best_vs_scalar\"",
      "\"max_speedup_best_vs_scalar\"",
      "\"max_ulp_vs_scalar\"",
      "\"qgemm_format\"",
      "\"kulisch_probe\"",
      "\"fp32_max_ulp_vs_exact\"",
      "\"prepacked_ms\"",
      "\"code_ms\"",
      "\"speedup_code_vs_prepacked\"",
      "\"prepacked_img_per_s\"",
      "\"prepacked_ulp\"",
      "\"code_ulp\"",
      "\"weight_bytes_fp32\"",
      "\"weight_bytes_codes\"",
      "\"int8_format\"",
      "\"int8_eligible\"",
      "\"int8_code_ms\"",
      "\"int8_ms\"",
      "\"speedup_int8_vs_code\"",
      "\"int8_max_rel_vs_code\"",
      "\"int8_top1_delta\"",
  });
}

/// --backends: list the tiers, widest first, with the host's support
/// verdict, each executable tier's tile and the active tier.  Reading the
/// active tier throws on a MERSIT_BACKEND this host cannot execute (the CI
/// self-check for the CPUID dispatch).
int list_backends() {
  const core::Tier active = core::active_tier();
  std::printf("host features: %s\n", core::cpu_feature_summary().c_str());
  for (auto t = std::rbegin(core::kTiers); t != std::rend(core::kTiers); ++t) {
    if (!core::tier_executable(*t)) {
      std::printf("%-8s supported=no\n", core::tier_name(*t));
      continue;
    }
    core::set_tier(*t);
    const nn::gemm::Backend& be = nn::gemm::active_backend();
    std::printf("%-8s %dx%d tile  supported=yes%s\n", be.name, be.mr, be.nr,
                *t == active ? "  [active]" : "");
  }
  core::set_tier(active);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--check_json=", 13) == 0) {
      return check_json(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--backends") == 0) {
      return list_backends();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--check_json=PATH] [--backends]\n",
                   argv[0]);
      return 2;
    }
  }
  const auto sizes = bench::Sizes::from_env();
  const int batch = sizes.fast ? 8 : 32;
  const int reps = sizes.fast ? 3 : 7;

  std::printf("=== Inference: prepacked+fused forward vs unfused module passes ===\n");
  std::printf("(%s sizing, img=%d, seq=%d, batch=%d, best of %d)\n",
              sizes.mode(), sizes.img, sizes.seq, batch, reps);

  std::mt19937 rng(2024);
  auto zoo = nn::make_vision_zoo(3, 10, 2024, sizes.img);
  const nn::Tensor vision_x =
      nn::Tensor::randn({batch, 3, sizes.img, sizes.img}, rng, 1.f);
  auto bert = nn::make_bert_mini(sizes.vocab, sizes.seq + 2, 32, 4, 2, 64, 4, rng);
  nn::Tensor tokens({batch, sizes.seq});
  std::uniform_int_distribution<int> tok(0, sizes.vocab - 1);
  for (auto& t : tokens.data()) t = static_cast<float>(tok(rng));

  std::vector<RunReport> runs;
  for (const int threads : {1, 4}) {
    core::resize_global_pool(threads);
    RunReport run;
    run.threads = threads;
    for (auto& entry : zoo)
      run.rows.push_back(
          measure(entry.name, *entry.model, vision_x, reps, /*vision=*/true));
    run.rows.push_back(
        measure("BERT-mini", *bert, tokens, reps, /*vision=*/false));
    print_run(run);
    runs.push_back(std::move(run));
  }

  const BackendSweep sweep = backend_sweep(zoo, vision_x, reps);
  print_backend_sweep(sweep);

  const KulischProbe kp = kulisch_probe();
  std::printf("\nkulisch probe (%s, %dx%dx%d): usable=%s, FP32 drift vs "
              "exact quire = %u ULP\n",
              kCodeFormat, kp.m, kp.k, kp.n, kp.usable ? "yes" : "no",
              kp.fp32_max_ulp_vs_exact);

  if (json_path != nullptr) {
    const int rc = write_json(json_path, sizes, runs, kp, sweep);
    if (rc != 0) return rc;
    std::printf("\nwrote %s\n", json_path);
  }

  // Gates (all must hold in every pool-width run):
  //  * bit-exactness — the fused default forward must reproduce the
  //    unfused module-by-module forward to the last bit (max ULP 0), and
  //    the code-domain path must reproduce the fake-quantized FP32 forward
  //    to the last bit;
  //  * perf — on ResNet18-mini the code-domain path must not lose to
  //    prepacked FP32 (CI perf-smoke regression gate; medians of
  //    alternating pairs), and the plan report must show both models ran
  //    the FP32 kernel with no fallback on every layer;
  //  * the Kulisch probe must find a usable table for the code format.
  int bad = 0;
  const bool simd_active = core::active_tier() != core::Tier::kScalar;
  if (!kp.usable) {
    std::fprintf(stderr,
                 "bench_inference: no usable Kulisch table for %s\n",
                 kCodeFormat);
    ++bad;
  }
  for (const RunReport& run : runs) {
    for (const Row& r : run.rows) {
      if (r.prepacked_ulp > 0) {
        std::fprintf(stderr,
                     "bench_inference: %s fused forward diverges from the "
                     "unfused module passes at %d thread(s) "
                     "(prepacked ULP %u; must be 0)\n",
                     r.model.c_str(), run.threads, r.prepacked_ulp);
        ++bad;
      }
      if (r.code_ulp > 0) {
        std::fprintf(stderr,
                     "bench_inference: %s code-domain forward diverges from "
                     "the fake-quantized FP32 path at %d thread(s) "
                     "(max ULP %u; must be 0)\n",
                     r.model.c_str(), run.threads, r.code_ulp);
        ++bad;
      }
      if (!r.gate_plan_fault.empty()) {
        std::fprintf(stderr,
                     "bench_inference: the code gate's models on %s at %d "
                     "thread(s) did not both run the FP32 kernel: %s\n",
                     r.model.c_str(), run.threads, r.gate_plan_fault.c_str());
        ++bad;
      }
      if (r.model == kCodeGateModel &&
          r.gate_code_ms > r.gate_prepacked_ms * kCodeSlack) {
        std::fprintf(stderr,
                     "bench_inference: code-domain slower than prepacked "
                     "FP32 on %s at %d thread(s) (median of %d alternating "
                     "pairs: %.3f ms vs %.3f ms)\n",
                     r.model.c_str(), run.threads, kCodeGatePairs,
                     r.gate_code_ms, r.gate_prepacked_ms);
        ++bad;
      }
      // Integer-path gates.  Every vision model must be int8-eligible
      // (INT8's values are a uniform int8 grid by construction), stay within the contract
      // logit tolerance of the code path, and keep the batch top-1
      // unchanged; the 1.3x speedup bar applies single-threaded in full
      // sizing on a SIMD host (like the backend-sweep speedup gate, the
      // fast-sizing shapes are too small for a stable kernel-bound ratio).
      if (r.vision && !r.int8_eligible) {
        std::fprintf(stderr,
                     "bench_inference: %s has no usable int8 grid for %s — "
                     "the int8 path never engaged\n",
                     r.model.c_str(), kInt8Format);
        ++bad;
      }
      if (r.vision && r.int8_max_rel > kInt8RelTol) {
        std::fprintf(stderr,
                     "bench_inference: %s int8 logits diverge from the code "
                     "path at %d thread(s) (max rel %.3e > %.1e)\n",
                     r.model.c_str(), run.threads,
                     static_cast<double>(r.int8_max_rel),
                     static_cast<double>(kInt8RelTol));
        ++bad;
      }
      if (r.vision && r.int8_top1_delta != 0) {
        std::fprintf(stderr,
                     "bench_inference: %s int8 batch top-1 differs from the "
                     "code path at %d thread(s) (%d of %d)\n",
                     r.model.c_str(), run.threads, r.int8_top1_delta, r.batch);
        ++bad;
      }
      if (!sizes.fast && run.threads == 1 && simd_active &&
          (r.model == "ResNet18-mini" || r.model == "VGG16-mini") &&
          r.speedup_int8_vs_code() < kInt8SpeedupGate) {
        std::fprintf(stderr,
                     "bench_inference: int8 path below the %.1fx single-thread "
                     "bar over the code path on %s (%.2fx: %.3f ms vs %.3f "
                     "ms)\n",
                     kInt8SpeedupGate, r.model.c_str(),
                     r.speedup_int8_vs_code(), r.int8_ms, r.int8_code_ms);
        ++bad;
      }
    }
  }
  // SIMD backend sweep gates: every supported backend must reproduce the
  // scalar logits to the last bit; the detected backend must not lose to
  // scalar on the sweep geomean; and in full sizing, when a SIMD backend is
  // active, at least one vision model must clear the 1.5x single-thread
  // speedup bar.
  for (const BackendRun& r : sweep.runs) {
    if (r.max_ulp_vs_scalar > 0) {
      std::fprintf(stderr,
                   "bench_inference: backend '%s' diverges from scalar "
                   "(max ULP %u; must be 0)\n",
                   r.backend.c_str(), r.max_ulp_vs_scalar);
      ++bad;
    }
  }
  if (sweep.geomean_best_vs_scalar > 0.0 &&
      sweep.geomean_best_vs_scalar * kPerfSlack < 1.0) {
    std::fprintf(stderr,
                 "bench_inference: detected backend loses to scalar "
                 "(geomean %.2fx)\n",
                 sweep.geomean_best_vs_scalar);
    ++bad;
  }
  if (!sizes.fast && simd_active &&
      sweep.max_speedup_best_vs_scalar < kBackendSpeedupGate) {
    std::fprintf(stderr,
                 "bench_inference: no vision model reaches %.1fx single-thread "
                 "best-vs-scalar (peak %.2fx on %s)\n",
                 kBackendSpeedupGate, sweep.max_speedup_best_vs_scalar,
                 sweep.max_speedup_model.c_str());
    ++bad;
  }
  return bad == 0 ? 0 : 1;
}
