#include "ptq/ptq.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "nn/gemm/qgemm.h"
#include "nn/qweights.h"

namespace mersit::ptq {

using formats::Format;
using formats::ScalePolicy;
using nn::Dataset;
using nn::Module;
using nn::Tensor;

// ------------------------------------------------------------ calibration --

void CalibrationTable::merge(const CalibrationTable& other) {
  for (const auto& [path, mx] : other.absmax) {
    float& slot = absmax[path];
    slot = std::max(slot, mx);
  }
  input_absmax = std::max(input_absmax, other.input_absmax);
  if (model_name.empty()) model_name = other.model_name;
}

void MaxCalibrator::on_activation(const Module& layer, Tensor& t) {
  const std::string& path = layer.path();
  if (path.empty())
    throw std::logic_error(
        "MaxCalibrator: quant point '" + layer.name() +
        "' has no module path; run nn::assign_paths on the model root "
        "(the nn model factories do this) before calibrating");
  float& mx = table.absmax[path];
  mx = std::max(mx, t.abs_max());
}

void MaxCalibrator::observe_input(const Tensor& t) {
  table.input_absmax = std::max(table.input_absmax, t.abs_max());
}

FakeQuantizer::FakeQuantizer(const CalibrationTable& table, const Format& fmt,
                             ScalePolicy policy)
    : table_(table), fmt_(fmt), policy_(policy), kernel_(fmt.kernel()) {}

void FakeQuantizer::fake_quantize_tensor(Tensor& t, double scale) const {
  // Fixed 8192-element blocks (32 KiB, L1-sized) spread over the pool.  The
  // operation is elementwise, so any pool width — and the inline run a
  // nested call gets — writes the same bits.
  constexpr std::size_t kBlock = 8192;
  const std::span<float> x = t.data();
  const std::size_t blocks = (x.size() + kBlock - 1) / kBlock;
  core::global_pool().parallel_chunks(
      blocks, [&](std::size_t b0, std::size_t b1) {
        const std::size_t begin = b0 * kBlock;
        const std::span<float> part =
            x.subspan(begin, std::min(x.size(), b1 * kBlock) - begin);
        kernel_->fake_quantize(part, scale);
      });
  // Every element is now code_value * scale for some 8-bit code; stamp the
  // scale so the Kulisch GEMM mode can recover the codes by re-encoding.
  t.set_quant_scale(scale);
}

void FakeQuantizer::on_activation(const Module& layer, Tensor& t) {
  const std::string& path = layer.path();
  const auto it = table_.absmax.find(path);
  if (path.empty() || it == table_.absmax.end()) {
    ++uncalibrated_;
    const std::lock_guard<std::mutex> lock(miss_mu_);
    missed_.insert(path.empty() ? "<unpathed " + layer.name() + ">" : path);
    return;
  }
  if (it->second <= 0.f) return;  // degenerate (all-zero) layer output
  fake_quantize_tensor(t,
                       formats::scale_for_absmax(fmt_, it->second, policy_));
}

std::set<std::string> FakeQuantizer::uncalibrated_paths() const {
  const std::lock_guard<std::mutex> lock(miss_mu_);
  return missed_;
}

void FakeQuantizer::quantize_input(Tensor& t) const {
  if (table_.input_absmax <= 0.f) return;
  fake_quantize_tensor(
      t, formats::scale_for_absmax(fmt_, table_.input_absmax, policy_));
}

// ---------------------------------------------------------------- weights --

WeightSnapshot snapshot_weights(Module& model) {
  WeightSnapshot snap;
  for (const nn::Param* p : model.parameters()) snap.values.push_back(p->value);
  return snap;
}

namespace {

std::string shape_str(const std::vector<int>& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i)
    os << (i > 0 ? "," : "") << shape[i];
  os << ']';
  return os.str();
}

}  // namespace

void restore_weights(Module& model, const WeightSnapshot& snap) {
  const auto params = model.parameters();
  // Validate the whole structure up front: nothing is mutated unless every
  // parameter matches, so a mismatched restore can never leave the model
  // half-overwritten.
  if (params.size() != snap.values.size())
    throw std::invalid_argument(
        "restore_weights: parameter count mismatch (model has " +
        std::to_string(params.size()) + ", snapshot has " +
        std::to_string(snap.values.size()) + ")");
  for (std::size_t i = 0; i < params.size(); ++i)
    if (params[i]->value.shape() != snap.values[i].shape())
      throw std::invalid_argument(
          "restore_weights: shape mismatch at parameter " + std::to_string(i) +
          " (model " + shape_str(params[i]->value.shape()) + ", snapshot " +
          shape_str(snap.values[i].shape()) + ")");
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snap.values[i];
    params[i]->bump_version();  // invalidate prepacked-weight caches
  }
}

namespace {

/// Every (module, channel) weight span in the model, in traversal order.
std::vector<std::pair<nn::ChannelWeights*, int>> channel_jobs(Module& model) {
  std::vector<std::pair<nn::ChannelWeights*, int>> jobs;
  for (Module* m : model.modules()) {
    auto* cw = dynamic_cast<nn::ChannelWeights*>(m);
    if (cw == nullptr) continue;
    for (int c = 0; c < cw->weight_channels(); ++c) jobs.emplace_back(cw, c);
  }
  return jobs;
}

}  // namespace

void quantize_weights_per_channel(Module& model, const Format& fmt,
                                  ScalePolicy policy) {
  const auto jobs = channel_jobs(model);
  // Channels are disjoint spans, so they quantize independently across the
  // pool; the kernel is fetched once instead of per channel.
  const auto kernel = fmt.kernel();
  core::global_pool().parallel_for(jobs.size(), [&](std::size_t i) {
    const std::span<float> w = jobs[i].first->channel_span(jobs[i].second);
    float mx = 0.f;
    for (const float v : w) mx = std::max(mx, std::fabs(v));
    if (mx <= 0.f) return;
    const double scale = formats::scale_for_absmax(fmt, mx, policy);
    kernel->fake_quantize(w, scale);
  });
  // One bump per mutated weight Param, after the fan-out: prepacked-GEMM
  // caches built from the FP32 weights must not survive into the quantized
  // evaluation.
  for (Module* m : model.modules())
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m))
      cw->weight_param().bump_version();
}

std::shared_ptr<const nn::CodeBook> make_code_book(
    const Format& fmt, formats::CorruptionPolicy policy) {
  auto book = std::make_shared<nn::CodeBook>();
  for (int c = 0; c < 256; ++c)
    book->value[c] =
        formats::decode_with_policy(fmt, static_cast<std::uint8_t>(c), policy);
  book->kernel = fmt.kernel();
  return book;
}

void install_weight_codes(Module& model, const Format& fmt,
                          ScalePolicy policy) {
  // Encode saturates and maps NaN to the zero code, so no code is
  // non-finite and `nonfinite` stays 0.
  const auto book = make_code_book(fmt, formats::CorruptionPolicy::kPropagate);
  const formats::kernels::QuantKernel& kernel = *book->kernel;
  for (Module* m : model.modules()) {
    auto* cw = dynamic_cast<nn::ChannelWeights*>(m);
    if (cw == nullptr) continue;
    const int channels = cw->weight_channels();
    if (channels <= 0) continue;
    auto wc = std::make_shared<nn::WeightCodes>();
    wc->channels = channels;
    wc->per_channel = static_cast<int>(cw->channel_span(0).size());
    wc->codes.reserve(static_cast<std::size_t>(channels) * wc->per_channel);
    wc->scales.reserve(static_cast<std::size_t>(channels));
    wc->book = book;
    for (int c = 0; c < channels; ++c) {
      const std::span<const float> w = cw->channel_span(c);
      float mx = 0.f;
      for (const float v : w) mx = std::max(mx, std::fabs(v));
      // Same scale selection as quantize_weights_per_channel; degenerate
      // all-zero channels take scale 1.0 like pack_weights does.
      const double scale =
          mx > 0.f ? formats::scale_for_absmax(fmt, mx, policy) : 1.0;
      wc->scales.push_back(scale);
      // encode(v * (1/scale)) is exactly the argument fake_quantize feeds
      // the codec, so value[code] * scale reproduces its output bit for
      // bit.
      const double inv = 1.0 / scale;
      for (const float v : w)
        wc->codes.push_back(kernel.encode(static_cast<double>(v) * inv));
    }
    cw->set_weight_codes(std::move(wc));
  }
}

void clear_weight_codes(Module& model) {
  for (Module* m : model.modules())
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m)) cw->clear_weight_codes();
}

// ------------------------------------------------------------- experiment --

namespace {

float run_metric(Module& model, const Dataset& test, Metric metric,
                 nn::QuantSession* quant) {
  return metric == Metric::kAccuracy ? nn::evaluate_accuracy(model, test, quant)
                                     : nn::evaluate_mcc(model, test, quant);
}

/// Observes which quant points fire and which of them lack a table entry —
/// used by the cheap single-sample pre-check in evaluate_with_table.
class CoverageCheckSession final : public nn::QuantSession {
 public:
  explicit CoverageCheckSession(const CalibrationTable& table) : table_(table) {}
  void on_activation(const Module& layer, Tensor& t) override {
    (void)t;
    const std::string& path = layer.path();
    if (path.empty())
      missing_.insert("<unpathed " + layer.name() + ">");
    else if (table_.absmax.find(path) == table_.absmax.end())
      missing_.insert(path);
  }
  [[nodiscard]] const std::set<std::string>& missing() const { return missing_; }

 private:
  const CalibrationTable& table_;
  std::set<std::string> missing_;
};

[[noreturn]] void throw_uncalibrated(const char* who,
                                     const std::set<std::string>& paths,
                                     const CalibrationTable& table,
                                     const char* when) {
  std::ostringstream os;
  os << who << ": " << paths.size() << " quant point(s) " << when
     << " have no entry in the calibration table";
  if (!table.model_name.empty()) os << " (table calibrated on '" << table.model_name << "')";
  os << ':';
  for (const std::string& p : paths) os << ' ' << p;
  throw std::runtime_error(os.str());
}

}  // namespace

CalibrationTable calibrate_model(Module& model, const Dataset& calib,
                                 bool observe_input, std::string model_name) {
  // Batches fan out across the thread pool, each chunk observing into its
  // own MaxCalibrator; the per-layer maxima then merge with max(), which is
  // order-independent, so the result is identical to a serial pass.
  constexpr int kBatch = 32;
  const std::size_t batches =
      static_cast<std::size_t>((calib.size() + kBatch - 1) / kBatch);
  std::vector<CalibrationTable> partials;
  std::mutex mu;
  core::global_pool().parallel_chunks(batches, [&](std::size_t begin,
                                                   std::size_t end) {
    MaxCalibrator local;
    const nn::Context ctx{/*train=*/false, &local};
    for (std::size_t b = begin; b < end; ++b) {
      const int start = static_cast<int>(b) * kBatch;
      const int count = std::min(kBatch, calib.size() - start);
      const Tensor xb = nn::slice_batch(calib.inputs, start, count);
      if (observe_input) local.observe_input(xb);
      (void)model.run(xb, ctx);
    }
    const std::lock_guard<std::mutex> lock(mu);
    partials.push_back(std::move(local.table));
  });
  CalibrationTable table;
  for (const CalibrationTable& p : partials) table.merge(p);
  table.model_name = model_name.empty() ? model.path() : std::move(model_name);
  return table;
}

void validate_table_coverage(Module& model, const CalibrationTable& table) {
  std::set<std::string> missing;
  for (Module* m : model.modules()) {
    if (!m->quant_point()) continue;
    const std::string& path = m->path();
    if (path.empty())
      missing.insert("<unpathed " + m->name() + ">");
    else if (table.absmax.find(path) == table.absmax.end())
      missing.insert(path);
  }
  if (!missing.empty()) throw_uncalibrated("validate_table_coverage", missing, table,
                                      "in this model");
}

float evaluate_with_table(Module& model, const CalibrationTable& table,
                          const Dataset& test, const Format& fmt,
                          const PtqOptions& opt) {
  // Cheap pre-check: run one sample through the model and verify every
  // firing quant point has a calibration entry, so a table from a different
  // architecture is rejected before the (expensive) quantized evaluation.
  if (test.size() > 0) {
    CoverageCheckSession cover(table);
    const nn::Context ctx{/*train=*/false, &cover};
    (void)model.run(nn::slice_batch(test.inputs, 0, 1), ctx);
    if (!cover.missing().empty())
      throw_uncalibrated("evaluate_with_table", cover.missing(), table,
                         "in this model");
  }
  FakeQuantizer fq(table, fmt, opt.policy);
  // Inputs are fake-quantized per batch via the evaluator's on_input hook —
  // no second copy of the dataset is ever materialized.
  fq.set_input_quantization(opt.quantize_input);
  float metric = 0.f;
  if (nn::gemm::qgemm_mode() != nn::gemm::QgemmMode::kFloat) {
    // Code-domain weights: encode into 8-bit codes (the FP32 weights stay
    // untouched — no snapshot/restore) and let the layers pack GEMM
    // operands straight from them.  Decoded values are bit-identical to
    // the quantize→dequantize path, so the metric is identical too.
    install_weight_codes(model, fmt, opt.policy);
    try {
      metric = run_metric(model, test, opt.metric, &fq);
    } catch (...) {
      clear_weight_codes(model);
      throw;
    }
    clear_weight_codes(model);
  } else {
    const WeightSnapshot snap = snapshot_weights(model);
    quantize_weights_per_channel(model, fmt, opt.policy);
    metric = run_metric(model, test, opt.metric, &fq);
    restore_weights(model, snap);
  }
  // Backstop for anything the single-sample pre-check could not see (e.g.
  // data-dependent control flow): never report a metric computed with
  // silently unquantized activations.
  if (fq.uncalibrated_layers() > 0)
    throw_uncalibrated("evaluate_with_table", fq.uncalibrated_paths(), table,
                       "fired during evaluation but");
  return metric;
}

float evaluate_ptq(Module& model, const Dataset& calib, const Dataset& test,
                   const Format& fmt, const PtqOptions& opt) {
  const CalibrationTable table = calibrate_model(model, calib, opt.quantize_input);
  return evaluate_with_table(model, table, test, fmt, opt);
}

float evaluate_fp32(Module& model, const Dataset& test, Metric metric) {
  return run_metric(model, test, metric, nullptr);
}

// ------------------------------------------------------------------ RMSE --

namespace {

/// QuantSession that measures per-layer activation RMSE without mutating
/// the activations (so downstream layers see FP32 inputs).
class RmseProbe final : public nn::QuantSession {
 public:
  RmseProbe(const CalibrationTable& table, const Format& fmt, ScalePolicy policy)
      : table_(table), fmt_(fmt), policy_(policy) {}

  void on_activation(const Module& layer, Tensor& t) override {
    const auto it = table_.absmax.find(layer.path());
    if (it == table_.absmax.end() || it->second <= 0.f) return;
    const double scale = formats::scale_for_absmax(fmt_, it->second, policy_);
    const double rmse = formats::quantization_rmse(t.data(), fmt_, scale);
    se_ += rmse * rmse * static_cast<double>(t.numel());
    count_ += static_cast<double>(t.numel());
  }

  [[nodiscard]] double rmse() const { return count_ > 0 ? std::sqrt(se_ / count_) : 0.0; }
  [[nodiscard]] double sum_squared() const { return se_; }
  [[nodiscard]] double count() const { return count_; }

 private:
  const CalibrationTable& table_;
  const Format& fmt_;
  ScalePolicy policy_;
  double se_ = 0.0;
  double count_ = 0.0;
};

}  // namespace

RmseReport measure_ptq_rmse(Module& model, const Dataset& calib, const Format& fmt,
                            const PtqOptions& opt) {
  RmseReport rep;
  // Weights: per-channel squared errors computed across the pool, reduced in
  // channel order so the report is independent of the thread count.
  const auto jobs = channel_jobs(model);
  const auto kernel = fmt.kernel();
  std::vector<std::pair<double, double>> per_channel(jobs.size(), {0.0, 0.0});
  core::global_pool().parallel_for(jobs.size(), [&](std::size_t i) {
    const std::span<const float> w = jobs[i].first->channel_span(jobs[i].second);
    float mx = 0.f;
    for (const float v : w) mx = std::max(mx, std::fabs(v));
    if (mx <= 0.f) return;
    const double scale = formats::scale_for_absmax(fmt, mx, opt.policy);
    const double rmse = kernel->quantization_rmse(w, scale);
    per_channel[i] = {rmse * rmse * static_cast<double>(w.size()),
                      static_cast<double>(w.size())};
  });
  double se = 0.0, n = 0.0;
  for (const auto& [cse, cn] : per_channel) {
    se += cse;
    n += cn;
  }
  rep.weight_rmse = n > 0 ? std::sqrt(se / n) : 0.0;

  // Activations: calibrate, then probe on the same set.  Each batch probes
  // into its own RmseProbe and the per-batch partials reduce in batch order,
  // so the reduction tree — and therefore the result, to the last bit — is
  // the same for any thread count or chunk split.
  const CalibrationTable table = calibrate_model(model, calib, opt.quantize_input);
  constexpr int kBatch = 32;
  const std::size_t batches =
      static_cast<std::size_t>((calib.size() + kBatch - 1) / kBatch);
  struct Partial {
    double se = 0.0;
    double count = 0.0;
  };
  std::vector<Partial> partials(batches);  // one per batch
  core::global_pool().parallel_chunks(batches, [&](std::size_t begin,
                                                   std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      RmseProbe probe(table, fmt, opt.policy);
      const nn::Context ctx{/*train=*/false, &probe};
      const int start = static_cast<int>(b) * kBatch;
      const int count = std::min(kBatch, calib.size() - start);
      (void)model.run(nn::slice_batch(calib.inputs, start, count), ctx);
      partials[b] = {probe.sum_squared(), probe.count()};
    }
  });
  double ase = 0.0, acount = 0.0;
  for (const Partial& p : partials) {
    ase += p.se;
    acount += p.count;
  }
  rep.activation_rmse = acount > 0 ? std::sqrt(ase / acount) : 0.0;
  return rep;
}

}  // namespace mersit::ptq
