// Post-training quantization pipeline (paper Section 4.1).
//
// Methodology reproduced exactly:
//  * a small calibration subset is run through the FP32 model to record the
//    per-layer activation |max| (MaxCalibrator);
//  * weights are scaled per output channel by their own |max|, activations
//    per layer by the calibration |max|; the scaled values are encoded into
//    the 8-bit format under study and decoded back (fake quantization);
//  * no advanced PTQ tricks (PD-Quant, QDrop) -- plain max scaling, so that
//    accuracy differences are attributable to the formats themselves.
//
// Calibration state is keyed on stable module *paths* (see nn::assign_paths),
// not module pointers, so a CalibrationTable is a portable artifact: save it
// once, load it into any structurally identical model instance (e.g. a
// clone() replica on another thread or another process) and evaluate.
#pragma once

#include <atomic>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>

#include "formats/corruption.h"
#include "formats/kernels/quant_kernel.h"
#include "formats/quantize.h"
#include "nn/models.h"
#include "nn/train.h"

namespace mersit::ptq {

/// Portable per-layer calibration state: module path -> activation |max|,
/// plus the model-input |max|.  Keys are the stable hierarchical paths
/// assigned by nn::assign_paths, so the table can be serialized (MCT1
/// container, see serialize.h) and applied to any structurally identical
/// model instance.  std::map keeps iteration (and therefore serialization)
/// order deterministic.
struct CalibrationTable {
  std::string model_name;              ///< informational (e.g. root path)
  float input_absmax = 0.f;
  std::map<std::string, float> absmax; ///< path -> activation |max|

  /// Pointwise max-merge (order-independent): used to reduce the per-thread
  /// partial tables of the parallel calibration pass.
  void merge(const CalibrationTable& other);

  bool operator==(const CalibrationTable&) const = default;

  /// Serialize into the hardened MCT1 binary container (see serialize.cpp).
  void save(std::ostream& os) const;
  /// Parse an MCT1 container.  Hardened like QuantizedModel::load: every
  /// length is bounds-checked, payloads read in bounded chunks, and any
  /// truncated/corrupted/random stream yields std::runtime_error.
  [[nodiscard]] static CalibrationTable load(std::istream& is);
  /// Serialized size in bytes.
  [[nodiscard]] std::size_t byte_size() const;
};

/// Records per-quant-point activation |max| over the calibration set into a
/// path-keyed CalibrationTable.  Every observed module must carry a path
/// (models built by the nn factories do); observing an unpathed module is a
/// programming error and throws std::logic_error.
class MaxCalibrator final : public nn::QuantSession {
 public:
  void on_activation(const nn::Module& layer, nn::Tensor& t) override;

  /// Observe the model input tensor (images; token ids are not observed).
  void observe_input(const nn::Tensor& t);

  CalibrationTable table;
};

/// Fake-quantizes every activation with the calibrated per-layer scales.
///
/// Each tensor (activation or model input) goes through one helper that
/// splits it into fixed 8192-element blocks across core::global_pool(); each
/// block runs the format's QuantKernel, whose batch loop (AVX-512 / AVX2 /
/// scalar) and vector body (uniform grid for INT8, bucket tables for the
/// rest) were picked when the kernel was built.  Quantization is
/// elementwise, so the output bits do not depend on the pool width; called
/// from inside a parallel region (the evaluators' batch fan-out) the blocks
/// run inline.
///
/// Concurrency: after construction the quantizer only reads the calibration
/// table and the shared format kernel, and each evaluation thread hands it a
/// distinct activation tensor — so it declares concurrent_safe() and the
/// evaluators fan test batches out across the thread pool.  (The
/// uncalibrated-path set is mutex-guarded; it is touched only on the miss
/// path, which a correct pipeline never hits.)
class FakeQuantizer final : public nn::QuantSession {
 public:
  FakeQuantizer(const CalibrationTable& table, const formats::Format& fmt,
                formats::ScalePolicy policy);

  void on_activation(const nn::Module& layer, nn::Tensor& t) override;
  [[nodiscard]] bool concurrent_safe() const override { return true; }
  /// Quantize the model input (vision models).
  void quantize_input(nn::Tensor& t) const;

  /// When enabled, the evaluator's per-batch on_input hook fake-quantizes
  /// each input batch in place (replacing the old whole-dataset copy).
  /// Off by default — token-id inputs (BERT) must pass through untouched.
  void set_input_quantization(bool on) { quantize_inputs_ = on; }
  void on_input(nn::Tensor& t) override {
    if (quantize_inputs_) quantize_input(t);
  }

  /// Layers seen at eval time but never calibrated (should stay zero).
  [[nodiscard]] int uncalibrated_layers() const { return uncalibrated_.load(); }
  /// The distinct paths (or "<unpathed TypeName>") of those layers.
  [[nodiscard]] std::set<std::string> uncalibrated_paths() const;

 private:
  /// Block fan-out over the pool, then the kernel per block; stamps `scale`
  /// on the tensor.
  void fake_quantize_tensor(nn::Tensor& t, double scale) const;

  const CalibrationTable& table_;
  const formats::Format& fmt_;
  formats::ScalePolicy policy_;
  std::shared_ptr<const formats::kernels::QuantKernel> kernel_;
  bool quantize_inputs_ = false;
  std::atomic<int> uncalibrated_ = 0;
  mutable std::mutex miss_mu_;
  std::set<std::string> missed_;
};

// ---------------------------------------------------------------- weights --

/// Deep copy of every parameter value (for restoring between formats),
/// together with each parameter's shape so a restore onto a structurally
/// different model fails loudly instead of silently misassigning tensors.
struct WeightSnapshot {
  std::vector<nn::Tensor> values;
};

[[nodiscard]] WeightSnapshot snapshot_weights(nn::Module& model);

/// Restore a snapshot.  Validates structural compatibility (parameter count
/// and every shape) *before* mutating anything; throws std::invalid_argument
/// with the offending index/shape on mismatch.
void restore_weights(nn::Module& model, const WeightSnapshot& snap);

/// Per-output-channel fake quantization of every ChannelWeights module.
void quantize_weights_per_channel(nn::Module& model, const formats::Format& fmt,
                                  formats::ScalePolicy policy);

/// The code book of `fmt` under `policy` (see nn/qweights.h); each table
/// is set only when its builder reports it usable.
[[nodiscard]] std::shared_ptr<const nn::CodeBook> make_code_book(
    const formats::Format& fmt, formats::CorruptionPolicy policy);

/// Code-domain equivalent of quantize_weights_per_channel: instead of
/// rewriting the FP32 weights with their quantize→dequantize images, encode
/// them into 8-bit codes (same per-channel scales, same encode arithmetic as
/// QuantKernel::fake_quantize) and install a nn::WeightCodes view on every
/// ChannelWeights module.  On the code path each layer's weight plan then
/// decodes the codes once and packs the decoded weights; the decoded values — and
/// therefore every layer output — are bit-identical to the
/// quantize→dequantize path.
/// The FP32 weights are left untouched (no snapshot/restore needed).
/// All-zero channels encode at scale 1.0, matching pack_weights.
void install_weight_codes(nn::Module& model, const formats::Format& fmt,
                          formats::ScalePolicy policy);

/// Remove installed code-domain weights from every ChannelWeights module;
/// layers revert to their FP32 weights.
void clear_weight_codes(nn::Module& model);

// ------------------------------------------------------------- experiment --

enum class Metric { kAccuracy, kMatthews };

struct PtqOptions {
  formats::ScalePolicy policy = formats::ScalePolicy::kMaxToUnity;
  Metric metric = Metric::kAccuracy;
  bool quantize_input = true;  ///< false for token-id inputs (BERT)
};

/// Run the calibration pass over `calib` and return the path-keyed table.
/// Batches fan out across the thread pool; the per-thread partial tables
/// merge with max(), which is order-independent, so the result is identical
/// to a serial pass.  `model_name` defaults to the model root's path.
[[nodiscard]] CalibrationTable calibrate_model(nn::Module& model,
                                               const nn::Dataset& calib,
                                               bool observe_input = true,
                                               std::string model_name = "");

/// Verify that every quant-point module of `model` has an entry in `table`,
/// by static tree walk (no forward pass, no sample data needed — the check
/// the serving engine runs before hot-swapping a calibration artifact under
/// a replica).  Stricter than the runtime pre-check in evaluate_with_table:
/// a quant point that exists but would not fire still needs an entry.
/// Throws std::runtime_error naming every missing path.
void validate_table_coverage(nn::Module& model, const CalibrationTable& table);

/// Quantize weights+activations into `fmt` using a previously built (or
/// loaded) calibration table and evaluate on `test`; weights are restored
/// afterwards.  Returns the metric in percent.
///
/// Fails loudly: before evaluating, every quant-point module of `model` must
/// have an entry in `table` — a table calibrated on a structurally different
/// model throws std::runtime_error naming the missing paths.  As a backstop,
/// any quant point that still fires uncalibrated during evaluation raises
/// the same error after weights are restored.
[[nodiscard]] float evaluate_with_table(nn::Module& model,
                                        const CalibrationTable& table,
                                        const nn::Dataset& test,
                                        const formats::Format& fmt,
                                        const PtqOptions& opt = {});

/// Calibrate on `calib`, then evaluate_with_table on `test` — the one-shot
/// convenience used by the Table-2 sweep.
[[nodiscard]] float evaluate_ptq(nn::Module& model, const nn::Dataset& calib,
                                 const nn::Dataset& test, const formats::Format& fmt,
                                 const PtqOptions& opt = {});

/// FP32 baseline with the same metric.
[[nodiscard]] float evaluate_fp32(nn::Module& model, const nn::Dataset& test,
                                  Metric metric);

// ------------------------------------------------------------------ RMSE --

/// The paper's Fig. 6 measurement: RMSE between FP32 and quantized tensors,
/// element-weighted across all weight channels and all calibration-set
/// activations.
struct RmseReport {
  double weight_rmse = 0.0;
  double activation_rmse = 0.0;
};

[[nodiscard]] RmseReport measure_ptq_rmse(nn::Module& model, const nn::Dataset& calib,
                                          const formats::Format& fmt,
                                          const PtqOptions& opt = {});

}  // namespace mersit::ptq
