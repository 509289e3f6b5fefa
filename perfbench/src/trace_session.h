// Benchmark-owned tracing decorator for nn::QuantSession.
//
// Every W8A8 forward in the ptq workloads already runs under the workload's
// own FakeQuantizer session, so wrapping that session is the one place the
// benchmark can observe a forward from inside without changing the library:
//  * on_activation fires after every quant-point module, so the time since
//    the previous hook (a "hook gap") is that module's self time;
//  * each call into the wrapped session (the fake-quantizer) is its own span.
// The decorator forwards every call unchanged and touches no tensor, so a
// traced forward runs the same code as an untraced one and yields the same
// bits.  Spans stay in memory; aggregation and the per-path report happen
// after the timed loop.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/module.h"

namespace perfbench {

namespace nn = mersit::nn;

/// Layer class of a module, read from public state: depthwise means weight
/// dim 1 == 1, k×k versus 1×1 comes from the kernel dims, and anything on a
/// path under an SE block counts as `kSE`.
enum class Kind : std::uint8_t {
  kConvKxK,
  kConvDw,
  kConv1x1,
  kLinear,
  kSE,
  kAct,
  kPool,
  kResidual,
  kOther,
};
inline constexpr int kKinds = 9;

[[nodiscard]] const char* kind_name(Kind k);

/// Reconciliation tolerance: the spans of a traced forward (hook-gap self
/// times plus fake-quant time) must sum to the untraced forward's wall time
/// within this fraction, comparing 10th percentiles over forwards of the
/// same batches (kFastQuantile in report.h).
inline constexpr double kReconcileTol = 0.05;

struct ModuleInfo {
  std::string path;
  Kind kind = Kind::kOther;
  double macs_per_output = 0.0;   ///< MACs per output element (conv/linear)
  std::int64_t weight_elems = 0;  ///< weights read per forward (conv/linear)
};

/// One entry per module of `model`, in nn::Module::modules() order.
[[nodiscard]] std::vector<ModuleInfo> classify_modules(nn::Module& model);

class TracingSession final : public nn::QuantSession {
 public:
  /// Index of the pseudo-module that owns the model-input spans.
  static constexpr std::int32_t kInput = -1;

  struct Span {
    std::uint32_t batch = 0;
    std::int32_t module = kInput;  ///< index into modules(), or kInput
    bool fakequant = false;        ///< a wrapped-session call, else a hook gap
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t elems = 0;        ///< elements of the tensor at the hook
  };

  TracingSession(nn::Module& model, nn::QuantSession& inner);

  /// Start the spans of one forward; call right before on_input.
  void begin_batch(std::uint32_t batch);

  void on_input(nn::Tensor& t) override;
  void on_activation(const nn::Module& layer, nn::Tensor& t) override;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<ModuleInfo>& modules() const { return info_; }

 private:
  nn::QuantSession& inner_;
  std::vector<ModuleInfo> info_;
  std::unordered_map<const nn::Module*, std::int32_t> index_;
  std::vector<Span> spans_;
  std::uint32_t batch_ = 0;
  std::int64_t cursor_ns_ = 0;
};

/// Totals of one traced forward, from its spans.
struct ForwardBreakdown {
  std::array<double, kKinds> kind_ms{};    ///< hook-gap self time per kind
  std::array<double, kKinds> kind_macs{};  ///< computed from tensor shapes
  double fakequant_ms = 0.0;
  double fakequant_elems = 0.0;
  [[nodiscard]] double attributed_ms() const;
};

/// Breakdown per traced batch id, in batch order.
[[nodiscard]] std::vector<ForwardBreakdown> breakdown(const TracingSession& s);

/// Write per-path rows as JSON: path, kind, MACs and computed bytes per
/// forward (weights as 1-byte codes plus FP32 outputs, from shapes), self
/// and fake-quant ms per forward.  Returns false if the file cannot be
/// written.
bool write_path_rows(const TracingSession& s, const std::string& file,
                     const std::string& workload);

}  // namespace perfbench
