// Core layers: linear, convolution (grouped/depthwise), batch norm with
// folding, activations, pooling, and composite blocks (sequential, residual,
// squeeze-excite).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm/gemm.h"
#include "nn/gemm/qgemm.h"
#include "nn/module.h"
#include "nn/qweights.h"

namespace mersit::nn {

class BatchNorm2d;

/// True when the container fusions (absorbing a following BN and
/// Activation into the conv/linear write-back) are legal: inference only
/// and no quant session — the PTQ hooks must observe every intermediate
/// tensor a real accelerator would spill.  Weight prepacking alone is
/// value-preserving and stays active under quant sessions; this gate covers
/// the structural fusions.
[[nodiscard]] bool fuse_inference_ok(const Context& ctx);

/// One layer's compiled weight plan, as weight_plans() reports it.
struct LayerPlan {
  std::string layer;  ///< the module's path (its name() when unassigned)
  std::shared_ptr<const WeightPlan> plan;
};

/// The plan each ChannelWeights module of `model` last ran, in module
/// order, for every module whose plan is compiled: the requested path,
/// the kernel, the typed fallback reason, the backend and whether it ran
/// from codes.  Read-only; compiles nothing.
[[nodiscard]] std::vector<LayerPlan> weight_plans(Module& model);

class Linear final : public Module, public ChannelWeights {
 public:
  Linear(int in, int out, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "Linear"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  /// forward() with a fused activation epilogue; `Epilogue::kNone` is plain
  /// forward().  In inference it runs the layer's weight plan: the FP32
  /// GEMM over panels packed from the live Param or the decoded codes, or
  /// the int8 / Kulisch kernel over the codes.
  Tensor forward_fused(const Tensor& x, const Context& ctx, gemm::Epilogue epi);
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Linear>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

  [[nodiscard]] int weight_channels() const override { return out_; }
  [[nodiscard]] std::span<float> channel_span(int c) override;
  [[nodiscard]] Param& weight_param() override { return weight; }

  Param weight;  ///< [out, in]
  Param bias;    ///< [out]

 private:
  int in_, out_;
  Tensor x_cache_;
};

class Conv2d final : public Module, public ChannelWeights {
 public:
  /// Square kernel, same-style padding; `groups` divides both channel counts
  /// (groups == in == out gives a depthwise convolution).
  Conv2d(int in_ch, int out_ch, int ksize, int stride, int pad, int groups,
         std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "Conv2d"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  /// forward() with a fused activation epilogue applied after bias + full
  /// k-summation (bit-identical to a following Activation module).
  Tensor forward_fused(const Tensor& x, const Context& ctx, gemm::Epilogue epi);
  /// Inference-only conv with `bn` fused into the GEMM write-back as the
  /// per-channel affine it evaluates to (scale[c]*v + shift[c]) — the same
  /// arithmetic the BatchNorm2d module applies, so the result is
  /// bit-identical to conv→BN(→act) while skipping both separate passes.
  /// `bn` must be unfolded and channel-matched.
  Tensor forward_bn_fused(const Tensor& x, const Context& ctx,
                          const BatchNorm2d& bn, gemm::Epilogue epi);
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Conv2d>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

  [[nodiscard]] int weight_channels() const override { return out_ch_; }
  [[nodiscard]] std::span<float> channel_span(int c) override;
  [[nodiscard]] Param& weight_param() override { return weight; }

  [[nodiscard]] int in_channels() const { return in_ch_; }
  [[nodiscard]] int out_channels() const { return out_ch_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int pad() const { return pad_; }
  [[nodiscard]] int groups() const { return groups_; }

  Param weight;  ///< [out, in/groups, k, k]
  Param bias;    ///< [out]

 private:
  /// Body of forward_fused / forward_bn_fused: runs the layer's weight
  /// plan with the optional fused BN affine (bn_scale/bn_shift, out_ch
  /// entries each, applied before `epi` at write-back).
  Tensor forward_affine(const Tensor& x, const Context& ctx,
                        gemm::Epilogue epi, const float* bn_scale,
                        const float* bn_shift);

  int in_ch_, out_ch_, k_, stride_, pad_, groups_;
  Tensor x_cache_;
};

/// Batch normalization over [N,C,H,W] (per-channel).  Training uses batch
/// statistics and updates running estimates; inference uses running stats.
class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(int channels);

  [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<BatchNorm2d>(*this); }
  // BN itself is folded before PTQ; not a quant point.

  /// Fold this BN into the preceding convolution:
  ///   w'[o,...] = w[o,...] * gamma[o]/sigma[o]
  ///   b'[o]     = (b[o] - mean[o]) * gamma[o]/sigma[o] + beta[o]
  /// After folding the BN becomes the identity.  Throws std::logic_error
  /// when `conv` carries installed weight codes: the codes are immutable,
  /// so a fold would pair them with the folded bias.  Fold before
  /// installing codes.
  void fold_into(Conv2d& conv);

  [[nodiscard]] bool folded() const { return folded_; }
  [[nodiscard]] int channels() const { return c_; }
  [[nodiscard]] float eps() const { return eps_; }

  Param gamma, beta;
  Tensor running_mean, running_var;

 private:
  int c_;
  float momentum_ = 0.1f;
  float eps_ = 1e-5f;
  bool folded_ = false;
  // backward caches
  Tensor x_hat_, inv_std_;
  std::vector<int> x_shape_;
};

enum class Act { kReLU, kReLU6, kSiLU, kHardSwish, kGELU, kSigmoid, kTanh };

[[nodiscard]] const char* act_name(Act a);
[[nodiscard]] float act_eval(Act a, float x);

class Activation final : public Module {
 public:
  explicit Activation(Act kind) : kind_(kind) {}
  [[nodiscard]] std::string name() const override { return act_name(kind_); }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Activation>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }
  [[nodiscard]] Act kind() const { return kind_; }

 private:
  Act kind_;
  Tensor x_cache_;
};

/// 2x2 max pool, stride 2.
class MaxPool2d final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<MaxPool2d>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  Tensor x_cache_;
  std::vector<std::int64_t> argmax_;
};

/// Global average pool [N,C,H,W] -> [N,C].
class GlobalAvgPool final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<GlobalAvgPool>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  std::vector<int> x_shape_;
};

class Flatten final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Flatten>(*this); }

 private:
  std::vector<int> x_shape_;
};

class Sequential final : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> mods);
  /// Unnamed add: the child's structural name defaults to its index ("0",
  /// "1", ...), which stays stable because children are append-only.
  void add(ModulePtr m);
  /// Named add: the child contributes `name` as its path segment.
  void add(std::string child_name, ModulePtr m);

  [[nodiscard]] std::string name() const override { return "Sequential"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override;

  [[nodiscard]] std::size_t size() const { return mods_.size(); }
  [[nodiscard]] Module& operator[](std::size_t i) { return *mods_[i]; }

 private:
  std::vector<ModulePtr> mods_;
  std::vector<std::string> names_;  // parallel to mods_
};

/// y = body(x) + shortcut(x); shortcut may be null (identity, shapes must
/// match).  The sum is a quant point (the residual write-back).
class ResidualBlock final : public Module {
 public:
  ResidualBlock(ModulePtr body, ModulePtr shortcut)
      : body_(std::move(body)), shortcut_(std::move(shortcut)) {}

  [[nodiscard]] std::string name() const override { return "Residual"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override;
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  ModulePtr body_;
  ModulePtr shortcut_;  // may be null
};

/// Squeeze-and-excite: x * sigmoid(fc2(relu(fc1(avgpool(x))))).
class SEBlock final : public Module {
 public:
  SEBlock(int channels, int reduced, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "SE"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<SEBlock>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  int c_;
  Linear fc1_, fc2_;
  Tensor x_cache_, h1_, gate_;  // written only when ctx.train
};

}  // namespace mersit::nn
