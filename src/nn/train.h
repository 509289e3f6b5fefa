// Training utilities: datasets-as-tensors, softmax cross-entropy, Adam, a
// small training loop, and classification metrics (accuracy + Matthews
// correlation for the CoLA-style task).
#pragma once

#include <functional>

#include "nn/module.h"

namespace mersit::nn {

/// A labelled dataset; `inputs` has N as its first dimension.
struct Dataset {
  Tensor inputs;
  std::vector<int> labels;
  int num_classes = 0;

  [[nodiscard]] int size() const { return inputs.dim(0); }
};

/// Copy rows [start, start+count) of the first dimension.
[[nodiscard]] Tensor slice_batch(const Tensor& t, int start, int count);

/// Mean cross-entropy over the batch; writes dL/dlogits into `grad`.
[[nodiscard]] float softmax_cross_entropy(const Tensor& logits,
                                          std::span<const int> labels, Tensor& grad);

class Adam {
 public:
  Adam(std::vector<Param*> params, float lr);
  void step();
  void set_lr(float lr) { lr_ = lr; }

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> m_, v_;
  float lr_;
  float beta1_ = 0.9f, beta2_ = 0.999f, eps_ = 1e-8f;
  int t_ = 0;
};

struct TrainOptions {
  int epochs = 8;
  int batch = 32;
  float lr = 1e-3f;
  unsigned shuffle_seed = 1;
  bool verbose = false;
};

/// Train a classifier; returns the final-epoch mean training loss.
float train_classifier(Module& model, const Dataset& data, const TrainOptions& opt);

/// Top-1 accuracy in percent; `quant` optionally fake-quantizes activations.
[[nodiscard]] float evaluate_accuracy(Module& model, const Dataset& data,
                                      QuantSession* quant = nullptr,
                                      int batch = 64);

/// Matthews correlation coefficient (in percent, like the paper's CoLA
/// numbers) for binary tasks; `quant` as above.
[[nodiscard]] float evaluate_mcc(Module& model, const Dataset& data,
                                 QuantSession* quant = nullptr, int batch = 64);

}  // namespace mersit::nn
