#include "nn/train.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/thread_pool.h"

namespace mersit::nn {

Tensor slice_batch(const Tensor& t, int start, int count) {
  std::vector<int> shape = t.shape();
  const std::int64_t row = t.numel() / shape[0];
  shape[0] = count;
  Tensor out(shape);
  std::copy_n(t.raw() + static_cast<std::int64_t>(start) * row, count * row, out.raw());
  return out;
}

float softmax_cross_entropy(const Tensor& logits, std::span<const int> labels,
                            Tensor& grad) {
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<std::size_t>(n) != labels.size())
    throw std::invalid_argument("softmax_cross_entropy: batch mismatch");
  grad = Tensor(logits.shape());
  float loss = 0.f;
  for (int i = 0; i < n; ++i) {
    const float* z = logits.raw() + static_cast<std::int64_t>(i) * c;
    float* g = grad.raw() + static_cast<std::int64_t>(i) * c;
    float mx = z[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, z[j]);
    float denom = 0.f;
    for (int j = 0; j < c; ++j) denom += std::exp(z[j] - mx);
    const float logdenom = std::log(denom) + mx;
    loss += logdenom - z[labels[static_cast<std::size_t>(i)]];
    for (int j = 0; j < c; ++j) {
      const float p = std::exp(z[j] - logdenom);
      g[j] = (p - (j == labels[static_cast<std::size_t>(i)] ? 1.f : 0.f)) /
             static_cast<float>(n);
    }
  }
  return loss / static_cast<float>(n);
}

Adam::Adam(std::vector<Param*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  for (const Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    for (std::int64_t i = 0; i < p.value.numel(); ++i) {
      const float g = p.grad[i];
      m_[k][i] = beta1_ * m_[k][i] + (1.f - beta1_) * g;
      v_[k][i] = beta2_ * v_[k][i] + (1.f - beta2_) * g * g;
      const float mhat = m_[k][i] / bc1;
      const float vhat = v_[k][i] / bc2;
      p.value[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    p.bump_version();  // invalidate prepacked-weight caches
  }
}

float train_classifier(Module& model, const Dataset& data, const TrainOptions& opt) {
  Adam optim(model.parameters(), opt.lr);
  std::mt19937 rng(opt.shuffle_seed);
  std::vector<int> order(static_cast<std::size_t>(data.size()));
  std::iota(order.begin(), order.end(), 0);
  const Context ctx{/*train=*/true, nullptr};

  float epoch_loss = 0.f;
  for (int ep = 0; ep < opt.epochs; ++ep) {
    std::shuffle(order.begin(), order.end(), rng);
    epoch_loss = 0.f;
    int batches = 0;
    for (int start = 0; start + opt.batch <= data.size(); start += opt.batch) {
      // Gather the shuffled batch.
      std::vector<int> shape = data.inputs.shape();
      shape[0] = opt.batch;
      Tensor xb(shape);
      std::vector<int> yb(static_cast<std::size_t>(opt.batch));
      const std::int64_t row = data.inputs.numel() / data.size();
      for (int i = 0; i < opt.batch; ++i) {
        const int src = order[static_cast<std::size_t>(start + i)];
        std::copy_n(data.inputs.raw() + src * row, row, xb.raw() + i * row);
        yb[static_cast<std::size_t>(i)] = data.labels[static_cast<std::size_t>(src)];
      }
      model.zero_grad();
      const Tensor logits = model.run(xb, ctx);
      Tensor grad;
      epoch_loss += softmax_cross_entropy(logits, yb, grad);
      ++batches;
      (void)model.backward(grad);
      optim.step();
    }
    epoch_loss /= static_cast<float>(std::max(batches, 1));
    if (opt.verbose)
      std::printf("    epoch %d/%d  loss %.4f\n", ep + 1, opt.epochs, epoch_loss);
  }
  return epoch_loss;
}

namespace {

std::vector<int> predict(Module& model, const Dataset& data, QuantSession* quant,
                         int batch) {
  const Context ctx{/*train=*/false, quant};
  std::vector<int> preds(static_cast<std::size_t>(data.size()));
  const auto run_batch = [&](int start) {
    const int count = std::min(batch, data.size() - start);
    Tensor xb = slice_batch(data.inputs, start, count);
    // Input-side quantization happens here, batch by batch, instead of on a
    // materialized copy of the whole dataset (sessions opt in via on_input).
    if (quant != nullptr) quant->on_input(xb);
    const Tensor logits = model.run(xb, ctx);
    const int c = logits.dim(1);
    for (int i = 0; i < count; ++i) {
      int best = 0;
      for (int j = 1; j < c; ++j)
        if (logits.at(i, j) > logits.at(i, best)) best = j;
      preds[static_cast<std::size_t>(start + i)] = best;
    }
  };
  const std::size_t batches =
      static_cast<std::size_t>((data.size() + batch - 1) / batch);
  if (quant == nullptr || quant->concurrent_safe()) {
    // Eval-mode forward is stateless w.r.t. the module tree (backward caches
    // are gated on ctx.train), so independent batches may run concurrently.
    core::global_pool().parallel_for(
        batches, [&](std::size_t b) { run_batch(static_cast<int>(b) * batch); });
  } else {
    for (std::size_t b = 0; b < batches; ++b) run_batch(static_cast<int>(b) * batch);
  }
  return preds;
}

}  // namespace

float evaluate_accuracy(Module& model, const Dataset& data, QuantSession* quant,
                        int batch) {
  const std::vector<int> preds = predict(model, data, quant, batch);
  int correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == data.labels[i]) ++correct;
  return 100.f * static_cast<float>(correct) / static_cast<float>(preds.size());
}

float evaluate_mcc(Module& model, const Dataset& data, QuantSession* quant,
                   int batch) {
  const std::vector<int> preds = predict(model, data, quant, batch);
  // Binary confusion counts.
  double tp = 0, tn = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const bool p = preds[i] == 1, y = data.labels[i] == 1;
    if (p && y) ++tp;
    else if (!p && !y) ++tn;
    else if (p && !y) ++fp;
    else ++fn;
  }
  const double denom =
      std::sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn));
  if (denom == 0.0) return 0.f;
  return static_cast<float>(100.0 * (tp * tn - fp * fn) / denom);
}

}  // namespace mersit::nn
