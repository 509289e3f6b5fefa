#include "nn/tensor.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mersit::nn {

namespace {

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (const int d : shape) {
    if (d <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.f) {}

Tensor::Tensor(std::vector<int> shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor Tensor::randn(std::vector<int> shape, std::mt19937& rng, float stddev) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> dist(0.f, stddev);
  for (auto& v : t.data_) v = dist(rng);
  return t;
}

Tensor Tensor::reshaped(std::vector<int> shape) const& {
  if (static_cast<std::int64_t>(shape_numel(shape)) != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  t.qscale_ = qscale_;
  return t;
}

Tensor Tensor::reshaped(std::vector<int> shape) && {
  if (static_cast<std::int64_t>(shape_numel(shape)) != numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data_);
  t.qscale_ = qscale_;
  shape_.clear();
  return t;
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

float Tensor::abs_max() const {
  float m = 0.f;
  for (const float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i)
    os << shape_[i] << (i + 1 < shape_.size() ? "," : "");
  os << ']';
  return os.str();
}

}  // namespace mersit::nn
