#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/registry.h"
#include "gradcheck.h"
#include "ptq/ptq.h"

namespace mersit::nn {
namespace {

std::mt19937 rng_for(unsigned seed) { return std::mt19937(seed); }

TEST(Linear, ForwardComputesAffineMap) {
  auto rng = rng_for(1);
  Linear lin(3, 2, rng);
  lin.weight.value.fill(0.f);
  lin.weight.value.at(0, 0) = 1.f;
  lin.weight.value.at(1, 2) = 2.f;
  lin.bias.value[1] = 0.5f;
  Tensor x({1, 3});
  x[0] = 3.f;
  x[2] = -1.f;
  const Tensor y = lin.forward(x, {});
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -1.5f);
}

TEST(Linear, GradCheck) {
  auto rng = rng_for(2);
  Linear lin(5, 4, rng);
  const Tensor x = Tensor::randn({3, 5}, rng, 1.f);
  testing::check_gradients(lin, x, 3);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  auto rng = rng_for(4);
  Conv2d c(1, 1, 3, 1, 1, 1, rng);
  c.weight.value.fill(0.f);
  c.weight.value.at(0, 0, 1, 1) = 1.f;
  c.bias.value[0] = 0.f;
  const Tensor x = Tensor::randn({1, 1, 5, 5}, rng, 1.f);
  const Tensor y = c.forward(x, {});
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, StrideAndPaddingShapes) {
  auto rng = rng_for(5);
  Conv2d c(3, 8, 3, 2, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng, 1.f);
  const Tensor y = c.forward(x, {});
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 6, 6}));
}

TEST(Conv2d, GradCheckDense) {
  auto rng = rng_for(6);
  Conv2d c(2, 3, 3, 1, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 5, 5}, rng, 1.f);
  testing::check_gradients(c, x, 7);
}

TEST(Conv2d, GradCheckStrided) {
  auto rng = rng_for(8);
  Conv2d c(2, 4, 3, 2, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng, 1.f);
  testing::check_gradients(c, x, 9);
}

TEST(Conv2d, GradCheckDepthwise) {
  auto rng = rng_for(10);
  Conv2d c(4, 4, 3, 1, 1, 4, rng);
  const Tensor x = Tensor::randn({2, 4, 5, 5}, rng, 1.f);
  testing::check_gradients(c, x, 11);
}

TEST(Conv2d, DepthwiseUsesOnlyOwnChannel) {
  auto rng = rng_for(12);
  Conv2d c(2, 2, 3, 1, 1, 2, rng);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng, 1.f);
  const Tensor y1 = c.forward(x, {});
  // Perturb channel 1; channel-0 outputs must not change.
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) x.at(0, 1, i, j) += 1.f;
  const Tensor y2 = c.forward(x, {});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_FLOAT_EQ(y1.at(0, 0, i, j), y2.at(0, 0, i, j));
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(3);
  auto rng = rng_for(13);
  Tensor x = Tensor::randn({4, 3, 5, 5}, rng, 2.f);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] += 1.5f;
  const Context train_ctx{true, nullptr};
  const Tensor y = bn.forward(x, train_ctx);
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (int b = 0; b < 4; ++b)
      for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j) mean += y.at(b, c, i, j);
    mean /= 100.0;
    for (int b = 0; b < 4; ++b)
      for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j) {
          const double d = y.at(b, c, i, j) - mean;
          var += d * d;
        }
    var /= 100.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, GradCheck) {
  BatchNorm2d bn(2);
  auto rng = rng_for(14);
  bn.gamma.value[0] = 1.3f;
  bn.beta.value[1] = -0.4f;
  const Tensor x = Tensor::randn({3, 2, 4, 4}, rng, 1.f);
  testing::check_gradients(bn, x, 15);
}

TEST(BatchNorm2d, FoldIntoConvPreservesInference) {
  auto rng = rng_for(16);
  Conv2d conv(2, 3, 3, 1, 1, 1, rng);
  BatchNorm2d bn(3);
  // Give BN non-trivial running stats and affine params.
  for (int c = 0; c < 3; ++c) {
    bn.running_mean[c] = 0.2f * static_cast<float>(c) - 0.1f;
    bn.running_var[c] = 0.5f + 0.4f * static_cast<float>(c);
    bn.gamma.value[c] = 1.f + 0.3f * static_cast<float>(c);
    bn.beta.value[c] = 0.1f * static_cast<float>(c);
  }
  const Tensor x = Tensor::randn({2, 2, 6, 6}, rng, 1.f);
  const Context eval_ctx{false, nullptr};
  const Tensor before = bn.forward(conv.forward(x, eval_ctx), eval_ctx);
  bn.fold_into(conv);
  EXPECT_TRUE(bn.folded());
  const Tensor after = bn.forward(conv.forward(x, eval_ctx), eval_ctx);
  ASSERT_EQ(before.numel(), after.numel());
  for (std::int64_t i = 0; i < before.numel(); ++i)
    EXPECT_NEAR(before[i], after[i], 2e-4f) << i;
}

// Installed codes are immutable: a fold would rescale only the FP32 weights
// and the bias, and the code-mode forward would pair the unscaled codes with
// the folded bias.  fold_into must refuse and leave both layers untouched.
TEST(BatchNorm2d, FoldIntoConvWithInstalledCodesThrows) {
  auto rng = rng_for(18);
  Conv2d conv(2, 3, 3, 1, 1, 1, rng);
  conv.set_path("stem.conv");
  BatchNorm2d bn(3);
  bn.gamma.value[1] = 1.7f;
  bn.running_mean[2] = 0.3f;
  ptq::install_weight_codes(conv, *core::make_format("MERSIT(8,2)"),
                            formats::ScalePolicy::kMaxToUnity);
  const Tensor w_before = conv.weight.value;
  const Tensor b_before = conv.bias.value;
  try {
    bn.fold_into(conv);
    FAIL() << "fold_into accepted a conv with installed weight codes";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stem.conv"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(bn.folded());
  for (std::int64_t i = 0; i < w_before.numel(); ++i)
    EXPECT_EQ(conv.weight.value[i], w_before[i]) << i;
  for (std::int64_t i = 0; i < b_before.numel(); ++i)
    EXPECT_EQ(conv.bias.value[i], b_before[i]) << i;
}

class ActivationGrad : public ::testing::TestWithParam<Act> {};

TEST_P(ActivationGrad, MatchesFiniteDifferences) {
  Activation a(GetParam());
  auto rng = rng_for(17);
  // Avoid kink points by sampling away from exact 0/6/+-3 boundaries.
  Tensor x = Tensor::randn({4, 16}, rng, 2.f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    for (const float kink : {0.f, 6.f, 3.f, -3.f}) {
      if (std::fabs(x[i] - kink) < 0.06f) x[i] += 0.12f;
    }
  }
  testing::check_gradients(a, x, 18);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ActivationGrad,
                         ::testing::Values(Act::kReLU, Act::kReLU6, Act::kSiLU,
                                           Act::kHardSwish, Act::kGELU,
                                           Act::kSigmoid, Act::kTanh),
                         [](const auto& info) {
                           return std::string(act_name(info.param));
                         });

TEST(ActivationValues, SpotChecks) {
  EXPECT_FLOAT_EQ(act_eval(Act::kReLU6, 7.f), 6.f);
  EXPECT_FLOAT_EQ(act_eval(Act::kReLU6, -1.f), 0.f);
  EXPECT_FLOAT_EQ(act_eval(Act::kHardSwish, 3.f), 3.f);
  EXPECT_FLOAT_EQ(act_eval(Act::kHardSwish, -3.f), 0.f);
  EXPECT_NEAR(act_eval(Act::kSiLU, 1.f), 0.7310586f, 1e-6f);
  EXPECT_NEAR(act_eval(Act::kGELU, 1.f), 0.841192f, 1e-5f);
}

TEST(MaxPool2d, ForwardAndGrad) {
  MaxPool2d pool;
  auto rng = rng_for(19);
  const Tensor x = Tensor::randn({2, 3, 6, 6}, rng, 1.f);
  const Tensor y = pool.forward(x, {});
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3, 3, 3}));
  testing::check_gradients(pool, x, 20);
}

TEST(MaxPool2d, WindowBelowMinusHugeKeepsItsMaxAndRoutesGradInside) {
  // Channel 0 is an ordinary window.  Channel 1 holds only values at or
  // below -1e30 (a high-regime weight flip can produce them); its max is
  // -2e30 and its gradient must land on that tap, not on element 0 of the
  // tensor.  Channel 2 leads with a NaN, which yields to the real max.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Tensor x({1, 3, 2, 2});
  const float taps[] = {1.f,   2.f,   3.f,   4.f,    -kInf, -2e30f,
                        -kInf, -kInf, std::nanf(""), 1.f, 2.f, 0.f};
  for (int i = 0; i < 12; ++i) x[i] = taps[i];
  MaxPool2d pool;
  const Tensor y = pool.forward(x, Context{/*train=*/true});
  EXPECT_EQ(y[0], 4.f);
  EXPECT_EQ(y[1], -2e30f);
  EXPECT_EQ(y[2], 2.f);
  const Tensor dx = pool.backward(Tensor({1, 3, 1, 1}, 1.f));
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(dx[i], i == 3 || i == 5 || i == 10 ? 1.f : 0.f) << "element " << i;
}

TEST(GlobalAvgPool, ForwardAndGrad) {
  GlobalAvgPool pool;
  auto rng = rng_for(21);
  const Tensor x = Tensor::randn({2, 4, 3, 3}, rng, 1.f);
  const Tensor y = pool.forward(x, {});
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 4}));
  float acc = 0.f;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) acc += x.at(0, 1, i, j);
  EXPECT_NEAR(y.at(0, 1), acc / 9.f, 1e-5f);
  testing::check_gradients(pool, x, 22);
}

TEST(SEBlockTest, GradCheck) {
  auto rng = rng_for(23);
  SEBlock se(4, 2, rng);
  const Tensor x = Tensor::randn({2, 4, 3, 3}, rng, 1.f);
  testing::check_gradients(se, x, 24);
}

TEST(ResidualBlockTest, IdentityShortcutAddsInput) {
  auto rng = rng_for(25);
  auto body = std::make_unique<Activation>(Act::kTanh);
  ResidualBlock res(std::move(body), nullptr);
  const Tensor x = Tensor::randn({2, 8}, rng, 1.f);
  const Tensor y = res.forward(x, {});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y[i], x[i] + std::tanh(x[i]));
}

TEST(ResidualBlockTest, GradCheckWithConvShortcut) {
  auto rng = rng_for(26);
  std::vector<ModulePtr> body_mods;
  body_mods.push_back(std::make_unique<Conv2d>(2, 3, 3, 1, 1, 1, rng));
  body_mods.push_back(std::make_unique<Activation>(Act::kTanh));
  auto body = std::make_unique<Sequential>(std::move(body_mods));
  auto shortcut = std::make_unique<Conv2d>(2, 3, 1, 1, 0, 1, rng);
  ResidualBlock res(std::move(body), std::move(shortcut));
  const Tensor x = Tensor::randn({2, 2, 4, 4}, rng, 1.f);
  testing::check_gradients(res, x, 27);
}

TEST(SequentialTest, CollectsParamsAndModules) {
  auto rng = rng_for(28);
  Sequential s;
  s.add(std::make_unique<Linear>(4, 3, rng));
  s.add(std::make_unique<Activation>(Act::kReLU));
  s.add(std::make_unique<Linear>(3, 2, rng));
  EXPECT_EQ(s.parameters().size(), 4u);  // 2x (weight+bias)
  EXPECT_EQ(s.modules().size(), 4u);     // self + 3 children
}

}  // namespace
}  // namespace mersit::nn
