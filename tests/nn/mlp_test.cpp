#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace mmog::nn {
namespace {

TEST(MlpTest, RejectsDegenerateArchitectures) {
  util::Rng rng(1);
  EXPECT_THROW(Mlp({5}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 0, 1}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, kMaxLayerWidth + 1, 1}, rng), std::invalid_argument);
  EXPECT_NO_THROW(Mlp({kMaxLayerWidth, kMaxLayerWidth, 1}, rng));
}

TEST(MlpTest, PaperStructureHasExpectedParameterCount) {
  util::Rng rng(1);
  Mlp net({6, 3, 1}, rng);
  // 6*3 weights + 3 biases + 3*1 weights + 1 bias = 25.
  EXPECT_EQ(net.parameter_count(), 25u);
  EXPECT_EQ(net.input_size(), 6u);
  EXPECT_EQ(net.output_size(), 1u);
}

TEST(MlpTest, ForwardRejectsWrongInputSize) {
  util::Rng rng(2);
  Mlp net({3, 2}, rng);
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(net.forward(wrong), std::invalid_argument);
}

// The stack forward pass must be forward() to the last bit, at the paper's
// (6,3,1) shape, deeper nets and the widest allowed layers.
TEST(MlpTest, ForwardOneEqualsForwardBitForBit) {
  util::Rng rng(4);
  const std::vector<std::vector<std::size_t>> shapes = {
      {6, 3, 1}, {1, 1}, {4, 8, 5, 1}, {kMaxLayerWidth, kMaxLayerWidth, 1}};
  for (const auto& shape : shapes) {
    Mlp net(shape, rng);
    std::vector<double> in(shape.front());
    for (int trial = 0; trial < 50; ++trial) {
      for (auto& x : in) x = rng.uniform(-1.5, 1.5);
      EXPECT_EQ(net.forward_one(in), net.forward(in)[0]);
    }
  }
}

TEST(MlpTest, ForwardOneRejectsWrongSizes) {
  util::Rng rng(5);
  const Mlp single({3, 2, 1}, rng);
  EXPECT_THROW(single.forward_one(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  const Mlp multi({2, 2}, rng);
  EXPECT_THROW(multi.forward_one(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(MlpTest, ForwardIsDeterministic) {
  util::Rng rng(3);
  Mlp net({4, 3, 2}, rng);
  const std::vector<double> in = {0.1, 0.2, 0.3, 0.4};
  const auto a = net.forward(in);
  const auto b = net.forward(in);
  EXPECT_EQ(a, b);
}

TEST(MlpTest, ForwardOutputIsFinite) {
  util::Rng rng(4);
  Mlp net({6, 3, 1}, rng);
  const std::vector<double> in = {1e3, -1e3, 0, 1, -1, 0.5};
  const auto out = net.forward(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::isfinite(out[0]));
}

TEST(MlpTest, TrainStepReducesErrorOnSinglePattern) {
  util::Rng rng(5);
  Mlp net({2, 4, 1}, rng);
  const std::vector<double> in = {0.3, 0.7};
  const std::vector<double> target = {0.9};
  const double first = net.train_step(in, target, 0.1);
  double last = first;
  for (int i = 0; i < 200; ++i) last = net.train_step(in, target, 0.1);
  EXPECT_LT(last, first * 0.01);
}

TEST(MlpTest, LearnsXor) {
  util::Rng rng(6);
  Mlp net({2, 4, 1}, rng);
  const std::vector<std::vector<double>> inputs = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<std::vector<double>> targets = {{0}, {1}, {1}, {0}};
  for (int era = 0; era < 4000; ++era) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      net.train_step(inputs[s], targets[s], 0.2, 0.5);
    }
  }
  EXPECT_LT(net.evaluate_mse(inputs, targets), 0.02);
}

TEST(MlpTest, LearnsLinearFunctionWithLinearOutput) {
  util::Rng rng(7);
  Mlp net({1, 3, 1}, rng);
  // y = 0.5 x + 0.2 on [0,1].
  std::vector<std::vector<double>> inputs, targets;
  for (int i = 0; i <= 20; ++i) {
    const double x = i / 20.0;
    inputs.push_back({x});
    targets.push_back({0.5 * x + 0.2});
  }
  for (int era = 0; era < 2000; ++era) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      net.train_step(inputs[s], targets[s], 0.05, 0.3);
    }
  }
  EXPECT_LT(net.evaluate_mse(inputs, targets), 1e-4);
}

TEST(MlpTest, TrainStepRejectsWrongSizes) {
  util::Rng rng(8);
  Mlp net({2, 2, 1}, rng);
  const std::vector<double> in = {1, 2};
  const std::vector<double> bad_target = {1, 2};
  EXPECT_THROW(net.train_step(in, bad_target, 0.1), std::invalid_argument);
}

TEST(MlpTest, EvaluateMseRejectsMismatch) {
  util::Rng rng(9);
  Mlp net({2, 1}, rng);
  const std::vector<std::vector<double>> inputs = {{1, 2}};
  const std::vector<std::vector<double>> targets;
  EXPECT_THROW(net.evaluate_mse(inputs, targets), std::invalid_argument);
}

TEST(MlpTest, EvaluateMseOfEmptyBatchIsZero) {
  util::Rng rng(10);
  Mlp net({2, 1}, rng);
  EXPECT_DOUBLE_EQ(net.evaluate_mse({}, {}), 0.0);
}

TEST(MlpTest, ParameterRoundTripRestoresOutputs) {
  util::Rng rng(11);
  Mlp net({3, 2, 1}, rng);
  const std::vector<double> in = {0.1, 0.5, -0.2};
  const auto before = net.forward(in);
  const auto saved = net.parameters();
  // Perturb by training, then restore.
  const std::vector<double> target = {1.0};
  net.train_step(in, target, 0.5);
  EXPECT_NE(net.forward(in), before);
  net.set_parameters(saved);
  EXPECT_EQ(net.forward(in), before);
}

TEST(MlpTest, SetParametersRejectsWrongSize) {
  util::Rng rng(12);
  Mlp net({2, 1}, rng);
  const std::vector<double> wrong(net.parameter_count() + 1, 0.0);
  EXPECT_THROW(net.set_parameters(wrong), std::invalid_argument);
}

TEST(MlpTest, DifferentSeedsDifferentInitialWeights) {
  util::Rng rng_a(13), rng_b(14);
  Mlp a({4, 3, 1}, rng_a);
  Mlp b({4, 3, 1}, rng_b);
  EXPECT_NE(a.parameters(), b.parameters());
}

}  // namespace
}  // namespace mmog::nn
