#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace mmog::nn {
namespace {

TEST(SerializeTest, RoundTripPreservesOutputs) {
  util::Rng rng(1);
  Mlp net({6, 3, 1}, rng);
  // Train a little so weights are non-trivial.
  const std::vector<double> in = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const std::vector<double> target = {0.7};
  for (int i = 0; i < 50; ++i) net.train_step(in, target, 0.1, 0.3);

  std::stringstream buffer;
  save_mlp(buffer, net);
  const auto loaded = load_mlp(buffer);

  EXPECT_EQ(loaded.layer_sizes(), net.layer_sizes());
  EXPECT_EQ(loaded.forward(in), net.forward(in));
  const std::vector<double> other = {0.9, 0.0, 0.1, 0.8, 0.2, 0.4};
  EXPECT_EQ(loaded.forward(other), net.forward(other));
}

TEST(SerializeTest, RoundTripExactParameters) {
  util::Rng rng(2);
  Mlp net({3, 5, 2}, rng);
  std::stringstream buffer;
  save_mlp(buffer, net);
  const auto loaded = load_mlp(buffer);
  EXPECT_EQ(loaded.parameters(), net.parameters());
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream buffer("not-a-model\n2 3 1\n");
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

TEST(SerializeTest, RejectsTruncatedStream) {
  util::Rng rng(3);
  Mlp net({2, 2, 1}, rng);
  std::stringstream buffer;
  save_mlp(buffer, net);
  const auto text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_mlp(truncated), std::runtime_error);
}

TEST(SerializeTest, RejectsZeroLayerSize) {
  std::stringstream buffer("mmog-mlp-v1\n3 2 0 1\n0\n");
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

TEST(SerializeTest, RejectsParameterCountMismatch) {
  std::stringstream buffer("mmog-mlp-v1\n2 2 1\n5\n1 2 3 4 5\n");
  // A (2,1) net has 2 weights + 1 bias = 3 parameters, not 5.
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
}

TEST(SerializeTest, RejectsLayerWiderThanForwardBound) {
  const auto width = std::to_string(kMaxLayerWidth + 1);
  std::stringstream buffer("mmog-mlp-v1\n2 " + width + " 1\n" +
                           std::to_string(kMaxLayerWidth + 2) + "\n");
  EXPECT_THROW(load_mlp(buffer), std::runtime_error);
  std::stringstream negative("mmog-mlp-v1\n2 -1 1\n0\n");
  EXPECT_THROW(load_mlp(negative), std::runtime_error);
}

// The count is checked against the layer sizes before anything is sized
// from it: a huge count is a named mismatch, not an allocation attempt.
TEST(SerializeTest, RejectsParameterCountBeforeAllocating) {
  std::stringstream buffer("mmog-mlp-v1\n2 2 1\n18446744073709551615\n");
  try {
    load_mlp(buffer);
    FAIL() << "accepted a parameter count of SIZE_MAX";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parameter count mismatch"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mmog::nn
