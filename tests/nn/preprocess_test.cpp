#include "nn/preprocess.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mmog::nn {
namespace {

TEST(PolyfitTest, RecoversLinearCoefficients) {
  const std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.0 * x + 1.0);
  const auto c = polyfit(xs, ys, 1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
}

TEST(PolyfitTest, RecoversQuadraticCoefficients) {
  const std::vector<double> xs = {-2, -1, 0, 1, 2};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x * x - x + 0.5);
  const auto c = polyfit(xs, ys, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 0.5, 1e-9);
  EXPECT_NEAR(c[1], -1.0, 1e-9);
  EXPECT_NEAR(c[2], 3.0, 1e-9);
}

TEST(PolyfitTest, ThrowsOnBadInput) {
  EXPECT_THROW(polyfit({}, {}, 1), std::invalid_argument);
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {1};
  EXPECT_THROW(polyfit(xs, ys, 1), std::invalid_argument);
  const std::vector<double> same = {1, 2};
  EXPECT_THROW(polyfit(same, same, 2), std::invalid_argument);
}

TEST(PolyvalTest, EvaluatesHornerCorrectly) {
  const std::vector<double> c = {1.0, 2.0, 3.0};  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(polyval(c, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(polyval(c, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(polyval(c, 2.0), 17.0);
  EXPECT_DOUBLE_EQ(polyval({}, 5.0), 0.0);
}

TEST(SmootherTest, ConstructorValidatesWindow) {
  EXPECT_THROW(PolynomialSmoother(2, 2), std::invalid_argument);
  EXPECT_NO_THROW(PolynomialSmoother(2, 3));
}

TEST(SmootherTest, PassesShortInputThrough) {
  PolynomialSmoother s(2, 5);
  const std::vector<double> xs = {4.0};
  EXPECT_DOUBLE_EQ(s.smooth_last(xs), 4.0);
  EXPECT_DOUBLE_EQ(s.smooth_last({}), 0.0);
}

TEST(SmootherTest, PreservesPolynomialSignalsExactly) {
  // A degree-2 smoother must reproduce a quadratic series exactly.
  PolynomialSmoother s(2, 5);
  std::vector<double> xs;
  for (int t = 0; t < 20; ++t) xs.push_back(0.5 * t * t - t + 3.0);
  EXPECT_NEAR(s.smooth_last(xs), xs.back(), 1e-6);
}

TEST(SmootherTest, ReducesNoiseVariance) {
  util::Rng rng(1);
  PolynomialSmoother s(1, 9);
  std::vector<double> noisy;
  for (int t = 0; t < 300; ++t) noisy.push_back(100.0 + rng.normal(0.0, 10.0));
  const auto smoothed = s.smooth_series(noisy);
  double raw_dev = 0.0, smooth_dev = 0.0;
  for (std::size_t t = 20; t < noisy.size(); ++t) {
    raw_dev += std::abs(noisy[t] - 100.0);
    smooth_dev += std::abs(smoothed[t] - 100.0);
  }
  EXPECT_LT(smooth_dev, raw_dev * 0.7);
}

// smooth_last replays polyfit's elimination recorded at construction; it must
// match the direct polyfit + polyval fit to the last bit, for every window
// length it can see, including degree 0 and the largest allowed degree.
TEST(PolynomialSmootherTest, SmoothLastEqualsPolyfitOracleBitForBit) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 1}, {0, 6}, {1, 4}, {2, 5}, {2, 9}, {3, 12},
      {kMaxSmootherDegree, kMaxSmootherDegree + 1},
      {kMaxSmootherDegree, 24}};
  util::Rng rng(11);
  for (const auto& [degree, window] : shapes) {
    const PolynomialSmoother s(degree, window);
    for (int trial = 0; trial < 20; ++trial) {
      // Player-count-like levels with noise, plus signed values.
      std::vector<double> ys(window + 3);
      const double level = rng.uniform(-50.0, 2.0e4);
      for (auto& y : ys) y = level + rng.normal(0.0, 0.05 * level + 1.0);
      for (std::size_t n = degree + 1; n <= window; ++n) {
        const std::span<const double> tail(ys.data(), n);
        std::vector<double> xs(n);
        for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i);
        const double oracle =
            polyval(polyfit(xs, tail, degree), static_cast<double>(n - 1));
        EXPECT_EQ(s.smooth_last(tail), oracle)
            << "degree " << degree << " window " << window << " n " << n;
      }
      // Longer inputs use only their last `window` samples.
      std::vector<double> xs(window);
      for (std::size_t i = 0; i < window; ++i) xs[i] = static_cast<double>(i);
      const std::span<const double> last(ys.data() + 3, window);
      EXPECT_EQ(s.smooth_last(ys), polyval(polyfit(xs, last, degree),
                                           static_cast<double>(window - 1)));
      // Inputs no longer than the degree pass through.
      for (std::size_t n = 1; n <= degree; ++n) {
        EXPECT_EQ(s.smooth_last(std::span<const double>(ys.data(), n)),
                  ys[n - 1]);
      }
    }
  }
}

TEST(PolynomialSmootherTest, RejectsOutOfBoundShapesByName) {
  const auto message = [](std::size_t degree, std::size_t window) {
    try {
      PolynomialSmoother s(degree, window);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message(kMaxSmootherDegree + 1, kMaxSmootherDegree + 2)
                .find("kMaxSmootherDegree"),
            std::string::npos);
  EXPECT_NE(message(2, kMaxSmootherWindow + 1).find("kMaxSmootherWindow"),
            std::string::npos);
  EXPECT_NE(message(3, 3).find("window must exceed degree"),
            std::string::npos);
  EXPECT_EQ(message(kMaxSmootherDegree, kMaxSmootherWindow), "accepted");
}

TEST(SmootherTest, SmoothSeriesIsCausal) {
  PolynomialSmoother s(1, 4);
  std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  const auto a = s.smooth_series(xs);
  // Appending a sample must not change earlier outputs.
  xs.push_back(100.0);
  const auto b = s.smooth_series(xs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "index " << i;
  }
}

TEST(NormalizerTest, MapsRangeToUnitInterval) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {10, 20, 30};
  n.fit(xs);
  EXPECT_DOUBLE_EQ(n.transform(10.0), 0.0);
  EXPECT_DOUBLE_EQ(n.transform(30.0), 1.0);
  EXPECT_DOUBLE_EQ(n.transform(20.0), 0.5);
}

TEST(NormalizerTest, InverseRoundTrips) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {-5, 0, 15};
  n.fit(xs);
  for (double x : {-5.0, 0.0, 7.5, 15.0, 20.0}) {
    EXPECT_NEAR(n.inverse(n.transform(x)), x, 1e-12);
  }
}

TEST(NormalizerTest, ConstantSampleDoesNotDivideByZero) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {4, 4, 4};
  n.fit(xs);
  EXPECT_TRUE(std::isfinite(n.transform(4.0)));
  EXPECT_DOUBLE_EQ(n.transform(4.0), 0.0);
}

TEST(NormalizerTest, EmptyFitYieldsDefaultRange) {
  MinMaxNormalizer n;
  n.fit({});
  EXPECT_DOUBLE_EQ(n.lo(), 0.0);
  EXPECT_DOUBLE_EQ(n.hi(), 1.0);
}

TEST(NormalizerTest, UpdateWidensRange) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {0, 10};
  n.fit(xs);
  n.update(20.0);
  EXPECT_DOUBLE_EQ(n.hi(), 20.0);
  EXPECT_DOUBLE_EQ(n.transform(20.0), 1.0);
  n.update(-10.0);
  EXPECT_DOUBLE_EQ(n.lo(), -10.0);
}

}  // namespace
}  // namespace mmog::nn
