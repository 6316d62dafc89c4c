#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace mmog::nn {

/// Largest polynomial degree a PolynomialSmoother accepts: smooth_last
/// solves its (degree + 1)-term system in fixed-size stack arrays.
inline constexpr std::size_t kMaxSmootherDegree = 8;

/// Largest smoothing window: bounds the per-length elimination tables a
/// PolynomialSmoother builds at construction.
inline constexpr std::size_t kMaxSmootherWindow = 1024;

/// Least-squares polynomial smoother (Savitzky-Golay style): fits a
/// polynomial of `degree` to a sliding window and evaluates it at the last
/// point. The paper's neural predictor feeds its MLP through "several
/// polynomial functions which ... remove the unwanted noise" (§IV-C); this
/// is that preprocessor.
///
/// The fit over xs = 0..n-1 is polyfit's, but everything in it except the
/// right-hand side depends on n alone (Savitzky & Golay, 1964): the normal
/// matrix, the pivot order, the elimination factors and the reduced upper
/// triangle are recorded once per n at construction, in polyfit's own
/// operation order. smooth_last then replays them on the data, so it is
/// allocation-free and bit-identical to polyval(polyfit(...)).
class PolynomialSmoother {
 public:
  /// Window length must exceed the polynomial degree, the degree may not
  /// exceed kMaxSmootherDegree and the window may not exceed
  /// kMaxSmootherWindow. Throws std::invalid_argument otherwise.
  PolynomialSmoother(std::size_t degree, std::size_t window);

  std::size_t degree() const noexcept { return degree_; }
  std::size_t window() const noexcept { return window_; }

  /// Smooths the last point of `recent` (the most recent `window` samples
  /// are used; shorter inputs are passed through unchanged).
  double smooth_last(std::span<const double> recent) const noexcept;

  /// Smooths an entire series causally (each output uses only samples up to
  /// and including its own index).
  std::vector<double> smooth_series(std::span<const double> xs) const;

 private:
  static constexpr std::size_t kMaxTerms = kMaxSmootherDegree + 1;

  /// polyfit's Gaussian elimination for one window length n, with the
  /// (degree + 1)-term matrices stored row-major with row stride degree + 1.
  struct Elimination {
    std::array<std::size_t, kMaxTerms> pivot{};  ///< row swapped in per column
    /// factor[col * (degree + 1) + r]: multiple of row col subtracted from
    /// row r.
    std::array<double, kMaxTerms * kMaxTerms> factor{};
    std::array<double, kMaxTerms * kMaxTerms> upper{};  ///< reduced matrix
  };

  std::size_t degree_;
  std::size_t window_;
  /// powers_[s * (degree + 1) + p] = s^p, formed by repeated multiplication
  /// as polyfit forms it.
  std::vector<double> powers_;
  /// One per window length n in [degree + 1, window], at n - (degree + 1).
  std::vector<Elimination> eliminations_;
};

/// Min-max normalizer mapping an observed range onto [0, 1]; values outside
/// the fitted range extrapolate linearly. Inverse transform restores the
/// original scale. Used to feed bounded activations of the MLP.
class MinMaxNormalizer {
 public:
  MinMaxNormalizer() = default;

  /// Fits the range to the data; a constant (or empty) sample yields an
  /// identity-like transform centred on the constant.
  void fit(std::span<const double> xs) noexcept;

  /// Widens the fitted range to include x (for streaming use).
  void update(double x) noexcept;

  double transform(double x) const noexcept;
  double inverse(double y) const noexcept;

  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
};

/// Fits a least-squares polynomial of `degree` to points (xs, ys) and
/// returns the coefficients c0..c_degree (y = sum c_k x^k). Solved by normal
/// equations with Gaussian elimination; throws std::invalid_argument on
/// empty input or degree >= number of points.
std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, std::size_t degree);

/// Evaluates a polynomial given by coefficients c0..cn at x (Horner).
double polyval(std::span<const double> coeffs, double x) noexcept;

}  // namespace mmog::nn
