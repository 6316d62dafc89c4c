#include "nn/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mmog::nn {

std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, std::size_t degree) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("polyfit: empty or mismatched input");
  }
  if (degree >= xs.size()) {
    throw std::invalid_argument("polyfit: degree >= number of points");
  }
  const std::size_t m = degree + 1;
  // Normal equations A c = b with A[i][j] = sum x^(i+j), b[i] = sum y x^i.
  std::vector<double> powersums(2 * m - 1, 0.0);
  std::vector<double> b(m, 0.0);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    double xp = 1.0;
    for (std::size_t p = 0; p < powersums.size(); ++p) {
      powersums[p] += xp;
      if (p < m) b[p] += ys[s] * xp;
      xp *= xs[s];
    }
  }
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) a[i][j] = powersums[i + j];
  }
  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    if (std::abs(diag) < 1e-12) {
      throw std::invalid_argument("polyfit: singular system");
    }
    for (std::size_t r = col + 1; r < m; ++r) {
      const double f = a[r][col] / diag;
      for (std::size_t c = col; c < m; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> coeffs(m, 0.0);
  for (std::size_t i = m; i-- > 0;) {
    double s = b[i];
    for (std::size_t j = i + 1; j < m; ++j) s -= a[i][j] * coeffs[j];
    coeffs[i] = s / a[i][i];
  }
  return coeffs;
}

double polyval(std::span<const double> coeffs, double x) noexcept {
  double y = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) y = y * x + coeffs[i];
  return y;
}

PolynomialSmoother::PolynomialSmoother(std::size_t degree, std::size_t window)
    : degree_(degree), window_(window) {
  if (window_ <= degree_) {
    throw std::invalid_argument("PolynomialSmoother: window must exceed degree");
  }
  if (degree_ > kMaxSmootherDegree) {
    throw std::invalid_argument(
        "PolynomialSmoother: degree exceeds kMaxSmootherDegree (" +
        std::to_string(kMaxSmootherDegree) + ")");
  }
  if (window_ > kMaxSmootherWindow) {
    throw std::invalid_argument(
        "PolynomialSmoother: window exceeds kMaxSmootherWindow (" +
        std::to_string(kMaxSmootherWindow) + ")");
  }
  const std::size_t m = degree_ + 1;
  powers_.resize(window_ * m);
  for (std::size_t s = 0; s < window_; ++s) {
    double xp = 1.0;
    for (std::size_t p = 0; p < m; ++p) {
      powers_[s * m + p] = xp;
      xp *= static_cast<double>(s);
    }
  }
  // The rest of polyfit up to its back-substitution, for each n, with every
  // operation on b recorded instead of performed.
  eliminations_.resize(window_ - degree_);
  for (std::size_t n = m; n <= window_; ++n) {
    std::array<double, 2 * kMaxTerms - 1> powersums{};
    for (std::size_t s = 0; s < n; ++s) {
      double xp = 1.0;
      for (std::size_t p = 0; p < 2 * m - 1; ++p) {
        powersums[p] += xp;
        xp *= static_cast<double>(s);
      }
    }
    Elimination& e = eliminations_[n - m];
    auto& a = e.upper;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) a[i * m + j] = powersums[i + j];
    }
    for (std::size_t col = 0; col < m; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < m; ++r) {
        if (std::abs(a[r * m + col]) > std::abs(a[pivot * m + col])) pivot = r;
      }
      e.pivot[col] = pivot;
      if (pivot != col) {
        std::swap_ranges(a.begin() + col * m, a.begin() + col * m + m,
                         a.begin() + pivot * m);
      }
      const double diag = a[col * m + col];
      if (std::abs(diag) < 1e-12) {
        throw std::invalid_argument("PolynomialSmoother: singular system");
      }
      for (std::size_t r = col + 1; r < m; ++r) {
        const double f = a[r * m + col] / diag;
        for (std::size_t c = col; c < m; ++c) a[r * m + c] -= f * a[col * m + c];
        e.factor[col * m + r] = f;
      }
    }
  }
}

// mmog-lint: hot-begin(neural)
double PolynomialSmoother::smooth_last(
    std::span<const double> recent) const noexcept {
  if (recent.empty()) return 0.0;
  if (recent.size() <= degree_) return recent.back();
  const std::size_t n = std::min(window_, recent.size());
  const double* tail = recent.data() + (recent.size() - n);
  const std::size_t m = degree_ + 1;
  const Elimination& e = eliminations_[n - m];
  // b[p] = sum y_s * s^p, accumulated in polyfit's order.
  std::array<double, kMaxTerms> b{};
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t p = 0; p < m; ++p) b[p] += tail[s] * powers_[s * m + p];
  }
  for (std::size_t col = 0; col < m; ++col) {
    std::swap(b[col], b[e.pivot[col]]);
    for (std::size_t r = col + 1; r < m; ++r) {
      b[r] -= e.factor[col * m + r] * b[col];
    }
  }
  std::array<double, kMaxTerms> coeffs{};
  for (std::size_t i = m; i-- > 0;) {
    double s = b[i];
    for (std::size_t j = i + 1; j < m; ++j) s -= e.upper[i * m + j] * coeffs[j];
    coeffs[i] = s / e.upper[i * m + i];
  }
  return polyval(std::span<const double>(coeffs.data(), m),
                 static_cast<double>(n - 1));
}
// mmog-lint: hot-end

std::vector<double> PolynomialSmoother::smooth_series(
    std::span<const double> xs) const {
  std::vector<double> out(xs.size(), 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = smooth_last(xs.subspan(0, i + 1));
  }
  return out;
}

void MinMaxNormalizer::fit(std::span<const double> xs) noexcept {
  if (xs.empty()) {
    lo_ = 0.0;
    hi_ = 1.0;
    return;
  }
  lo_ = *std::min_element(xs.begin(), xs.end());
  hi_ = *std::max_element(xs.begin(), xs.end());
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
}

void MinMaxNormalizer::update(double x) noexcept {
  lo_ = std::min(lo_, x);
  hi_ = std::max(hi_, x);
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
}

double MinMaxNormalizer::transform(double x) const noexcept {
  return (x - lo_) / (hi_ - lo_);
}

double MinMaxNormalizer::inverse(double y) const noexcept {
  return lo_ + y * (hi_ - lo_);
}

}  // namespace mmog::nn
