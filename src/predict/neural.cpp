#include "predict/neural.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace mmog::predict {

namespace {

/// Empty when `config` fits the fixed-size inference buffers, otherwise
/// which field is out of bounds.
std::string config_bound_error(const NeuralConfig& config) {
  const auto width = std::to_string(nn::kMaxLayerWidth);
  if (config.input_window == 0) return "input_window == 0";
  if (config.input_window > nn::kMaxLayerWidth) {
    return "input_window exceeds " + width;
  }
  if (config.hidden_units == 0 || config.hidden_units > nn::kMaxLayerWidth) {
    return "hidden_units must be 1.." + width;
  }
  if (config.smoother_degree > nn::kMaxSmootherDegree) {
    return "smoother_degree exceeds " +
           std::to_string(nn::kMaxSmootherDegree);
  }
  if (config.smoother_window <= config.smoother_degree) {
    return "smoother_window must exceed smoother_degree";
  }
  if (config.smoother_window > kMaxNeuralContext - config.input_window) {
    return "input_window + smoother_window exceeds " +
           std::to_string(kMaxNeuralContext);
  }
  return {};
}

}  // namespace

NeuralModel::NeuralModel(NeuralConfig config, nn::Mlp net,
                         nn::MinMaxNormalizer normalizer, double delta_scale,
                         nn::TrainResult result)
    : config_(config),
      net_(std::move(net)),
      normalizer_(normalizer),
      delta_scale_(delta_scale),
      smoother_(config.smoother_degree, config.smoother_window),
      result_(result) {}

NeuralModel NeuralModel::fit(const NeuralConfig& config,
                             std::span<const util::TimeSeries> histories) {
  if (const auto error = config_bound_error(config); !error.empty()) {
    throw std::invalid_argument("NeuralModel: " + error);
  }
  // Global normalization range over all collected samples.
  nn::MinMaxNormalizer normalizer;
  std::vector<double> all;
  for (const auto& h : histories) {
    all.insert(all.end(), h.values().begin(), h.values().end());
  }
  if (all.empty()) throw std::invalid_argument("NeuralModel: empty history");
  normalizer.fit(all);
  // Leave headroom above the observed maximum: tanh units compress the top
  // of the fitted range, and systematic under-prediction exactly at the
  // daily peaks is what causes under-allocation events downstream.
  normalizer.update(normalizer.hi() + 0.25 * (normalizer.hi() - normalizer.lo()));

  const nn::PolynomialSmoother smoother(config.smoother_degree,
                                        config.smoother_window);

  // In delta mode the targets are per-step changes normalized by the
  // largest observed change, so the network output lives in [-1, 1].
  double delta_scale = 1.0;
  if (config.predict_delta) {
    double max_delta = 0.0;
    for (const auto& h : histories) {
      for (std::size_t t = 1; t < h.size(); ++t) {
        max_delta = std::max(max_delta, std::abs(h[t] - h[t - 1]));
      }
    }
    if (max_delta > 0.0) delta_scale = max_delta;
  }

  nn::Dataset data;
  for (const auto& h : histories) {
    if (h.size() <= config.input_window) continue;
    // Causal polynomial smoothing removes noise before windowing (§IV-C).
    const auto smoothed = smoother.smooth_series(h.values());
    for (std::size_t t = config.input_window; t < h.size(); ++t) {
      std::vector<double> in(config.input_window);
      for (std::size_t k = 0; k < config.input_window; ++k) {
        in[k] = normalizer.transform(smoothed[t - config.input_window + k]);
      }
      if (config.include_raw_input) {
        in.back() = normalizer.transform(h[t - 1]);
      }
      data.inputs.push_back(std::move(in));
      if (config.predict_delta) {
        data.targets.push_back({(h[t] - h[t - 1]) / delta_scale});
      } else {
        data.targets.push_back({normalizer.transform(h[t])});
      }
    }
  }
  if (data.empty()) {
    throw std::invalid_argument("NeuralModel: histories too short");
  }
  auto [train_set, test_set] = data.split(config.train_fraction);
  if (train_set.empty()) {
    train_set = std::move(test_set);
    test_set = {};
  }

  util::Rng rng(config.seed);
  nn::Mlp net({config.input_window, config.hidden_units, 1}, rng);
  const auto result = nn::train(net, train_set, test_set, config.train);
  return NeuralModel(config, std::move(net), normalizer, delta_scale, result);
}

NeuralModel NeuralModel::fit(const NeuralConfig& config,
                             const util::TimeSeries& history) {
  return fit(config, std::span<const util::TimeSeries>(&history, 1));
}

double NeuralModel::predict_next(std::span<const double> recent) const {
  return predict_next(recent, {});
}

// mmog-lint: hot-begin(neural)
double NeuralModel::predict_next(std::span<const double> older,
                                 std::span<const double> newer) const {
  const std::size_t size = older.size() + newer.size();
  if (size == 0) return 0.0;
  // Logical oldest-first index into the split history.
  const auto at = [&](std::size_t i) {
    return i < older.size() ? older[i] : newer[i - older.size()];
  };
  // Reproduce the training-time features exactly: each of the input_window
  // samples is smoothed over its own trailing smoother window. Left-pad with
  // the earliest available value when the history is short.
  const std::size_t ctx = context();
  std::array<double, kMaxNeuralContext> padded{};
  const std::size_t n = std::min(size, ctx);
  std::fill_n(padded.begin(), ctx - n, at(0));
  for (std::size_t k = 0; k < n; ++k) padded[ctx - n + k] = at(size - n + k);
  std::array<double, nn::kMaxLayerWidth> in{};
  for (std::size_t k = 0; k < config_.input_window; ++k) {
    const std::size_t end = ctx - config_.input_window + k + 1;
    const double smoothed = smoother_.smooth_last(
        std::span<const double>(padded.data(), end));
    in[k] = normalizer_.transform(smoothed);
  }
  const double last = at(size - 1);
  if (config_.include_raw_input) {
    in[config_.input_window - 1] = normalizer_.transform(last);
  }
  const double out = net_.forward_one(
      std::span<const double>(in.data(), config_.input_window));
  // Entity counts are non-negative.
  if (config_.predict_delta) {
    return std::max(0.0, last + out * delta_scale_);
  }
  return std::max(0.0, normalizer_.inverse(out));
}
// mmog-lint: hot-end

namespace {
constexpr const char* kNeuralMagic = "mmog-neural-v1";
}

void NeuralModel::save(std::ostream& out) const {
  out << kNeuralMagic << '\n';
  out << std::setprecision(17);
  out << config_.input_window << ' ' << config_.hidden_units << ' '
      << config_.smoother_degree << ' ' << config_.smoother_window << ' '
      << config_.train_fraction << ' ' << config_.seed << ' '
      << (config_.predict_delta ? 1 : 0) << ' '
      << (config_.include_raw_input ? 1 : 0) << '\n';
  out << config_.train.max_eras << ' ' << config_.train.learning_rate << ' '
      << config_.train.momentum << ' ' << config_.train.target_rmse << ' '
      << config_.train.patience << ' ' << (config_.train.shuffle ? 1 : 0)
      << ' ' << config_.train.shuffle_seed << '\n';
  out << normalizer_.lo() << ' ' << normalizer_.hi() << ' ' << delta_scale_
      << '\n';
  out << result_.eras << ' ' << result_.train_rmse << ' '
      << result_.test_rmse << ' ' << (result_.converged ? 1 : 0) << '\n';
  nn::save_mlp(out, net_);
}

NeuralModel NeuralModel::load(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kNeuralMagic) {
    throw std::runtime_error("NeuralModel::load: bad magic");
  }
  NeuralConfig config;
  int predict_delta = 0;
  int include_raw = 0;
  if (!(in >> config.input_window >> config.hidden_units >>
        config.smoother_degree >> config.smoother_window >>
        config.train_fraction >> config.seed >> predict_delta >>
        include_raw)) {
    throw std::runtime_error("NeuralModel::load: truncated config");
  }
  config.predict_delta = predict_delta != 0;
  config.include_raw_input = include_raw != 0;
  int shuffle = 0;
  if (!(in >> config.train.max_eras >> config.train.learning_rate >>
        config.train.momentum >> config.train.target_rmse >>
        config.train.patience >> shuffle >> config.train.shuffle_seed)) {
    throw std::runtime_error("NeuralModel::load: truncated train config");
  }
  config.train.shuffle = shuffle != 0;
  if (const auto error = config_bound_error(config); !error.empty()) {
    throw std::runtime_error("NeuralModel::load: " + error);
  }
  double lo = 0.0;
  double hi = 1.0;
  double delta_scale = 1.0;
  if (!(in >> lo >> hi >> delta_scale) || !(hi > lo)) {
    throw std::runtime_error("NeuralModel::load: bad normalizer range");
  }
  // fit() on the saved endpoints restores lo/hi exactly: the saved range
  // always satisfies hi > lo, so fit applies no adjustment.
  nn::MinMaxNormalizer normalizer;
  const std::array<double, 2> range{lo, hi};
  normalizer.fit(range);
  nn::TrainResult result;
  int converged = 0;
  if (!(in >> result.eras >> result.train_rmse >> result.test_rmse >>
        converged)) {
    throw std::runtime_error("NeuralModel::load: truncated train result");
  }
  result.converged = converged != 0;
  nn::Mlp net = nn::load_mlp(in);
  if (net.layer_sizes() !=
      std::vector<std::size_t>{config.input_window, config.hidden_units,
                               1}) {
    throw std::runtime_error("NeuralModel::load: network shape mismatch");
  }
  return NeuralModel(config, std::move(net), normalizer, delta_scale,
                     result);
}

NeuralPredictor::NeuralPredictor(std::shared_ptr<const NeuralModel> model)
    : model_(std::move(model)), history_(model_ ? model_->context() : 1) {
  if (!model_) throw std::invalid_argument("NeuralPredictor: null model");
}

// mmog-lint: hot-begin(neural)
void NeuralPredictor::observe(double value) { history_.push(value); }

double NeuralPredictor::predict() const {
  if (history_.empty()) return 0.0;
  return model_->predict_next(history_.first(), history_.second());
}
// mmog-lint: hot-end

std::unique_ptr<Predictor> NeuralPredictor::make_fresh() const {
  return std::make_unique<NeuralPredictor>(model_);
}

void NeuralPredictor::save_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(history_.size()));
  const auto older = history_.first();
  const auto newer = history_.second();
  out.insert(out.end(), older.begin(), older.end());
  out.insert(out.end(), newer.begin(), newer.end());
}

void NeuralPredictor::load_state(std::span<const double> in) {
  if (in.empty()) {
    throw std::invalid_argument("NeuralPredictor: bad state size");
  }
  // Range-check the size word as a double: casting a NaN, negative or
  // out-of-range double to size_t is undefined behaviour.
  const double size_word = in[0];
  if (!(size_word >= 0.0 &&
        size_word <= static_cast<double>(history_.capacity())) ||
      size_word != std::floor(size_word)) {
    throw std::invalid_argument(
        "NeuralPredictor: state size word is not a whole number in "
        "[0, context]");
  }
  const auto n = static_cast<std::size_t>(size_word);
  if (in.size() != 1 + n) {
    throw std::invalid_argument("NeuralPredictor: bad state size");
  }
  history_.clear();
  for (std::size_t i = 0; i < n; ++i) history_.push(in[1 + i]);
}

}  // namespace mmog::predict
