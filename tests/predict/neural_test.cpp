#include "predict/neural.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/alloccount.hpp"
#include "util/rng.hpp"
#include "util/timeseries.hpp"

namespace mmog::predict {
namespace {

util::TimeSeries sine_series(std::size_t n, double period = 120.0,
                             double level = 500.0, double amp = 300.0) {
  util::TimeSeries ts(util::kSampleStepSeconds);
  for (std::size_t t = 0; t < n; ++t) {
    ts.push_back(level +
                 amp * std::sin(2.0 * std::numbers::pi *
                                static_cast<double>(t) / period));
  }
  return ts;
}

NeuralConfig fast_config() {
  NeuralConfig cfg;
  cfg.train.max_eras = 60;
  cfg.train.patience = 10;
  return cfg;
}

TEST(NeuralModelTest, FitRejectsEmptyHistory) {
  EXPECT_THROW(NeuralModel::fit(fast_config(), util::TimeSeries(120.0)),
               std::invalid_argument);
}

TEST(NeuralModelTest, FitRejectsTooShortHistory) {
  const util::TimeSeries tiny(120.0, {1, 2, 3});
  EXPECT_THROW(NeuralModel::fit(fast_config(), tiny), std::invalid_argument);
}

TEST(NeuralModelTest, FitRejectsZeroWindow) {
  auto cfg = fast_config();
  cfg.input_window = 0;
  EXPECT_THROW(NeuralModel::fit(cfg, sine_series(100)),
               std::invalid_argument);
}

TEST(NeuralModelTest, LearnsASmoothPeriodicSignal) {
  const auto series = sine_series(600);
  const auto model = NeuralModel::fit(fast_config(), series);
  // One-step-ahead predictions on the training signal should be accurate to
  // a few percent of the amplitude.
  double abs_err = 0.0, total = 0.0;
  for (std::size_t t = 50; t + 1 < series.size(); ++t) {
    std::vector<double> recent;
    for (std::size_t k = t >= 10 ? t - 10 : 0; k <= t; ++k) {
      recent.push_back(series[k]);
    }
    abs_err += std::abs(model.predict_next(recent) - series[t + 1]);
    total += series[t + 1];
  }
  EXPECT_LT(abs_err / total, 0.05);
}

TEST(NeuralModelTest, PredictNextHandlesShortInput) {
  const auto model = NeuralModel::fit(fast_config(), sine_series(300));
  const std::vector<double> one = {500.0};
  const double pred = model.predict_next(one);
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_GE(pred, 0.0);
  EXPECT_DOUBLE_EQ(model.predict_next({}), 0.0);
}

TEST(NeuralModelTest, PredictionsAreNonNegative) {
  // Entity counts cannot go below zero even when the signal dives.
  util::TimeSeries diving(util::kSampleStepSeconds);
  for (int t = 0; t < 300; ++t) {
    diving.push_back(std::max(0.0, 300.0 - t * 2.0));
  }
  const auto model = NeuralModel::fit(fast_config(), diving);
  const std::vector<double> recent = {8.0, 6.0, 4.0, 2.0, 0.0, 0.0};
  EXPECT_GE(model.predict_next(recent), 0.0);
}

TEST(NeuralModelTest, FitPoolsMultipleHistories) {
  std::vector<util::TimeSeries> histories = {sine_series(200),
                                             sine_series(200, 90.0, 300.0)};
  const auto model = NeuralModel::fit(fast_config(), histories);
  EXPECT_GT(model.train_result().eras, 0u);
}

TEST(NeuralModelTest, TrainingIsDeterministicGivenSeed) {
  const auto series = sine_series(300);
  const auto a = NeuralModel::fit(fast_config(), series);
  const auto b = NeuralModel::fit(fast_config(), series);
  const std::vector<double> recent = {500, 520, 540, 560, 580, 600};
  EXPECT_DOUBLE_EQ(a.predict_next(recent), b.predict_next(recent));
}

// The text of a saved model with fields of its config line replaced.
std::string saved_with_config(const NeuralModel& model,
                              const std::vector<std::pair<int, std::string>>&
                                  fields) {
  std::stringstream out;
  model.save(out);
  std::string magic;
  std::string config_line;
  std::getline(out, magic);
  std::getline(out, config_line);
  std::istringstream config_in(config_line);
  std::vector<std::string> words;
  for (std::string w; config_in >> w;) words.push_back(w);
  for (const auto& [index, value] : fields) words[index] = value;
  std::string text = magic + "\n";
  for (const auto& w : words) text += w + " ";
  text += "\n";
  std::string rest;
  for (std::string line; std::getline(out, line);) rest += line + "\n";
  return text + rest;
}

TEST(NeuralModelTest, FitAndLoadRejectOutOfBoundConfigsByName) {
  struct Case {
    std::size_t input_window, hidden_units, degree, window;
    const char* name;
  };
  const Case cases[] = {
      {nn::kMaxLayerWidth + 1, 3, 2, 5, "input_window"},
      {6, 0, 2, 5, "hidden_units"},
      {6, nn::kMaxLayerWidth + 1, 2, 5, "hidden_units"},
      {6, 3, nn::kMaxSmootherDegree + 1, nn::kMaxSmootherDegree + 2,
       "smoother_degree"},
      {6, 3, 2, 2, "smoother_window must exceed smoother_degree"},
      {60, 3, 2, kMaxNeuralContext - 59, "input_window + smoother_window"},
  };
  const auto series = sine_series(200);
  const auto model = NeuralModel::fit(fast_config(), series);
  for (const auto& c : cases) {
    auto cfg = fast_config();
    cfg.input_window = c.input_window;
    cfg.hidden_units = c.hidden_units;
    cfg.smoother_degree = c.degree;
    cfg.smoother_window = c.window;
    try {
      NeuralModel::fit(cfg, series);
      ADD_FAILURE() << "fit accepted " << c.name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
          << e.what();
    }
    std::istringstream in(saved_with_config(
        model, {{0, std::to_string(c.input_window)},
                {1, std::to_string(c.hidden_units)},
                {2, std::to_string(c.degree)},
                {3, std::to_string(c.window)}}));
    try {
      NeuralModel::load(in);
      ADD_FAILURE() << "load accepted " << c.name;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
          << e.what();
    }
  }
  // The largest context that fits is accepted.
  auto cfg = fast_config();
  cfg.input_window = 6;
  cfg.smoother_window = kMaxNeuralContext - 6;
  EXPECT_NO_THROW(NeuralModel::fit(cfg, sine_series(400)));
}

TEST(NeuralModelTest, TwoSpanPredictionEqualsOneSpanAtEverySplit) {
  const auto model = NeuralModel::fit(fast_config(), sine_series(300));
  const auto series = sine_series(40, 17.0);
  for (std::size_t len = 1; len <= series.size(); ++len) {
    const std::span<const double> all(series.values().data(), len);
    const double expected = model.predict_next(all);
    for (std::size_t split = 0; split <= len; ++split) {
      EXPECT_EQ(model.predict_next(all.first(split), all.subspan(split)),
                expected)
          << "len " << len << " split " << split;
    }
  }
}

TEST(NeuralPredictorTest, RejectsNullModel) {
  EXPECT_THROW(NeuralPredictor(nullptr), std::invalid_argument);
}

TEST(NeuralPredictorTest, TracksObservedSignal) {
  const auto series = sine_series(600);
  auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), series));
  NeuralPredictor p(model);
  EXPECT_EQ(p.name(), "Neural");
  EXPECT_DOUBLE_EQ(p.predict(), 0.0);  // no history yet
  double abs_err = 0.0, total = 0.0;
  for (std::size_t t = 0; t + 1 < series.size(); ++t) {
    p.observe(series[t]);
    if (t > 50) {
      abs_err += std::abs(p.predict() - series[t + 1]);
      total += series[t + 1];
    }
  }
  EXPECT_LT(abs_err / total, 0.05);
}

TEST(NeuralPredictorTest, MakeFreshSharesModelButNotHistory) {
  auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), sine_series(300)));
  NeuralPredictor p(model);
  p.observe(500.0);
  auto fresh = p.make_fresh();
  EXPECT_DOUBLE_EQ(fresh->predict(), 0.0);
  EXPECT_NE(p.predict(), 0.0);
}

/// A noisy daily-like signal long enough to wrap a context-sized ring many
/// times.
std::vector<double> noisy_series(std::size_t n) {
  util::Rng rng(5);
  std::vector<double> xs(n);
  for (std::size_t t = 0; t < n; ++t) {
    xs[t] = std::max(0.0, 500.0 + 300.0 * std::sin(static_cast<double>(t) /
                                                      9.0) +
                              rng.normal(0.0, 25.0));
  }
  return xs;
}

// The ring-buffer predictor must give exactly the model's prediction over the
// whole history seen so far: through the short-history padding steps and
// across every wrap of its ring.
TEST(NeuralPredictorTest, MatchesModelOverWrappingRing) {
  const auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), sine_series(300)));
  const auto xs = noisy_series(20 * model->context() + 7);
  NeuralPredictor p(model);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    p.observe(xs[t]);
    EXPECT_EQ(p.predict(),
              model->predict_next(std::span<const double>(xs.data(), t + 1)))
        << "step " << t;
  }
}

// Checkpoint at every offset around the ring's wrap points, restore into a
// fresh predictor, and continue: both stay in lockstep and re-save the same
// payload, which keeps checkpoints byte-identical.
TEST(NeuralPredictorTest, SaveLoadContinuesInLockstepAtWrapPoints) {
  const auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), sine_series(300)));
  const std::size_t ctx = model->context();
  const auto xs = noisy_series(6 * ctx);
  for (std::size_t cut = 0; cut <= 3 * ctx + 1; ++cut) {
    NeuralPredictor a(model);
    for (std::size_t t = 0; t < cut; ++t) a.observe(xs[t]);
    std::vector<double> state;
    a.save_state(state);
    ASSERT_EQ(state.size(), 1 + std::min(cut, ctx));
    EXPECT_EQ(state[0], static_cast<double>(std::min(cut, ctx)));
    NeuralPredictor b(model);
    b.observe(-1.0);  // load_state must replace, not extend, the history
    b.load_state(state);
    std::vector<double> resaved;
    b.save_state(resaved);
    EXPECT_EQ(resaved, state) << "cut " << cut;
    for (std::size_t t = cut; t < cut + 2 * ctx; ++t) {
      EXPECT_EQ(a.predict(), b.predict()) << "cut " << cut << " t " << t;
      a.observe(xs[t]);
      b.observe(xs[t]);
    }
  }
}

TEST(NeuralPredictorTest, LoadStateRejectsBadSizeWord) {
  const auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), sine_series(300)));
  const double ctx = static_cast<double>(model->context());
  NeuralPredictor p(model);
  const double bad_words[] = {std::nan(""),
                              -1.0,
                              1.5,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              ctx + 1.0,
                              1e300};
  for (const double word : bad_words) {
    std::vector<double> state(1 + model->context(), 400.0);
    state[0] = word;
    EXPECT_THROW(p.load_state(state), std::invalid_argument) << word;
  }
  EXPECT_THROW(p.load_state({}), std::invalid_argument);
  const std::vector<double> short_payload = {3.0, 1.0, 2.0};
  EXPECT_THROW(p.load_state(short_payload), std::invalid_argument);
  const std::vector<double> empty_history = {0.0};
  EXPECT_NO_THROW(p.load_state(empty_history));
  EXPECT_EQ(p.predict(), 0.0);
}

// Zero-allocation gate for the paper's predictor: once constructed, neither
// observe() nor predict() touches the heap, from the first sample on.
TEST(NeuralPredictorTest, ObserveAndPredictDoNotAllocate) {
  const auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), sine_series(300)));
  const auto xs = noisy_series(5 * model->context());
  NeuralPredictor p(model);
  double sink = 0.0;
  util::alloccount::Totals delta;
  {
    const util::alloccount::Scope scope;
    const auto before = util::alloccount::totals();
    for (const double x : xs) {
      p.observe(x);
      sink += p.predict();
    }
    delta = util::alloccount::totals() - before;
  }
  EXPECT_EQ(delta.allocs, 0u);
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace mmog::predict
