#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/preprocess.hpp"
#include "nn/train.hpp"
#include "predict/predictor.hpp"
#include "util/ring_buffer.hpp"
#include "util/timeseries.hpp"

namespace mmog::predict {

/// Longest context (input_window + smoother_window) a NeuralModel accepts:
/// predict_next pads it in a fixed-size stack array.
inline constexpr std::size_t kMaxNeuralContext = 128;

/// Configuration of the paper's neural predictor (§IV-C): a three-layer
/// (6,3,1) MLP fed through polynomial signal preprocessors and min-max
/// normalization, trained offline on collected entity-count samples.
/// input_window and hidden_units may not exceed nn::kMaxLayerWidth,
/// smoother_degree nn::kMaxSmootherDegree, and input_window +
/// smoother_window kMaxNeuralContext.
struct NeuralConfig {
  std::size_t input_window = 6;   ///< past samples fed to the network
  std::size_t hidden_units = 3;   ///< hidden-layer width
  std::size_t smoother_degree = 2;
  std::size_t smoother_window = 5;
  double train_fraction = 0.8;    ///< train/test split of the history
  nn::TrainConfig train;          ///< era-based training parameters
  std::uint64_t seed = 99;        ///< weight initialization seed
  /// Predict the *change* from the last raw sample instead of the absolute
  /// level. A small MLP trained on levels compresses its output towards the
  /// training mean; even a sub-percent level bias, correlated across every
  /// sub-zone sharing the model, systematically under-provisions the daily
  /// peaks. Delta prediction removes the level bias entirely.
  bool predict_delta = true;
  /// Feed the raw (unsmoothed) last sample as the newest of the
  /// input_window inputs. The network then sees both the denoised trend and
  /// the instantaneous deviation from it, and can learn how much of that
  /// deviation to revert — optimal filtering on noisy sub-zone counts.
  bool include_raw_input = true;
};

/// The immutable trained artifact: one low-complexity network shared by all
/// per-zone predictor instances (the data-collection and training phases of
/// §IV-C happen once, offline).
class NeuralModel {
 public:
  /// Runs the two offline phases on the collected per-zone histories:
  /// assembles (window -> next) samples from every series, splits
  /// train/test, and trains to convergence. Throws std::invalid_argument
  /// naming the field when the config is out of bounds, and when the
  /// histories are too short to form a single sample.
  static NeuralModel fit(const NeuralConfig& config,
                         std::span<const util::TimeSeries> histories);

  /// Convenience overload for a single series.
  static NeuralModel fit(const NeuralConfig& config,
                         const util::TimeSeries& history);

  /// Predicts the next value from the most recent raw samples (at least
  /// one; shorter-than-window inputs are left-padded with the first value).
  double predict_next(std::span<const double> recent) const;

  /// Same prediction over a history split into two contiguous pieces whose
  /// logical concatenation is `older` then `newer` — the shape a wrapped
  /// util::RingBuffer exposes. Allocation-free.
  double predict_next(std::span<const double> older,
                      std::span<const double> newer) const;

  /// Raw samples a prediction reads: input_window + smoother_window.
  std::size_t context() const noexcept {
    return config_.input_window + config_.smoother_window;
  }

  const NeuralConfig& config() const noexcept { return config_; }
  const nn::TrainResult& train_result() const noexcept { return result_; }

  /// Writes the trained artifact as text: a magic/version line, the config,
  /// the normalizer range, the delta scale and training outcome, then the
  /// network via nn::save_mlp. Full-precision formatting makes
  /// save -> load -> save byte-identical, so checkpoints embedding a model
  /// can be compared byte-for-byte.
  void save(std::ostream& out) const;

  /// Reads a model written by save(); restoring skips the offline training
  /// phase entirely. Throws std::runtime_error on a malformed stream or an
  /// out-of-bounds config.
  static NeuralModel load(std::istream& in);

 private:
  NeuralModel(NeuralConfig config, nn::Mlp net,
              nn::MinMaxNormalizer normalizer, double delta_scale,
              nn::TrainResult result);

  NeuralConfig config_;
  nn::Mlp net_;
  nn::MinMaxNormalizer normalizer_;
  double delta_scale_ = 1.0;  ///< |delta| normalization (delta mode)
  nn::PolynomialSmoother smoother_;
  nn::TrainResult result_;
};

/// Online per-zone wrapper around a shared trained NeuralModel. Before any
/// observation it predicts 0; with fewer samples than the input window it
/// pads, matching NeuralModel::predict_next. The recent samples live in a
/// ring buffer of NeuralModel::context() slots, so observe() and predict()
/// are allocation-free.
class NeuralPredictor final : public Predictor {
 public:
  explicit NeuralPredictor(std::shared_ptr<const NeuralModel> model);

  std::string_view name() const noexcept override { return "Neural"; }
  void observe(double value) override;
  double predict() const override;
  std::unique_ptr<Predictor> make_fresh() const override;
  /// Writes [size, oldest..newest]. load_state rejects a size word that is
  /// not a whole number in [0, context()].
  void save_state(std::vector<double>& out) const override;
  void load_state(std::span<const double> in) override;

 private:
  std::shared_ptr<const NeuralModel> model_;
  util::RingBuffer<double> history_;
};

}  // namespace mmog::predict
