#include "nn/serialize.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace mmog::nn {

namespace {
constexpr const char* kMagic = "mmog-mlp-v1";
constexpr std::size_t kMaxLayers = 64;
}  // namespace

void save_mlp(std::ostream& out, const Mlp& net) {
  out << kMagic << '\n';
  const auto& sizes = net.layer_sizes();
  out << sizes.size();
  for (std::size_t s : sizes) out << ' ' << s;
  out << '\n';
  const auto params = net.parameters();
  out << params.size() << '\n';
  out << std::setprecision(17);
  for (std::size_t i = 0; i < params.size(); ++i) {
    out << params[i] << (i + 1 == params.size() ? '\n' : ' ');
  }
}

Mlp load_mlp(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kMagic) {
    throw std::runtime_error("load_mlp: bad magic");
  }
  std::size_t n_layers = 0;
  if (!(in >> n_layers) || n_layers < 2 || n_layers > kMaxLayers) {
    throw std::runtime_error("load_mlp: bad layer count");
  }
  std::vector<std::size_t> sizes(n_layers);
  for (auto& s : sizes) {
    if (!(in >> s) || s == 0 || s > kMaxLayerWidth) {
      throw std::runtime_error("load_mlp: bad layer size (must be 1.." +
                               std::to_string(kMaxLayerWidth) + ")");
    }
  }
  // Bounded layer count and widths keep this sum far below SIZE_MAX.
  static_assert(kMaxLayers * (kMaxLayerWidth + 1) * kMaxLayerWidth <
                std::numeric_limits<std::size_t>::max() / 2);
  std::size_t expected = 0;
  for (std::size_t l = 0; l + 1 < n_layers; ++l) {
    expected += (sizes[l] + 1) * sizes[l + 1];
  }
  std::size_t n_params = 0;
  if (!(in >> n_params)) throw std::runtime_error("load_mlp: bad param count");
  if (n_params != expected) {
    throw std::runtime_error("load_mlp: parameter count mismatch");
  }
  std::vector<double> params(n_params);
  for (auto& p : params) {
    if (!(in >> p)) throw std::runtime_error("load_mlp: truncated parameters");
  }
  // Placeholder init only — set_parameters() below overwrites every weight.
  util::Rng rng(0);  // mmog-lint: allow(seed-literal)
  Mlp net(std::move(sizes), rng);
  net.set_parameters(params);
  return net;
}

}  // namespace mmog::nn
