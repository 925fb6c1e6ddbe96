#include "data/synthetic.h"

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ss {

SyntheticSpec SyntheticSpec::cifar10_like() {
  SyntheticSpec s;
  s.num_classes = 10;
  s.feature_dim = 64;
  s.train_size = 16384;
  s.test_size = 4096;
  s.modes_per_class = 3;
  s.class_separation = 0.55;
  s.within_stddev = 1.0;
  s.label_noise = 0.06;
  s.seed = 1234;
  return s;
}

SyntheticSpec SyntheticSpec::cifar100_like() {
  SyntheticSpec s;
  s.num_classes = 100;
  s.feature_dim = 96;
  s.train_size = 16384;
  s.test_size = 4096;
  s.modes_per_class = 2;
  s.class_separation = 0.80;
  s.within_stddev = 1.0;
  s.label_noise = 0.04;
  s.seed = 5678;
  return s;
}

namespace {

struct ModeCenters {
  // centers[class][mode] is a feature_dim vector.
  std::vector<std::vector<std::vector<float>>> centers;
};

ModeCenters make_centers(const SyntheticSpec& spec, Rng& rng) {
  ModeCenters mc;
  mc.centers.resize(static_cast<std::size_t>(spec.num_classes));
  for (auto& modes : mc.centers) {
    modes.resize(static_cast<std::size_t>(spec.modes_per_class));
    for (auto& center : modes) {
      center.resize(spec.feature_dim);
      for (auto& v : center)
        v = static_cast<float>(rng.gaussian(0.0, spec.class_separation));
    }
  }
  return mc;
}

/// Generate rows [begin, end) of a `size`-row set from `rng`, the set's
/// stream positioned at row 0.
Dataset sample_set(const SyntheticSpec& spec, const ModeCenters& mc, std::size_t begin,
                   std::size_t end, std::size_t size, double label_noise, Rng& rng) {
  // Skip the rows before the range by drawing exactly the raw values each
  // consumes: class and mode, two uniforms per Box-Muller gaussian (the
  // log(0) clamp changes no count), and the label-noise trial plus the
  // resampled label when it fires.
  const std::size_t row_draws = 2 + 2 * spec.feature_dim;
  for (std::size_t i = 0; i < begin; ++i) {
    for (std::size_t k = 0; k < row_draws; ++k) (void)rng.next_u64();
    if (label_noise > 0.0 && rng.bernoulli(label_noise)) (void)rng.next_u64();
  }
  const std::size_t n = end - begin;
  Tensor features({n, spec.feature_dim});
  std::vector<int> labels(n);
  float* pf = features.data();
  // Standardize to ~unit per-dimension variance, as input pipelines do for
  // image data (per-channel normalization in the paper's Tensor2Tensor
  // preprocessing).  Keeps gradient scales sane for the unnormalized MLP.
  const float inv_scale = static_cast<float>(
      1.0 / std::sqrt(spec.class_separation * spec.class_separation +
                      spec.within_stddev * spec.within_stddev));
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(spec.num_classes)));
    const auto& modes = mc.centers[static_cast<std::size_t>(cls)];
    const auto& center = modes[rng.uniform_index(modes.size())];
    float* row = pf + i * spec.feature_dim;
    for (std::size_t d = 0; d < spec.feature_dim; ++d)
      row[d] = (center[d] + static_cast<float>(rng.gaussian(0.0, spec.within_stddev))) *
               inv_scale;
    int y = cls;
    if (label_noise > 0.0 && rng.bernoulli(label_noise))
      y = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(spec.num_classes)));
    labels[i] = y;
  }
  return Dataset(std::move(features), std::move(labels), spec.num_classes, begin, size);
}

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

/// The split's streams, seeded in the historical order: mode centers, then
/// the train stream, then the test stream.  Rng::fork advances its parent,
/// so the test stream exists only after the train fork.
struct Streams {
  ModeCenters mc;
  Rng train;
  Rng test;
};

Streams make_streams(const SyntheticSpec& spec) {
  if (spec.num_classes < 2) throw ConfigError("make_synthetic: need >= 2 classes");
  if (spec.feature_dim == 0) throw ConfigError("make_synthetic: feature_dim must be > 0");
  if (spec.train_size == 0) throw ConfigError("make_synthetic: train_size must be > 0");
  if (spec.modes_per_class < 1) throw ConfigError("make_synthetic: modes_per_class >= 1");
  if (!(spec.label_noise >= 0.0 && spec.label_noise < 1.0))
    throw ConfigError("make_synthetic: label_noise in [0, 1)");
  if (!finite_nonneg(spec.class_separation) || !finite_nonneg(spec.within_stddev))
    throw ConfigError("make_synthetic: class_separation and within_stddev must be finite "
                      "and >= 0");
  if (spec.class_separation == 0.0 && spec.within_stddev == 0.0)
    throw ConfigError("make_synthetic: class_separation and within_stddev are both 0");

  Rng rng(spec.seed);
  ModeCenters mc = make_centers(spec, rng);
  Rng train = rng.fork(1);
  Rng test = rng.fork(2);
  return {std::move(mc), train, test};
}

}  // namespace

DataSplit make_synthetic(const SyntheticSpec& spec) {
  Streams s = make_streams(spec);
  DataSplit split;
  split.train = sample_set(spec, s.mc, 0, spec.train_size, spec.train_size, spec.label_noise,
                           s.train);
  split.test = sample_set(spec, s.mc, 0, spec.test_size, spec.test_size, /*label_noise=*/0.0,
                          s.test);
  return split;
}

Dataset make_synthetic_train(const SyntheticSpec& spec, std::size_t begin, std::size_t end) {
  if (begin > end || end > spec.train_size)
    throw ConfigError("make_synthetic_train: rows must satisfy begin <= end <= train_size");
  Streams s = make_streams(spec);
  return sample_set(spec, s.mc, begin, end, spec.train_size, spec.label_noise, s.train);
}

Dataset make_synthetic_test(const SyntheticSpec& spec) {
  Streams s = make_streams(spec);
  return sample_set(spec, s.mc, 0, spec.test_size, spec.test_size, /*label_noise=*/0.0, s.test);
}

}  // namespace ss
