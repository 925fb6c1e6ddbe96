#include "nn/init.h"

#include <cmath>

namespace ss {

void he_init(Tensor& w, std::size_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = static_cast<float>(rng.gaussian(0.0, stddev));
}

}  // namespace ss
