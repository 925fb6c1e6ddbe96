// Shared inputs and references for the top-k selection tests
// (test_compress.cpp, test_compressed_push.cpp): the comparator selector the
// radix select replaced, a generator of adversarial gradients, and a bitwise
// float comparison.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ss::topk_test {

// The selector the radix select replaced, kept here as the reference:
// nth_element under "larger magnitude first, lower index on ties", then
// sorted into wire order.
inline std::vector<std::uint32_t> reference_topk(std::span<const float> g, std::size_t k) {
  std::vector<std::uint32_t> order(g.size());
  std::iota(order.begin(), order.end(), 0u);
  if (k < g.size()) {
    const auto greater_mag = [&g](std::uint32_t a, std::uint32_t b) {
      const float ma = std::fabs(g[a]);
      const float mb = std::fabs(g[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    };
    std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     order.end(), greater_mag);
    order.resize(k);
  }
  std::sort(order.begin(), order.end());
  return order;
}

inline float magnitude_from_bits(std::uint32_t bits, bool negative) {
  return std::bit_cast<float>(bits | (negative ? 0x80000000u : 0u));
}

// One adversarial gradient per seed, cycling through input families.
inline std::vector<float> adversarial_gradient(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  const auto sign = [&rng] { return rng.bernoulli(0.5); };
  switch (seed % 7) {
    case 0:  // plain Gaussian at a random scale
      for (float& v : g)
        v = static_cast<float>(rng.gaussian() * std::pow(10.0, rng.uniform(-6.0, 6.0)));
      break;
    case 1:  // every magnitude equal
      for (float& v : g) v = sign() ? -0.75f : 0.75f;
      break;
    case 2:  // three magnitudes: heavy ties wherever the threshold lands
      for (float& v : g) v = static_cast<float>(1 + rng.uniform_index(3)) * (sign() ? -1.0f : 1.0f);
      break;
    case 3:  // mostly +0 and -0, a few nonzeros: ties at zero across signs
      for (float& v : g)
        v = rng.bernoulli(0.1) ? static_cast<float>(rng.gaussian()) : (sign() ? -0.0f : 0.0f);
      break;
    case 4:  // every magnitude a denormal (below FLT_MIN)
      for (float& v : g)
        v = magnitude_from_bits(static_cast<std::uint32_t>(rng.uniform_index(0x00800000u)), sign());
      break;
    case 5:  // Gaussian with ~1% +/-inf
      for (float& v : g) {
        const float inf = sign() ? -INFINITY : INFINITY;
        v = rng.bernoulli(0.01) ? inf : static_cast<float>(rng.gaussian());
      }
      break;
    default: {  // bit patterns on and beside radix bucket edges (top 12 bits)
      const auto base = static_cast<std::uint32_t>(0x3F0 + rng.uniform_index(8));
      for (float& v : g) {
        const auto bucket = base + static_cast<std::uint32_t>(rng.uniform_index(3));
        // The bucket's lower edge, or one bit pattern below or above it.
        const auto offset = static_cast<std::uint32_t>(rng.uniform_index(3));
        v = magnitude_from_bits((bucket << 19) + offset - 1, sign());
      }
      break;
    }
  }
  return g;
}

inline bool same_bits(std::span<const float> a, std::span<const float> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](float x, float y) {
    return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
  });
}

}  // namespace ss::topk_test
