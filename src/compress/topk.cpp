#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.h"

namespace ss {

TopKCodec::TopKCodec(double keep_fraction) : keep_fraction_(keep_fraction) {
  if (!(keep_fraction > 0.0) || keep_fraction > 1.0)
    throw ConfigError("TopKCodec: keep_fraction must be in (0, 1]");
}

std::string TopKCodec::name() const {
  // Render as a percentage with enough precision for e.g. 0.1%.
  const double pct = keep_fraction_ * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "topk(%g%%)", pct);
  return buf;
}

std::size_t TopKCodec::kept(std::size_t num_params) const noexcept {
  if (num_params == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::llround(keep_fraction_ * static_cast<double>(num_params)));
  return std::clamp<std::size_t>(k, 1, num_params);
}

std::size_t TopKCodec::wire_bytes(std::size_t num_params) const {
  // One (uint32 index, fp32 value) pair per kept coordinate, capped at the
  // dense fp32 payload: at high keep fractions the index stream costs more
  // than just sending every value, so the encoder falls back to dense and
  // the price must follow (topk(100%) used to charge 2x the dense size).
  const std::size_t sparse = kept(num_params) * (sizeof(std::uint32_t) + sizeof(float));
  const std::size_t dense = num_params * sizeof(float);
  return std::min(sparse, dense) + kHeaderBytes;
}

namespace {

// Radix width of the first selection pass: buckets keyed by the top 12 bits
// of the 31-bit magnitude pattern (4,096 counters, 16 KB, L1-resident).
constexpr int kBucketShift = 31 - 12;
constexpr std::size_t kBuckets = std::size_t{1} << 12;

// |v| as an integer: for non-negative IEEE floats the bit patterns order
// exactly like the values (denormals and +/-0 included), so magnitudes can be
// compared and bucketed as uint32.  NaNs rank above +/-inf.
std::uint32_t magnitude_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFu;
}

// Zero every coordinate of `v` not listed in the ascending index set `keep`.
void zero_outside(std::span<float> v, std::span<const std::uint32_t> keep) {
  std::size_t next = 0;  // first coordinate not yet visited
  for (const std::uint32_t i : keep) {
    std::fill(v.begin() + static_cast<std::ptrdiff_t>(next), v.begin() + i, 0.0f);
    next = std::size_t{i} + 1;
  }
  std::fill(v.begin() + static_cast<std::ptrdiff_t>(next), v.end(), 0.0f);
}

}  // namespace

std::vector<std::uint32_t> TopKCodec::select(std::span<const float> grad) const {
  const std::size_t n = grad.size();
  const std::size_t k = kept(n);

  // 1. Histogram the top magnitude bits; walking buckets from the top finds
  //    the one holding the k-th largest magnitude, and how many lie above it.
  std::array<std::uint32_t, kBuckets> hist{};
  for (const float v : grad) ++hist[magnitude_bits(v) >> kBucketShift];
  std::size_t bucket = kBuckets - 1;
  std::size_t above = 0;  // magnitudes in buckets above `bucket`
  while (above + hist[bucket] < k) above += hist[bucket--];

  // 2. Exact threshold tau: the (k - above)-th largest magnitude inside that
  //    bucket, plus how many of the k slots go to ties at tau.
  std::vector<std::uint32_t> mags;
  mags.reserve(hist[bucket]);
  for (const float v : grad) {
    const std::uint32_t m = magnitude_bits(v);
    if ((m >> kBucketShift) == bucket) mags.push_back(m);
  }
  const auto nth = mags.begin() + static_cast<std::ptrdiff_t>(k - above - 1);
  std::nth_element(mags.begin(), nth, mags.end(), std::greater<>());
  const std::uint32_t tau = *nth;
  const auto strictly_above =
      static_cast<std::size_t>(std::count_if(mags.begin(), nth, [tau](std::uint32_t m) {
        return m > tau;
      }));
  std::size_t ties = k - above - strictly_above;

  // 3. One ascending scan: everything above tau, and the lowest-index ties.
  std::vector<std::uint32_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t m = magnitude_bits(grad[i]);
    if (m < tau) continue;
    if (m == tau) {
      if (ties == 0) continue;
      --ties;
    }
    out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::size_t TopKCodec::transform(std::span<float> grad, Rng& /*rng*/) const {
  const std::size_t n = grad.size();
  if (n == 0) return wire_bytes(0);
  if (kept(n) == n) return wire_bytes(n);
  zero_outside(grad, select(grad));
  return wire_bytes(n);
}

CompressedPush TopKCodec::encode(std::span<const float> grad, Rng& /*rng*/) const {
  const std::size_t n = grad.size();
  CompressedPush push;
  push.num_params = n;
  push.wire_size = wire_bytes(n);
  if (n == 0) {
    push.format = CompressedPush::Format::kSparse;
    return push;
  }
  const std::size_t k = kept(n);
  // Dense fallback once the index stream would cost more than plain fp32.
  if (k * (sizeof(std::uint32_t) + sizeof(float)) >= n * sizeof(float)) {
    push.format = CompressedPush::Format::kDense;
    push.values.assign(grad.begin(), grad.end());
    if (k < n) zero_outside(push.values, select(grad));
    return push;
  }
  push.format = CompressedPush::Format::kSparse;
  push.indices = select(grad);  // already in wire order: ascending
  push.values.reserve(k);
  for (const std::uint32_t i : push.indices) push.values.push_back(grad[i]);
  return push;
}

}  // namespace ss
