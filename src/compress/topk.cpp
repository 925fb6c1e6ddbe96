#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "common/error.h"
#include "obs/obs.h"

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

// Threshold estimate: the candidate bound `lo` is read off a fixed sample of
// kSampleSize coordinates, at the sample rank expected to admit about
// kOversample * k coordinates.  The sample only bounds the candidate set, so
// these constants trade speed, never the result.
constexpr std::size_t kSampleSize = 1024;
constexpr std::size_t kOversample = 2;

// The sample positions of n coordinates, in order: position q is the
// multiplicative hash (q * 2654435761 + 12345) mod n, so the sample spreads
// over every row and column of a weight matrix (a plain stride equal to the
// class count would read a single column).  Each position is the last plus
// the multiplier mod n, reduced by one conditional subtraction, so no
// division runs per position.
class SamplePositions {
 public:
  explicit SamplePositions(std::size_t n) noexcept
      : n_(n), step_(2654435761u % n), pos_(12345u % n) {}

  std::size_t next() noexcept {
    const std::size_t at = pos_;
    pos_ += step_;
    pos_ -= pos_ >= n_ ? n_ : 0;
    return at;
  }

 private:
  std::size_t n_;
  std::size_t step_;
  std::size_t pos_;
};

// Radix width of the selection among candidates: 4,096 counters (16 KB,
// L1-resident).
constexpr int kRadixBits = 12;

// |v| as an integer: for non-negative IEEE floats the bit patterns order
// exactly like the values (denormals and +/-0 included), so magnitudes can be
// compared and bucketed as uint32.  NaNs rank above +/-inf.
std::uint32_t magnitude_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFu;
}

// Four lanes in one SSE register (GCC/Clang vector extension), as in
// tensor/ops.cpp.  Magnitude patterns fit in 31 bits, so signed lanes compare
// them correctly.
typedef float v4 __attribute__((vector_size(16)));
typedef std::int32_t i4 __attribute__((vector_size(16)));

v4 load4(const float* p) {
  v4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, v4 v) { std::memcpy(p, &v, sizeof v); }

struct Candidate {
  std::uint32_t index;
  std::uint32_t magnitude;  // magnitude_bits of the coordinate
};

// The candidate bound for the top-k of x = g + carry (x = g when `carry` is
// empty): the magnitude at the sample rank expected to admit about
// kOversample * k coordinates, or 0 (every coordinate) when that is most of
// the vector anyway.
std::uint32_t candidate_bound(std::span<const float> g, std::span<const float> carry,
                              std::size_t k) {
  const std::size_t n = g.size();
  const std::size_t rank = (kOversample * k * kSampleSize + n - 1) / n;
  if (rank >= kSampleSize) return 0;
  std::array<std::uint32_t, kSampleSize> sample;
  SamplePositions positions(n);
  for (std::uint32_t& m : sample) {
    const std::size_t i = positions.next();
    m = magnitude_bits(carry.empty() ? g[i] : g[i] + carry[i]);
  }
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(sample.begin(), nth, sample.end(), std::greater<>());
  return *nth;
}

// Append (index, magnitude) for every |x| >= lo to `out`, in ascending
// index order.  With kCarry, x = g + carry is formed on the way and stored
// into `carry` (the error-feedback carry-in); otherwise x = g.  The first
// pass has no data-dependent branch: it compares 16 coordinates per block
// and stores each block's 16-bit hit mask into a 64-bit word, four blocks to
// a word.  The second walks the set bits and reads each magnitude back from
// x, so only one branch per word depends on the data.
template <bool kCarry>
void collect(std::span<const float> g, std::span<float> carry, std::uint32_t lo,
             std::vector<Candidate>& out) {
  const std::size_t n = g.size();
  const std::size_t blocks = n / 16;
  const auto lo_lane = static_cast<std::int32_t>(lo);
  const i4 lo4 = {lo_lane, lo_lane, lo_lane, lo_lane};
  const i4 abs_mask = {0x7FFFFFFF, 0x7FFFFFFF, 0x7FFFFFFF, 0x7FFFFFFF};
  const i4 lane_bit = {1, 2, 4, 8};
  // Bit 16 * (block % 4) + 4 * b + lane of words[block / 4] is set when lane
  // `lane` of the block's b-th group of four is a candidate.
  std::vector<std::uint64_t> words((blocks + 3) / 4);
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = 0;
    for (std::size_t blk = 4 * w; blk < std::min(blocks, 4 * w + 4); ++blk) {
      i4 bits = {0, 0, 0, 0};
      for (std::size_t b = 0; b < 4; ++b) {
        const std::size_t i = 16 * blk + 4 * b;
        v4 x = load4(g.data() + i);
        if constexpr (kCarry) {
          x += load4(carry.data() + i);
          store4(carry.data() + i, x);
        }
        bits |= ((std::bit_cast<i4>(x) & abs_mask) >= lo4) &
                (lane_bit << static_cast<std::int32_t>(4 * b));
      }
      const auto hits = static_cast<std::uint32_t>(bits[0] | bits[1] | bits[2] | bits[3]);
      word |= std::uint64_t{hits} << (16 * (blk - 4 * w));
    }
    words[w] = word;
  }
  const float* x = kCarry ? carry.data() : g.data();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      const std::size_t i = 64 * w + static_cast<std::size_t>(std::countr_zero(word));
      out.push_back({static_cast<std::uint32_t>(i), magnitude_bits(x[i])});
    }
  }
  for (std::size_t i = 16 * blocks; i < n; ++i) {
    float xi = g[i];
    if constexpr (kCarry) {
      xi += carry[i];
      carry[i] = xi;
    }
    const std::uint32_t m = magnitude_bits(xi);
    if (m >= lo) out.push_back({static_cast<std::uint32_t>(i), m});
  }
}

void count_retry() {
  if (!obs::enabled()) return;
  static obs::Counter& retries = obs::metrics().counter(
      "ss_compress_topk_retries_total",
      "Top-k selections whose sampled bound admitted fewer than k candidates");
  retries.add();
}

// Exact radix select among `count` candidates, `at(j)` being the j-th in
// ascending index order (at least k of them, every magnitude in [low, high]):
// the k largest magnitudes, lower index first on equal magnitude, in
// ascending index order.  kMostBelow says that most of them lie below the
// k-th magnitude (a scan of the full vector), not about half (a candidate
// set).
template <bool kMostBelow, class At>
std::vector<std::uint32_t> select_among(std::size_t count, At at, std::size_t k,
                                        std::uint32_t low, std::uint32_t high) {
  // 1. Histogram the magnitudes, keyed by their offset from `low` and scaled
  //    so `high` lands in the top bucket; walking buckets from the top finds
  //    the one holding the k-th largest magnitude, and how many lie above it.
  const int shift = std::max(0, static_cast<int>(std::bit_width(high - low)) - kRadixBits);
  const auto bucket_of = [low, shift](std::uint32_t m) { return (m - low) >> shift; };
  std::array<std::uint32_t, std::size_t{1} << kRadixBits> hist{};
  for (std::size_t j = 0; j < count; ++j) ++hist[bucket_of(at(j).magnitude)];
  std::size_t bucket = bucket_of(high);
  std::size_t above = 0;  // magnitudes in buckets above `bucket`
  while (above + hist[bucket] < k) above += hist[bucket--];

  // 2. Exact threshold tau: the (k - above)-th largest magnitude inside that
  //    bucket, plus how many of the k slots go to ties at tau.
  std::vector<std::uint32_t> mags;
  mags.reserve(hist[bucket]);
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t m = at(j).magnitude;
    if (bucket_of(m) == bucket) mags.push_back(m);
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
  //    Each one is written at the next free slot, and the slot advances only
  //    if it is kept (so one spare slot at the end).  Most of a full vector
  //    lies below tau, so there skipping those is a predicted branch; among
  //    candidates about half do, so that branch would mispredict and the
  //    scan runs without it.
  std::vector<std::uint32_t> out(k + 1);
  std::size_t kept = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const Candidate c = at(j);
    if constexpr (kMostBelow) {
      if (c.magnitude < tau) [[likely]]
        continue;
    }
    const bool tie = (c.magnitude == tau) & (ties != 0);
    ties -= tie;
    out[kept] = c.index;
    kept += (c.magnitude > tau) | tie;
  }
  out.resize(k);
  return out;
}

// Top-k index set (k < n) of x = g + carry, storing x into `carry` on the way,
// or of x = g when `carry` is empty; ascending index order.  If at least k
// coordinates reach the sampled bound, every coordinate at or above the true
// k-th magnitude is a candidate, so the result never depends on the sample.
// Otherwise (or with no bound) the select runs over every coordinate of x.
std::vector<std::uint32_t> select_topk(std::span<const float> g, std::span<float> carry,
                                       std::size_t k) {
  const std::uint32_t lo = candidate_bound(g, carry, k);
  if (lo != 0) {
    std::vector<Candidate> cands;
    cands.reserve(std::min(g.size(), 2 * kOversample * k));
    if (carry.empty()) {
      collect<false>(g, carry, lo, cands);
    } else {
      collect<true>(g, carry, lo, cands);
    }
    if (cands.size() >= k) {
      std::uint32_t high = lo;
      for (const Candidate& c : cands) high = std::max(high, c.magnitude);
      return select_among<false>(
          cands.size(), [&cands](std::size_t j) { return cands[j]; }, k, lo, high);
    }
    count_retry();  // the sample overshot tau; the carry is already done
  } else if (!carry.empty()) {
    for (std::size_t i = 0; i < g.size(); ++i) carry[i] = g[i] + carry[i];
  }
  const std::span<const float> x = carry.empty() ? g : carry;
  return select_among<true>(
      x.size(),
      [x](std::size_t j) { return Candidate{static_cast<std::uint32_t>(j), magnitude_bits(x[j])}; },
      k, 0, 0x7FFFFFFFu);
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

std::vector<std::uint32_t> TopKCodec::threshold_sample(std::size_t num_params) {
  std::vector<std::uint32_t> positions;
  if (num_params == 0) return positions;
  positions.reserve(kSampleSize);
  SamplePositions next(num_params);
  for (std::size_t q = 0; q < kSampleSize; ++q)
    positions.push_back(static_cast<std::uint32_t>(next.next()));
  return positions;
}

std::size_t TopKCodec::transform(std::span<float> grad, Rng& /*rng*/) const {
  const std::size_t n = grad.size();
  const std::size_t k = kept(n);
  if (k < n) zero_outside(grad, select_topk(grad, {}, k));
  return wire_bytes(n);
}

CompressedPush TopKCodec::encode(std::span<const float> grad, Rng& /*rng*/) const {
  return encode_from(grad, {});
}

CompressedPush TopKCodec::encode_with_feedback(std::span<const float> grad,
                                               std::span<float> residual, Rng& /*rng*/) const {
  if (residual.size() != grad.size())
    throw ConfigError("TopKCodec::encode_with_feedback: residual length mismatch");
  return encode_from(grad, residual);
}

CompressedPush TopKCodec::encode_from(std::span<const float> grad,
                                      std::span<float> residual) const {
  const std::size_t n = grad.size();
  CompressedPush push;
  push.format = CompressedPush::Format::kSparse;
  push.num_params = n;
  push.wire_size = wire_bytes(n);
  if (n == 0) return push;
  const std::size_t k = kept(n);
  const bool feedback = !residual.empty();
  std::vector<std::uint32_t> keep;
  if (k < n) {
    keep = select_topk(grad, residual, k);
  } else if (feedback) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = grad[i] + residual[i];
  }
  // x: the vector being encoded, grad + residual under error feedback.
  const std::span<const float> x = feedback ? std::span<const float>(residual) : grad;

  // Dense fallback once the index stream would cost more than plain fp32.
  if (k * (sizeof(std::uint32_t) + sizeof(float)) >= n * sizeof(float)) {
    push.format = CompressedPush::Format::kDense;
    push.values.assign(x.begin(), x.end());
    if (k < n) zero_outside(push.values, keep);
    if (feedback)
      for (std::size_t i = 0; i < n; ++i) residual[i] -= push.values[i];
    return push;
  }
  push.indices = std::move(keep);  // already in wire order: ascending
  push.values.reserve(k);
  for (const std::uint32_t i : push.indices) {
    const float v = x[i];
    push.values.push_back(v);
    // Carry out: x - x, which is +0 for finite x (and NaN for inf, exactly
    // as subtracting the decoded push would give).
    if (feedback) residual[i] = v - v;
  }
  return push;
}

}  // namespace ss
