#include "compress/compressed_push.h"

#include <algorithm>

#include "common/error.h"

namespace ss {

void CompressedPush::validate(std::size_t expected_params) const {
  if (num_params != expected_params)
    throw ConfigError("CompressedPush: decoded length does not match the parameter count");
  if (!sparse()) {
    if (!indices.empty())
      throw ConfigError("CompressedPush: dense push carries a sparse index list");
    if (values.size() != num_params)
      throw ConfigError("CompressedPush: dense value count does not match num_params");
    return;
  }
  if (values.size() != indices.size())
    throw ConfigError("CompressedPush: sparse index/value length mismatch");
  if (indices.size() > num_params)
    throw ConfigError("CompressedPush: more sparse coordinates than parameters");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i > 0 && indices[i] <= indices[i - 1])
      throw ConfigError("CompressedPush: sparse indices must be strictly ascending");
    if (static_cast<std::size_t>(indices[i]) >= num_params)
      throw ConfigError("CompressedPush: sparse index out of range");
  }
}

ValidatedPush::ValidatedPush(const CompressedPush& push) : push_(&push) {
  push.validate(push.num_params);
}

void CompressedPush::decode_into(std::span<float> out) const {
  if (out.size() != num_params)
    throw ConfigError("CompressedPush::decode_into: output size mismatch");
  if (!sparse()) {
    std::copy(values.begin(), values.end(), out.begin());
    return;
  }
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t i = 0; i < indices.size(); ++i) out[indices[i]] = values[i];
}

void CompressedPush::add_into(std::span<float> out) const {
  if (out.size() != num_params)
    throw ConfigError("CompressedPush::add_into: output size mismatch");
  if (!sparse()) {
    for (std::size_t i = 0; i < values.size(); ++i) out[i] += values[i];
    return;
  }
  for (std::size_t i = 0; i < indices.size(); ++i) out[indices[i]] += values[i];
}

}  // namespace ss
