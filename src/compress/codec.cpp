#include "compress/codec.h"

#include "common/error.h"

namespace ss {

CompressedPush GradientCodec::encode(std::span<const float> grad, Rng& rng) const {
  CompressedPush push;
  push.format = CompressedPush::Format::kDense;
  push.num_params = grad.size();
  push.values.assign(grad.begin(), grad.end());
  push.wire_size = transform(push.values, rng);
  return push;
}

CompressedPush GradientCodec::encode_with_feedback(std::span<const float> grad,
                                                   std::span<float> residual, Rng& rng) const {
  if (residual.size() != grad.size())
    throw ConfigError("GradientCodec::encode_with_feedback: residual length mismatch");
  for (std::size_t i = 0; i < grad.size(); ++i) residual[i] = grad[i] + residual[i];
  CompressedPush push = encode(residual, rng);
  // A sparse push leaves untransmitted coordinates as they are, which is
  // bit-identical to subtracting the +0 a decode would put there.
  if (push.sparse()) {
    for (std::size_t j = 0; j < push.indices.size(); ++j)
      residual[push.indices[j]] -= push.values[j];
  } else {
    for (std::size_t i = 0; i < residual.size(); ++i) residual[i] -= push.values[i];
  }
  return push;
}

std::size_t IdentityCodec::transform(std::span<float> grad, Rng& /*rng*/) const {
  return grad.size() * sizeof(float);
}

}  // namespace ss
