#include "nn/optimizer.h"

#include "common/error.h"

namespace ss {

SgdMomentum::SgdMomentum(std::size_t num_params, double momentum)
    : momentum_(momentum), accum_(num_params, 0.0f) {
  if (momentum < 0.0 || momentum >= 1.0)
    throw ConfigError("SgdMomentum: momentum must be in [0, 1)");
}

void SgdMomentum::apply(std::span<float> params, std::span<const float> grad, double lr) {
  if (params.size() != accum_.size() || grad.size() != accum_.size())
    throw ConfigError("SgdMomentum::apply: size mismatch");
  apply_range(params, grad, lr, 0);
}

void SgdMomentum::apply_range(std::span<float> params, std::span<const float> grad, double lr,
                              std::size_t offset) {
  if (params.size() != grad.size() || offset > accum_.size() ||
      params.size() > accum_.size() - offset)
    throw ConfigError("SgdMomentum::apply_range: slice out of bounds");
  const float mu = static_cast<float>(momentum_);
  const float eta = static_cast<float>(lr);
  float* accum = accum_.data() + offset;
  for (std::size_t i = 0; i < params.size(); ++i) {
    accum[i] = mu * accum[i] + grad[i];
    params[i] -= eta * accum[i];
  }
}

void SgdMomentum::apply_sparse(std::span<float> params, std::span<const std::uint32_t> indices,
                               std::span<const float> values, double lr) {
  if (params.size() != accum_.size())
    throw ConfigError("SgdMomentum::apply_sparse: parameter size mismatch");
  if (indices.size() != values.size())
    throw ConfigError("SgdMomentum::apply_sparse: index/value length mismatch");
  // Ascending indices are in range when the last one is.
  if (!indices.empty() && indices.back() >= params.size())
    throw ConfigError("SgdMomentum::apply_sparse: index out of range");
  const float mu = static_cast<float>(momentum_);
  const float eta = static_cast<float>(lr);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t j = indices[i];
    accum_[j] = mu * accum_[j] + values[i];
    params[j] -= eta * accum_[j];
  }
}

void SgdMomentum::reset_velocity() noexcept {
  for (auto& v : accum_) v = 0.0f;
}

}  // namespace ss
