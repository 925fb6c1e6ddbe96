#include "compress/bank.h"

#include <cmath>
#include <string>

#include "common/error.h"

namespace ss {

CompressorBank::CompressorBank(std::shared_ptr<const GradientCodec> codec,
                               std::size_t num_workers, bool error_feedback)
    : codec_(std::move(codec)), error_feedback_(error_feedback), residuals_(num_workers) {
  if (!codec_) throw ConfigError("CompressorBank: codec is required");
  if (num_workers == 0) throw ConfigError("CompressorBank: num_workers must be > 0");
}

CompressorBank CompressorBank::with_default_feedback(std::shared_ptr<const GradientCodec> codec,
                                                     std::size_t num_workers) {
  if (!codec) throw ConfigError("CompressorBank: codec is required");
  const bool feedback = !codec->unbiased();
  return CompressorBank(std::move(codec), num_workers, feedback);
}

std::size_t CompressorBank::slot_index(int worker) const {
  if (worker < 0 || static_cast<std::size_t>(worker) >= residuals_.size())
    throw ConfigError("CompressorBank: worker index out of range");
  return static_cast<std::size_t>(worker);
}

std::vector<float>& CompressorBank::residual_for(std::size_t slot, std::size_t num_params) {
  std::vector<float>& residual = residuals_[slot];
  if (residual.empty()) {
    residual.assign(num_params, 0.0f);
  } else if (residual.size() != num_params) {
    throw ConfigError("CompressorBank: worker " + std::to_string(slot) + " residual has " +
                      std::to_string(residual.size()) + " params, gradient has " +
                      std::to_string(num_params));
  }
  return residual;
}

std::size_t CompressorBank::transform(int worker, std::span<float> grad, Rng& rng) {
  const std::size_t slot = slot_index(worker);
  if (!error_feedback_) return codec_->transform(grad, rng);
  const CompressedPush push =
      codec_->encode_with_feedback(grad, residual_for(slot, grad.size()), rng);
  push.decode_into(grad);
  return push.wire_size;
}

CompressedPush CompressorBank::encode(int worker, std::span<const float> grad, Rng& rng) {
  const std::size_t slot = slot_index(worker);
  if (!error_feedback_) return codec_->encode(grad, rng);
  return codec_->encode_with_feedback(grad, residual_for(slot, grad.size()), rng);
}

double CompressorBank::residual_l1(int worker) const {
  double sum = 0.0;
  for (const float v : residuals_[slot_index(worker)]) sum += std::fabs(v);
  return sum;
}

std::span<const float> CompressorBank::residual(int worker) const {
  return residuals_[slot_index(worker)];
}

void CompressorBank::restore_residual(int worker, std::span<const float> residual) {
  residuals_[slot_index(worker)].assign(residual.begin(), residual.end());
}

void CompressorBank::reset() {
  for (auto& residual : residuals_) residual.clear();
}

}  // namespace ss
