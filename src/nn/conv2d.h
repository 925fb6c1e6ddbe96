// 2-D convolution (stride 1, symmetric zero padding) via im2col.
//
// Input/output layout: (N, C*H*W) flattened rows; the layer knows its own
// C/H/W geometry.  This keeps the Model interface uniformly rank-2.
#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace ss {

class Conv2D final : public Layer {
 public:
  /// kernel is kh x kw, `pad` zero-padding on each side (same-size output
  /// when pad = (k-1)/2).
  Conv2D(std::size_t in_channels, std::size_t height, std::size_t width,
         std::size_t out_channels, std::size_t kh, std::size_t kw, std::size_t pad, Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::size_t out_height() const noexcept { return oh_; }
  [[nodiscard]] std::size_t out_width() const noexcept { return ow_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_c_ * oh_ * ow_; }

 private:
  Conv2D(const Conv2D& other, int);  // clone helper

  std::size_t in_c_, h_, w_px_, out_c_, kh_, kw_, pad_, oh_, ow_;
  Tensor w_;    // (out_c, in_c*kh*kw)
  Tensor b_;    // (out_c)
  Tensor dw_;
  Tensor db_;
  Tensor x_cache_;
  Tensor cols_;      // im2col buffer (in_c*kh*kw, oh*ow)
  Tensor dcols_;     // gradient buffer same shape
  Tensor out_mat_;   // one sample's forward output (out_c, oh*ow)
  Tensor dy_mat_;    // one sample's output gradient (out_c, oh*ow)
  Tensor dw_sample_; // one sample's weight gradient, summed into dw_
  Tensor y_;
  Tensor dx_;
};

}  // namespace ss
