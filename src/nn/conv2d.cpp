#include "nn/conv2d.h"

#include <sstream>

#include "common/error.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace ss {

Conv2D::Conv2D(std::size_t in_channels, std::size_t height, std::size_t width,
               std::size_t out_channels, std::size_t kh, std::size_t kw, std::size_t pad,
               Rng& rng)
    : in_c_(in_channels),
      h_(height),
      w_px_(width),
      out_c_(out_channels),
      kh_(kh),
      kw_(kw),
      pad_(pad),
      oh_(height + 2 * pad - kh + 1),
      ow_(width + 2 * pad - kw + 1),
      w_({out_channels, in_channels * kh * kw}),
      b_({out_channels}, 0.0f),
      dw_({out_channels, in_channels * kh * kw}),
      db_({out_channels}),
      cols_({in_channels * kh * kw, oh_ * ow_}),
      dcols_({in_channels * kh * kw, oh_ * ow_}),
      out_mat_({out_channels, oh_ * ow_}),
      dy_mat_({out_channels, oh_ * ow_}),
      dw_sample_({out_channels, in_channels * kh * kw}) {
  if (kh > height + 2 * pad || kw > width + 2 * pad)
    throw ShapeError("Conv2D: kernel larger than padded input");
  he_init(w_, in_channels * kh * kw, rng);
}

Conv2D::Conv2D(const Conv2D& other, int)
    : in_c_(other.in_c_),
      h_(other.h_),
      w_px_(other.w_px_),
      out_c_(other.out_c_),
      kh_(other.kh_),
      kw_(other.kw_),
      pad_(other.pad_),
      oh_(other.oh_),
      ow_(other.ow_),
      w_(other.w_),
      b_(other.b_),
      dw_(other.dw_),
      db_(other.db_),
      cols_(other.cols_),
      dcols_(other.dcols_),
      out_mat_(other.out_mat_),
      dy_mat_(other.dy_mat_),
      dw_sample_(other.dw_sample_) {}

const Tensor& Conv2D::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_c_ * h_ * w_px_)
    throw ShapeError("Conv2D::forward: expected (N, " + std::to_string(in_c_ * h_ * w_px_) +
                     ") input, got " + shape_str(x.shape()));
  x_ = &x;
  const std::size_t n = x.dim(0);
  if (y_.rank() != 2 || y_.dim(0) != n || y_.dim(1) != out_features())
    y_ = Tensor({n, out_features()});

  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const float> image{x.data() + i * in_c_ * h_ * w_px_, in_c_ * h_ * w_px_};
    ops::im2col(image, in_c_, h_, w_px_, kh_, kw_, pad_, cols_);
    ops::matmul(w_, cols_, out_mat_);
    float* dst = y_.data() + i * out_features();
    const float* src = out_mat_.data();
    for (std::size_t c = 0; c < out_c_; ++c) {
      const float bias = b_[c];
      for (std::size_t p = 0; p < oh_ * ow_; ++p) dst[c * oh_ * ow_ + p] = src[c * oh_ * ow_ + p] + bias;
    }
  }
  return y_;
}

void Conv2D::backward_params(const Tensor& dy) {
  if (dy.rank() != 2 || dy.dim(1) != out_features())
    throw ShapeError("Conv2D::backward: gradient shape mismatch");
  dw_.fill(0.0f);
  db_.fill(0.0f);
  for (std::size_t i = 0; i < dy.dim(0); ++i) {
    // Rebuild cols for this sample (cheaper than caching N col matrices).
    const std::span<const float> image{x_->data() + i * in_c_ * h_ * w_px_,
                                       in_c_ * h_ * w_px_};
    ops::im2col(image, in_c_, h_, w_px_, kh_, kw_, pad_, cols_);

    const float* src = dy.data() + i * out_features();
    std::copy(src, src + out_features(), dy_mat_.data());

    ops::matmul_nt(dy_mat_, cols_, dw_sample_);  // (out_c, ickhkw)
    ops::add_inplace(dw_.span(), dw_sample_.span());
    for (std::size_t c = 0; c < out_c_; ++c) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < oh_ * ow_; ++p) acc += src[c * oh_ * ow_ + p];
      db_[c] += acc;
    }
  }
}

const Tensor& Conv2D::backward(const Tensor& dy) {
  backward_params(dy);
  const std::size_t n = dy.dim(0);
  if (dx_.rank() != 2 || dx_.dim(0) != n || dx_.dim(1) != in_c_ * h_ * w_px_)
    dx_ = Tensor({n, in_c_ * h_ * w_px_});
  for (std::size_t i = 0; i < n; ++i) {
    const float* src = dy.data() + i * out_features();
    std::copy(src, src + out_features(), dy_mat_.data());
    ops::matmul_tn(w_, dy_mat_, dcols_);  // (ickhkw, ohow)
    std::span<float> dimage{dx_.data() + i * in_c_ * h_ * w_px_, in_c_ * h_ * w_px_};
    ops::col2im(dcols_, in_c_, h_, w_px_, kh_, kw_, pad_, dimage);
  }
  return dx_;
}

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::unique_ptr<Layer>(new Conv2D(*this, 0));
}

std::string Conv2D::describe() const {
  std::ostringstream os;
  os << "Conv2D(" << in_c_ << "x" << h_ << "x" << w_px_ << " -> " << out_c_ << "x" << oh_ << "x"
     << ow_ << ", k=" << kh_ << "x" << kw_ << ", pad=" << pad_ << ")";
  return os.str();
}

}  // namespace ss
