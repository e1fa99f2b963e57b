#include "nn/layers.h"

#include <cmath>

namespace goggles::nn {

Conv2D::Conv2D(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, Rng* rng) {
  params_.stride = stride;
  params_.pad = pad;
  const float fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float stddev = std::sqrt(2.0f / fan_in);
  weight_.name = "conv.weight";
  weight_.value = Tensor::RandomNormal({out_channels, in_channels, kernel, kernel},
                                       stddev, rng);
  weight_.grad = Tensor::Zeros({out_channels, in_channels, kernel, kernel});
  bias_.name = "conv.bias";
  bias_.value = Tensor::Zeros({out_channels});
  bias_.grad = Tensor::Zeros({out_channels});
}

Result<Tensor> Conv2D::Forward(const Tensor& x) {
  cached_input_ = x;
  return Conv2dForward(x, weight_.value, bias_.value, params_);
}

Result<Tensor> Conv2D::ForwardInference(const Tensor& x) const {
  return Conv2dForward(x, weight_.value, bias_.value, params_);
}

Result<Tensor> Conv2D::Backward(const Tensor& grad_output) {
  GOGGLES_ASSIGN_OR_RETURN(
      Conv2dGrads grads,
      Conv2dBackward(cached_input_, weight_.value, grad_output, params_));
  GOGGLES_RETURN_NOT_OK(weight_.grad.AddInPlace(grads.dw));
  GOGGLES_RETURN_NOT_OK(bias_.grad.AddInPlace(grads.db));
  return std::move(grads.dx);
}

Result<Tensor> MaxPool2D::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  GOGGLES_ASSIGN_OR_RETURN(MaxPoolResult result,
                           MaxPool2dForward(x, kernel_, stride_));
  cached_argmax_ = std::move(result.argmax);
  return std::move(result.y);
}

Result<Tensor> MaxPool2D::Backward(const Tensor& grad_output) {
  return MaxPool2dBackward(cached_argmax_, cached_input_shape_, grad_output);
}

Result<Tensor> MaxPool2D::ForwardInference(const Tensor& x) const {
  GOGGLES_ASSIGN_OR_RETURN(MaxPoolResult result,
                           MaxPool2dForward(x, kernel_, stride_));
  return std::move(result.y);
}

Result<Tensor> ReLU::Forward(const Tensor& x) {
  cached_input_ = x;
  return ReluForward(x);
}

Result<Tensor> ReLU::Backward(const Tensor& grad_output) {
  return ReluBackward(cached_input_, grad_output);
}

Result<Tensor> ReLU::ForwardInference(const Tensor& x) const {
  return ReluForward(x);
}

Result<Tensor> Flatten::Forward(const Tensor& x) {
  cached_input_shape_ = x.shape();
  Tensor y = x;
  const int64_t n = x.dim(0);
  GOGGLES_RETURN_NOT_OK(y.Reshape({n, x.NumElements() / n}));
  return y;
}

Result<Tensor> Flatten::Backward(const Tensor& grad_output) {
  Tensor dx = grad_output;
  GOGGLES_RETURN_NOT_OK(dx.Reshape(cached_input_shape_));
  return dx;
}

Result<Tensor> Flatten::ForwardInference(const Tensor& x) const {
  Tensor y = x;
  const int64_t n = x.dim(0);
  GOGGLES_RETURN_NOT_OK(y.Reshape({n, x.NumElements() / n}));
  return y;
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_.name = "linear.weight";
  weight_.value = Tensor::RandomNormal({out_features, in_features}, stddev, rng);
  weight_.grad = Tensor::Zeros({out_features, in_features});
  bias_.name = "linear.bias";
  bias_.value = Tensor::Zeros({out_features});
  bias_.grad = Tensor::Zeros({out_features});
}

Result<Tensor> Linear::Forward(const Tensor& x) {
  cached_input_ = x;
  return LinearForward(x, weight_.value, bias_.value);
}

Result<Tensor> Linear::ForwardInference(const Tensor& x) const {
  return LinearForward(x, weight_.value, bias_.value);
}

Result<Tensor> Linear::Backward(const Tensor& grad_output) {
  GOGGLES_ASSIGN_OR_RETURN(
      LinearGrads grads,
      LinearBackward(cached_input_, weight_.value, grad_output));
  GOGGLES_RETURN_NOT_OK(weight_.grad.AddInPlace(grads.dw));
  GOGGLES_RETURN_NOT_OK(bias_.grad.AddInPlace(grads.db));
  return std::move(grads.dx);
}

}  // namespace goggles::nn
