#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/ops.h"
#include "util/rng.h"

/// \file layers.h
/// \brief Concrete layers: Conv2D, MaxPool2D, ReLU, Flatten, Linear.

namespace goggles::nn {

/// \brief 2-D convolution with He-normal initialization.
class Conv2D : public Layer {
 public:
  /// \param in_channels  input channel count
  /// \param out_channels filter count
  /// \param kernel       square kernel size
  /// \param stride/pad   convolution geometry
  /// \param rng          initializer source (He-normal fan-in scaling)
  Conv2D(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t pad, Rng* rng);

  Result<Tensor> Forward(const Tensor& x) override;
  Result<Tensor> ForwardInference(const Tensor& x) const override;
  Result<Tensor> Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2D"; }

  int64_t out_channels() const { return weight_.value.dim(0); }
  /// [OC, C, KH, KW]; read by the packed inference plan (features/).
  const Tensor& weight() const { return weight_.value; }
  const Tensor& bias() const { return bias_.value; }
  const Conv2dParams& params() const { return params_; }

 private:
  Conv2dParams params_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

/// \brief Square-window max pooling.
class MaxPool2D : public Layer {
 public:
  MaxPool2D(int64_t kernel, int64_t stride) : kernel_(kernel), stride_(stride) {}

  Result<Tensor> Forward(const Tensor& x) override;
  Result<Tensor> ForwardInference(const Tensor& x) const override;
  Result<Tensor> Backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }

  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }

 private:
  int64_t kernel_;
  int64_t stride_;
  std::vector<int64_t> cached_argmax_;
  std::vector<int64_t> cached_input_shape_;
};

/// \brief Elementwise rectifier.
class ReLU : public Layer {
 public:
  Result<Tensor> Forward(const Tensor& x) override;
  Result<Tensor> ForwardInference(const Tensor& x) const override;
  Result<Tensor> Backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// \brief Collapses [N, C, H, W] (or any trailing dims) to [N, D].
class Flatten : public Layer {
 public:
  Result<Tensor> Forward(const Tensor& x) override;
  Result<Tensor> ForwardInference(const Tensor& x) const override;
  Result<Tensor> Backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<int64_t> cached_input_shape_;
};

/// \brief Fully-connected layer with He-normal initialization.
class Linear : public Layer {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng);

  Result<Tensor> Forward(const Tensor& x) override;
  Result<Tensor> ForwardInference(const Tensor& x) const override;
  Result<Tensor> Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  int64_t in_features() const { return weight_.value.dim(1); }
  int64_t out_features() const { return weight_.value.dim(0); }

 private:
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace goggles::nn
