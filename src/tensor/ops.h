#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

/// \file ops.h
/// \brief Neural-network operators (forward + backward) on NCHW tensors.
///
/// Convolution uses the im2col + GEMM formulation; max-pooling records
/// argmax indices for exact gradient routing. All backward functions are
/// validated against central finite differences in the test suite.

namespace goggles {

/// \brief Convolution hyper-parameters.
struct Conv2dParams {
  int64_t stride = 1;
  int64_t pad = 1;
};

/// \brief Output spatial size for a conv/pool dimension.
inline int64_t ConvOutDim(int64_t in, int64_t kernel, int64_t stride,
                          int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// \brief Expands image `x` (C x H x W) into columns (C*kh*kw x OH*OW).
void Im2Col(const float* x, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad, float* col);

/// \brief Im2Col into a column matrix with row stride `ld` >= OH*OW:
/// this image's columns land in col[row * ld + 0 .. OH*OW), so several
/// images' expansions can sit side by side in one fused GEMM operand
/// (the batched-inference conv path).
void Im2ColStrided(const float* x, int64_t channels, int64_t height,
                   int64_t width, int64_t kh, int64_t kw, int64_t stride,
                   int64_t pad, float* col, int64_t ld);

/// \brief Accumulates columns back into image gradient (inverse of Im2Col).
void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad, float* x);

/// \brief y = conv2d(x, w) + b.
///
/// Lowered through im2col + GEMM. The im2col expansion runs in a reusable
/// per-thread scratch buffer (no allocation per image once the buffer has
/// grown to the working size), and the batch dimension is distributed
/// across worker threads, each running a serial GEMM — so concurrent
/// Conv2dForward calls from different threads are safe and lock-free.
///
/// \param x input  [N, C, H, W]
/// \param w weight [OC, C, KH, KW]
/// \param b bias   [OC]
Result<Tensor> Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& b,
                             const Conv2dParams& params);

/// \brief Gradients of a conv2d w.r.t. input, weight and bias.
struct Conv2dGrads {
  Tensor dx;
  Tensor dw;
  Tensor db;
};

/// \brief Backward pass matching Conv2dForward.
Result<Conv2dGrads> Conv2dBackward(const Tensor& x, const Tensor& w,
                                   const Tensor& dy,
                                   const Conv2dParams& params);

/// \brief Max-pool output plus flat argmax indices (into the input tensor)
/// for each output element, used for gradient routing.
struct MaxPoolResult {
  Tensor y;
  std::vector<int64_t> argmax;
};

/// \brief y = maxpool2d(x) with square window `kernel` and stride `stride`.
Result<MaxPoolResult> MaxPool2dForward(const Tensor& x, int64_t kernel,
                                       int64_t stride);

/// \brief Inference-only max pool: same output values as MaxPool2dForward
/// but no argmax bookkeeping, parallelized over the N*C planes. Used by
/// the thread-safe (const) layer inference path.
Result<Tensor> MaxPool2dInference(const Tensor& x, int64_t kernel,
                                  int64_t stride);

/// \brief Routes `dy` back through the recorded argmax indices.
Result<Tensor> MaxPool2dBackward(const std::vector<int64_t>& argmax,
                                 const std::vector<int64_t>& x_shape,
                                 const Tensor& dy);

/// \brief Elementwise max(x, 0).
Tensor ReluForward(const Tensor& x);

/// \brief dx = dy * 1[x > 0].
Tensor ReluBackward(const Tensor& x, const Tensor& dy);

/// \brief y = x * w^T + b for x: [N, D], w: [out, D], b: [out].
Result<Tensor> LinearForward(const Tensor& x, const Tensor& w,
                             const Tensor& b);

/// \brief Gradients of a linear layer.
struct LinearGrads {
  Tensor dx;
  Tensor dw;
  Tensor db;
};

/// \brief Backward pass matching LinearForward.
Result<LinearGrads> LinearBackward(const Tensor& x, const Tensor& w,
                                   const Tensor& dy);

/// \brief Row-wise softmax of logits [N, K].
Result<Tensor> SoftmaxForward(const Tensor& logits);

/// \brief Mean cross-entropy against (possibly soft) target distributions.
///
/// Implements the paper's probabilistic-label training objective (§2.1):
/// the expected loss E_{y~ytilde}[l(h(x), y)] equals cross-entropy against
/// the soft label vector, so the same function serves hard labels (one-hot
/// targets) and GOGGLES-generated probabilistic labels.
struct SoftmaxCrossEntropyResult {
  double loss = 0.0;   ///< mean over the batch
  Tensor probs;        ///< softmax(logits), [N, K]
  Tensor dlogits;      ///< gradient of mean loss w.r.t. logits, [N, K]
};

/// \brief Computes loss, probabilities and logits gradient in one pass.
Result<SoftmaxCrossEntropyResult> SoftmaxCrossEntropy(const Tensor& logits,
                                                      const Tensor& targets);

}  // namespace goggles
