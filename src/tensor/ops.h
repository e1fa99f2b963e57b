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

/// \brief Accumulates columns back into image gradient (inverse of Im2Col).
void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad, float* x);

/// \brief y = conv2d(x, w) + b.
///
/// Lowered through im2col + one GEMM per image. The im2col expansion runs
/// in a reusable per-thread scratch buffer (no allocation per image once
/// the buffer has grown to the working size). A batch at least as wide as
/// the kernel pool is split across its workers, each running serial
/// GEMMs; a narrower one runs its images in turn, each GEMM on the whole
/// pool. Concurrent Conv2dForward calls from different threads are safe
/// and lock-free. This is the training path and the un-fused reference
/// for Conv3x3BiasReluPool; feature extraction does not call it.
///
/// \param x input  [N, C, H, W]
/// \param w weight [OC, C, KH, KW]
/// \param b bias   [OC]
Result<Tensor> Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& b,
                             const Conv2dParams& params);

/// \brief Floats of `scratch` one Conv3x3BiasReluPool call needs: the
/// zero-padded input, one position tile of packed patches (sized for the
/// tallest tile of any ISA tier) and, when `pool`, the conv output the
/// pool reads.
int64_t Conv3x3ScratchFloats(int64_t channels, int64_t height, int64_t width,
                             int64_t out_channels, bool pool);

/// \brief One prepacked backbone conv of one image, fused with its bias,
/// ReLU and (when `pool`) the 2x2/2 max pool that follows it:
/// out = [maxpool2x2](max(0, conv3x3(x, w) + b)), stride 1, pad 1.
///
/// `x` is [channels, height, width]; `panel` holds w [out_channels,
/// channels, 3, 3] as the out_channels rows of depth channels * 9 that
/// PackPrototypePanel writes (gemm.h), so the weights are packed once per
/// backbone, not once per call. `out` receives [out_channels, height,
/// width], or with `pool` [out_channels, ConvOutDim(height, 2, 2, 0),
/// ConvOutDim(width, 2, 2, 0)] with windows clipped at the edge as in
/// MaxPool2dForward. `scratch` holds Conv3x3ScratchFloats floats and
/// must not overlap `x` or `out`.
///
/// Bit-identical to Conv2dForward + ReluForward (+ MaxPool2dForward)
/// at every ISA tier: each output is SGemm's per-element std::fma chain
/// over the im2col depth order (one partial sum per kGemmKChunk block,
/// added to 0.0f in block order), then + bias, then std::max(0.0f, v).
/// Serial; callers parallelize over images.
void Conv3x3BiasReluPool(const float* x, int64_t channels, int64_t height,
                         int64_t width, const float* panel, const float* bias,
                         int64_t out_channels, bool pool, float* scratch,
                         float* out);

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
