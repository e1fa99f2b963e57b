#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/gemm.h"
#include "tensor/kernel_table.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace goggles {

void Im2Col(const float* x, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad, float* col) {
  const int64_t out_area =
      ConvOutDim(height, kh, stride, pad) * ConvOutDim(width, kw, stride, pad);
  Im2ColStrided(x, channels, height, width, kh, kw, stride, pad, col,
                out_area);
}

void Im2ColStrided(const float* x, int64_t channels, int64_t height,
                   int64_t width, int64_t kh, int64_t kw, int64_t stride,
                   int64_t pad, float* col, int64_t ld) {
  const int64_t oh = ConvOutDim(height, kh, stride, pad);
  const int64_t ow = ConvOutDim(width, kw, stride, pad);
  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    const float* xc = x + c * height * width;
    for (int64_t dh = 0; dh < kh; ++dh) {
      for (int64_t dw = 0; dw < kw; ++dw, ++row) {
        float* dst = col + row * ld;
        // For stride 1 the in-bounds output positions form one contiguous
        // span copied straight from the input row; only the pad fringe is
        // written element-free. xo maps to in_x = xo - pad + dw, valid for
        // xo in [pad - dw, width + pad - dw).
        const int64_t x0 =
            stride == 1 ? std::min(std::max<int64_t>(0, pad - dw), ow) : 0;
        const int64_t x1 =
            stride == 1 ? std::max(x0, std::min(ow, width + pad - dw)) : 0;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * stride - pad + dh;
          if (in_y < 0 || in_y >= height) {
            std::fill(dst + y * ow, dst + (y + 1) * ow, 0.0f);
            continue;
          }
          const float* src_row = xc + in_y * width;
          if (stride == 1) {
            float* out = dst + y * ow;
            std::fill(out, out + x0, 0.0f);
            std::copy(src_row + x0 - pad + dw, src_row + x1 - pad + dw,
                      out + x0);
            std::fill(out + x1, out + ow, 0.0f);
            continue;
          }
          for (int64_t xo = 0; xo < ow; ++xo) {
            const int64_t in_x = xo * stride - pad + dw;
            dst[y * ow + xo] =
                (in_x >= 0 && in_x < width) ? src_row[in_x] : 0.0f;
          }
        }
      }
    }
  }
}

void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad, float* x) {
  const int64_t oh = ConvOutDim(height, kh, stride, pad);
  const int64_t ow = ConvOutDim(width, kw, stride, pad);
  const int64_t out_area = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    float* xc = x + c * height * width;
    for (int64_t dh = 0; dh < kh; ++dh) {
      for (int64_t dw = 0; dw < kw; ++dw, ++row) {
        const float* src = col + row * out_area;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * stride - pad + dh;
          if (in_y < 0 || in_y >= height) continue;
          float* dst_row = xc + in_y * width;
          for (int64_t xo = 0; xo < ow; ++xo) {
            const int64_t in_x = xo * stride - pad + dw;
            if (in_x >= 0 && in_x < width) dst_row[in_x] += src[y * ow + xo];
          }
        }
      }
    }
  }
}

namespace {

/// Reusable per-thread im2col scratch, grown to the high-water mark and
/// never shrunk. Every thread that runs convolutions is long-lived (the
/// kernel pool's workers, serve stage workers, the caller's thread), so
/// repeated convolutions stop allocating after the first call. The retained
/// footprint is bounded by the largest conv working set the thread has
/// run (col_rows * out_area floats, 2x for backward).
std::vector<float>& Im2ColScratch(int64_t min_size) {
  static thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < min_size) {
    scratch.resize(static_cast<size_t>(min_size));
  }
  return scratch;
}

Status CheckConvShapes(const Tensor& x, const Tensor& w, const Tensor& b) {
  if (x.ndim() != 4) return Status::InvalidArgument("conv2d: x must be NCHW");
  if (w.ndim() != 4) {
    return Status::InvalidArgument("conv2d: w must be [OC, C, KH, KW]");
  }
  if (x.dim(1) != w.dim(1)) {
    return Status::InvalidArgument(StrFormat(
        "conv2d: channel mismatch x=%lld w=%lld",
        static_cast<long long>(x.dim(1)), static_cast<long long>(w.dim(1))));
  }
  if (b.NumElements() != w.dim(0)) {
    return Status::InvalidArgument("conv2d: bias size must equal out-channels");
  }
  return Status::OK();
}

}  // namespace

Result<Tensor> Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& b,
                             const Conv2dParams& params) {
  GOGGLES_RETURN_NOT_OK(CheckConvShapes(x, w, b));
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t oc = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int64_t oh = ConvOutDim(h, kh, params.stride, params.pad);
  const int64_t ow = ConvOutDim(wd, kw, params.stride, params.pad);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("conv2d: output would be empty");
  }

  Tensor y({n, oc, oh, ow});
  const int64_t col_rows = c * kh * kw;
  const int64_t out_area = oh * ow;

  // Pick the parallel axis by batch size: a batch at least as wide as
  // the machine is split across image workers (serial GEMM each, one
  // im2col scratch per worker); smaller batches keep the images serial
  // so every image's GEMM can use all cores (nested parallelism inside
  // an image worker would collapse to serial, see ParallelForChunked).
  // The width is the one a ParallelFor from this thread would get, so a
  // nested call or a serial one (a serve stage worker) sees its real
  // width and takes the fused path below. Per-element GEMM results
  // are thread-count-independent, so the output is bit-identical either
  // way.
  const int total_threads = EffectiveNumThreads();
  const bool image_parallel = total_threads > 1 && n >= total_threads;

  // Fused batched-inference path: when the images run serially anyway
  // (single thread, nested-parallel collapse, or a batch narrower than
  // the machine) and the spatial output is small, expand every image's
  // columns side by side and run ONE GEMM per layer instead of one per
  // image. This packs the weight panel once for the whole batch and fills
  // the register tile's N dimension at the late backbone layers (out_area
  // as low as 4 vs a 16-wide tile), so small-image batches stop being
  // setup-bound — measured ~3x on the 2x2/4x4 stages. Large spatial
  // outputs keep the per-image path: their GEMMs already fill the tile,
  // and the strided fused im2col only costs cache locality there.
  // Per-element accumulation order is unchanged (the GEMM is
  // bit-deterministic across shapes), so results are bit-identical to the
  // per-image path.
  constexpr int64_t kFusedMaxOutArea = 64;
  if (!image_parallel && n > 1 && out_area <= kFusedMaxOutArea) {
    const int64_t fused_cols = n * out_area;
    std::vector<float>& scratch =
        Im2ColScratch((col_rows + oc) * fused_cols);
    float* cols = scratch.data();
    float* gemm_out = cols + col_rows * fused_cols;
    for (int64_t i = 0; i < n; ++i) {
      Im2ColStrided(x.data() + i * c * h * wd, c, h, wd, kh, kw,
                    params.stride, params.pad, cols + i * out_area,
                    fused_cols);
    }
    // gemm_out [oc, n*out_area] = w [oc, col_rows] * cols
    SGemm(false, false, oc, fused_cols, col_rows, 1.0f, w.data(), col_rows,
          cols, fused_cols, 0.0f, gemm_out, fused_cols);
    // Scatter back to the image-major output layout, adding the bias in
    // the same pass (the per-image path also adds it after the GEMM).
    for (int64_t i = 0; i < n; ++i) {
      float* yi = y.data() + i * oc * out_area;
      for (int64_t o = 0; o < oc; ++o) {
        const float bias = b[o];
        const float* src = gemm_out + o * fused_cols + i * out_area;
        float* dst = yi + o * out_area;
        for (int64_t p = 0; p < out_area; ++p) dst[p] = src[p] + bias;
      }
    }
    return y;
  }

  ParallelForChunked(
      0, n,
      [&](int64_t begin, int64_t end) {
        std::vector<float>& col = Im2ColScratch(col_rows * out_area);
        for (int64_t i = begin; i < end; ++i) {
          Im2Col(x.data() + i * c * h * wd, c, h, wd, kh, kw, params.stride,
                 params.pad, col.data());
          // y_i [oc, out_area] = w [oc, col_rows] * col [col_rows, out_area]
          SGemm(false, false, oc, out_area, col_rows, 1.0f, w.data(),
                col_rows, col.data(), out_area, 0.0f,
                y.data() + i * oc * out_area, out_area);
          float* yi = y.data() + i * oc * out_area;
          for (int64_t o = 0; o < oc; ++o) {
            const float bias = b[o];
            for (int64_t p = 0; p < out_area; ++p) yi[o * out_area + p] += bias;
          }
        }
      },
      image_parallel ? total_threads : 1);
  return y;
}

int64_t Conv3x3ScratchFloats(int64_t channels, int64_t height, int64_t width,
                             int64_t out_channels, bool pool) {
  return channels * (height + 2) * (width + 2) +
         kPanelTileRowsMax * channels * 9 +
         (pool ? out_channels * height * width : 0);
}

void Conv3x3BiasReluPool(const float* x, int64_t channels, int64_t height,
                         int64_t width, const float* panel, const float* bias,
                         int64_t out_channels, bool pool, float* scratch,
                         float* out) {
  ActiveKernels().conv3x3_bias_relu_pool(x, channels, height, width, panel,
                                         bias, out_channels, pool, scratch,
                                         out);
}

Result<Conv2dGrads> Conv2dBackward(const Tensor& x, const Tensor& w,
                                   const Tensor& dy,
                                   const Conv2dParams& params) {
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t oc = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const int64_t oh = ConvOutDim(h, kh, params.stride, params.pad);
  const int64_t ow = ConvOutDim(wd, kw, params.stride, params.pad);
  if (dy.ndim() != 4 || dy.dim(0) != n || dy.dim(1) != oc || dy.dim(2) != oh ||
      dy.dim(3) != ow) {
    return Status::InvalidArgument("conv2d backward: dy shape mismatch");
  }

  Conv2dGrads grads;
  grads.dx = Tensor({n, c, h, wd});
  grads.dw = Tensor({oc, c, kh, kw});
  grads.db = Tensor({oc});

  const int64_t col_rows = c * kh * kw;
  const int64_t out_area = oh * ow;
  // One per-thread scratch block holds both the im2col expansion and the
  // column gradient; dW accumulates across images, so the image loop stays
  // serial and the GEMMs parallelize internally instead.
  std::vector<float>& scratch = Im2ColScratch(2 * col_rows * out_area);
  float* col = scratch.data();
  float* dcol = scratch.data() + col_rows * out_area;

  for (int64_t i = 0; i < n; ++i) {
    const float* dyi = dy.data() + i * oc * out_area;
    // Bias gradient.
    for (int64_t o = 0; o < oc; ++o) {
      float acc = 0.0f;
      for (int64_t p = 0; p < out_area; ++p) acc += dyi[o * out_area + p];
      grads.db[o] += acc;
    }
    // Weight gradient: dW += dy_i [oc, out_area] * col^T [out_area, col_rows].
    Im2Col(x.data() + i * c * h * wd, c, h, wd, kh, kw, params.stride,
           params.pad, col);
    SGemm(false, true, oc, col_rows, out_area, 1.0f, dyi, out_area, col,
          out_area, 1.0f, grads.dw.data(), col_rows);
    // Input gradient: dcol = w^T [col_rows, oc] * dy_i [oc, out_area].
    SGemm(true, false, col_rows, out_area, oc, 1.0f, w.data(), col_rows, dyi,
          out_area, 0.0f, dcol, out_area);
    Col2Im(dcol, c, h, wd, kh, kw, params.stride, params.pad,
           grads.dx.data() + i * c * h * wd);
  }
  return grads;
}

Result<MaxPoolResult> MaxPool2dForward(const Tensor& x, int64_t kernel,
                                       int64_t stride) {
  if (x.ndim() != 4) return Status::InvalidArgument("maxpool: x must be NCHW");
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = ConvOutDim(h, kernel, stride, /*pad=*/0);
  const int64_t ow = ConvOutDim(w, kernel, stride, /*pad=*/0);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("maxpool: output would be empty");
  }

  MaxPoolResult result;
  result.y = Tensor({n, c, oh, ow});
  result.argmax.assign(static_cast<size_t>(n * c * oh * ow), 0);

  int64_t out_idx = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      const int64_t plane_offset = (i * c + ch) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t dy = 0; dy < kernel; ++dy) {
            const int64_t in_y = y * stride + dy;
            if (in_y >= h) break;
            for (int64_t dx = 0; dx < kernel; ++dx) {
              const int64_t in_x = xo * stride + dx;
              if (in_x >= w) break;
              float v = plane[in_y * w + in_x];
              if (v > best) {
                best = v;
                best_idx = in_y * w + in_x;
              }
            }
          }
          result.y[out_idx] = best;
          result.argmax[static_cast<size_t>(out_idx)] = plane_offset + best_idx;
        }
      }
    }
  }
  return result;
}

Result<Tensor> MaxPool2dInference(const Tensor& x, int64_t kernel,
                                  int64_t stride) {
  if (x.ndim() != 4) return Status::InvalidArgument("maxpool: x must be NCHW");
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = ConvOutDim(h, kernel, stride, /*pad=*/0);
  const int64_t ow = ConvOutDim(w, kernel, stride, /*pad=*/0);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("maxpool: output would be empty");
  }
  Tensor y({n, c, oh, ow});
  ParallelForChunked(0, n * c, [&](int64_t begin, int64_t end) {
    for (int64_t plane_idx = begin; plane_idx < end; ++plane_idx) {
      const float* plane = x.data() + plane_idx * h * w;
      float* out = y.data() + plane_idx * oh * ow;
      for (int64_t yo = 0; yo < oh; ++yo) {
        for (int64_t xo = 0; xo < ow; ++xo) {
          float best = -std::numeric_limits<float>::infinity();
          for (int64_t dy = 0; dy < kernel; ++dy) {
            const int64_t in_y = yo * stride + dy;
            if (in_y >= h) break;
            const float* row = plane + in_y * w;
            for (int64_t dx = 0; dx < kernel; ++dx) {
              const int64_t in_x = xo * stride + dx;
              if (in_x >= w) break;
              best = std::max(best, row[in_x]);
            }
          }
          out[yo * ow + xo] = best;
        }
      }
    }
  });
  return y;
}

Result<Tensor> MaxPool2dBackward(const std::vector<int64_t>& argmax,
                                 const std::vector<int64_t>& x_shape,
                                 const Tensor& dy) {
  if (static_cast<int64_t>(argmax.size()) != dy.NumElements()) {
    return Status::InvalidArgument("maxpool backward: argmax size mismatch");
  }
  Tensor dx(x_shape);
  for (int64_t i = 0; i < dy.NumElements(); ++i) {
    dx[argmax[static_cast<size_t>(i)]] += dy[i];
  }
  return dx;
}

Tensor ReluForward(const Tensor& x) {
  Tensor y = x;
  float* d = y.data();
  for (int64_t i = 0; i < y.NumElements(); ++i) d[i] = std::max(0.0f, d[i]);
  return y;
}

Tensor ReluBackward(const Tensor& x, const Tensor& dy) {
  Tensor dx = dy;
  for (int64_t i = 0; i < dx.NumElements(); ++i) {
    if (x[i] <= 0.0f) dx[i] = 0.0f;
  }
  return dx;
}

Result<Tensor> LinearForward(const Tensor& x, const Tensor& w,
                             const Tensor& b) {
  if (x.ndim() != 2 || w.ndim() != 2) {
    return Status::InvalidArgument("linear: x and w must be 2-D");
  }
  if (x.dim(1) != w.dim(1)) {
    return Status::InvalidArgument("linear: feature dimension mismatch");
  }
  if (b.NumElements() != w.dim(0)) {
    return Status::InvalidArgument("linear: bias size mismatch");
  }
  const int64_t n = x.dim(0), d = x.dim(1), out = w.dim(0);
  Tensor y({n, out});
  // y [n, out] = x [n, d] * w^T [d, out]
  SGemm(false, true, n, out, d, 1.0f, x.data(), d, w.data(), d, 0.0f, y.data(),
        out);
  for (int64_t i = 0; i < n; ++i) {
    float* row = y.data() + i * out;
    for (int64_t o = 0; o < out; ++o) row[o] += b[o];
  }
  return y;
}

Result<LinearGrads> LinearBackward(const Tensor& x, const Tensor& w,
                                   const Tensor& dy) {
  const int64_t n = x.dim(0), d = x.dim(1), out = w.dim(0);
  if (dy.ndim() != 2 || dy.dim(0) != n || dy.dim(1) != out) {
    return Status::InvalidArgument("linear backward: dy shape mismatch");
  }
  LinearGrads grads;
  grads.dx = Tensor({n, d});
  grads.dw = Tensor({out, d});
  grads.db = Tensor({out});
  // dx [n, d] = dy [n, out] * w [out, d]
  SGemm(false, false, n, d, out, 1.0f, dy.data(), out, w.data(), d, 0.0f,
        grads.dx.data(), d);
  // dw [out, d] = dy^T [out, n] * x [n, d]
  SGemm(true, false, out, d, n, 1.0f, dy.data(), out, x.data(), d, 0.0f,
        grads.dw.data(), d);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = dy.data() + i * out;
    for (int64_t o = 0; o < out; ++o) grads.db[o] += row[o];
  }
  return grads;
}

Result<Tensor> SoftmaxForward(const Tensor& logits) {
  if (logits.ndim() != 2) {
    return Status::InvalidArgument("softmax: logits must be [N, K]");
  }
  const int64_t n = logits.dim(0), k = logits.dim(1);
  Tensor probs({n, k});
  for (int64_t i = 0; i < n; ++i) {
    const float* in = logits.data() + i * k;
    float* out = probs.data() + i * k;
    float max_v = in[0];
    for (int64_t j = 1; j < k; ++j) max_v = std::max(max_v, in[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < k; ++j) {
      out[j] = std::exp(in[j] - max_v);
      sum += out[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < k; ++j) out[j] *= inv;
  }
  return probs;
}

Result<SoftmaxCrossEntropyResult> SoftmaxCrossEntropy(const Tensor& logits,
                                                      const Tensor& targets) {
  if (!SameShape(logits, targets)) {
    return Status::InvalidArgument("cross-entropy: shape mismatch");
  }
  GOGGLES_ASSIGN_OR_RETURN(Tensor probs, SoftmaxForward(logits));
  const int64_t n = logits.dim(0), k = logits.dim(1);

  SoftmaxCrossEntropyResult result;
  result.probs = probs;
  result.dlogits = Tensor({n, k});
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t i = 0; i < n; ++i) {
    const float* p = probs.data() + i * k;
    const float* t = targets.data() + i * k;
    float* g = result.dlogits.data() + i * k;
    for (int64_t j = 0; j < k; ++j) {
      if (t[j] > 0.0f) {
        loss -= static_cast<double>(t[j]) *
                std::log(std::max(p[j], 1e-12f));
      }
      g[j] = (p[j] - t[j]) * inv_n;
    }
  }
  result.loss = loss / static_cast<double>(n);
  return result;
}

}  // namespace goggles
