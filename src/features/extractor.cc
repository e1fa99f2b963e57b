#include "features/extractor.h"

#include <algorithm>
#include <array>

#include "nn/layers.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace goggles::features {
namespace {

/// Every image of one call runs the plan at one shape, sized from the
/// first image.
Status CheckInputs(const std::vector<data::Image>& images, int batch_size) {
  if (batch_size < 1) {
    return Status::InvalidArgument(StrFormat(
        "FeatureExtractor: batch_size must be >= 1, got %d", batch_size));
  }
  if (images.empty()) {
    return Status::InvalidArgument("FeatureExtractor: no images");
  }
  const data::Image& first = images[0];
  if (first.channels < 1 || first.height < 1 || first.width < 1) {
    return Status::InvalidArgument(
        "FeatureExtractor: images must have positive dimensions");
  }
  for (const data::Image& img : images) {
    if (img.channels != first.channels || img.height != first.height ||
        img.width != first.width ||
        static_cast<int64_t>(img.pixels.size()) != first.NumElements()) {
      return Status::InvalidArgument(
          "FeatureExtractor: all images in a batch must share one shape");
    }
  }
  return Status::OK();
}

}  // namespace

FeatureExtractor::FeatureExtractor(nn::VggMini backbone)
    : backbone_(std::move(backbone)) {
  const nn::Sequential& net = backbone_.net;
  const std::vector<int>& taps = backbone_.pool_layer_indices;
  auto unsupported = [&](int i) {
    plan_.clear();
    plan_status_ = Status::InvalidArgument(StrFormat(
        "FeatureExtractor: backbone layer %d is not part of a 3x3/s1/p1 "
        "conv + ReLU stage closed by a 2x2/2 max-pool tap",
        i));
  };
  if (taps.empty() || taps.back() >= net.num_layers()) {
    unsupported(0);
    return;
  }
  size_t next_tap = 0, weight_floats = 0;
  std::vector<const nn::Conv2D*> convs;
  for (int i = 0; i <= taps.back(); ++i) {
    const nn::Layer* layer = net.layer(i);
    if (const auto* pool = dynamic_cast<const nn::MaxPool2D*>(layer)) {
      if (pool->kernel() != 2 || pool->stride() != 2 || plan_.empty() ||
          plan_.back().pool || taps[next_tap] != i) {
        unsupported(i);
        return;
      }
      plan_.back().pool = true;
      ++next_tap;
      continue;
    }
    const auto* conv = dynamic_cast<const nn::Conv2D*>(layer);
    if (conv == nullptr || i + 1 > taps.back() ||
        dynamic_cast<const nn::ReLU*>(net.layer(i + 1)) == nullptr) {
      unsupported(i);
      return;
    }
    const Tensor& w = conv->weight();
    if (w.dim(2) != 3 || w.dim(3) != 3 || conv->params().stride != 1 ||
        conv->params().pad != 1 ||
        (!plan_.empty() && plan_.back().out_channels != w.dim(1))) {
      unsupported(i);
      return;
    }
    PackedConv packed;
    packed.in_channels = w.dim(1);
    packed.out_channels = w.dim(0);
    packed.panel = weight_floats;
    packed.bias = packed.panel + static_cast<size_t>(PrototypePanelFloats(
                                     packed.out_channels, w.dim(1) * 9));
    weight_floats = packed.bias + static_cast<size_t>(packed.out_channels);
    plan_.push_back(packed);
    convs.push_back(conv);
    ++i;  // the ReLU is fused into the conv
  }

  // Every panel and bias in one buffer, packed once.
  weights_.assign(weight_floats, 0.0f);
  for (size_t s = 0; s < plan_.size(); ++s) {
    const PackedConv& packed = plan_[s];
    PackPrototypePanel(convs[s]->weight().data(), packed.out_channels,
                       packed.in_channels * 9, /*first=*/0,
                       weights_.data() + packed.panel);
    std::copy(convs[s]->bias().data(),
              convs[s]->bias().data() + packed.out_channels,
              weights_.data() + packed.bias);
  }
}

std::vector<std::vector<int64_t>> FeatureExtractor::TapShapes(
    int64_t height, int64_t width) const {
  std::vector<std::vector<int64_t>> shapes;
  for (const PackedConv& conv : plan_) {
    if (!conv.pool) continue;
    height = ConvOutDim(height, 2, 2, 0);
    width = ConvOutDim(width, 2, 2, 0);
    shapes.push_back({conv.out_channels, height, width});
  }
  return shapes;
}

template <typename TapOut>
Status FeatureExtractor::RunPlan(const std::vector<data::Image>& images,
                                 const TapOut& tap_out) const {
  GOGGLES_RETURN_NOT_OK(plan_status_);
  const data::Image& first = images[0];
  if (first.channels != plan_[0].in_channels) {
    return Status::InvalidArgument(StrFormat(
        "FeatureExtractor: images have %d channels, the backbone takes %lld",
        first.channels, static_cast<long long>(plan_[0].in_channels)));
  }
  // Input size of every conv, and the scratch the largest of them needs.
  std::vector<std::array<int64_t, 2>> dims;
  int64_t h = first.height, w = first.width;
  int64_t kernel_floats = 0, stage_floats = 0;
  for (const PackedConv& conv : plan_) {
    dims.push_back({h, w});
    kernel_floats = std::max(
        kernel_floats, Conv3x3ScratchFloats(conv.in_channels, h, w,
                                            conv.out_channels, conv.pool));
    if (conv.pool) {
      h = ConvOutDim(h, 2, 2, 0);
      w = ConvOutDim(w, 2, 2, 0);
    }
    stage_floats = std::max(stage_floats, conv.out_channels * h * w);
  }

  ParallelForChunked(
      0, static_cast<int64_t>(images.size()),
      [&](int64_t begin, int64_t end) {
        // Kernel scratch, then two stage buffers for the conv outputs the
        // caller does not take, used alternately so no conv writes its
        // own input.
        std::vector<float> work(
            static_cast<size_t>(kernel_floats + 2 * stage_floats));
        float* stage[2] = {work.data() + kernel_floats,
                           work.data() + kernel_floats + stage_floats};
        for (int64_t i = begin; i < end; ++i) {
          const float* in = images[static_cast<size_t>(i)].pixels.data();
          int tap = 0, next = 0;
          for (size_t s = 0; s < plan_.size(); ++s) {
            const PackedConv& conv = plan_[s];
            float* out = conv.pool ? tap_out(tap++, i) : nullptr;
            if (out == nullptr) {
              out = stage[next];
              next ^= 1;
            }
            Conv3x3BiasReluPool(in, conv.in_channels, dims[s][0], dims[s][1],
                                weights_.data() + conv.panel,
                                weights_.data() + conv.bias,
                                conv.out_channels, conv.pool, work.data(),
                                out);
            in = out;
          }
        }
      });
  return Status::OK();
}

Result<std::vector<std::vector<Tensor>>> FeatureExtractor::PoolFeatureMaps(
    const std::vector<data::Image>& images, int batch_size) const {
  GOGGLES_RETURN_NOT_OK(CheckInputs(images, batch_size));
  const std::vector<std::vector<int64_t>> shapes =
      TapShapes(images[0].height, images[0].width);
  // Allocated on the calling thread: maps allocated by the pool's workers
  // would spread over their malloc arenas and outlive the call there.
  std::vector<std::vector<Tensor>> maps;
  for (const std::vector<int64_t>& shape : shapes) {
    maps.emplace_back(images.size(), Tensor(shape));
  }
  GOGGLES_RETURN_NOT_OK(RunPlan(images, [&](int tap, int64_t i) {
    return maps[static_cast<size_t>(tap)][static_cast<size_t>(i)].data();
  }));
  return maps;
}

Result<Matrix> FeatureExtractor::RunHead(const std::vector<data::Image>& images,
                                         int last_layer,
                                         int batch_size) const {
  GOGGLES_RETURN_NOT_OK(CheckInputs(images, batch_size));
  GOGGLES_RETURN_NOT_OK(plan_status_);
  // The last tap, [c, h, w] per image, lands straight in its batch of the
  // head's input.
  const std::vector<int64_t> shape =
      TapShapes(images[0].height, images[0].width).back();
  const int64_t c = shape[0], h = shape[1], w = shape[2];
  const int64_t n = static_cast<int64_t>(images.size());
  const int64_t tap_floats = c * h * w;
  const int last_tap = num_pool_layers() - 1;
  std::vector<Tensor> batches;
  for (int64_t start = 0; start < n; start += batch_size) {
    batches.emplace_back(std::vector<int64_t>{
        std::min<int64_t>(batch_size, n - start), c, h, w});
  }
  GOGGLES_RETURN_NOT_OK(RunPlan(images, [&](int tap, int64_t i) -> float* {
    if (tap != last_tap) return nullptr;
    return batches[static_cast<size_t>(i / batch_size)].data() +
           i % batch_size * tap_floats;
  }));

  Matrix out;
  for (size_t b = 0; b < batches.size(); ++b) {
    const int64_t start = static_cast<int64_t>(b) * batch_size;
    Tensor cur = std::move(batches[b]);
    for (int l = backbone_.pool_layer_indices.back() + 1; l <= last_layer;
         ++l) {
      GOGGLES_ASSIGN_OR_RETURN(cur,
                               backbone_.net.layer(l)->ForwardInference(cur));
    }
    if (out.rows() == 0) out = Matrix(n, cur.dim(1));
    for (int64_t i = 0; i < cur.dim(0); ++i) {
      for (int64_t j = 0; j < cur.dim(1); ++j) {
        out(start + i, j) = static_cast<double>(cur.At2(i, j));
      }
    }
  }
  return out;
}

Result<Matrix> FeatureExtractor::Logits(const std::vector<data::Image>& images,
                                        int batch_size) const {
  return RunHead(images, backbone_.net.num_layers() - 1, batch_size);
}

Result<Matrix> FeatureExtractor::PenultimateFeatures(
    const std::vector<data::Image>& images, int batch_size) const {
  return RunHead(images, backbone_.flatten_layer_index, batch_size);
}

}  // namespace goggles::features
