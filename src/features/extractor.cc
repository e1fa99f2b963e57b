#include "features/extractor.h"

#include <algorithm>

namespace goggles::features {
namespace {

std::vector<int> BatchIndices(int64_t begin, int64_t end) {
  std::vector<int> idx;
  idx.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) idx.push_back(static_cast<int>(i));
  return idx;
}

/// Extraction stacks images into [N, C, H, W] batches, which requires a
/// uniform shape — a mixed-shape batch would index past the stacked
/// tensor's per-image stride.
Status CheckUniformShapes(const std::vector<data::Image>& images) {
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

Result<std::vector<std::vector<Tensor>>> FeatureExtractor::PoolFeatureMaps(
    const std::vector<data::Image>& images, int batch_size) const {
  GOGGLES_RETURN_NOT_OK(CheckUniformShapes(images));
  const int num_layers = num_pool_layers();
  std::vector<std::vector<Tensor>> maps(static_cast<size_t>(num_layers));
  for (auto& per_layer : maps) per_layer.reserve(images.size());

  const int64_t n = static_cast<int64_t>(images.size());
  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t end = std::min<int64_t>(n, start + batch_size);
    Tensor batch = data::StackImageSubset(images, BatchIndices(start, end));
    std::vector<Tensor> taps;
    // Taps-only forward: skips the classifier head (whose output is
    // unused here) and therefore accepts any image resolution the
    // conv/pool prefix supports.
    GOGGLES_RETURN_NOT_OK(backbone_.net.ForwardTaps(
        batch, backbone_.pool_layer_indices, &taps));
    for (int layer = 0; layer < num_layers; ++layer) {
      const Tensor& tap = taps[static_cast<size_t>(layer)];
      const int64_t c = tap.dim(1), h = tap.dim(2), w = tap.dim(3);
      const int64_t stride = c * h * w;
      for (int64_t i = 0; i < end - start; ++i) {
        Tensor single({c, h, w});
        std::copy(tap.data() + i * stride, tap.data() + (i + 1) * stride,
                  single.data());
        maps[static_cast<size_t>(layer)].push_back(std::move(single));
      }
    }
  }
  return maps;
}

Result<Matrix> FeatureExtractor::Logits(const std::vector<data::Image>& images,
                                        int batch_size) const {
  GOGGLES_RETURN_NOT_OK(CheckUniformShapes(images));
  const int64_t n = static_cast<int64_t>(images.size());
  Matrix out;
  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t end = std::min<int64_t>(n, start + batch_size);
    Tensor batch = data::StackImageSubset(images, BatchIndices(start, end));
    GOGGLES_ASSIGN_OR_RETURN(Tensor logits, backbone_.net.Forward(batch));
    if (out.rows() == 0) out = Matrix(n, logits.dim(1));
    for (int64_t i = 0; i < end - start; ++i) {
      for (int64_t j = 0; j < logits.dim(1); ++j) {
        out(start + i, j) = static_cast<double>(logits.At2(i, j));
      }
    }
  }
  return out;
}

Result<Matrix> FeatureExtractor::PenultimateFeatures(
    const std::vector<data::Image>& images, int batch_size) const {
  GOGGLES_RETURN_NOT_OK(CheckUniformShapes(images));
  const int64_t n = static_cast<int64_t>(images.size());
  const std::vector<int> taps = {backbone_.flatten_layer_index};
  Matrix out;
  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t end = std::min<int64_t>(n, start + batch_size);
    Tensor batch = data::StackImageSubset(images, BatchIndices(start, end));
    std::vector<Tensor> captured;
    GOGGLES_RETURN_NOT_OK(backbone_.net.ForwardTaps(batch, taps, &captured));
    const Tensor& features = captured[0];
    if (out.rows() == 0) out = Matrix(n, features.dim(1));
    for (int64_t i = 0; i < end - start; ++i) {
      for (int64_t j = 0; j < features.dim(1); ++j) {
        out(start + i, j) = static_cast<double>(features.At2(i, j));
      }
    }
  }
  return out;
}

}  // namespace goggles::features
