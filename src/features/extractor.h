#pragma once

#include <memory>
#include <vector>

#include "data/image.h"
#include "linalg/matrix.h"
#include "nn/vgg.h"
#include "util/status.h"

/// \file extractor.h
/// \brief Batched feature extraction from the VggMini backbone.
///
/// GOGGLES needs three views of the backbone per image (paper §3, §5.1):
///  1. the filter map at each of the 5 max-pool layers (prototype source),
///  2. the logits vector (Snuba primitives, Logits representation ablation),
///  3. the penultimate (flattened) features (FSL baseline and end models).

namespace goggles::features {

/// \brief Wraps a (pre-trained) VggMini and extracts intermediate features.
///
/// Extraction entry points are thread-safe and run concurrently: they go
/// through the backbone's const inference path
/// (Sequential::ForwardTaps), which keeps all scratch state in
/// the call instead of in the layers. N serving sessions sharing one
/// extractor therefore scale with cores — there is no forward mutex — and
/// concurrent extraction is bit-identical to a serial run. Mutating the
/// backbone (mutable_backbone(), training) must not overlap with
/// extraction calls.
class FeatureExtractor {
 public:
  /// Takes ownership of the backbone.
  explicit FeatureExtractor(nn::VggMini backbone)
      : backbone_(std::move(backbone)) {}

  /// \brief Number of max-pool tap layers (the paper's 5).
  int num_pool_layers() const {
    return static_cast<int>(backbone_.pool_layer_indices.size());
  }

  /// \brief Filter maps at every pool layer for every image.
  ///
  /// \returns maps[layer][image] = Tensor of shape [C_layer, H, W].
  Result<std::vector<std::vector<Tensor>>> PoolFeatureMaps(
      const std::vector<data::Image>& images, int batch_size = 16) const;

  /// \brief Logits matrix, one row per image.
  Result<Matrix> Logits(const std::vector<data::Image>& images,
                        int batch_size = 16) const;

  /// \brief Penultimate (post-Flatten) features, one row per image.
  Result<Matrix> PenultimateFeatures(const std::vector<data::Image>& images,
                                     int batch_size = 16) const;

  const nn::VggMini& backbone() const { return backbone_; }
  nn::VggMini* mutable_backbone() { return &backbone_; }

 private:
  nn::VggMini backbone_;
};

}  // namespace goggles::features
