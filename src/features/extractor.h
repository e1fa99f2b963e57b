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
/// The constructor packs the backbone's conv prefix once into a plan: each
/// 3x3 conv's weights in the 16-column panel layout of PackPrototypePanel,
/// next to its bias. Every entry point runs that plan image by image (a
/// ParallelFor over images, each image serial), one fused
/// Conv3x3BiasReluPool call per conv that writes a pool layer's filter map
/// straight into its tap. The taps are bit-identical to
/// Sequential::ForwardTaps at every ISA tier. Logits and
/// PenultimateFeatures then run the layers after the last pool (Flatten,
/// Linear) through their const inference path.
///
/// Entry points are const and keep all scratch in the call, so any number
/// of threads may extract through one shared extractor concurrently, with
/// results bit-identical to a serial run.
class FeatureExtractor {
 public:
  /// Takes ownership of the backbone and packs its conv prefix. A backbone
  /// whose prefix is not 3x3/s1/p1 conv + ReLU stages each closed by a
  /// 2x2/2 max pool (what nn::BuildVggMini builds) makes every entry point
  /// return InvalidArgument.
  explicit FeatureExtractor(nn::VggMini backbone);

  /// \brief Number of max-pool tap layers (the paper's 5).
  int num_pool_layers() const {
    return static_cast<int>(backbone_.pool_layer_indices.size());
  }

  /// \brief Filter maps at every pool layer for every image. Accepts any
  /// image size the conv/pool prefix does.
  ///
  /// \returns maps[layer][image] = Tensor of shape [C_layer, H, W].
  Result<std::vector<std::vector<Tensor>>> PoolFeatureMaps(
      const std::vector<data::Image>& images) const;

  /// \brief Logits matrix, one row per image.
  Result<Matrix> Logits(const std::vector<data::Image>& images) const;

  /// \brief Penultimate (post-Flatten) features, one row per image.
  Result<Matrix> PenultimateFeatures(
      const std::vector<data::Image>& images) const;

  const nn::VggMini& backbone() const { return backbone_; }

 private:
  /// One conv of the prefix, packed for Conv3x3BiasReluPool: its weight
  /// panel (PackPrototypePanel layout, depth in_channels * 9) and bias sit
  /// at these offsets of `weights_`.
  struct PackedConv {
    int64_t in_channels = 0;
    int64_t out_channels = 0;
    size_t panel = 0;
    size_t bias = 0;
    bool pool = false;  ///< followed by the 2x2/2 max pool of a tap
  };

  /// [C, H, W] of every tap for an input of `height` x `width`.
  std::vector<std::vector<int64_t>> TapShapes(int64_t height,
                                              int64_t width) const;

  /// Runs the plan on every image, in parallel over images. Tap t of
  /// image i lands at `tap_out(t, i)` when that returns non-null, else in
  /// the call's scratch.
  template <typename TapOut>
  Status RunPlan(const std::vector<data::Image>& images,
                 const TapOut& tap_out) const;

  /// Runs layers (last pool, `last_layer`] once on the stacked last taps
  /// of every image, into one matrix row per image.
  Result<Matrix> RunHead(const std::vector<data::Image>& images,
                         int last_layer) const;

  nn::VggMini backbone_;
  std::vector<PackedConv> plan_;
  std::vector<float> weights_;  ///< every conv's panel and bias
  Status plan_status_;  ///< why the backbone could not be packed, if so
};

}  // namespace goggles::features
