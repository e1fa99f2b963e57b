#pragma once

#include <memory>
#include <string>

#include "features/extractor.h"
#include "nn/vgg.h"
#include "util/status.h"

/// \file backbone.h
/// \brief Pretrained VggMini backbone with a disk cache.
///
/// The paper downloads ImageNet-pretrained VGG-16 weights once and reuses
/// them for every labeling task. Our substitute trains VggMini on SynthNet
/// once, caches the weights on disk (keyed by the configuration), and every
/// bench / example / test reuses the cached weights.

namespace goggles::eval {

/// \brief Pretraining configuration.
struct BackboneOptions {
  nn::VggMiniConfig arch;           ///< defaults: 5 stages, 16 classes
  int pretrain_images_per_class = 80;
  int epochs = 8;
  float learning_rate = 1e-3f;
  int batch_size = 32;
  uint64_t data_seed = 101;
  /// Cache directory; overridden by $GOGGLES_CACHE_DIR. Empty disables
  /// caching.
  std::string cache_dir = "/tmp/goggles_cache";
  bool verbose = false;
};

/// \brief Trains (or loads from cache) the SynthNet backbone and wraps it
/// in a FeatureExtractor.
///
/// Also reports the backbone's train accuracy on SynthNet via
/// `train_accuracy` when non-null (sanity signal that pretraining worked).
Result<std::shared_ptr<features::FeatureExtractor>> GetPretrainedExtractor(
    const BackboneOptions& options = {}, double* train_accuracy = nullptr);

}  // namespace goggles::eval
