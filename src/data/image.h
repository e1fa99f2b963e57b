#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

/// \file image.h
/// \brief Dense float image (CHW, values nominally in [0, 1]).

namespace goggles::data {

/// \brief A single image in channel-major (CHW) layout.
struct Image {
  int channels = 0;
  int height = 0;
  int width = 0;
  std::vector<float> pixels;  ///< size = channels * height * width

  Image() = default;
  Image(int c, int h, int w, float fill = 0.0f)
      : channels(c), height(h), width(w),
        pixels(static_cast<size_t>(c) * h * w, fill) {}

  float& at(int c, int y, int x) {
    return pixels[(static_cast<size_t>(c) * height + y) * width + x];
  }
  float at(int c, int y, int x) const {
    return pixels[(static_cast<size_t>(c) * height + y) * width + x];
  }

  int64_t NumElements() const {
    return static_cast<int64_t>(pixels.size());
  }
};

/// \brief Stacks images (all same shape) into an [N, C, H, W] tensor.
Tensor StackImages(const std::vector<Image>& images);

/// \brief Clamps all pixels to [0, 1].
void ClampImage(Image* img);

/// \brief Mean pixel value across all channels.
float ImageMean(const Image& img);

/// \brief Order-sensitive FNV-1a content fingerprint over the images'
/// shapes and pixel bytes. Lets caches key idempotence on dataset
/// *content* rather than image count (two same-sized datasets collide on
/// count but not, in practice, on this fingerprint).
uint64_t FingerprintImages(const std::vector<Image>& images);

}  // namespace goggles::data
