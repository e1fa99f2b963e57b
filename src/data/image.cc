#include "data/image.h"

#include <algorithm>
#include <cstring>

namespace goggles::data {
namespace {

inline uint64_t Fnv1a(const void* data, size_t n, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

Tensor StackImages(const std::vector<Image>& images) {
  if (images.empty()) return Tensor();
  const Image& first = images[0];
  Tensor out({static_cast<int64_t>(images.size()), first.channels,
              first.height, first.width});
  const int64_t stride = first.NumElements();
  for (size_t i = 0; i < images.size(); ++i) {
    std::copy(images[i].pixels.begin(), images[i].pixels.end(),
              out.data() + static_cast<int64_t>(i) * stride);
  }
  return out;
}

void ClampImage(Image* img) {
  for (float& v : img->pixels) v = std::clamp(v, 0.0f, 1.0f);
}

float ImageMean(const Image& img) {
  if (img.pixels.empty()) return 0.0f;
  double acc = 0.0;
  for (float v : img.pixels) acc += v;
  return static_cast<float>(acc / static_cast<double>(img.pixels.size()));
}

uint64_t FingerprintImages(const std::vector<Image>& images) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  const uint64_t n = images.size();
  hash = Fnv1a(&n, sizeof(n), hash);
  for (const Image& img : images) {
    const int32_t dims[3] = {img.channels, img.height, img.width};
    hash = Fnv1a(dims, sizeof(dims), hash);
    hash = Fnv1a(img.pixels.data(), img.pixels.size() * sizeof(float), hash);
  }
  return hash;
}

}  // namespace goggles::data
