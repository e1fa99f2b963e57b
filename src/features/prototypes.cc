#include "features/prototypes.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/topk.h"

namespace goggles::features {

std::vector<Prototype> ExtractTopZPrototypes(const Tensor& filter_map, int z) {
  const int64_t c = filter_map.dim(0);
  const int64_t h = filter_map.dim(1);
  const int64_t w = filter_map.dim(2);
  const int64_t area = h * w;

  // Channel activation = max over the spatial grid (2D global max pool),
  // and remember each channel's argmax position.
  std::vector<float> activation(static_cast<size_t>(c));
  std::vector<int64_t> arg_pos(static_cast<size_t>(c));
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* plane = filter_map.data() + ch * area;
    float best = plane[0];
    int64_t best_pos = 0;
    for (int64_t p = 1; p < area; ++p) {
      if (plane[p] > best) {
        best = plane[p];
        best_pos = p;
      }
    }
    activation[static_cast<size_t>(ch)] = best;
    arg_pos[static_cast<size_t>(ch)] = best_pos;
  }

  const std::vector<int> top_channels = ArgTopK(activation, z);

  std::vector<Prototype> prototypes;
  std::set<int64_t> seen_positions;
  for (int ch : top_channels) {
    const int64_t pos = arg_pos[static_cast<size_t>(ch)];
    // Drop duplicate (h, w) positions: they would yield identical vectors.
    if (!seen_positions.insert(pos).second) continue;
    Prototype proto;
    proto.channel = ch;
    proto.h = static_cast<int>(pos / w);
    proto.w = static_cast<int>(pos % w);
    proto.vector.resize(static_cast<size_t>(c));
    for (int64_t cc = 0; cc < c; ++cc) {
      proto.vector[static_cast<size_t>(cc)] = filter_map[cc * area + pos];
    }
    prototypes.push_back(std::move(proto));
  }
  return prototypes;
}

}  // namespace goggles::features
