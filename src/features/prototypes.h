#pragma once

#include <vector>

#include "tensor/tensor.h"

/// \file prototypes.h
/// \brief Top-Z prototype extraction from a filter map (paper §3.1).
///
/// Given a filter map F of shape C x H x W, the paper:
///  1. ranks channels by their maximum activation (2D global max pool),
///  2. keeps the top-Z channels c_1..c_Z,
///  3. for each kept channel takes (h, w) = argmax F[c_z, :, :] and emits
///     the channel-spanning vector F[:, h, w] as the prototype,
///  4. drops duplicate prototypes arising from repeated (h, w) positions.
/// Example 4 of the paper is reproduced verbatim in the unit tests.

namespace goggles::features {

/// \brief One extracted prototype.
struct Prototype {
  std::vector<float> vector;  ///< length C, spans the channel axis
  int channel = -1;           ///< the top channel that selected this position
  int h = -1;                 ///< spatial position in the filter map
  int w = -1;
};

/// \brief Extracts the unique top-Z prototypes of `filter_map` ([C, H, W]).
///
/// Returns at most `z` prototypes; fewer when argmax positions collide
/// (duplicates are dropped, keeping the first/highest-activation one).
std::vector<Prototype> ExtractTopZPrototypes(const Tensor& filter_map, int z);

}  // namespace goggles::features
