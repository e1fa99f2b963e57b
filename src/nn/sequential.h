#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

/// \file sequential.h
/// \brief Ordered layer container with feature taps.
///
/// Besides plain forward/backward, `Sequential` can return the activations
/// of selected intermediate layers in a single pass: the five max-pool
/// outputs GOGGLES extracts prototypes from (paper §3.1), computed layer
/// by layer as the reference for FeatureExtractor's packed plan.

namespace goggles::nn {

/// \brief A feed-forward stack of layers.
class Sequential {
 public:
  Sequential() = default;

  // Movable, not copyable (owns layer state).
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  /// \brief Appends a layer; returns its index.
  int Add(std::unique_ptr<Layer> layer);

  int num_layers() const { return static_cast<int>(layers_.size()); }

  Layer* layer(int i) { return layers_[static_cast<size_t>(i)].get(); }
  const Layer* layer(int i) const { return layers_[static_cast<size_t>(i)].get(); }

  /// \brief Full forward pass (training path: layers cache activations
  /// for a subsequent Backward).
  Result<Tensor> Forward(const Tensor& x);

  /// \brief Thread-safe inference forward pass. Routed through the
  /// layers' const ForwardInference path, so no layer state is mutated and
  /// any number of threads may forward through one shared network
  /// concurrently. Backward must not follow this call.
  Result<Tensor> Forward(const Tensor& x) const;

  /// \brief Thread-safe taps-only inference: runs layers [0, last tap]
  /// and captures the outputs of `tap_layers` (indices into the layer
  /// stack, strictly ascending; `taps[i]` receives the output of layer
  /// `tap_layers[i]`), skipping everything after the last tap, so it
  /// accepts any input resolution the tapped prefix supports — e.g.
  /// conv/pool filter maps for images larger than the classifier head was
  /// sized for. Extraction does not call it: FeatureExtractor runs its
  /// packed plan, and the tests compare that plan with these taps bit
  /// for bit.
  Status ForwardTaps(const Tensor& x, const std::vector<int>& tap_layers,
                     std::vector<Tensor>* taps) const;

  /// \brief Backward pass through every layer (after a full Forward).
  Result<Tensor> Backward(const Tensor& grad_output);

  /// \brief All trainable parameters in layer order.
  std::vector<Parameter*> Params();

  /// \brief Zeroes all parameter gradients.
  void ZeroGrad();

  /// \brief Total number of trainable scalars.
  int64_t NumParameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace goggles::nn
