#include "nn/sequential.h"

namespace goggles::nn {

int Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

Result<Tensor> Sequential::Forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& layer : layers_) {
    GOGGLES_ASSIGN_OR_RETURN(cur, layer->Forward(cur));
  }
  return cur;
}

Result<Tensor> Sequential::Forward(const Tensor& x) const {
  Tensor cur = x;
  for (const auto& layer : layers_) {
    GOGGLES_ASSIGN_OR_RETURN(cur, layer->ForwardInference(cur));
  }
  return cur;
}

Status Sequential::ForwardTaps(const Tensor& x,
                               const std::vector<int>& tap_layers,
                               std::vector<Tensor>* taps) const {
  taps->clear();
  if (tap_layers.empty()) return Status::OK();
  for (size_t t = 0; t < tap_layers.size(); ++t) {
    if (tap_layers[t] < 0 || tap_layers[t] >= num_layers() ||
        (t > 0 && tap_layers[t] <= tap_layers[t - 1])) {
      return Status::InvalidArgument(
          "ForwardTaps: tap_layers must be ascending valid layer indices");
    }
  }
  taps->reserve(tap_layers.size());
  size_t next_tap = 0;
  Tensor cur = x;
  for (int i = 0; i <= tap_layers.back(); ++i) {
    GOGGLES_ASSIGN_OR_RETURN(
        cur, layers_[static_cast<size_t>(i)]->ForwardInference(cur));
    if (next_tap < tap_layers.size() && tap_layers[next_tap] == i) {
      taps->push_back(cur);
      ++next_tap;
    }
  }
  return Status::OK();
}

Result<Tensor> Sequential::Backward(const Tensor& grad_output) {
  Tensor cur = grad_output;
  for (int i = num_layers() - 1; i >= 0; --i) {
    GOGGLES_ASSIGN_OR_RETURN(cur, layers_[static_cast<size_t>(i)]->Backward(cur));
  }
  return cur;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) out.push_back(p);
  }
  return out;
}

void Sequential::ZeroGrad() {
  for (auto& layer : layers_) layer->ZeroGrad();
}

int64_t Sequential::NumParameters() {
  int64_t total = 0;
  for (Parameter* p : Params()) total += p->value.NumElements();
  return total;
}

}  // namespace goggles::nn
