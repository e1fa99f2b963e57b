#include "goggles/pipeline.h"

#include <algorithm>

namespace goggles {

GogglesPipeline::GogglesPipeline(
    std::shared_ptr<features::FeatureExtractor> extractor, GogglesConfig config)
    : extractor_(std::move(extractor)), config_(config) {
  library_ = BuildPrototypeAffinityLibrary(extractor_, config_.top_z);
}

void GogglesPipeline::AddFunction(std::unique_ptr<AffinityFunction> function) {
  extra_functions_.push_back(std::move(function));
}

int GogglesPipeline::num_functions() const {
  const int total = library_.num_functions() +
                    static_cast<int>(extra_functions_.size());
  return config_.max_functions > 0 ? std::min(config_.max_functions, total)
                                   : total;
}

Result<std::vector<AffinityFunction*>> GogglesPipeline::PrepareFunctions(
    const std::vector<data::Image>& images) const {
  const int alpha = num_functions();
  if (alpha == 0) {
    return Status::InvalidArgument("GogglesPipeline: no affinity functions");
  }
  // The library block comes first, then the user functions that fit
  // under max_functions.
  const int num_library = std::min(alpha, library_.num_functions());
  if (num_library > 0) {
    GOGGLES_RETURN_NOT_OK(library_.source->Prepare(images));
  }
  std::vector<AffinityFunction*> user(static_cast<size_t>(alpha - num_library));
  for (size_t k = 0; k < user.size(); ++k) {
    user[k] = extra_functions_[k].get();
    GOGGLES_RETURN_NOT_OK(user[k]->Prepare(images));
  }
  return user;
}

Result<Matrix> GogglesPipeline::BuildAffinity(
    const std::vector<data::Image>& images) const {
  GOGGLES_ASSIGN_OR_RETURN(std::vector<AffinityFunction*> user,
                           PrepareFunctions(images));
  const int alpha = num_functions();
  const int num_library = alpha - static_cast<int>(user.size());
  const int64_t n = static_cast<int64_t>(images.size());
  Matrix a(n, static_cast<int64_t>(alpha) * n);
  if (num_library > 0) {
    // The library block goes through the fused Eq. 2 scorer — the same
    // kernel (and accumulation order) the serving path uses for query
    // rows, so a served image reproduces its fit-time scores bit for bit.
    GOGGLES_RETURN_NOT_OK(library_.source->ScorePoolRowsInto(num_library, &a));
  }
  // User functions only expose the pairwise Score() interface; fill their
  // columns the generic way.
  FillAffinityMatrixColumns(user, num_library, static_cast<int>(n), a.cols(),
                            a.data());
  return a;
}

Result<LabelingResult> GogglesPipeline::Label(
    const std::vector<data::Image>& images,
    const std::vector<int>& dev_indices, const std::vector<int>& dev_labels,
    int num_classes, FittedHierarchicalModel* fitted_out) const {
  if (dev_indices.size() != dev_labels.size()) {
    return Status::InvalidArgument(
        "GogglesPipeline::Label: dev indices/labels size mismatch");
  }
  GOGGLES_ASSIGN_OR_RETURN(std::vector<AffinityFunction*> user,
                           PrepareFunctions(images));
  const int alpha = num_functions();
  const int num_library = alpha - static_cast<int>(user.size());
  const PrototypeAffinitySource& source = *library_.source;
  const int num_layers = std::min(source.num_layers(), num_library);
  const int64_t n = static_cast<int64_t>(images.size());
  // The base layer takes A one block at a time: each tap layer's
  // functions (the columns BuildAffinity gives them, scored by the same
  // kernel), then the user functions. One float buffer, as wide as the
  // widest block, holds each block in turn, so A itself is never built;
  // every score is a float, so the block holds A's values exactly.
  const int64_t stride = n * static_cast<int64_t>(std::max(
                                 source.LayerFunctions(0, num_library).size(),
                                 user.size()));
  std::vector<float> columns(static_cast<size_t>(n * stride));
  int layer = 0;  // the next tap layer; num_layers stands for the user block
  auto next_block = [&](AffinityBlock<float>* block) -> Status {
    block->data = columns.data();
    block->stride = stride;
    block->functions.clear();
    if (layer < num_layers) {
      block->functions = source.LayerFunctions(layer, num_library);
      GOGGLES_RETURN_NOT_OK(source.ScorePoolLayerInto(layer, num_library,
                                                      stride, columns.data()));
    } else if (layer == num_layers) {
      for (size_t k = 0; k < user.size(); ++k) {
        block->functions.push_back(num_library + static_cast<int64_t>(k));
      }
      FillAffinityMatrixColumns(user, 0, static_cast<int>(n), stride,
                                columns.data());
    }
    ++layer;
    return Status::OK();
  };
  HierarchicalLabeler labeler(config_.inference);
  return labeler.FitBlocks<float>(n, alpha, next_block, dev_indices,
                                  dev_labels, num_classes, fitted_out);
}

}  // namespace goggles
