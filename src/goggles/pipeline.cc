#include "goggles/pipeline.h"

#include <algorithm>

#include "util/parallel.h"

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

Result<AffinityBlockStream> GogglesPipeline::AffinityBlocks(
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
  std::shared_ptr<const PrototypeAffinitySource> source = library_.source;
  const int num_layers = std::min(source->num_layers(), num_library);
  const int64_t n = static_cast<int64_t>(images.size());
  // One float buffer, as wide as the widest block, holds each block in
  // turn, so A itself is never built; every score is a float, so the
  // block holds A's values exactly.
  const int64_t stride = n * static_cast<int64_t>(std::max(
                                 source->LayerFunctions(0, num_library).size(),
                                 user.size()));
  auto columns =
      std::make_shared<std::vector<float>>(static_cast<size_t>(n * stride));
  int layer = 0;  // the next tap layer; num_layers stands for the user block
  return AffinityBlockStream(
      [source, user, num_library, num_layers, n, stride, columns,
       layer](AffinityBlock* block) mutable -> Status {
        block->data = columns->data();
        block->stride = stride;
        block->functions.clear();
        if (layer < num_layers) {
          block->functions = source->LayerFunctions(layer, num_library);
          GOGGLES_RETURN_NOT_OK(source->ScorePoolLayerInto(
              layer, num_library, stride, columns->data()));
        } else if (layer == num_layers) {
          for (size_t k = 0; k < user.size(); ++k) {
            block->functions.push_back(num_library + static_cast<int64_t>(k));
          }
          FillAffinityMatrixColumns(user, 0, static_cast<int>(n), stride,
                                    columns->data());
        }
        ++layer;
        return Status::OK();
      });
}

Result<Matrix> GogglesPipeline::BuildAffinity(
    const std::vector<data::Image>& images) const {
  GOGGLES_ASSIGN_OR_RETURN(AffinityBlockStream blocks, AffinityBlocks(images));
  const int64_t n = static_cast<int64_t>(images.size());
  Matrix a(n, static_cast<int64_t>(num_functions()) * n);
  // Slice s of each block, widened, is column block functions[s] of A.
  AffinityBlock block;
  for (;;) {
    GOGGLES_RETURN_NOT_OK(blocks(&block));
    if (block.functions.empty()) return a;
    ParallelFor(0, n, [&](int64_t i) {
      const float* row = block.data + i * block.stride;
      for (size_t s = 0; s < block.functions.size(); ++s) {
        std::copy(row + static_cast<int64_t>(s) * n,
                  row + static_cast<int64_t>(s + 1) * n,
                  a.RowPtr(i) + block.functions[s] * n);
      }
    });
  }
}

Result<LabelingResult> GogglesPipeline::Label(
    const std::vector<data::Image>& images,
    const std::vector<int>& dev_indices, const std::vector<int>& dev_labels,
    int num_classes, FittedHierarchicalModel* fitted_out) const {
  if (dev_indices.size() != dev_labels.size()) {
    return Status::InvalidArgument(
        "GogglesPipeline::Label: dev indices/labels size mismatch");
  }
  GOGGLES_ASSIGN_OR_RETURN(AffinityBlockStream blocks, AffinityBlocks(images));
  return HierarchicalLabeler(config_.inference)
      .FitBlocks(static_cast<int64_t>(images.size()), num_functions(), blocks,
                 dev_indices, dev_labels, num_classes, fitted_out);
}

}  // namespace goggles
