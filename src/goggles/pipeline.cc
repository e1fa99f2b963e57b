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

std::vector<AffinityFunction*> GogglesPipeline::ActiveFunctions() const {
  std::vector<AffinityFunction*> fns = library_.Pointers();
  for (const auto& f : extra_functions_) fns.push_back(f.get());
  if (config_.max_functions > 0 &&
      config_.max_functions < static_cast<int>(fns.size())) {
    fns.resize(static_cast<size_t>(config_.max_functions));
  }
  return fns;
}

int GogglesPipeline::num_functions() const {
  return static_cast<int>(ActiveFunctions().size());
}

Result<Matrix> GogglesPipeline::BuildAffinity(
    const std::vector<data::Image>& images) const {
  std::vector<AffinityFunction*> fns = ActiveFunctions();
  if (fns.empty()) {
    return Status::InvalidArgument("GogglesPipeline: no affinity functions");
  }
  // ActiveFunctions() lists the prototype-library functions first; they
  // all delegate Prepare to the one shared source, whose idempotence
  // check fingerprints the dataset — prepare it once instead of once per
  // function.
  const size_t num_library = std::min(fns.size(), library_.functions.size());
  const int64_t n = static_cast<int64_t>(images.size());
  Matrix a(n, static_cast<int64_t>(fns.size()) * n);
  if (num_library > 0) {
    GOGGLES_RETURN_NOT_OK(library_.source->Prepare(images));
    // The library block goes through the fused Eq. 2 scorer — the same
    // kernel (and accumulation order) the serving path uses for query
    // rows, so a served image reproduces its fit-time scores bit for bit.
    GOGGLES_RETURN_NOT_OK(library_.source->ScorePoolRowsInto(
        static_cast<int>(num_library), &a));
  }
  for (size_t i = num_library; i < fns.size(); ++i) {
    GOGGLES_RETURN_NOT_OK(fns[i]->Prepare(images));
  }
  // User-supplied extra functions only expose the pairwise Score()
  // interface; fill their columns the generic way.
  FillAffinityMatrixColumns(fns, num_library, static_cast<int>(n), &a);
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
  GOGGLES_ASSIGN_OR_RETURN(Matrix affinity, BuildAffinity(images));
  HierarchicalLabeler labeler(config_.inference);
  return labeler.Fit(affinity, dev_indices, dev_labels, num_classes,
                     fitted_out);
}

}  // namespace goggles
