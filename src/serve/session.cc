#include "serve/session.h"

#include <utility>

#include "serve/artifact.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace goggles::serve {

Result<Session> Session::Fit(
    std::shared_ptr<features::FeatureExtractor> extractor,
    const std::vector<data::Image>& pool, const std::vector<int>& dev_indices,
    const std::vector<int>& dev_labels, int num_classes,
    GogglesConfig config) {
  if (extractor == nullptr) {
    return Status::InvalidArgument("Session::Fit: extractor is null");
  }
  if (pool.empty()) {
    return Status::InvalidArgument("Session::Fit: empty pool");
  }
  GogglesPipeline pipeline(extractor, config);
  Session session;
  GOGGLES_ASSIGN_OR_RETURN(
      session.pool_result_,
      pipeline.Label(pool, dev_indices, dev_labels, num_classes,
                     &session.model_));
  // End like Load: keep only the prototypes, through the same Restore.
  const PrototypeAffinitySource& prepared = *pipeline.library().source;
  session.source_ =
      std::make_shared<PrototypeAffinitySource>(extractor, config.top_z);
  GOGGLES_RETURN_NOT_OK(session.source_->Restore(
      prepared.layers(), prepared.num_images(), prepared.fingerprint()));
  return session;
}

Result<Matrix> Session::BuildQueryRows(
    const std::vector<data::Image>& images) const {
  if (!fitted()) {
    return Status::Internal("Session::BuildQueryRows: session is not fitted");
  }
  if (images.empty()) {
    return Status::InvalidArgument("Session::BuildQueryRows: no images");
  }
  // The backbone forwards run concurrently (const inference path inside
  // the possibly shared extractor); the scorer then runs one fused GEMM +
  // max per image and pool layer against the packed prototype panel — the
  // same kernel the fitting run used, so scores for pool-identical images
  // reproduce bit for bit.
  GOGGLES_ASSIGN_OR_RETURN(
      std::vector<PrototypeAffinitySource::QueryFeatures> queries,
      source_->ExtractQueryFeatures(images));
  return source_->ScoreQueryRowsBatched(
      queries, static_cast<int>(model_.num_functions()));
}

Result<LabelingResult> Session::InferRows(const Matrix& affinity_rows) const {
  if (!fitted()) {
    return Status::Internal("Session::InferRows: session is not fitted");
  }
  if (affinity_rows.rows() < 1 ||
      affinity_rows.cols() != model_.num_functions() * model_.pool_size) {
    return Status::InvalidArgument("Session::InferRows: bad row shape");
  }
  return model_.Infer(affinity_rows);
}

Result<LabelingResult> Session::LabelBatch(
    const std::vector<data::Image>& images) const {
  if (!fitted()) {
    return Status::Internal("Session::LabelBatch: session is not fitted");
  }
  if (images.empty()) {
    return Status::InvalidArgument("Session::LabelBatch: no images");
  }
  GOGGLES_ASSIGN_OR_RETURN(Matrix rows, BuildQueryRows(images));
  return model_.Infer(rows);
}

Result<OnlineLabel> Session::LabelOne(const data::Image& image) const {
  GOGGLES_ASSIGN_OR_RETURN(LabelingResult result, LabelBatch({image}));
  OnlineLabel label;
  label.soft = result.soft_labels.Row(0);
  label.hard = result.hard_labels[0];
  return label;
}

uint64_t Session::ApproxMemoryBytes() const {
  if (!fitted()) return sizeof(*this);
#if defined(GOGGLES_FAILPOINTS)
  // Alloc-pressure chaos site: inflating the reported footprint makes
  // the registry's LRU budget evict aggressively, exercising
  // eviction-under-pressure with in-flight requests still draining.
  {
    auto hit = failpoint::internal::Evaluate("session.memory.pressure");
    if (hit.action == failpoint::Action::kReturnError && hit.arg > 0) {
      return static_cast<uint64_t>(hit.arg);
    }
  }
#endif
  uint64_t bytes = sizeof(*this);
  if (source_ != nullptr) bytes += source_->ApproxMemoryBytes();
  bytes += model_.ApproxMemoryBytes();
  bytes += static_cast<uint64_t>(pool_result_.soft_labels.size()) *
           sizeof(double);
  bytes += pool_result_.hard_labels.capacity() * sizeof(int);
  return bytes;
}

Status Session::Save(const std::string& path) const {
  if (!fitted()) {
    return Status::InvalidArgument("Session::Save: session is not fitted");
  }
  // Serialize straight from the session's own storage: the source
  // prototypes are the dominant state and copying them into an Artifact
  // first would raise the peak footprint of a Save.
  return SaveArtifactFile(path, source_->top_z(), source_->num_layers(),
                          source_->fingerprint(), model_, source_->layers(),
                          pool_result_.soft_labels, pool_result_.hard_labels);
}

Result<Session> Session::Load(
    const std::string& path,
    std::shared_ptr<features::FeatureExtractor> extractor) {
  if (extractor == nullptr) {
    return Status::InvalidArgument("Session::Load: extractor is null");
  }
  GOGGLES_ASSIGN_OR_RETURN(Artifact artifact, Artifact::Load(path));
  Session session;
  session.source_ =
      std::make_shared<PrototypeAffinitySource>(extractor, artifact.top_z);
  GOGGLES_RETURN_NOT_OK(session.source_->Restore(
      std::move(artifact.source_layers),
      static_cast<int>(artifact.model.pool_size), artifact.pool_fingerprint));
  session.model_ = std::move(artifact.model);
  session.pool_result_.soft_labels = std::move(artifact.pool_soft_labels);
  session.pool_result_.hard_labels = std::move(artifact.pool_hard_labels);
  return session;
}

}  // namespace goggles::serve
