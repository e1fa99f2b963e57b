#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/image.h"
#include "features/extractor.h"
#include "goggles/affinity.h"
#include "goggles/hierarchical.h"
#include "goggles/pipeline.h"
#include "util/status.h"

/// \file session.h
/// \brief A fitted labeling session that answers labeling requests online.
///
/// `GogglesPipeline::Label` is batch-only: every call re-extracts
/// features, refits alpha GMMs + the ensemble, and throws the fitted
/// state away. A `Session` keeps that state — the prepared prototype
/// caches of the pool and the fitted hierarchical model — so labeling a
/// new image costs one backbone forward pass plus O(new x pool) affinity
/// scores and a posterior evaluation, instead of O((pool+new)^2) scores
/// plus a full EM refit.
///
/// Sessions persist to disk as `serve::Artifact` files (Save/Load), which
/// is what the `goggles_serve` front-end loads at startup.

namespace goggles::serve {

/// \brief Labels for a single online-labeled image.
struct OnlineLabel {
  std::vector<double> soft;  ///< length K, aligned to true classes
  int hard = 0;              ///< argmax of `soft`
};

/// \brief A fitted, servable labeling session.
///
/// Labeling entry points are const and may be called from multiple
/// threads: the backbone forward pass goes through the extractor's
/// lock-free const inference path — N sessions sharing one backbone scale
/// with cores — and affinity scoring (one fused GEMM + max per pool layer
/// against the packed prototype panel) and posterior evaluation also run
/// lock-free in parallel.
class Session {
 public:
  Session() = default;

  /// \brief Fits a session on a labeling pool — the exact computation of
  /// `GogglesPipeline::Label` (same seeds, same results) with the fitted
  /// state retained for serving.
  static Result<Session> Fit(
      std::shared_ptr<features::FeatureExtractor> extractor,
      const std::vector<data::Image>& pool,
      const std::vector<int>& dev_indices, const std::vector<int>& dev_labels,
      int num_classes, GogglesConfig config = {});

  /// \brief Labels new images against the fitted pool without refitting.
  /// For images identical to pool members this reproduces the fitting
  /// run's labels bit-for-bit.
  Result<LabelingResult> LabelBatch(
      const std::vector<data::Image>& images) const;

  /// \brief Single-image convenience wrapper over LabelBatch.
  Result<OnlineLabel> LabelOne(const data::Image& image) const;

  /// \brief Extraction half of LabelBatch: builds the M x (alpha *
  /// pool_size) affinity rows for `images` through the batched
  /// extractor + fused scorer, without running inference. The staged
  /// serving pipeline calls this from its extraction stage and feeds
  /// the rows (possibly sliced per image) to InferRows downstream.
  /// Row i depends only on image i — the scorer runs once per image and
  /// accumulates in a fixed ascending-k order — so slicing rows
  /// out of a grouped extraction is bit-identical to extracting each
  /// image alone.
  Result<Matrix> BuildQueryRows(const std::vector<data::Image>& images) const;

  /// \brief Inference half of LabelBatch: posterior evaluation of
  /// prebuilt affinity rows under the fitted hierarchical model.
  /// `LabelBatch(images)` == `InferRows(*BuildQueryRows(images))`.
  Result<LabelingResult> InferRows(const Matrix& affinity_rows) const;

  /// \brief Persists the fitted session as a versioned artifact file,
  /// crash-safely: stages into a pid-suffixed temp file, fsyncs, then
  /// renames over `path` (see SaveArtifactFile), so a registry watching
  /// the directory never sees a torn artifact.
  Status Save(const std::string& path) const;

  /// \brief Restores a session from an artifact. The extractor must be
  /// the same backbone the artifact was fitted with (same pool-layer
  /// count and channel widths; checked on load / first query).
  static Result<Session> Load(
      const std::string& path,
      std::shared_ptr<features::FeatureExtractor> extractor);

  /// \brief True once the session holds a fitted model.
  bool fitted() const { return model_.fitted(); }
  /// \brief Number of classes K.
  int num_classes() const { return model_.num_classes; }
  /// \brief Pool size N the session was fitted on.
  int64_t pool_size() const { return model_.pool_size; }
  /// \brief Affinity-function count alpha.
  int64_t num_functions() const { return model_.num_functions(); }
  /// \brief Content fingerprint of the fitted pool (0 when unfitted).
  uint64_t pool_fingerprint() const {
    return source_ ? source_->fingerprint() : 0;
  }

  /// \brief Approximate resident size of the fitted state in bytes
  /// (prototype/position caches, packed prototype panels, fitted models, pool
  /// labels). The multi-task registry charges this against its LRU memory
  /// budget when deciding evictions.
  uint64_t ApproxMemoryBytes() const;

  /// \brief The pool's labels from the fitting run. After Load, only the
  /// soft/hard labels are populated (per-function diagnostics are not
  /// persisted).
  const LabelingResult& pool_result() const { return pool_result_; }

  const FittedHierarchicalModel& model() const { return model_; }

 private:
  std::shared_ptr<features::FeatureExtractor> extractor_;
  std::shared_ptr<PrototypeAffinitySource> source_;
  FittedHierarchicalModel model_;
  LabelingResult pool_result_;
  int top_z_ = 0;
};

}  // namespace goggles::serve
