#pragma once

#include <memory>
#include <vector>

#include "data/image.h"
#include "features/extractor.h"
#include "goggles/affinity.h"
#include "goggles/hierarchical.h"
#include "util/status.h"

/// \file pipeline.h
/// \brief End-to-end GOGGLES: images -> affinity matrix -> probabilistic
/// labels (Figure 3 of the paper).

namespace goggles {

/// \brief Pipeline hyper-parameters.
struct GogglesConfig {
  /// Prototypes per max-pool layer (the paper's Z = 10, for 5*10 = 50
  /// affinity functions).
  int top_z = 10;
  /// Use only the first `max_functions` affinity functions (<=0 = all);
  /// drives the Figure 9 sweep.
  int max_functions = 0;
  /// Hierarchical-model hyper-parameters and ablation switches.
  HierarchicalConfig inference;
};

/// \brief Orchestrates affinity construction and class inference.
class GogglesPipeline {
 public:
  /// \param extractor pretrained backbone wrapper (shared; the library of
  ///        affinity functions is "populated once and reused for any new
  ///        dataset" — the same extractor serves every labeling task).
  GogglesPipeline(std::shared_ptr<features::FeatureExtractor> extractor,
                  GogglesConfig config = {});

  /// \brief Builds the affinity matrix for `images` using the prototype
  /// affinity library (plus any extra functions added via AddFunction):
  /// the blocks Label fits, widened into one N x (alpha*N) matrix, for
  /// the analyses and baselines that need all of A at once.
  Result<Matrix> BuildAffinity(const std::vector<data::Image>& images) const;

  /// \brief Full labeling run (Figure 3): affinity matrix + hierarchical
  /// inference + development-set mapping.
  ///
  /// The affinity matrix is scored and fitted one tap layer at a time
  /// (HierarchicalLabeler::FitBlocks), so at most one layer's N x Z*N
  /// float block is resident; the result is bit-identical to
  /// HierarchicalLabeler::Fit on BuildAffinity(images). A pipeline with
  /// no function (top_z <= 0 and none added) is InvalidArgument.
  ///
  /// \param images      all N instances (unlabeled and development rows).
  /// \param dev_indices positions of development examples within `images`.
  /// \param dev_labels  their classes.
  /// \param num_classes K.
  /// \param fitted_out  optional: receives the fitted hierarchical model
  ///        (persisted by serve/ sessions for online labeling).
  Result<LabelingResult> Label(const std::vector<data::Image>& images,
                               const std::vector<int>& dev_indices,
                               const std::vector<int>& dev_labels,
                               int num_classes,
                               FittedHierarchicalModel* fitted_out = nullptr)
      const;

  /// \brief Registers an additional user-supplied affinity function,
  /// appended after the prototype library (see examples/custom_affinity).
  void AddFunction(std::unique_ptr<AffinityFunction> function);

  /// \brief Number of affinity functions the pipeline will use: the
  /// library's layers x Z plus the user functions, capped at
  /// `max_functions`.
  int num_functions() const;

  /// \brief The prototype affinity library (its shared source holds the
  /// prepared pool caches once Label/BuildAffinity has run).
  const AffinityLibrary& library() const { return library_; }

  /// \brief The configuration the pipeline was built with.
  const GogglesConfig& config() const { return config_; }

 private:
  /// The one producer of A: checks there is a function, prepares the
  /// library source (when any library function is used) and the user
  /// functions in use on `images`, and returns the stream of A's blocks —
  /// each tap layer's library functions (ScorePoolLayerInto), then the
  /// user functions (FillAffinityMatrixColumns) — in one float buffer the
  /// stream owns and reuses. The stream must not outlive the pipeline.
  Result<AffinityBlockStream> AffinityBlocks(
      const std::vector<data::Image>& images) const;

  std::shared_ptr<features::FeatureExtractor> extractor_;
  GogglesConfig config_;
  AffinityLibrary library_;
  std::vector<std::unique_ptr<AffinityFunction>> extra_functions_;
};

}  // namespace goggles
