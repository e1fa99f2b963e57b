#pragma once

#include <functional>
#include <vector>

#include "goggles/base_gmm.h"
#include "goggles/ensemble.h"
#include "linalg/matrix.h"
#include "util/status.h"

/// \file hierarchical.h
/// \brief The hierarchical generative model for class inference (paper §4):
/// one diagonal-covariance GMM per affinity function (base layer), one-hot
/// concatenation of their label prediction matrices, a multivariate
/// Bernoulli mixture (ensemble layer), and development-set cluster-to-class
/// mapping of both layers.

namespace goggles {

/// \brief Inference hyper-parameters, plus ablation switches (§4.1 design
/// choices, exercised by bench_ablation_inference).
///
/// The labeler overrides `base.num_components` and
/// `ensemble.num_components` with the fit's `num_classes`, and fits
/// function f's base GMM with seed `base.seed + f·7919`.
struct HierarchicalConfig {
  GmmConfig base;                   ///< per-function base GMM knobs
  BernoulliMixtureConfig ensemble;  ///< ensemble Bernoulli-mixture knobs
  /// One-hot encode LP before the ensemble (paper's design). Off = feed raw
  /// posteriors to the Bernoulli mixture (ablation).
  bool one_hot_lp = true;
  /// Use the Bernoulli ensemble (paper's design). Off = average the mapped
  /// base-model LPs (ablation).
  bool use_ensemble = true;
};

/// \brief Output of class inference.
struct LabelingResult {
  /// N x K probabilistic labels, columns aligned to true classes via the
  /// development-set mapping.
  Matrix soft_labels;
  /// Argmax of soft_labels per row.
  std::vector<int> hard_labels;
  /// Ensemble-level cluster -> class mapping that was applied.
  std::vector<int> cluster_to_class;
  /// Per-affinity-function label prediction matrices, each already mapped
  /// to true-class columns (diagnostics / Figure 2-style analyses).
  std::vector<Matrix> base_label_predictions;
  /// Final ensemble training log-likelihood.
  double ensemble_log_likelihood = 0.0;
};

/// \brief The fitted stack's E-step operands, prepacked for inference by
/// FittedHierarchicalModel::BuildInferencePlan: the panels and offsets
/// em::Posterior would build per call, in the PanelStackProducts layout
/// (tensor/gemm.h).
struct InferencePlan {
  /// The alpha base-GMM K x 2N Gaussian panels, one stack lane each.
  std::vector<double> base_panels;
  /// Per-function K Gaussian offsets (parallel to base_models).
  std::vector<std::vector<double>> base_offsets;
  /// The ensemble's K x (alpha*K) Bernoulli panel as a one-function
  /// stack (empty when !use_ensemble).
  std::vector<double> ensemble_panel;
  /// The ensemble's K offsets.
  std::vector<double> ensemble_offsets;
};

/// \brief The fitted state of one labeling run: every base GMM, the
/// Bernoulli ensemble, and the development-set cluster-to-class mappings
/// of both layers. Captured by HierarchicalLabeler::Fit so the expensive
/// EM fits can be persisted (serve/ artifacts) and reused to label new
/// instances online via Infer() — evaluation only, no refit.
struct FittedHierarchicalModel {
  int num_classes = 0;  ///< number of classes K
  /// Pool size N the model was fitted on; new affinity rows must have
  /// num_functions() * pool_size columns.
  int64_t pool_size = 0;
  /// One-hot-LP design flag the model was fitted under (see
  /// HierarchicalConfig).
  bool one_hot_lp = true;
  bool use_ensemble = true;  ///< ensemble design flag (see HierarchicalConfig)
  /// One fitted diagonal GMM per affinity function, paired with its
  /// development-set cluster-to-class mapping.
  std::vector<DiagonalGmm> base_models;
  /// Per-function cluster-to-class mappings (parallel to base_models).
  std::vector<std::vector<int>> base_mappings;
  /// Fitted ensemble (unused when !use_ensemble).
  BernoulliMixture ensemble;
  /// Ensemble-level cluster-to-class mapping.
  std::vector<int> ensemble_mapping;
  /// Prepacked inference operands of the fields above, built by Fit and
  /// by the artifact loader; Infer reads the plan, not the mixtures.
  InferencePlan plan;

  /// \brief Affinity-function count alpha the model was fitted over.
  int64_t num_functions() const {
    return static_cast<int64_t>(base_models.size());
  }
  /// \brief True once base models are present (fit or restore).
  bool fitted() const { return !base_models.empty(); }

  /// \brief Rebuilds `plan` from the fitted parameters. Call it after
  /// setting or changing them; Fit and the artifact loader do.
  void BuildInferencePlan();

  /// \brief Approximate resident size of the fitted parameters in bytes
  /// (GMM means/variances/weights, mappings, ensemble, plan). Used by the
  /// serving registry's LRU memory budget; intentionally an estimate —
  /// container bookkeeping overhead is not counted.
  uint64_t ApproxMemoryBytes() const;

  /// \brief Evaluates the fitted stack on new instances without refitting.
  ///
  /// Each row is one PanelStackProducts pass over all alpha prepacked
  /// Gaussian panels, then em::Posterior's epilogue and the stored
  /// mappings per function, then the label tail Fit ends with — the
  /// ensemble through the same kernel. Bit-identical to evaluating each
  /// base model's PredictProba, at every ISA tier.
  ///
  /// \param affinity_rows M x (alpha * pool_size): one row per new
  ///        instance in the §2.2 layout, scored against the *fitted pool*.
  /// For rows taken from the fitted affinity matrix this reproduces the
  /// Fit-time labels bit-for-bit (posterior evaluation is deterministic).
  Result<LabelingResult> Infer(const Matrix& affinity_rows) const;
};

/// \brief One block of affinity columns for the base layer: N rows of
/// `stride` floats from `data`, whose N-column slice s (columns
/// [s*N, (s+1)*N)) is the slice A_f of function f = functions[s] (§2.2).
struct AffinityBlock {
  const float* data = nullptr;     ///< the block's row 0
  int64_t stride = 0;              ///< floats per block row
  std::vector<int64_t> functions;  ///< global function of each slice
};

/// \brief Hands the base layer its next block; a block with no functions
/// ends the stream. The storage of an earlier block may be reused for the
/// next one: the base layer is done with a block when it asks for more.
using AffinityBlockStream = std::function<Status(AffinityBlock* next)>;

/// \brief Runs the full §4 inference stack on an affinity matrix.
class HierarchicalLabeler {
 public:
  /// \brief Builds a labeler with the given hyper-parameters.
  explicit HierarchicalLabeler(HierarchicalConfig config)
      : config_(config) {}

  /// \brief Fits base + ensemble models and maps clusters to classes.
  ///
  /// Every affinity is a float, and the base layer fits floats: `affinity`
  /// is narrowed once into a float copy, handed to FitBlocks as one block.
  /// An entry that is not exactly a float (NaN included) is rejected with
  /// InvalidArgument rather than rounded.
  ///
  /// \param affinity     N x (alpha*N) matrix in the §2.2 layout.
  /// \param dev_indices  rows with known labels (the development set).
  /// \param dev_labels   their classes.
  /// \param num_classes  K.
  /// \param fitted_out   optional: receives the fitted model state for
  ///        persistence / online inference.
  Result<LabelingResult> Fit(const Matrix& affinity,
                             const std::vector<int>& dev_indices,
                             const std::vector<int>& dev_labels,
                             int num_classes,
                             FittedHierarchicalModel* fitted_out = nullptr)
      const;

  /// \brief Fit with the affinity matrix handed over block by block, so
  /// only one block need be resident (GogglesPipeline::Label streams one
  /// tap layer at a time; Fit hands over its float copy as one block).
  /// Every function f in [0, num_functions) must arrive exactly once, and
  /// there must be at least one. Function f's base GMM sees the same
  /// column slice, seed and LP slot however the functions are blocked, so
  /// the result does not depend on the blocking.
  ///
  /// \param num_instances N, the rows of every block.
  /// \param num_functions alpha.
  /// \param blocks        the stream of blocks.
  Result<LabelingResult> FitBlocks(int64_t num_instances,
                                   int64_t num_functions,
                                   const AffinityBlockStream& blocks,
                                   const std::vector<int>& dev_indices,
                                   const std::vector<int>& dev_labels,
                                   int num_classes,
                                   FittedHierarchicalModel* fitted_out =
                                       nullptr) const;

  /// \brief The configuration the labeler was built with.
  const HierarchicalConfig& config() const { return config_; }

 private:
  HierarchicalConfig config_;
};

}  // namespace goggles
