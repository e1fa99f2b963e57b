#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

/// \file ensemble.h
/// \brief The ensemble layer of the hierarchical generative model (§4.1):
/// a multivariate-Bernoulli mixture over the one-hot-encoded concatenated
/// label prediction matrix LP.

namespace goggles {

/// \brief Bernoulli mixture hyper-parameters.
struct BernoulliMixtureConfig {
  int num_components = 2;  ///< mixture components K
  int max_iters = 100;     ///< EM iteration cap per restart
  double tol = 1e-6;       ///< stop when LL improves less than this
  int num_restarts = 4;    ///< keep the best of this many EM runs
  /// Laplace smoothing added in the M-step so no b_{k,l} hits exactly 0/1
  /// (the paper's "singularity problem" guard).
  double smoothing = 1e-2;
  uint64_t seed = 19;  ///< RNG seed for the restarts' initializations
};

/// \brief Parameters of a Bernoulli mixture: a fitted model's, and the
/// state each EM restart carries.
struct BernoulliMixtureParams {
  Matrix probs;                 ///< K x L, P(s_l = 1 | component k)
  std::vector<double> weights;  ///< K mixture weights
};

/// \brief Multivariate Bernoulli mixture (Eq. 7) fit with EM (Eq. 11).
class BernoulliMixture {
 public:
  /// Default-constructs an unfitted model (for SetParameters restore).
  BernoulliMixture() = default;

  /// \brief Constructs an unfitted model with the given hyper-parameters.
  explicit BernoulliMixture(BernoulliMixtureConfig config) : config_(config) {}

  /// \brief Fits to binary matrix `b` (values in [0, 1]; fractional values
  /// are treated as soft memberships, used by the no-one-hot ablation).
  Status Fit(const Matrix& b);

  /// \brief Installs externally-stored parameters (serving artifacts),
  /// making PredictProba available without a Fit() call. `params` is
  /// K x L with entries strictly inside (0, 1); `final_log_likelihood`
  /// restores the recorded training log-likelihood for reporting.
  Status SetParameters(Matrix params, std::vector<double> weights,
                       double final_log_likelihood = 0.0);

  /// \brief Posterior responsibilities per row.
  Result<Matrix> PredictProba(const Matrix& b) const;

  /// \brief The fitted parameters' E-step operands, as PredictProba
  /// builds them: the K x L panel and the K per-component offsets.
  void EStepPanel(Matrix* panel, std::vector<double>* offsets) const;

  /// \brief Final training log-likelihood of the best restart.
  double final_log_likelihood() const { return final_ll_; }
  /// \brief Per-iteration LL of the best restart.
  const std::vector<double>& log_likelihood_history() const {
    return ll_history_;
  }
  /// \brief Fitted Bernoulli parameters (K x L).
  const Matrix& bernoulli_params() const { return params_.probs; }
  /// \brief Fitted mixture weights (length K).
  const std::vector<double>& weights() const { return params_.weights; }

 private:
  BernoulliMixtureConfig config_;
  BernoulliMixtureParams params_;
  double final_ll_ = 0.0;
  std::vector<double> ll_history_;
};

/// \brief One-hot encodes a stack of label prediction matrices (§4.1):
/// for each instance and each LP_f, the argmax class becomes 1, the rest 0;
/// the result is the N x (alpha*K) concatenated binary LP matrix.
Matrix OneHotConcatLabelPredictions(const std::vector<Matrix>& lps);

/// \brief Concatenates LPs without one-hot conversion (ablation).
Matrix ConcatLabelPredictions(const std::vector<Matrix>& lps);

}  // namespace goggles
