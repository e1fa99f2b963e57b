#pragma once

#include <vector>

#include "goggles/em_core.h"
#include "linalg/matrix.h"
#include "util/status.h"

/// \file base_gmm.h
/// \brief Diagonal-covariance Gaussian mixture, the base model of the
/// hierarchical generative model (paper §4.1).
///
/// One GMM is fit per affinity function on that function's N-column slice
/// A_f of the affinity matrix. The paper's key design choice — a *diagonal*
/// covariance matrix — cuts the parameter count from K*(N choose 2) to K*N
/// and is preserved here. EM updates follow Eq. 8-10.

namespace goggles {

/// \brief GMM hyper-parameters.
struct GmmConfig {
  int num_components = 2;   ///< mixture components K
  int max_iters = 100;      ///< EM iteration cap per restart
  double tol = 1e-6;        ///< stop when LL improves less than this
  int num_restarts = 3;     ///< keep the best of this many EM runs
  double var_floor = 1e-6;  ///< lower bound on per-dimension variance
  uint64_t seed = 17;       ///< RNG seed for the restarts' initializations
};

/// \brief Parameters of a diagonal GMM: a fitted model's, and the state
/// each EM restart carries.
struct GmmParams {
  Matrix means;                 ///< K x D component means
  Matrix variances;             ///< K x D per-dimension variances
  std::vector<double> weights;  ///< K mixture weights
};

/// \brief Diagonal-covariance Gaussian mixture fit with EM.
class DiagonalGmm {
 public:
  /// Default-constructs an unfitted model (for SetParameters restore).
  DiagonalGmm() = default;

  /// \brief Constructs an unfitted model with the given hyper-parameters.
  explicit DiagonalGmm(GmmConfig config) : config_(config) {}

  /// \brief Fits the mixture to `x` (rows = samples).
  Status Fit(const Matrix& x);

  /// \brief Fits the mixture to the slice `x` (rows = samples), read in
  /// place, and, when `posterior` is non-null, writes the fitted model's
  /// PredictProba of that slice into it, bit for bit.
  ///
  /// `workspace` receives the slice's transposed copy (em::MakeDesign).
  /// One workspace serves any number of sequential fits (not concurrent
  /// ones); a fit of the same shape as the previous one allocates nothing
  /// for it. The posterior is one more E-step on the fit's own design. A
  /// float slice fits to the same bits as its widened double copy. Fit(x)
  /// is FitPredict(em::WholeMatrix(x), &fresh_workspace, nullptr).
  template <typename T>
  Status FitPredict(const em::Slice<T>& x, std::vector<T>* workspace,
                    Matrix* posterior);

  /// \brief Installs externally-stored parameters (serving artifacts),
  /// making PredictProba available without a Fit() call. `means` and
  /// `variances` are K x D; `weights` has K entries.
  Status SetParameters(Matrix means, Matrix variances,
                       std::vector<double> weights);

  /// \brief Posterior responsibilities P(y = k | s) for each row (Eq. 8).
  Result<Matrix> PredictProba(const Matrix& x) const;

  /// \brief The fitted parameters' E-step operands, as PredictProba
  /// builds them: the K x 2D panel against the augmented rows [x² | x]
  /// and the K per-component offsets.
  void EStepPanel(Matrix* panel, std::vector<double>* offsets) const;

  /// \brief Final training log-likelihood of the best restart.
  double final_log_likelihood() const { return final_ll_; }

  /// \brief Per-iteration LL of the best restart (monotone by EM theory;
  /// asserted in the property tests).
  const std::vector<double>& log_likelihood_history() const {
    return ll_history_;
  }

  /// \brief Fitted component means (K x D).
  const Matrix& means() const { return params_.means; }
  /// \brief Fitted per-dimension variances (K x D).
  const Matrix& variances() const { return params_.variances; }
  /// \brief Fitted mixture weights (length K).
  const std::vector<double>& weights() const { return params_.weights; }

 private:
  GmmConfig config_;
  GmmParams params_;
  double final_ll_ = 0.0;
  std::vector<double> ll_history_;
};

}  // namespace goggles
