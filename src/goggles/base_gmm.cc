#include "goggles/base_gmm.h"

#include <algorithm>
#include <cmath>

#include "goggles/em_core.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace goggles {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

/// Per-iteration E-step operands (Eq. 6 with diagonal covariance,
/// expanded): with the log density written as
///   log N(x | μ, diag σ²) = −½(D log 2π + Σⱼ log σ²ⱼ + Σⱼ x²ⱼ/σ²ⱼ
///                             − 2 Σⱼ xⱼ·μⱼ/σ²ⱼ + Σⱼ μ²ⱼ/σ²ⱼ),
/// panel row c = [−½/σ²ⱼ | μⱼ/σ²ⱼ] makes the data-dependent part the dot
/// product xaug_i · panel_c, and offsets[c] folds the rest together with
/// the mixture log-weight:
///   log w_c + log N(x_i | μ_c, σ²_c) = xaug_i · panel_c + offsets[c].
/// Everything here is K x D work per iteration — the old row loop
/// re-evaluated log σ²ⱼ once per (row, component, dimension).
void BuildGaussianPanel(const GmmParams& params, Matrix* panel,
                        std::vector<double>* offsets) {
  const int64_t k = params.means.rows(), d = params.means.cols();
  if (panel->rows() != k || panel->cols() != 2 * d) *panel = Matrix(k, 2 * d);
  offsets->resize(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    const double* mean = params.means.RowPtr(c);
    const double* var = params.variances.RowPtr(c);
    double* p = panel->RowPtr(c);
    double logdet_plus_mahal = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double inv = 1.0 / var[j];
      const double mu_iv = mean[j] * inv;
      p[j] = -0.5 * inv;
      p[d + j] = mu_iv;
      logdet_plus_mahal += std::log(var[j]) + mean[j] * mu_iv;
    }
    (*offsets)[static_cast<size_t>(c)] =
        std::log(std::max(params.weights[static_cast<size_t>(c)], 1e-300)) -
        0.5 * (static_cast<double>(d) * kLog2Pi + logdet_plus_mahal);
  }
}

/// The shared initial variance: the per-column variance of the slice,
/// floored at `var_floor`. It does not depend on the restart, so a fit
/// computes it once. Row-major passes keep one accumulator per column,
/// each summing over ascending rows.
template <typename T>
std::vector<double> InitialVariances(const em::Slice<T>& x,
                                     double var_floor) {
  const int64_t n = x.rows, d = x.cols;
  std::vector<double> mean(static_cast<size_t>(d), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const T* row = x.data + i * x.stride;
    for (int64_t j = 0; j < d; ++j) mean[static_cast<size_t>(j)] += row[j];
  }
  for (double& m : mean) m /= static_cast<double>(n);
  std::vector<double> var(static_cast<size_t>(d), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const T* row = x.data + i * x.stride;
    for (int64_t j = 0; j < d; ++j) {
      const double diff = row[j] - mean[static_cast<size_t>(j)];
      var[static_cast<size_t>(j)] += diff * diff;
    }
  }
  for (double& v : var) v = std::max(v / static_cast<double>(n), var_floor);
  return var;
}

/// Random-point initialization: distinct slice rows as means, and
/// `variances` (InitialVariances) as every component's variance.
template <typename T>
GmmParams InitState(const em::Slice<T>& x, int k,
                    const std::vector<double>& variances, Rng* rng) {
  const int64_t n = x.rows, d = x.cols;
  GmmParams state;
  state.means = Matrix(k, d);
  state.variances = Matrix(k, d);
  state.weights.assign(static_cast<size_t>(k), 1.0 / k);

  std::vector<int> picks = rng->SampleWithoutReplacement(
      static_cast<int>(n), k);
  for (int c = 0; c < k; ++c) {
    const T* row = x.data + picks[static_cast<size_t>(c)] * x.stride;
    std::copy(row, row + d, state.means.RowPtr(c));
    std::copy(variances.begin(), variances.end(), state.variances.RowPtr(c));
  }
  return state;
}

}  // namespace

Status DiagonalGmm::SetParameters(Matrix means, Matrix variances,
                                  std::vector<double> weights) {
  if (means.rows() < 1 || means.cols() < 1) {
    return Status::InvalidArgument("DiagonalGmm::SetParameters: empty means");
  }
  if (variances.rows() != means.rows() || variances.cols() != means.cols()) {
    return Status::InvalidArgument(
        "DiagonalGmm::SetParameters: means/variances shape mismatch");
  }
  for (int64_t c = 0; c < variances.rows(); ++c) {
    for (int64_t j = 0; j < variances.cols(); ++j) {
      if (!(variances(c, j) > 0.0) || !std::isfinite(variances(c, j)) ||
          !std::isfinite(means(c, j))) {
        return Status::InvalidArgument(
            "DiagonalGmm::SetParameters: means must be finite and variances "
            "finite and positive");
      }
    }
  }
  GOGGLES_RETURN_NOT_OK(em::ValidateWeights(weights, means.rows(),
                                            "DiagonalGmm::SetParameters"));
  params_ = {std::move(means), std::move(variances), std::move(weights)};
  return Status::OK();
}

Status DiagonalGmm::Fit(const Matrix& x) {
  std::vector<double> workspace;
  return FitPredict(em::WholeMatrix(x), &workspace, nullptr);
}

template <typename T>
Status DiagonalGmm::FitPredict(const em::Slice<T>& x,
                               std::vector<T>* workspace, Matrix* posterior) {
  if (x.rows < config_.num_components) {
    return Status::InvalidArgument(
        "DiagonalGmm::Fit: fewer samples than components");
  }
  if (config_.num_components < 1) {
    return Status::InvalidArgument("DiagonalGmm::Fit: need >= 1 component");
  }
  if (x.cols < 1 || x.stride < x.cols) {
    return Status::InvalidArgument(
        "DiagonalGmm::Fit: column slice out of range");
  }

  const em::Design<T> design = em::MakeDesign(x, /*squares=*/true, workspace);
  const int64_t n = x.rows, dims = x.cols;
  const double var_floor = config_.var_floor;

  // M-step (Eq. 10): moments = [x² | x]ᵀ·R yields Σᵢ rᵢ x²ⱼ and Σᵢ rᵢ xⱼ
  // in one product, so μ = S₁/Nₖ and σ² = S₂/Nₖ − μ² (the E[x²]−μ² form;
  // the variance floor doubles as the guard against its cancellation
  // residue). `moments` is (2D x K): rows [0, D) hold the squared
  // moments, rows [D, 2D) the plain ones.
  auto update = [n, dims, var_floor](const std::vector<double>& nk,
                                     const Matrix& moments, int64_t first,
                                     GmmParams* state) {
    for (int64_t c = 0; c < state->means.rows(); ++c) {
      const double mass = std::max(nk[static_cast<size_t>(first + c)], 1e-12);
      for (int64_t j = 0; j < dims; ++j) {
        const double mean = moments(dims + j, first + c) / mass;
        state->means(c, j) = mean;
        state->variances(c, j) =
            std::max(moments(j, first + c) / mass - mean * mean, var_floor);
      }
      state->weights[static_cast<size_t>(c)] = mass / static_cast<double>(n);
    }
  };
  const std::vector<double> init_variances = InitialVariances(x, var_floor);
  // A NaN or infinite entry makes its column's variance NaN (or +inf), so
  // this O(D) check of a vector the fit needs anyway finds it.
  for (size_t j = 0; j < init_variances.size(); ++j) {
    if (!std::isfinite(init_variances[j])) {
      return Status::InvalidArgument(StrFormat(
          "DiagonalGmm::Fit: column %zu has a non-finite entry or variance",
          j));
    }
  }
  auto init = [&](Rng* rng, em::Scratch*) {
    return InitState(x, config_.num_components, init_variances, rng);
  };
  final_ll_ = em::FitBestRestart(design, config_, init, BuildGaussianPanel,
                                 update, &params_, &ll_history_);
  if (posterior == nullptr) return Status::OK();

  // PredictProba of the same slice, on the fit's own design.
  if (params_.means.rows() == 0) {
    return Status::Internal("DiagonalGmm::FitPredict: model not fitted");
  }
  *posterior = em::Posterior(design, BuildGaussianPanel, params_);
  return Status::OK();
}

template Status DiagonalGmm::FitPredict(const em::Slice<float>&,
                                        std::vector<float>*, Matrix*);
template Status DiagonalGmm::FitPredict(const em::Slice<double>&,
                                        std::vector<double>*, Matrix*);

void DiagonalGmm::EStepPanel(Matrix* panel,
                             std::vector<double>* offsets) const {
  BuildGaussianPanel(params_, panel, offsets);
}

Result<Matrix> DiagonalGmm::PredictProba(const Matrix& x) const {
  if (params_.means.rows() == 0) {
    return Status::Internal("DiagonalGmm::PredictProba: model not fitted");
  }
  if (x.cols() != params_.means.cols()) {
    return Status::InvalidArgument(
        "DiagonalGmm::PredictProba: dimension mismatch");
  }
  std::vector<double> transposed;
  return em::Posterior(
      em::MakeDesign(em::WholeMatrix(x), /*squares=*/true, &transposed),
      BuildGaussianPanel, params_);
}

}  // namespace goggles
