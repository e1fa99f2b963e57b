#include "goggles/base_gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "goggles/em_core.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace goggles {

double LogSumExp(const double* v, int64_t n) {
  double max_v = -std::numeric_limits<double>::infinity();
  for (int64_t i = 0; i < n; ++i) max_v = std::max(max_v, v[i]);
  if (!std::isfinite(max_v)) return max_v;
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += std::exp(v[i] - max_v);
  return max_v + std::log(acc);
}

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

struct GmmState {
  Matrix means;      // K x D
  Matrix variances;  // K x D
  std::vector<double> weights;
};

/// N x 2D augmented design matrix [x² | x] of the D columns of `x` from
/// `col_begin` on: carrying the squares next to the values lets one
/// product produce both Gaussian dot-product terms of the E-step AND both
/// raw moments of the M-step. `xaug` is reshaped only when its shape
/// differs, so a reused workspace does not allocate.
void AugmentWithSquares(const Matrix& x, int64_t col_begin, int64_t d,
                        Matrix* xaug) {
  const int64_t n = x.rows();
  if (xaug->rows() != n || xaug->cols() != 2 * d) *xaug = Matrix(n, 2 * d);
  for (int64_t i = 0; i < n; ++i) {
    const double* row = x.RowPtr(i) + col_begin;
    double* out = xaug->RowPtr(i);
    for (int64_t j = 0; j < d; ++j) {
      out[j] = row[j] * row[j];
      out[d + j] = row[j];
    }
  }
}

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
void BuildGaussianPanel(const Matrix& means, const Matrix& variances,
                        const std::vector<double>& weights, Matrix* panel,
                        std::vector<double>* offsets) {
  const int64_t k = means.rows(), d = means.cols();
  if (panel->rows() != k || panel->cols() != 2 * d) *panel = Matrix(k, 2 * d);
  offsets->resize(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    const double* mean = means.RowPtr(c);
    const double* var = variances.RowPtr(c);
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
        std::log(std::max(weights[static_cast<size_t>(c)], 1e-300)) -
        0.5 * (static_cast<double>(d) * kLog2Pi + logdet_plus_mahal);
  }
}

/// E-step: one N x K product + the shared in-place log-softmax epilogue.
/// Fills `log_resp` and returns the data log-likelihood. `panel`/`offsets`
/// are per-restart scratch reused across iterations.
double EStep(const em::FitOperand& xaug, const GmmState& state,
             em::Engine engine, Matrix* panel, std::vector<double>* offsets,
             Matrix* log_resp) {
  BuildGaussianPanel(state.means, state.variances, state.weights, panel,
                     offsets);
  em::ProductNT(xaug, *panel, engine, log_resp);
  return em::LogSoftmaxRowsInPlace(*offsets, log_resp);
}

/// M-step (Eq. 10): moments = [x² | x]ᵀ·R yields Σᵢ rᵢ x²ⱼ and Σᵢ rᵢ xⱼ in
/// one product, so μ = S₁/Nₖ and σ² = S₂/Nₖ − μ² (the E[x²]−μ² form; the
/// variance floor doubles as the guard against its cancellation residue).
/// `moments` is (2D x K): rows [0, D) hold the squared moments, rows
/// [D, 2D) the plain ones.
void MStep(const em::FitOperand& xaug, const Matrix& log_resp,
           double var_floor, em::Engine engine, Matrix* resp, Matrix* moments,
           std::vector<double>* nk, GmmState* state) {
  const int64_t n = xaug.raw.rows(), d = xaug.raw.cols() / 2;
  const int64_t k = state->means.rows();
  em::ExpInto(log_resp, resp);
  em::ColumnSums(*resp, nk);
  em::ProductTB(xaug, *resp, engine, moments);
  for (int64_t c = 0; c < k; ++c) {
    const double mass = std::max((*nk)[static_cast<size_t>(c)], 1e-12);
    for (int64_t j = 0; j < d; ++j) {
      const double mean = (*moments)(d + j, c) / mass;
      state->means(c, j) = mean;
      state->variances(c, j) =
          std::max((*moments)(j, c) / mass - mean * mean, var_floor);
    }
    state->weights[static_cast<size_t>(c)] = mass / static_cast<double>(n);
  }
}

/// Random-point initialization: distinct data rows as means, global column
/// variance as the shared initial variance. Reads x from the plain half
/// of the augmented design.
GmmState InitState(const Matrix& xaug, int k, Rng* rng, double var_floor) {
  const int64_t n = xaug.rows(), d = xaug.cols() / 2;
  GmmState state;
  state.means = Matrix(k, d);
  state.variances = Matrix(k, d);
  state.weights.assign(static_cast<size_t>(k), 1.0 / k);

  std::vector<int> picks = rng->SampleWithoutReplacement(
      static_cast<int>(n), k);
  for (int c = 0; c < k; ++c) {
    const double* row = xaug.RowPtr(picks[static_cast<size_t>(c)]) + d;
    for (int64_t j = 0; j < d; ++j) state.means(c, j) = row[j];
  }

  std::vector<double> col_mean = ColumnMeans(xaug);
  for (int64_t j = 0; j < d; ++j) {
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double diff =
          xaug(i, d + j) - col_mean[static_cast<size_t>(d + j)];
      acc += diff * diff;
    }
    const double var = std::max(acc / static_cast<double>(n), var_floor);
    for (int c = 0; c < k; ++c) state.variances(c, j) = var;
  }
  return state;
}

/// Posterior epilogue shared by FitPredict and PredictProba: `proba`
/// holds the N x K product xaug · panelᵀ and is log-softmaxed with the
/// offsets folded in, then exponentiated, in place.
void PosteriorFromProduct(const std::vector<double>& offsets,
                          Matrix* proba) {
  em::LogSoftmaxRowsInPlace(offsets, proba);
  double* data = proba->data();
  for (int64_t i = 0; i < proba->size(); ++i) data[i] = std::exp(data[i]);
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
  if (static_cast<int64_t>(weights.size()) != means.rows()) {
    return Status::InvalidArgument(
        "DiagonalGmm::SetParameters: weights length must equal K");
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
  double weight_sum = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "DiagonalGmm::SetParameters: weights must be finite and "
          "non-negative");
    }
    weight_sum += w;
  }
  if (!(weight_sum > 0.0)) {
    return Status::InvalidArgument(
        "DiagonalGmm::SetParameters: weights must not all be zero");
  }
  means_ = std::move(means);
  variances_ = std::move(variances);
  weights_ = std::move(weights);
  return Status::OK();
}

Status DiagonalGmm::Fit(const Matrix& x) {
  em::FitOperand workspace;
  return FitPredict(x, 0, x.cols(), &workspace, nullptr);
}

Status DiagonalGmm::FitPredict(const Matrix& x, int64_t col_begin,
                               int64_t dims, em::FitOperand* workspace,
                               Matrix* posterior) {
  if (x.rows() < config_.num_components) {
    return Status::InvalidArgument(
        "DiagonalGmm::Fit: fewer samples than components");
  }
  if (config_.num_components < 1) {
    return Status::InvalidArgument("DiagonalGmm::Fit: need >= 1 component");
  }
  if (col_begin < 0 || dims < 1 || col_begin + dims > x.cols()) {
    return Status::InvalidArgument(
        "DiagonalGmm::Fit: column slice out of range");
  }

  const em::Engine engine =
      config_.use_gemm ? em::Engine::kGemm : em::Engine::kReference;
  // Both product orientations of the design matrix are packed once and
  // shared read-only across restarts, iterations and the posterior.
  AugmentWithSquares(x, col_begin, dims, &workspace->raw);
  em::PackFitOperand(engine, workspace);
  const em::FitOperand& xop = *workspace;
  const Rng rng(config_.seed);
  const int num_restarts = std::max(1, config_.num_restarts);

  // Restarts are embarrassingly parallel (forked RNG streams) and each
  // slot is independent, so results do not depend on execution order.
  // Per-restart scratch is allocated once and reused across iterations;
  // under an outer ParallelFor (the hierarchical base-model loop) or a
  // ScopedSerialKernels marker this collapses to a serial loop and the
  // inner DGemm keeps its bit-identical-at-any-thread-count contract.
  struct RestartFit {
    GmmState state;
    std::vector<double> history;
  };
  std::vector<RestartFit> restarts(static_cast<size_t>(num_restarts));
  ParallelFor(0, num_restarts, [&](int64_t restart) {
    Rng restart_rng = rng.Fork(static_cast<uint64_t>(restart));
    RestartFit& out = restarts[static_cast<size_t>(restart)];
    out.state = InitState(xop.raw, config_.num_components, &restart_rng,
                          config_.var_floor);

    Matrix log_resp, resp, panel, moments;
    std::vector<double> offsets, nk;
    double prev_ll = -std::numeric_limits<double>::infinity();
    for (int iter = 0; iter < config_.max_iters; ++iter) {
      const double ll =
          EStep(xop, out.state, engine, &panel, &offsets, &log_resp);
      out.history.push_back(ll);
      MStep(xop, log_resp, config_.var_floor, engine, &resp, &moments, &nk,
            &out.state);
      if (iter > 0 && ll - prev_ll < config_.tol) break;
      prev_ll = ll;
    }
  });

  // Best-restart selection stays serial and in restart order (first
  // strict improvement wins), matching the historical serial loop.
  double best_ll = -std::numeric_limits<double>::infinity();
  int64_t best = -1;
  for (int64_t r = 0; r < num_restarts; ++r) {
    const std::vector<double>& history =
        restarts[static_cast<size_t>(r)].history;
    const double final_ll = history.empty() ? 0.0 : history.back();
    if (final_ll > best_ll) {
      best_ll = final_ll;
      best = r;
    }
  }
  if (best >= 0) {
    RestartFit& winner = restarts[static_cast<size_t>(best)];
    means_ = std::move(winner.state.means);
    variances_ = std::move(winner.state.variances);
    weights_ = std::move(winner.state.weights);
    ll_history_ = std::move(winner.history);
  }
  final_ll_ = best_ll;
  if (posterior == nullptr) return Status::OK();

  // PredictProba of the same slice, minus its re-augmentation: the fitted
  // parameters' E-step product against the packed design, which is
  // bit-identical to PredictProba's unpacked DGemm (gemm.h).
  if (means_.rows() == 0) {
    return Status::Internal("DiagonalGmm::FitPredict: model not fitted");
  }
  Matrix panel;
  std::vector<double> offsets;
  BuildGaussianPanel(means_, variances_, weights_, &panel, &offsets);
  em::ProductNT(xop, panel, engine, posterior);
  PosteriorFromProduct(offsets, posterior);
  return Status::OK();
}

Result<Matrix> DiagonalGmm::PredictProba(const Matrix& x) const {
  if (means_.rows() == 0) {
    return Status::Internal("DiagonalGmm::PredictProba: model not fitted");
  }
  if (x.cols() != means_.cols()) {
    return Status::InvalidArgument(
        "DiagonalGmm::PredictProba: dimension mismatch");
  }
  const em::Engine engine =
      config_.use_gemm ? em::Engine::kGemm : em::Engine::kReference;
  Matrix xaug;
  AugmentWithSquares(x, 0, x.cols(), &xaug);
  Matrix panel;
  std::vector<double> offsets;
  BuildGaussianPanel(means_, variances_, weights_, &panel, &offsets);
  // One matrix end to end: the product output is log-softmaxed and then
  // exponentiated in place (no throwaway E-step buffer + copy).
  Matrix proba;
  em::ProductNT(xaug, panel, engine, &proba);
  PosteriorFromProduct(offsets, &proba);
  return proba;
}

}  // namespace goggles
