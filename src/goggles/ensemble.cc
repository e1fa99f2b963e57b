#include "goggles/ensemble.h"

#include <algorithm>
#include <cmath>

#include "goggles/em_core.h"
#include "util/rng.h"

namespace goggles {
namespace {

/// Per-iteration E-step operands: with q = 1 − p, the row log-likelihood
///   log P(b | c) = Σⱼ [bⱼ log pⱼ + (1 − bⱼ) log qⱼ]
///                = Σⱼ log qⱼ + Σⱼ bⱼ (log pⱼ − log qⱼ),
/// so panel row c = log p − log q makes the data-dependent part the dot
/// product b_i · panel_c (one N x K product per iteration — the one-hot
/// LP path rides the same product, its rows just happen to be 0/1), and
/// offsets[c] = log w_c + Σⱼ log qⱼ folds the rest. K x L work per
/// iteration, vs the old triple loop's N·K·L log-free but scalar pass.
void BuildBernoulliPanel(const BernoulliMixtureParams& params, Matrix* panel,
                         std::vector<double>* offsets) {
  const int64_t k = params.probs.rows(), l = params.probs.cols();
  if (panel->rows() != k || panel->cols() != l) *panel = Matrix(k, l);
  offsets->resize(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    const double* p = params.probs.RowPtr(c);
    double* dst = panel->RowPtr(c);
    double log_q_sum = 0.0;
    for (int64_t j = 0; j < l; ++j) {
      const double log_p = std::log(p[j]);
      const double log_q = std::log(1.0 - p[j]);
      dst[j] = log_p - log_q;
      log_q_sum += log_q;
    }
    (*offsets)[static_cast<size_t>(c)] =
        std::log(std::max(params.weights[static_cast<size_t>(c)], 1e-300)) +
        log_q_sum;
  }
}

}  // namespace

Status BernoulliMixture::SetParameters(Matrix params,
                                       std::vector<double> weights,
                                       double final_log_likelihood) {
  if (params.rows() < 1 || params.cols() < 1) {
    return Status::InvalidArgument(
        "BernoulliMixture::SetParameters: empty parameter matrix");
  }
  for (int64_t c = 0; c < params.rows(); ++c) {
    for (int64_t j = 0; j < params.cols(); ++j) {
      if (!(params(c, j) > 0.0) || !(params(c, j) < 1.0)) {
        return Status::InvalidArgument(
            "BernoulliMixture::SetParameters: parameters must lie strictly "
            "inside (0, 1)");
      }
    }
  }
  GOGGLES_RETURN_NOT_OK(em::ValidateWeights(
      weights, params.rows(), "BernoulliMixture::SetParameters"));
  params_ = {std::move(params), std::move(weights)};
  final_ll_ = final_log_likelihood;
  return Status::OK();
}

Status BernoulliMixture::Fit(const Matrix& b) {
  const int64_t n = b.rows();
  if (config_.num_components < 1) {
    return Status::InvalidArgument(
        "BernoulliMixture::Fit: need >= 1 component");
  }
  if (n < config_.num_components) {
    return Status::InvalidArgument(
        "BernoulliMixture::Fit: fewer samples than components");
  }
  std::vector<double> transposed;
  const em::Design<double> design =
      em::MakeDesign(em::WholeMatrix(b), /*squares=*/false, &transposed);
  const int64_t k = config_.num_components, l = b.cols();
  const double smoothing = config_.smoothing;

  // M-step (Eq. 11) with Laplace smoothing: `sums` = Bᵀ·R is (L x K),
  // indexed (feature, component).
  auto update = [n, l, smoothing](const std::vector<double>& nk,
                                  const Matrix& sums, int64_t first,
                                  BernoulliMixtureParams* state) {
    for (int64_t c = 0; c < state->probs.rows(); ++c) {
      const double mass = nk[static_cast<size_t>(first + c)];
      for (int64_t j = 0; j < l; ++j) {
        state->probs(c, j) =
            (sums(j, first + c) + smoothing) / (mass + 2.0 * smoothing);
      }
      state->weights[static_cast<size_t>(c)] =
          std::max(mass, 1e-12) / static_cast<double>(n);
    }
  };
  // Init: random soft responsibilities, then an M-step. The draw order is
  // part of the fit's bit-identity contract.
  auto init = [&](Rng* rng, em::Scratch* s) {
    s->log_resp = Matrix(n, k);
    std::vector<double> row_weights(static_cast<size_t>(k));
    for (int64_t i = 0; i < n; ++i) {
      double total = 0.0;
      for (auto& w : row_weights) {
        w = rng->Uniform(0.05, 1.0);
        total += w;
      }
      for (int64_t c = 0; c < k; ++c) {
        s->log_resp(i, c) =
            std::log(row_weights[static_cast<size_t>(c)] / total);
      }
    }
    BernoulliMixtureParams state{
        Matrix(k, l), std::vector<double>(static_cast<size_t>(k), 0.0)};
    em::MStep(design, update, s, &state);
    return state;
  };
  final_ll_ = em::FitBestRestart(design, config_, init, BuildBernoulliPanel,
                                 update, &params_, &ll_history_);
  return Status::OK();
}

void BernoulliMixture::EStepPanel(Matrix* panel,
                                  std::vector<double>* offsets) const {
  BuildBernoulliPanel(params_, panel, offsets);
}

Result<Matrix> BernoulliMixture::PredictProba(const Matrix& b) const {
  if (params_.probs.rows() == 0) {
    return Status::Internal("BernoulliMixture::PredictProba: not fitted");
  }
  if (b.cols() != params_.probs.cols()) {
    return Status::InvalidArgument(
        "BernoulliMixture::PredictProba: dimension mismatch");
  }
  std::vector<double> transposed;
  return em::Posterior(
      em::MakeDesign(em::WholeMatrix(b), /*squares=*/false, &transposed),
      BuildBernoulliPanel, params_);
}

Matrix OneHotConcatLabelPredictions(const std::vector<Matrix>& lps) {
  if (lps.empty()) return Matrix();
  const int64_t n = lps[0].rows();
  const int64_t k = lps[0].cols();
  Matrix out(n, static_cast<int64_t>(lps.size()) * k, 0.0);
  for (size_t f = 0; f < lps.size(); ++f) {
    const Matrix& lp = lps[f];
    for (int64_t i = 0; i < n; ++i) {
      int64_t best = 0;
      for (int64_t c = 1; c < k; ++c) {
        if (lp(i, c) > lp(i, best)) best = c;
      }
      out(i, static_cast<int64_t>(f) * k + best) = 1.0;
    }
  }
  return out;
}

Matrix ConcatLabelPredictions(const std::vector<Matrix>& lps) {
  if (lps.empty()) return Matrix();
  const int64_t n = lps[0].rows();
  const int64_t k = lps[0].cols();
  Matrix out(n, static_cast<int64_t>(lps.size()) * k, 0.0);
  for (size_t f = 0; f < lps.size(); ++f) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < k; ++c) {
        out(i, static_cast<int64_t>(f) * k + c) = lps[f](i, c);
      }
    }
  }
  return out;
}

}  // namespace goggles
