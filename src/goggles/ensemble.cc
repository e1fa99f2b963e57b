#include "goggles/ensemble.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "goggles/em_core.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace goggles {
namespace {

struct BernoulliState {
  Matrix params;  // K x L
  std::vector<double> weights;
};

/// Per-iteration E-step operands: with q = 1 − p, the row log-likelihood
///   log P(b | c) = Σⱼ [bⱼ log pⱼ + (1 − bⱼ) log qⱼ]
///                = Σⱼ log qⱼ + Σⱼ bⱼ (log pⱼ − log qⱼ),
/// so panel row c = log p − log q makes the data-dependent part the dot
/// product b_i · panel_c (one N x K product per iteration — the one-hot
/// LP path rides the same product, its rows just happen to be 0/1), and
/// offsets[c] = log w_c + Σⱼ log qⱼ folds the rest. K x L work per
/// iteration, vs the old triple loop's N·K·L log-free but scalar pass.
void BuildBernoulliPanel(const Matrix& params,
                         const std::vector<double>& weights, Matrix* panel,
                         std::vector<double>* offsets) {
  const int64_t k = params.rows(), l = params.cols();
  if (panel->rows() != k || panel->cols() != l) *panel = Matrix(k, l);
  offsets->resize(static_cast<size_t>(k));
  for (int64_t c = 0; c < k; ++c) {
    const double* p = params.RowPtr(c);
    double* dst = panel->RowPtr(c);
    double log_q_sum = 0.0;
    for (int64_t j = 0; j < l; ++j) {
      const double log_p = std::log(p[j]);
      const double log_q = std::log(1.0 - p[j]);
      dst[j] = log_p - log_q;
      log_q_sum += log_q;
    }
    (*offsets)[static_cast<size_t>(c)] =
        std::log(std::max(weights[static_cast<size_t>(c)], 1e-300)) +
        log_q_sum;
  }
}

/// E-step: one N x K product + the shared in-place log-softmax epilogue.
/// Fills `log_resp` and returns the data log-likelihood.
double EStep(const em::FitOperand& b, const BernoulliState& state,
             em::Engine engine, Matrix* panel, std::vector<double>* offsets,
             Matrix* log_resp) {
  BuildBernoulliPanel(state.params, state.weights, panel, offsets);
  em::ProductNT(b, *panel, engine, log_resp);
  return em::LogSoftmaxRowsInPlace(*offsets, log_resp);
}

/// M-step (Eq. 11) with Laplace smoothing: sums = Bᵀ·R in one product.
/// `sums` is (L x K) — indexed (feature, component).
void MStep(const em::FitOperand& b, const Matrix& log_resp, double smoothing,
           em::Engine engine, Matrix* resp, Matrix* sums,
           std::vector<double>* nk, BernoulliState* state) {
  const int64_t n = b.raw.rows(), l = b.raw.cols();
  const int64_t k = state->params.rows();
  em::ExpInto(log_resp, resp);
  em::ColumnSums(*resp, nk);
  em::ProductTB(b, *resp, engine, sums);
  for (int64_t c = 0; c < k; ++c) {
    const double mass = (*nk)[static_cast<size_t>(c)];
    for (int64_t j = 0; j < l; ++j) {
      state->params(c, j) =
          ((*sums)(j, c) + smoothing) / (mass + 2.0 * smoothing);
    }
    state->weights[static_cast<size_t>(c)] =
        std::max(mass, 1e-12) / static_cast<double>(n);
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
  if (static_cast<int64_t>(weights.size()) != params.rows()) {
    return Status::InvalidArgument(
        "BernoulliMixture::SetParameters: weights length must equal K");
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
  double weight_sum = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "BernoulliMixture::SetParameters: weights must be finite and "
          "non-negative");
    }
    weight_sum += w;
  }
  if (!(weight_sum > 0.0)) {
    return Status::InvalidArgument(
        "BernoulliMixture::SetParameters: weights must not all be zero");
  }
  params_ = std::move(params);
  weights_ = std::move(weights);
  final_ll_ = final_log_likelihood;
  return Status::OK();
}

Status BernoulliMixture::Fit(const Matrix& b) {
  const int64_t n = b.rows();
  if (n < config_.num_components) {
    return Status::InvalidArgument(
        "BernoulliMixture::Fit: fewer samples than components");
  }
  const em::Engine engine =
      config_.use_gemm ? em::Engine::kGemm : em::Engine::kReference;
  // Both product orientations of the (constant) LP matrix are packed once
  // and shared read-only across restarts and iterations.
  em::FitOperand bop;
  bop.raw = b;
  em::PackFitOperand(engine, &bop);
  const Rng rng(config_.seed);
  const int num_restarts = std::max(1, config_.num_restarts);

  // Restarts are embarrassingly parallel (forked RNG streams); slots keep
  // results independent of execution order, and the nested-parallelism
  // collapse keeps the inner DGemm from oversubscribing when Fit already
  // runs inside a worker (hierarchical fit, serve-side refits).
  struct RestartFit {
    BernoulliState state;
    std::vector<double> history;
  };
  std::vector<RestartFit> restarts(static_cast<size_t>(num_restarts));
  ParallelFor(0, num_restarts, [&](int64_t restart) {
    Rng restart_rng = rng.Fork(static_cast<uint64_t>(restart));
    RestartFit& out = restarts[static_cast<size_t>(restart)];

    // Init: random soft responsibilities -> M-step. The draw order is the
    // historical one; the weights scratch is hoisted out of the row loop.
    Matrix log_resp(n, config_.num_components);
    std::vector<double> row_weights(
        static_cast<size_t>(config_.num_components));
    for (int64_t i = 0; i < n; ++i) {
      double total = 0.0;
      for (auto& w : row_weights) {
        w = restart_rng.Uniform(0.05, 1.0);
        total += w;
      }
      for (int64_t c = 0; c < config_.num_components; ++c) {
        log_resp(i, c) = std::log(row_weights[static_cast<size_t>(c)] / total);
      }
    }
    out.state.params = Matrix(config_.num_components, b.cols());
    out.state.weights.assign(static_cast<size_t>(config_.num_components), 0.0);

    Matrix resp, sums, panel;
    std::vector<double> offsets, nk;
    MStep(bop, log_resp, config_.smoothing, engine, &resp, &sums, &nk,
          &out.state);

    double prev_ll = -std::numeric_limits<double>::infinity();
    for (int iter = 0; iter < config_.max_iters; ++iter) {
      const double ll =
          EStep(bop, out.state, engine, &panel, &offsets, &log_resp);
      out.history.push_back(ll);
      MStep(bop, log_resp, config_.smoothing, engine, &resp, &sums, &nk,
            &out.state);
      if (iter > 0 && ll - prev_ll < config_.tol) break;
      prev_ll = ll;
    }
  });

  // Serial best-restart selection in restart order (first strict
  // improvement wins), matching the historical serial loop.
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
    params_ = std::move(winner.state.params);
    weights_ = std::move(winner.state.weights);
    ll_history_ = std::move(winner.history);
  }
  final_ll_ = best_ll;
  return Status::OK();
}

Result<Matrix> BernoulliMixture::PredictProba(const Matrix& b) const {
  if (params_.rows() == 0) {
    return Status::Internal("BernoulliMixture::PredictProba: not fitted");
  }
  if (b.cols() != params_.cols()) {
    return Status::InvalidArgument(
        "BernoulliMixture::PredictProba: dimension mismatch");
  }
  const em::Engine engine =
      config_.use_gemm ? em::Engine::kGemm : em::Engine::kReference;
  Matrix panel;
  std::vector<double> offsets;
  BuildBernoulliPanel(params_, weights_, &panel, &offsets);
  // One matrix end to end: product output -> log-softmax -> exp, all in
  // place (no throwaway E-step buffer + copy).
  Matrix proba;
  em::ProductNT(b, panel, engine, &proba);
  em::LogSoftmaxRowsInPlace(offsets, &proba);
  double* data = proba.data();
  for (int64_t i = 0; i < proba.size(); ++i) data[i] = std::exp(data[i]);
  return proba;
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
