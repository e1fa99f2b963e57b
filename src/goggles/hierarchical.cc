#include "goggles/hierarchical.h"

#include <algorithm>

#include "goggles/mapping.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace goggles {
namespace {

/// Ablation path shared by Fit and Infer: average the mapped base LPs
/// (affinity-function quality weighting is lost).
Result<Matrix> AverageLps(const std::vector<Matrix>& lps, int64_t n,
                          int num_classes) {
  Matrix avg(n, num_classes, 0.0);
  for (const Matrix& lp : lps) {
    GOGGLES_RETURN_NOT_OK(avg.AddInPlace(lp));
  }
  avg.Scale(1.0 / static_cast<double>(lps.size()));
  return avg;
}

std::vector<int> IdentityMapping(int num_classes) {
  std::vector<int> identity(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) identity[static_cast<size_t>(k)] = k;
  return identity;
}

void FillHardLabels(LabelingResult* result, int num_classes) {
  const int64_t n = result->soft_labels.rows();
  result->hard_labels.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int best = 0;
    for (int k = 1; k < num_classes; ++k) {
      if (result->soft_labels(i, k) > result->soft_labels(i, best)) best = k;
    }
    result->hard_labels[static_cast<size_t>(i)] = best;
  }
}

}  // namespace

Result<LabelingResult> HierarchicalLabeler::Fit(
    const Matrix& affinity, const std::vector<int>& dev_indices,
    const std::vector<int>& dev_labels, int num_classes,
    FittedHierarchicalModel* fitted_out) const {
  const int64_t n = affinity.rows();
  if (n == 0) return Status::InvalidArgument("HierarchicalLabeler: empty data");
  if (affinity.cols() % n != 0) {
    return Status::InvalidArgument(
        "HierarchicalLabeler: affinity width must be a multiple of N (one "
        "N-column block per affinity function)");
  }
  const int64_t alpha = affinity.cols() / n;

  // ---- Base layer: one diagonal GMM per affinity function (§4.1). ----
  // Fitting the alpha base models is embarrassingly parallel (the paper
  // notes base models "can be parallelized using different slices of the
  // affinity matrix"). Each chunk of functions owns one workspace, so the
  // augmented design and its packs are allocated once per chunk and
  // reused by every function in it; each fit reads its N-column slice in
  // place and leaves its posterior in lps[f].
  std::vector<Matrix> lps(static_cast<size_t>(alpha));
  // Fitted GMM parameters (2*alpha*K*N doubles) are only retained when a
  // caller asked for the fitted model.
  std::vector<DiagonalGmm> gmms(
      fitted_out != nullptr ? static_cast<size_t>(alpha) : 0);
  std::vector<Status> statuses(static_cast<size_t>(alpha), Status::OK());
  GmmConfig base_config = config_.base;
  base_config.num_components = num_classes;
  ParallelForChunked(0, alpha, [&](int64_t f_begin, int64_t f_end) {
    em::FitOperand workspace;
    for (int64_t f = f_begin; f < f_end; ++f) {
      GmmConfig cfg = base_config;
      cfg.seed = base_config.seed + static_cast<uint64_t>(f) * 7919;
      DiagonalGmm gmm(cfg);
      statuses[static_cast<size_t>(f)] = gmm.FitPredict(
          affinity, f * n, n, &workspace, &lps[static_cast<size_t>(f)]);
      if (fitted_out != nullptr && statuses[static_cast<size_t>(f)].ok()) {
        gmms[static_cast<size_t>(f)] = std::move(gmm);
      }
    }
  });
  for (const Status& st : statuses) GOGGLES_RETURN_NOT_OK(st);

  // Map every base model's clusters to classes using the development set
  // (§4.3: the mapping is applied to each LP_f and to the final L). Like
  // the base fits above, the per-function assignment solves and LP
  // permutations are independent — run them under the same ParallelFor /
  // per-slot Status pattern.
  std::vector<std::vector<int>> base_mappings(static_cast<size_t>(alpha));
  std::fill(statuses.begin(), statuses.end(), Status::OK());
  ParallelFor(0, alpha, [&](int64_t f) {
    Result<std::vector<int>> mapping = ClusterToClassMapping(
        lps[static_cast<size_t>(f)], dev_indices, dev_labels, num_classes);
    if (!mapping.ok()) {
      statuses[static_cast<size_t>(f)] = mapping.status();
      return;
    }
    lps[static_cast<size_t>(f)] =
        ApplyMapping(lps[static_cast<size_t>(f)], *mapping);
    base_mappings[static_cast<size_t>(f)] = std::move(*mapping);
  });
  for (const Status& st : statuses) GOGGLES_RETURN_NOT_OK(st);

  LabelingResult result;
  result.base_label_predictions = lps;

  BernoulliMixture ensemble;
  std::vector<int> ensemble_mapping;
  if (!config_.use_ensemble) {
    GOGGLES_ASSIGN_OR_RETURN(result.soft_labels,
                             AverageLps(lps, n, num_classes));
    result.cluster_to_class = IdentityMapping(num_classes);
  } else {
    // ---- Ensemble layer (§4.1): Bernoulli mixture over one-hot LP. ----
    Matrix concat = config_.one_hot_lp ? OneHotConcatLabelPredictions(lps)
                                       : ConcatLabelPredictions(lps);
    BernoulliMixtureConfig ens_config = config_.ensemble;
    ens_config.num_components = num_classes;
    ensemble = BernoulliMixture(ens_config);
    GOGGLES_RETURN_NOT_OK(ensemble.Fit(concat));
    GOGGLES_ASSIGN_OR_RETURN(Matrix gamma, ensemble.PredictProba(concat));
    result.ensemble_log_likelihood = ensemble.final_log_likelihood();

    GOGGLES_ASSIGN_OR_RETURN(
        std::vector<int> mapping,
        ClusterToClassMapping(gamma, dev_indices, dev_labels, num_classes));
    result.soft_labels = ApplyMapping(gamma, mapping);
    result.cluster_to_class = mapping;
    ensemble_mapping = result.cluster_to_class;
  }

  FillHardLabels(&result, num_classes);

  if (fitted_out != nullptr) {
    fitted_out->num_classes = num_classes;
    fitted_out->pool_size = n;
    fitted_out->one_hot_lp = config_.one_hot_lp;
    fitted_out->use_ensemble = config_.use_ensemble;
    fitted_out->base_models = std::move(gmms);
    fitted_out->base_mappings = std::move(base_mappings);
    fitted_out->ensemble = std::move(ensemble);
    fitted_out->ensemble_mapping = std::move(ensemble_mapping);
  }
  return result;
}

uint64_t FittedHierarchicalModel::ApproxMemoryBytes() const {
  uint64_t bytes = sizeof(*this);
  for (const DiagonalGmm& gmm : base_models) {
    bytes += static_cast<uint64_t>(gmm.means().size()) * sizeof(double);
    bytes += static_cast<uint64_t>(gmm.variances().size()) * sizeof(double);
    bytes += gmm.weights().size() * sizeof(double);
  }
  for (const std::vector<int>& mapping : base_mappings) {
    bytes += mapping.size() * sizeof(int);
  }
  bytes += static_cast<uint64_t>(ensemble.bernoulli_params().size()) *
           sizeof(double);
  bytes += ensemble.weights().size() * sizeof(double);
  bytes += ensemble_mapping.size() * sizeof(int);
  return bytes;
}

Result<LabelingResult> FittedHierarchicalModel::Infer(
    const Matrix& affinity_rows) const {
  if (!fitted()) {
    return Status::Internal("FittedHierarchicalModel::Infer: not fitted");
  }
  const int64_t alpha = num_functions();
  const int64_t m = affinity_rows.rows();
  if (m == 0) {
    return Status::InvalidArgument(
        "FittedHierarchicalModel::Infer: no instances");
  }
  if (pool_size <= 0 || affinity_rows.cols() != alpha * pool_size) {
    return Status::InvalidArgument(
        "FittedHierarchicalModel::Infer: rows must have num_functions * "
        "pool_size affinity columns");
  }

  // Base-layer posterior evaluation per function (no refit), mapped with
  // the stored development-set mappings.
  std::vector<Matrix> lps(static_cast<size_t>(alpha));
  std::vector<Status> statuses(static_cast<size_t>(alpha), Status::OK());
  ParallelFor(0, alpha, [&](int64_t f) {
    Matrix block = affinity_rows.Block(0, f * pool_size, m, pool_size);
    Result<Matrix> proba =
        base_models[static_cast<size_t>(f)].PredictProba(block);
    if (!proba.ok()) {
      statuses[static_cast<size_t>(f)] = proba.status();
      return;
    }
    lps[static_cast<size_t>(f)] =
        ApplyMapping(*proba, base_mappings[static_cast<size_t>(f)]);
  });
  for (const Status& st : statuses) GOGGLES_RETURN_NOT_OK(st);

  LabelingResult result;
  result.base_label_predictions = lps;

  if (!use_ensemble) {
    GOGGLES_ASSIGN_OR_RETURN(result.soft_labels,
                             AverageLps(lps, m, num_classes));
    result.cluster_to_class = IdentityMapping(num_classes);
  } else {
    Matrix concat = one_hot_lp ? OneHotConcatLabelPredictions(lps)
                               : ConcatLabelPredictions(lps);
    GOGGLES_ASSIGN_OR_RETURN(Matrix gamma, ensemble.PredictProba(concat));
    result.ensemble_log_likelihood = ensemble.final_log_likelihood();
    result.soft_labels = ApplyMapping(gamma, ensemble_mapping);
    result.cluster_to_class = ensemble_mapping;
  }

  FillHardLabels(&result, num_classes);
  return result;
}

}  // namespace goggles
