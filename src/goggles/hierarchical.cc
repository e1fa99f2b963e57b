#include "goggles/hierarchical.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "goggles/em_core.h"
#include "goggles/mapping.h"
#include "tensor/gemm.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace goggles {
namespace {

/// One PanelStackProducts pass per row of `x` (num_functions blocks of
/// equal width) against `stack`: row i of the result holds the
/// num_functions x k products, function-major.
Matrix StackProducts(const Matrix& x, int64_t num_functions,
                     bool augment_squares, const std::vector<double>& stack,
                     int64_t k) {
  Matrix dots(x.rows(), num_functions * k);
  for (int64_t i = 0; i < x.rows(); ++i) {
    PanelStackProducts(x.RowPtr(i), num_functions, x.cols() / num_functions,
                       augment_squares, stack.data(), k, dots.RowPtr(i));
  }
  return dots;
}

/// Function f's posterior from its block of `dots` — em::Posterior's
/// epilogue with `offsets`, run in place on that block — written into
/// `out` (dots.rows() x k) with cluster column c moved to class column
/// (*mapping)[c], or left in place when `mapping` is null.
void PosteriorInto(Matrix* dots, int64_t f, int64_t k,
                   const std::vector<double>& offsets,
                   const std::vector<int>* mapping, Matrix* out) {
  for (int64_t i = 0; i < dots->rows(); ++i) {
    double* log_proba = dots->RowPtr(i) + f * k;
    em::LogSoftmaxRowInPlace(offsets.data(), k, log_proba);
    double* dst = out->RowPtr(i);
    for (int64_t c = 0; c < k; ++c) {
      dst[mapping != nullptr ? (*mapping)[static_cast<size_t>(c)] : c] =
          std::exp(log_proba[c]);
    }
  }
}

/// The ensemble's input: the (one-hot) concatenation of the mapped LPs.
Matrix EnsembleInput(const FittedHierarchicalModel& model,
                     const std::vector<Matrix>& lps) {
  return model.one_hot_lp ? OneHotConcatLabelPredictions(lps)
                          : ConcatLabelPredictions(lps);
}

/// The ensemble posterior of `concat`, not yet mapped to classes, on the
/// plan's kernel (bit for bit em::Posterior's, invariant 10).
Matrix EnsemblePosterior(const FittedHierarchicalModel& model,
                         const Matrix& concat) {
  const int64_t k = model.num_classes;
  Matrix dots = StackProducts(concat, 1, false, model.plan.ensemble_panel, k);
  Matrix gamma(concat.rows(), k);
  PosteriorInto(&dots, 0, k, model.plan.ensemble_offsets, nullptr, &gamma);
  return gamma;
}

/// The label tail shared by Fit and Infer: turns `model`'s mapped base
/// LPs of `n` rows into soft labels — their average without an ensemble
/// (the ablation; affinity-function quality weighting is lost), else
/// `gamma`, the EnsemblePosterior of their EnsembleInput, mapped to
/// classes — and their argmax hard labels. The LPs move into the result.
Result<LabelingResult> LabelMappedLps(const FittedHierarchicalModel& model,
                                      std::vector<Matrix> lps,
                                      const Matrix& gamma, int64_t n) {
  LabelingResult result;
  if (!model.use_ensemble) {
    result.soft_labels = Matrix(n, model.num_classes, 0.0);
    for (const Matrix& lp : lps) {
      GOGGLES_RETURN_NOT_OK(result.soft_labels.AddInPlace(lp));
    }
    result.soft_labels.Scale(1.0 / static_cast<double>(lps.size()));
    result.cluster_to_class.resize(static_cast<size_t>(model.num_classes));
    std::iota(result.cluster_to_class.begin(), result.cluster_to_class.end(),
              0);
  } else {
    result.soft_labels = ApplyMapping(gamma, model.ensemble_mapping);
    result.ensemble_log_likelihood = model.ensemble.final_log_likelihood();
    result.cluster_to_class = model.ensemble_mapping;
  }
  result.base_label_predictions = std::move(lps);

  result.hard_labels.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int best = 0;
    for (int k = 1; k < model.num_classes; ++k) {
      if (result.soft_labels(i, k) > result.soft_labels(i, best)) best = k;
    }
    result.hard_labels[static_cast<size_t>(i)] = best;
  }
  return result;
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
  // Every affinity is a float, so the base layer fits floats: narrow A
  // once, refusing (not rounding) an entry no float holds exactly.
  std::vector<float> narrowed(static_cast<size_t>(affinity.size()));
  for (int64_t e = 0; e < affinity.size(); ++e) {
    const double v = affinity.data()[e];
    narrowed[static_cast<size_t>(e)] = static_cast<float>(v);
    if (static_cast<double>(narrowed[static_cast<size_t>(e)]) != v) {
      return Status::InvalidArgument(StrFormat(
          "HierarchicalLabeler: affinity entry (%lld, %lld) = %.17g is not a "
          "float",
          static_cast<long long>(e / affinity.cols()),
          static_cast<long long>(e % affinity.cols()), v));
    }
  }
  // The copy is one block: slice f is function f.
  const int64_t alpha = affinity.cols() / n;
  bool handed_over = false;
  return FitBlocks(
      n, alpha,
      [&](AffinityBlock* block) {
        block->data = narrowed.data();
        block->stride = affinity.cols();
        block->functions.clear();
        if (!handed_over) {
          block->functions.resize(static_cast<size_t>(alpha));
          std::iota(block->functions.begin(), block->functions.end(), 0);
          handed_over = true;
        }
        return Status::OK();
      },
      dev_indices, dev_labels, num_classes, fitted_out);
}

Result<LabelingResult> HierarchicalLabeler::FitBlocks(
    int64_t num_instances, int64_t num_functions,
    const AffinityBlockStream& blocks, const std::vector<int>& dev_indices,
    const std::vector<int>& dev_labels, int num_classes,
    FittedHierarchicalModel* fitted_out) const {
  const int64_t n = num_instances, alpha = num_functions;
  if (n <= 0) return Status::InvalidArgument("HierarchicalLabeler: empty data");
  if (alpha < 1) {
    return Status::InvalidArgument(
        "HierarchicalLabeler: need at least one affinity function");
  }

  // ---- Base layer: one diagonal GMM per affinity function (§4.1). ----
  // Fitting the alpha base models is embarrassingly parallel (the paper
  // notes base models "can be parallelized using different slices of the
  // affinity matrix"), so they are fitted block by block as the slices
  // arrive. Each fit reads its N-column slice in place and leaves its
  // posterior in lps[f], which the development set then maps to classes
  // (§4.3: the mapping is applied to each LP_f and to the final L).
  std::vector<Matrix> lps(static_cast<size_t>(alpha));
  FittedHierarchicalModel model;
  model.num_classes = num_classes;
  model.pool_size = n;
  model.one_hot_lp = config_.one_hot_lp;
  model.use_ensemble = config_.use_ensemble;
  model.base_mappings.resize(static_cast<size_t>(alpha));
  // Fitted GMM parameters (2*alpha*K*N doubles) are only retained when a
  // caller asked for the fitted model.
  model.base_models.resize(fitted_out != nullptr ? static_cast<size_t>(alpha)
                                                 : 0);
  GmmConfig base_config = config_.base;
  base_config.num_components = num_classes;
  auto fit_base = [&](const em::Slice<float>& x, int64_t f,
                      std::vector<float>* workspace) -> Status {
    GmmConfig cfg = base_config;
    cfg.seed = base_config.seed + static_cast<uint64_t>(f) * 7919;
    DiagonalGmm gmm(cfg);
    Matrix& lp = lps[static_cast<size_t>(f)];
    GOGGLES_RETURN_NOT_OK(gmm.FitPredict(x, workspace, &lp));
    std::vector<int>& mapping = model.base_mappings[static_cast<size_t>(f)];
    GOGGLES_ASSIGN_OR_RETURN(
        mapping,
        ClusterToClassMapping(lp, dev_indices, dev_labels, num_classes));
    lp = ApplyMapping(lp, mapping);
    if (fitted_out != nullptr) {
      model.base_models[static_cast<size_t>(f)] = std::move(gmm);
    }
    return Status::OK();
  };
  // One workspace (the slice's transposed copy) per concurrent fit, kept
  // across blocks, so it is allocated once per fit slot, not once per
  // block. Each slot claims the block's functions one at a time.
  std::vector<std::vector<float>> workspaces(
      static_cast<size_t>(EffectiveNumThreads()));
  std::vector<char> arrived(static_cast<size_t>(alpha), 0);
  int64_t num_arrived = 0;
  AffinityBlock block;
  for (;;) {
    GOGGLES_RETURN_NOT_OK(blocks(&block));
    if (block.functions.empty()) break;
    const int64_t count = static_cast<int64_t>(block.functions.size());
    if (block.data == nullptr || block.stride < count * n) {
      return Status::InvalidArgument(
          "HierarchicalLabeler: a block needs N columns per function");
    }
    for (int64_t f : block.functions) {
      if (f < 0 || f >= alpha || arrived[static_cast<size_t>(f)]) {
        return Status::InvalidArgument(
            "HierarchicalLabeler: every function must arrive exactly once");
      }
      arrived[static_cast<size_t>(f)] = 1;
    }
    num_arrived += count;
    std::vector<Status> statuses(static_cast<size_t>(count), Status::OK());
    std::atomic<int64_t> next{0};
    ParallelFor(
        0, std::min(static_cast<int64_t>(workspaces.size()), count),
        [&](int64_t slot) {
          for (int64_t s = next++; s < count; s = next++) {
            statuses[static_cast<size_t>(s)] =
                fit_base({block.data + s * n, n, n, block.stride},
                         block.functions[static_cast<size_t>(s)],
                         &workspaces[static_cast<size_t>(slot)]);
          }
        });
    for (const Status& st : statuses) GOGGLES_RETURN_NOT_OK(st);
  }
  if (num_arrived != alpha) {
    return Status::InvalidArgument(
        "HierarchicalLabeler: the blocks must cover every function");
  }

  Matrix concat;
  if (model.use_ensemble) {
    // ---- Ensemble layer (§4.1): Bernoulli mixture over one-hot LP. ----
    concat = EnsembleInput(model, lps);
    BernoulliMixtureConfig ens_config = config_.ensemble;
    ens_config.num_components = num_classes;
    model.ensemble = BernoulliMixture(ens_config);
    GOGGLES_RETURN_NOT_OK(model.ensemble.Fit(concat));
  }
  model.BuildInferencePlan();
  Matrix gamma;
  if (model.use_ensemble) {
    // One ensemble pass: the mapping comes from the posterior the label
    // tail then maps.
    gamma = EnsemblePosterior(model, concat);
    GOGGLES_ASSIGN_OR_RETURN(
        model.ensemble_mapping,
        ClusterToClassMapping(gamma, dev_indices, dev_labels, num_classes));
  }
  GOGGLES_ASSIGN_OR_RETURN(LabelingResult result,
                           LabelMappedLps(model, std::move(lps), gamma, n));
  if (fitted_out != nullptr) *fitted_out = std::move(model);
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
  bytes += plan.base_panels.size() * sizeof(double);
  for (const std::vector<double>& offsets : plan.base_offsets) {
    bytes += offsets.size() * sizeof(double);
  }
  bytes += plan.ensemble_panel.size() * sizeof(double);
  bytes += plan.ensemble_offsets.size() * sizeof(double);
  return bytes;
}

void FittedHierarchicalModel::BuildInferencePlan() {
  plan = InferencePlan{};
  const int64_t alpha = num_functions(), k = num_classes;
  Matrix panel;
  plan.base_panels.resize(static_cast<size_t>(alpha * k * 2 * pool_size));
  plan.base_offsets.resize(static_cast<size_t>(alpha));
  for (int64_t f = 0; f < alpha; ++f) {
    base_models[static_cast<size_t>(f)].EStepPanel(
        &panel, &plan.base_offsets[static_cast<size_t>(f)]);
    PackPanelStack(panel.data(), alpha, k, panel.cols(), f,
                   plan.base_panels.data());
  }
  if (!use_ensemble) return;
  ensemble.EStepPanel(&panel, &plan.ensemble_offsets);
  plan.ensemble_panel.assign(panel.data(), panel.data() + panel.size());
}

Result<LabelingResult> FittedHierarchicalModel::Infer(
    const Matrix& affinity_rows) const {
  const int64_t alpha = num_functions();
  if (!fitted() || static_cast<int64_t>(plan.base_offsets.size()) != alpha) {
    return Status::Internal(
        "FittedHierarchicalModel::Infer: not fitted or plan not built");
  }
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

  // Base layer: every function's posterior from one kernel pass per row,
  // mapped with the stored development-set mappings (no refit).
  Matrix dots =
      StackProducts(affinity_rows, alpha, true, plan.base_panels, num_classes);
  std::vector<Matrix> lps(static_cast<size_t>(alpha));
  for (int64_t f = 0; f < alpha; ++f) {
    Matrix& lp = lps[static_cast<size_t>(f)];
    lp = Matrix(m, num_classes);
    PosteriorInto(&dots, f, num_classes,
                  plan.base_offsets[static_cast<size_t>(f)],
                  &base_mappings[static_cast<size_t>(f)], &lp);
  }
  Matrix gamma;
  if (use_ensemble) gamma = EnsemblePosterior(*this, EnsembleInput(*this, lps));
  return LabelMappedLps(*this, std::move(lps), gamma, m);
}

}  // namespace goggles
