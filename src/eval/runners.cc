#include "eval/runners.h"

#include <memory>

#include "baselines/attribute_lfs.h"
#include "baselines/end_model.h"
#include "baselines/fsl.h"
#include "baselines/kmeans.h"
#include "baselines/label_model.h"
#include "baselines/snuba.h"
#include "baselines/spectral.h"
#include "eval/metrics.h"
#include "features/hog.h"
#include "goggles/base_gmm.h"
#include "linalg/pca.h"

namespace goggles::eval {
namespace {

std::vector<int> HardLabelsFromProba(const Matrix& proba) {
  std::vector<int> hard(static_cast<size_t>(proba.rows()), 0);
  for (int64_t i = 0; i < proba.rows(); ++i) {
    int best = 0;
    for (int64_t c = 1; c < proba.cols(); ++c) {
      if (proba(i, c) > proba(i, best)) best = static_cast<int>(c);
    }
    hard[static_cast<size_t>(i)] = best;
  }
  return hard;
}

}  // namespace

Result<double> RunGogglesLabeling(const LabelingTask& task,
                                  const RunnerContext& ctx,
                                  LabelingResult* result_out) {
  GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
  GOGGLES_ASSIGN_OR_RETURN(
      LabelingResult result,
      pipeline.Label(task.train.images, task.dev_indices, task.dev_labels,
                     task.num_classes));
  const double accuracy = AccuracyExcluding(result.hard_labels,
                                            task.train.labels,
                                            task.dev_indices);
  if (result_out != nullptr) *result_out = std::move(result);
  return accuracy;
}

Result<double> RunRepresentationAffinity(const LabelingTask& task,
                                         const RunnerContext& ctx,
                                         RepresentationKind kind) {
  Matrix embedding;
  if (kind == RepresentationKind::kHog) {
    GOGGLES_ASSIGN_OR_RETURN(embedding,
                             features::ComputeHogMatrix(task.train.images));
  } else {
    GOGGLES_ASSIGN_OR_RETURN(embedding,
                             ctx.extractor->Logits(task.train.images));
  }
  // The cosine function is the pipeline's one function: no library
  // (top_z = 0), so it is fitted the way Label fits every function.
  GogglesConfig config = ctx.goggles;
  config.top_z = 0;
  GogglesPipeline pipeline(ctx.extractor, config);
  pipeline.AddFunction(std::make_unique<VectorCosineAffinity>(
      kind == RepresentationKind::kHog ? "hog" : "logits",
      std::move(embedding)));
  GOGGLES_ASSIGN_OR_RETURN(
      LabelingResult result,
      pipeline.Label(task.train.images, task.dev_indices, task.dev_labels,
                     task.num_classes));
  return AccuracyExcluding(result.hard_labels, task.train.labels,
                           task.dev_indices);
}

Result<double> RunClusteringBaseline(const LabelingTask& task,
                                     const RunnerContext& ctx,
                                     ClusteringKind kind) {
  GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
  GOGGLES_ASSIGN_OR_RETURN(Matrix affinity,
                           pipeline.BuildAffinity(task.train.images));

  std::vector<int> clusters;
  switch (kind) {
    case ClusteringKind::kKMeans: {
      baselines::KMeansConfig config;
      config.num_clusters = task.num_classes;
      baselines::KMeans km(config);
      GOGGLES_RETURN_NOT_OK(km.Fit(affinity));
      clusters = km.labels();
      break;
    }
    case ClusteringKind::kGmm: {
      // Naive GMM on the full affinity rows. Diagonal covariance: with
      // alpha*N features a full covariance matrix is singular (this is
      // exactly the paper's high-dimensionality argument in §4).
      GmmConfig config;
      config.num_components = task.num_classes;
      DiagonalGmm gmm(config);
      GOGGLES_RETURN_NOT_OK(gmm.Fit(affinity));
      GOGGLES_ASSIGN_OR_RETURN(Matrix proba, gmm.PredictProba(affinity));
      clusters = HardLabelsFromProba(proba);
      break;
    }
    case ClusteringKind::kSpectral: {
      baselines::SpectralConfig config;
      config.num_clusters = task.num_classes;
      GOGGLES_ASSIGN_OR_RETURN(clusters,
                               baselines::SpectralCoclusterRows(affinity, config));
      break;
    }
  }
  // The paper grants all clustering baselines the optimal mapping (§5.1.6).
  return AccuracyWithOptimalMappingExcluding(clusters, task.train.labels,
                                             task.num_classes,
                                             task.dev_indices);
}

Result<double> RunSnorkelLabeling(const LabelingTask& task, Matrix* proba_out) {
  GOGGLES_ASSIGN_OR_RETURN(Matrix votes,
                           baselines::BuildAttributeVotes(task.train));
  baselines::LabelModelConfig config;
  config.num_classes = task.num_classes;
  baselines::LabelModel model(config);
  GOGGLES_RETURN_NOT_OK(model.Fit(votes));
  GOGGLES_ASSIGN_OR_RETURN(Matrix proba, model.PredictProba(votes));
  const double accuracy = AccuracyExcluding(HardLabelsFromProba(proba),
                                            task.train.labels,
                                            task.dev_indices);
  if (proba_out != nullptr) *proba_out = std::move(proba);
  return accuracy;
}

Result<double> RunSnubaLabeling(const LabelingTask& task,
                                const RunnerContext& ctx, Matrix* proba_out) {
  // Primitives: top-10 PCA of the backbone logits (paper §5.1.2).
  GOGGLES_ASSIGN_OR_RETURN(Matrix logits,
                           ctx.extractor->Logits(task.train.images));
  GOGGLES_ASSIGN_OR_RETURN(Pca pca, Pca::Fit(logits, 10));
  GOGGLES_ASSIGN_OR_RETURN(Matrix primitives, pca.Transform(logits));

  baselines::SnubaConfig config;
  config.num_classes = task.num_classes;
  GOGGLES_ASSIGN_OR_RETURN(
      baselines::SnubaResult result,
      baselines::RunSnuba(primitives, task.dev_indices, task.dev_labels,
                          config));
  const double accuracy = AccuracyExcluding(HardLabelsFromProba(result.proba),
                                            task.train.labels,
                                            task.dev_indices);
  if (proba_out != nullptr) *proba_out = std::move(result.proba);
  return accuracy;
}

Result<double> RunFslEndToEnd(const LabelingTask& task,
                              const RunnerContext& ctx) {
  GOGGLES_ASSIGN_OR_RETURN(
      Matrix train_features,
      ctx.extractor->PenultimateFeatures(task.train.images));
  GOGGLES_ASSIGN_OR_RETURN(Matrix test_features,
                           ctx.extractor->PenultimateFeatures(task.test.images));

  // Support set = the development examples.
  Matrix support(static_cast<int64_t>(task.dev_indices.size()),
                 train_features.cols());
  for (size_t i = 0; i < task.dev_indices.size(); ++i) {
    for (int64_t j = 0; j < train_features.cols(); ++j) {
      support(static_cast<int64_t>(i), j) =
          train_features(task.dev_indices[i], j);
    }
  }
  baselines::FslConfig config;
  baselines::FewShotBaseline fsl(config);
  GOGGLES_RETURN_NOT_OK(fsl.Fit(support, task.dev_labels, task.num_classes));
  return fsl.Evaluate(test_features, task.test.labels);
}

Result<double> RunEndModelFromSoftLabels(const LabelingTask& task,
                                         const RunnerContext& ctx,
                                         const Matrix& soft_labels) {
  if (soft_labels.rows() != task.train.size()) {
    return Status::InvalidArgument(
        "RunEndModelFromSoftLabels: soft labels must cover the train split");
  }
  GOGGLES_ASSIGN_OR_RETURN(
      Matrix train_features,
      ctx.extractor->PenultimateFeatures(task.train.images));
  GOGGLES_ASSIGN_OR_RETURN(Matrix test_features,
                           ctx.extractor->PenultimateFeatures(task.test.images));
  baselines::EndModelConfig config;
  baselines::EndModel model(train_features.cols(), task.num_classes, config);
  GOGGLES_RETURN_NOT_OK(model.FitSoft(train_features, soft_labels));
  return model.Evaluate(test_features, task.test.labels);
}

Result<double> RunSupervisedUpperBound(const LabelingTask& task,
                                       const RunnerContext& ctx) {
  GOGGLES_ASSIGN_OR_RETURN(
      Matrix train_features,
      ctx.extractor->PenultimateFeatures(task.train.images));
  GOGGLES_ASSIGN_OR_RETURN(Matrix test_features,
                           ctx.extractor->PenultimateFeatures(task.test.images));
  baselines::EndModelConfig config;
  baselines::EndModel model(train_features.cols(), task.num_classes, config);
  GOGGLES_RETURN_NOT_OK(model.FitHard(train_features, task.train.labels));
  return model.Evaluate(test_features, task.test.labels);
}

}  // namespace goggles::eval
