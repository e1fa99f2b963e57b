#include "goggles/hierarchical.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "goggles/mapping.h"
#include "goggles/pipeline.h"
#include "nn/vgg.h"
#include "serve/artifact.h"
#include "util/rng.h"

namespace goggles {
namespace {

/// Builds a synthetic affinity matrix in the paper's layout: `good`
/// functions produce block structure (same-class pairs score high), `noisy`
/// functions produce pure noise — mirroring Figure 5. Every entry is a
/// float, as every affinity function's score is.
Matrix SyntheticAffinity(const std::vector<int>& truth, int num_good,
                         int num_noisy, double noise, Rng* rng) {
  const int n = static_cast<int>(truth.size());
  const int alpha = num_good + num_noisy;
  Matrix a(n, static_cast<int64_t>(alpha) * n);
  for (int f = 0; f < alpha; ++f) {
    const bool good = f < num_good;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double v;
        if (good) {
          const double base = truth[static_cast<size_t>(i)] ==
                                      truth[static_cast<size_t>(j)]
                                  ? 0.8
                                  : 0.2;
          v = base + rng->Gaussian() * noise;
        } else {
          v = rng->Uniform();
        }
        a(i, static_cast<int64_t>(f) * n + j) = static_cast<float>(v);
      }
    }
  }
  return a;
}

std::vector<int> AlternatingTruth(int n) {
  std::vector<int> truth(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) truth[static_cast<size_t>(i)] = i % 2;
  return truth;
}

double AccuracyOf(const LabelingResult& result, const std::vector<int>& truth) {
  int correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (result.hard_labels[i] == truth[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

TEST(HierarchicalTest, RecoversPlantedClusters) {
  Rng rng(3);
  std::vector<int> truth = AlternatingTruth(60);
  Matrix a = SyntheticAffinity(truth, 5, 5, 0.1, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  Result<LabelingResult> result =
      labeler.Fit(a, {0, 1, 2, 3}, {0, 1, 0, 1}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(AccuracyOf(*result, truth), 0.95);
}

TEST(HierarchicalTest, SurvivesManyNoisyFunctions) {
  // The ensemble must identify the informative functions even when 80% of
  // the library is noise (the paper's affinity function selection claim).
  Rng rng(5);
  std::vector<int> truth = AlternatingTruth(50);
  Matrix a = SyntheticAffinity(truth, 2, 8, 0.08, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  Result<LabelingResult> result =
      labeler.Fit(a, {0, 1, 2, 3, 4, 5}, {0, 1, 0, 1, 0, 1}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(AccuracyOf(*result, truth), 0.9);
}

TEST(HierarchicalTest, MappingFollowsDevLabels) {
  // Same affinity, but dev labels flipped: output classes must flip too.
  Rng rng(7);
  std::vector<int> truth = AlternatingTruth(40);
  Matrix a = SyntheticAffinity(truth, 4, 2, 0.1, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  Result<LabelingResult> normal =
      labeler.Fit(a, {0, 1}, {0, 1}, 2);
  Result<LabelingResult> flipped =
      labeler.Fit(a, {0, 1}, {1, 0}, 2);
  ASSERT_TRUE(normal.ok());
  ASSERT_TRUE(flipped.ok());
  int agreements = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (normal->hard_labels[i] != flipped->hard_labels[i]) ++agreements;
  }
  // Hard labels are complementary.
  EXPECT_GE(agreements, static_cast<int>(truth.size()) - 2);
}

TEST(HierarchicalTest, SoftLabelRowsSumToOne) {
  Rng rng(9);
  std::vector<int> truth = AlternatingTruth(30);
  Matrix a = SyntheticAffinity(truth, 3, 3, 0.15, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  Result<LabelingResult> result = labeler.Fit(a, {0, 1}, {0, 1}, 2);
  ASSERT_TRUE(result.ok());
  for (int64_t i = 0; i < result->soft_labels.rows(); ++i) {
    double total = 0.0;
    for (int64_t c = 0; c < result->soft_labels.cols(); ++c) {
      total += result->soft_labels(i, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(HierarchicalTest, BaseLpsExposedPerFunction) {
  Rng rng(11);
  std::vector<int> truth = AlternatingTruth(20);
  Matrix a = SyntheticAffinity(truth, 2, 1, 0.1, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  Result<LabelingResult> result = labeler.Fit(a, {0, 1}, {0, 1}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->base_label_predictions.size(), 3u);
  for (const Matrix& lp : result->base_label_predictions) {
    EXPECT_EQ(lp.rows(), 20);
    EXPECT_EQ(lp.cols(), 2);
  }
}

TEST(HierarchicalTest, AblationAveragingStillWorksOnCleanData) {
  Rng rng(13);
  std::vector<int> truth = AlternatingTruth(40);
  Matrix a = SyntheticAffinity(truth, 5, 0, 0.05, &rng);
  HierarchicalConfig config;
  config.use_ensemble = false;  // base-LP averaging ablation
  HierarchicalLabeler labeler{config};
  Result<LabelingResult> result =
      labeler.Fit(a, {0, 1, 2, 3}, {0, 1, 0, 1}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(AccuracyOf(*result, truth), 0.9);
}

TEST(HierarchicalTest, AblationAveragingDegradesWithNoise) {
  // With mostly-noise functions, unweighted averaging should underperform
  // the learned ensemble (this is the point of §4.1's design).
  Rng rng(15);
  std::vector<int> truth = AlternatingTruth(60);
  Matrix a = SyntheticAffinity(truth, 2, 18, 0.08, &rng);
  std::vector<int> dev_idx = {0, 1, 2, 3, 4, 5};
  std::vector<int> dev_lab = {0, 1, 0, 1, 0, 1};

  HierarchicalConfig ensemble_config;
  HierarchicalLabeler ensemble{ensemble_config};
  Result<LabelingResult> with = ensemble.Fit(a, dev_idx, dev_lab, 2);
  ASSERT_TRUE(with.ok());

  HierarchicalConfig avg_config;
  avg_config.use_ensemble = false;
  HierarchicalLabeler averaged{avg_config};
  Result<LabelingResult> without = averaged.Fit(a, dev_idx, dev_lab, 2);
  ASSERT_TRUE(without.ok());

  EXPECT_GE(AccuracyOf(*with, truth) + 1e-9, AccuracyOf(*without, truth));
}

TEST(HierarchicalTest, NoOneHotAblationRuns) {
  Rng rng(17);
  std::vector<int> truth = AlternatingTruth(30);
  Matrix a = SyntheticAffinity(truth, 4, 2, 0.1, &rng);
  HierarchicalConfig config;
  config.one_hot_lp = false;
  HierarchicalLabeler labeler{config};
  Result<LabelingResult> result = labeler.Fit(a, {0, 1}, {0, 1}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(AccuracyOf(*result, truth), 0.8);
}

void ExpectBitIdentical(const Matrix& expected, const Matrix& actual,
                        const char* what) {
  ASSERT_EQ(expected.rows(), actual.rows()) << what;
  ASSERT_EQ(expected.cols(), actual.cols()) << what;
  for (int64_t i = 0; i < expected.rows(); ++i) {
    for (int64_t k = 0; k < expected.cols(); ++k) {
      EXPECT_EQ(expected(i, k), actual(i, k))
          << what << " differs at (" << i << ", " << k << ")";
    }
  }
}

// Fit and Infer share one label tail, so Infer on the fit's own affinity
// rows must reproduce Fit's labels bit for bit: in the paper design and in
// both ablations (raw LPs into the ensemble; averaging instead of it).
TEST(HierarchicalTest, InferOnFitAffinityReproducesFitLabels) {
  Rng rng(23);
  std::vector<int> truth = AlternatingTruth(40);
  Matrix a = SyntheticAffinity(truth, 4, 4, 0.1, &rng);
  HierarchicalConfig no_one_hot;
  no_one_hot.one_hot_lp = false;
  HierarchicalConfig averaging;
  averaging.use_ensemble = false;
  for (const HierarchicalConfig& config :
       {HierarchicalConfig{}, no_one_hot, averaging}) {
    SCOPED_TRACE(testing::Message() << "one_hot_lp=" << config.one_hot_lp
                                    << " use_ensemble="
                                    << config.use_ensemble);
    FittedHierarchicalModel model;
    Result<LabelingResult> fit = HierarchicalLabeler{config}.Fit(
        a, {0, 1, 2, 3}, {0, 1, 0, 1}, 2, &model);
    ASSERT_TRUE(fit.ok()) << fit.status();
    Result<LabelingResult> infer = model.Infer(a);
    ASSERT_TRUE(infer.ok()) << infer.status();

    ExpectBitIdentical(fit->soft_labels, infer->soft_labels, "soft labels");
    EXPECT_EQ(fit->hard_labels, infer->hard_labels);
    EXPECT_EQ(fit->cluster_to_class, infer->cluster_to_class);
    EXPECT_EQ(fit->ensemble_log_likelihood, infer->ensemble_log_likelihood);
    ASSERT_EQ(fit->base_label_predictions.size(),
              infer->base_label_predictions.size());
    for (size_t f = 0; f < fit->base_label_predictions.size(); ++f) {
      ExpectBitIdentical(fit->base_label_predictions[f],
                         infer->base_label_predictions[f], "base LP");
    }
  }
}

// The per-function evaluation Infer replaced, kept as the reference:
// DiagonalGmm::PredictProba of each N-column block, mapped, then the label
// tail (average, or the ensemble's PredictProba of the concatenation,
// mapped) and its argmax.
LabelingResult ReferenceInfer(const FittedHierarchicalModel& model,
                              const Matrix& rows) {
  const int64_t m = rows.rows(), n = model.pool_size;
  LabelingResult ref;
  for (int64_t f = 0; f < model.num_functions(); ++f) {
    Result<Matrix> proba =
        model.base_models[static_cast<size_t>(f)].PredictProba(
            rows.Block(0, f * n, m, n));
    EXPECT_TRUE(proba.ok());
    ref.base_label_predictions.push_back(
        ApplyMapping(*proba, model.base_mappings[static_cast<size_t>(f)]));
  }
  const std::vector<Matrix>& lps = ref.base_label_predictions;
  if (!model.use_ensemble) {
    ref.soft_labels = Matrix(m, model.num_classes, 0.0);
    for (const Matrix& lp : lps) {
      EXPECT_TRUE(ref.soft_labels.AddInPlace(lp).ok());
    }
    ref.soft_labels.Scale(1.0 / static_cast<double>(lps.size()));
  } else {
    Result<Matrix> gamma = model.ensemble.PredictProba(
        model.one_hot_lp ? OneHotConcatLabelPredictions(lps)
                         : ConcatLabelPredictions(lps));
    EXPECT_TRUE(gamma.ok());
    ref.soft_labels = ApplyMapping(*gamma, model.ensemble_mapping);
  }
  for (int64_t i = 0; i < m; ++i) {
    int best = 0;
    for (int k = 1; k < model.num_classes; ++k) {
      if (ref.soft_labels(i, k) > ref.soft_labels(i, best)) best = k;
    }
    ref.hard_labels.push_back(best);
  }
  return ref;
}

// Infer's one prepacked pass per row reproduces the per-function
// PredictProba path bit for bit, for one row and for a batch, under all
// four one_hot_lp x use_ensemble designs, on rows the fit never saw.
TEST(HierarchicalTest, PrepackedInferMatchesPerFunctionPredictProba) {
  Rng rng(29);
  std::vector<int> truth = AlternatingTruth(30);
  Matrix a = SyntheticAffinity(truth, 3, 3, 0.1, &rng);
  for (const bool one_hot : {true, false}) {
    for (const bool ensemble : {true, false}) {
      SCOPED_TRACE(testing::Message() << "one_hot_lp=" << one_hot
                                      << " use_ensemble=" << ensemble);
      HierarchicalConfig config;
      config.one_hot_lp = one_hot;
      config.use_ensemble = ensemble;
      FittedHierarchicalModel model;
      ASSERT_TRUE(HierarchicalLabeler{config}
                      .Fit(a, {0, 1, 2, 3}, {0, 1, 0, 1}, 2, &model)
                      .ok());
      for (const int64_t m : {1, 7}) {
        Matrix rows(m, a.cols());
        for (int64_t i = 0; i < rows.size(); ++i) {
          rows.data()[i] = rng.Uniform();
        }
        Result<LabelingResult> got = model.Infer(rows);
        ASSERT_TRUE(got.ok()) << got.status();
        const LabelingResult want = ReferenceInfer(model, rows);
        ExpectBitIdentical(want.soft_labels, got->soft_labels, "soft labels");
        EXPECT_EQ(want.hard_labels, got->hard_labels);
        ASSERT_EQ(want.base_label_predictions.size(),
                  got->base_label_predictions.size());
        for (size_t f = 0; f < want.base_label_predictions.size(); ++f) {
          ExpectBitIdentical(want.base_label_predictions[f],
                             got->base_label_predictions[f], "base LP");
        }
      }
    }
  }
}

/// A small VggMini backbone (untrained: the bits are what is compared).
std::shared_ptr<features::FeatureExtractor> MakeExtractor() {
  nn::VggMiniConfig config;
  config.stage_channels = {4, 8, 8, 8, 8};
  config.num_classes = 2;
  Result<nn::VggMini> model = nn::BuildVggMini(config);
  model.status().Abort("vgg");
  return std::make_shared<features::FeatureExtractor>(std::move(*model));
}

/// Two classes of 32x32 images: circles (class 0) and crosses (class 1)
/// at seeded positions, sizes and colours.
std::vector<data::Image> ShapeImages(int n, Rng* rng) {
  std::vector<data::Image> images;
  for (int i = 0; i < n; ++i) {
    data::Image img(3, 32, 32, 0.1f);
    const int x = 10 + static_cast<int>(rng->Uniform() * 12);
    const int y = 10 + static_cast<int>(rng->Uniform() * 12);
    const float tint = static_cast<float>(rng->Uniform());
    if (i % 2 == 0) {
      data::DrawFilledCircle(&img, x, y, 5 + i % 4, {1.0f, tint, 0.2f});
    } else {
      data::DrawCross(&img, x, y, 10 + i % 5, 3, {0.2f, tint, 1.0f});
    }
    images.push_back(std::move(img));
  }
  return images;
}

std::string SavedBytes(const GogglesPipeline& pipeline,
                       const FittedHierarchicalModel& model,
                       const LabelingResult& result, const std::string& name) {
  const PrototypeAffinitySource& source = *pipeline.library().source;
  const std::string path = ::testing::TempDir() + "/" + name + ".ggsa";
  const Status saved = serve::SaveArtifactFile(
      path, source.top_z(), source.num_layers(), source.fingerprint(), model,
      source.layers(), result.soft_labels, result.hard_labels);
  EXPECT_TRUE(saved.ok()) << saved;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

// Label streams A into the base layer one tap layer at a time; fitting the
// materialized BuildAffinity matrix must give the same bits everywhere:
// labels, every base LP, the GMM and ensemble parameters, both mappings
// and the saved artifact. The cases cover uneven layer blocks
// (max_functions = 7 gives layers 2, 2, 1, 1, 1 functions), a user
// function's block after the library, and both ablations.
TEST(HierarchicalTest, StreamedFitMatchesMaterializedFit) {
  Rng rng(31);
  const int n = 24;
  const std::vector<data::Image> images = ShapeImages(n, &rng);
  const std::vector<int> dev_indices = {0, 1, 2, 3};
  const std::vector<int> dev_labels = {0, 1, 0, 1};
  std::shared_ptr<features::FeatureExtractor> extractor = MakeExtractor();

  struct Case {
    const char* name;
    GogglesConfig config;
    bool user_function;
  };
  std::vector<Case> cases(5);
  cases[0].name = "library";
  cases[1].name = "max_functions_7";
  cases[1].config.max_functions = 7;
  cases[2].name = "library_plus_user";
  cases[2].user_function = true;
  cases[3].name = "averaging";
  cases[3].config.inference.use_ensemble = false;
  cases[4].name = "no_one_hot";
  cases[4].config.inference.one_hot_lp = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    GogglesPipeline pipeline(extractor, c.config);
    int alpha = pipeline.library().num_functions();
    if (c.user_function) {
      Matrix embeddings(n, 6);
      for (int64_t i = 0; i < embeddings.size(); ++i) {
        embeddings.data()[i] = rng.Gaussian();
      }
      pipeline.AddFunction(std::make_unique<VectorCosineAffinity>(
          "embedding", std::move(embeddings)));
      ++alpha;
    }
    if (c.config.max_functions > 0) alpha = c.config.max_functions;
    ASSERT_EQ(pipeline.num_functions(), alpha);

    FittedHierarchicalModel streamed_model, materialized_model;
    Result<LabelingResult> streamed = pipeline.Label(
        images, dev_indices, dev_labels, 2, &streamed_model);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    Result<Matrix> affinity = pipeline.BuildAffinity(images);
    ASSERT_TRUE(affinity.ok()) << affinity.status();
    ASSERT_EQ(affinity->cols(), static_cast<int64_t>(alpha) * n);
    Result<LabelingResult> materialized =
        HierarchicalLabeler(c.config.inference)
            .Fit(*affinity, dev_indices, dev_labels, 2, &materialized_model);
    ASSERT_TRUE(materialized.ok()) << materialized.status();

    EXPECT_EQ(streamed->hard_labels, materialized->hard_labels);
    ExpectBitIdentical(materialized->soft_labels, streamed->soft_labels,
                       "soft labels");
    EXPECT_EQ(streamed->cluster_to_class, materialized->cluster_to_class);
    EXPECT_EQ(streamed->ensemble_log_likelihood,
              materialized->ensemble_log_likelihood);
    ASSERT_EQ(streamed->base_label_predictions.size(),
              static_cast<size_t>(alpha));
    ASSERT_EQ(materialized->base_label_predictions.size(),
              static_cast<size_t>(alpha));
    ASSERT_EQ(streamed_model.num_functions(), alpha);
    ASSERT_EQ(materialized_model.num_functions(), alpha);
    for (size_t f = 0; f < static_cast<size_t>(alpha); ++f) {
      SCOPED_TRACE(testing::Message() << "function " << f);
      ExpectBitIdentical(materialized->base_label_predictions[f],
                         streamed->base_label_predictions[f], "base LP");
      const DiagonalGmm& got = streamed_model.base_models[f];
      const DiagonalGmm& want = materialized_model.base_models[f];
      ExpectBitIdentical(want.means(), got.means(), "GMM means");
      ExpectBitIdentical(want.variances(), got.variances(), "GMM variances");
      EXPECT_EQ(want.weights(), got.weights());
      EXPECT_EQ(want.final_log_likelihood(), got.final_log_likelihood());
      EXPECT_EQ(materialized_model.base_mappings[f],
                streamed_model.base_mappings[f]);
    }
    ExpectBitIdentical(materialized_model.ensemble.bernoulli_params(),
                       streamed_model.ensemble.bernoulli_params(),
                       "ensemble parameters");
    EXPECT_EQ(materialized_model.ensemble.weights(),
              streamed_model.ensemble.weights());
    EXPECT_EQ(materialized_model.ensemble_mapping,
              streamed_model.ensemble_mapping);
    EXPECT_TRUE(SavedBytes(pipeline, streamed_model, *streamed, "streamed") ==
                SavedBytes(pipeline, materialized_model, *materialized,
                           "materialized"))
        << "saved artifacts differ";
  }
}

// FitBlocks refuses a stream that does not hand over every function
// exactly once, or a block too narrow for its functions.
TEST(HierarchicalTest, FitBlocksRejectsMalformedStreams) {
  Rng rng(37);
  const std::vector<int> truth = AlternatingTruth(10);
  const Matrix a = SyntheticAffinity(truth, 2, 1, 0.1, &rng);
  const std::vector<float> columns(a.data(), a.data() + a.size());
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  auto fit = [&](std::vector<std::vector<int64_t>> function_blocks,
                 int64_t stride) {
    size_t next = 0;
    return labeler
        .FitBlocks(
            10, 3,
            [&](AffinityBlock* block) {
              block->data = columns.data();
              block->stride = stride;
              block->functions.clear();
              if (next < function_blocks.size()) {
                block->functions = function_blocks[next++];
              }
              return Status::OK();
            },
            {0, 1}, {0, 1}, 2)
        .status();
  };
  EXPECT_TRUE(fit({{0, 1}, {2}}, a.cols()).ok());
  EXPECT_EQ(fit({{0, 1}}, a.cols()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fit({{0, 1}, {1, 2}}, a.cols()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fit({{0, 1, 2, 3}}, a.cols()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fit({{0, 1, 2}}, 20).code(), StatusCode::kInvalidArgument);
}

TEST(HierarchicalTest, RejectsMalformedAffinity) {
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  EXPECT_FALSE(labeler.Fit(Matrix(), {}, {}, 2).ok());
  // Width not a multiple of N.
  EXPECT_FALSE(labeler.Fit(Matrix(4, 7), {}, {}, 2).ok());
  // N rows and no affinity function, with and without the ensemble.
  for (const bool use_ensemble : {true, false}) {
    HierarchicalConfig config;
    config.use_ensemble = use_ensemble;
    const Status status =
        HierarchicalLabeler{config}.Fit(Matrix(4, 0), {0, 1}, {0, 1}, 2)
            .status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "use_ensemble=" << use_ensemble << ": " << status;
    EXPECT_NE(status.message().find("affinity function"), std::string::npos)
        << status;
  }
}

// The base layer fits floats, so Fit refuses an entry that no float holds
// exactly (NaN and out-of-range values among them) instead of rounding it.
TEST(HierarchicalTest, FitRejectsEntriesThatAreNotFloats) {
  Rng rng(41);
  const std::vector<int> truth = AlternatingTruth(10);
  const Matrix a = SyntheticAffinity(truth, 2, 1, 0.1, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  ASSERT_TRUE(labeler.Fit(a, {0, 1}, {0, 1}, 2).ok());
  for (const double bad : {0.1, std::nan(""), 1e300}) {
    Matrix b = a;
    b(7, 23) = bad;
    const Status status = labeler.Fit(b, {0, 1}, {0, 1}, 2).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad << ": " << status;
    EXPECT_NE(status.message().find("(7, 23)"), std::string::npos) << status;
  }
}

TEST(HierarchicalTest, ThreeClassInference) {
  Rng rng(19);
  const int n = 60;
  std::vector<int> truth(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) truth[static_cast<size_t>(i)] = i % 3;
  Matrix a = SyntheticAffinity(truth, 5, 2, 0.08, &rng);
  HierarchicalLabeler labeler{HierarchicalConfig{}};
  Result<LabelingResult> result =
      labeler.Fit(a, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 0, 1, 2}, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(AccuracyOf(*result, truth), 0.85);
}

}  // namespace
}  // namespace goggles
