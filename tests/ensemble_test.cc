#include "goggles/ensemble.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace goggles {
namespace {

/// Binary data from two Bernoulli profiles: component 0 mostly zeros with
/// ones in the first half, component 1 the reverse.
Matrix TwoProfiles(int n_per, int dim, double flip, Rng* rng,
                   std::vector<int>* truth = nullptr) {
  Matrix b(2 * n_per, dim);
  for (int i = 0; i < 2 * n_per; ++i) {
    const int label = i < n_per ? 0 : 1;
    if (truth != nullptr) truth->push_back(label);
    for (int j = 0; j < dim; ++j) {
      const bool base = (label == 0) == (j < dim / 2);
      const bool bit = rng->Bernoulli(flip) ? !base : base;
      b(i, j) = bit ? 1.0 : 0.0;
    }
  }
  return b;
}

TEST(BernoulliMixtureTest, SeparatesProfiles) {
  Rng rng(3);
  std::vector<int> truth;
  Matrix b = TwoProfiles(40, 10, 0.1, &rng, &truth);
  BernoulliMixtureConfig config;
  config.num_components = 2;
  BernoulliMixture mix(config);
  ASSERT_TRUE(mix.Fit(b).ok());
  Result<Matrix> proba = mix.PredictProba(b);
  ASSERT_TRUE(proba.ok());
  int agree = 0;
  for (int i = 0; i < 80; ++i) {
    const int pred = (*proba)(i, 0) > (*proba)(i, 1) ? 0 : 1;
    if (pred == truth[static_cast<size_t>(i)]) ++agree;
  }
  EXPECT_GE(std::max(agree, 80 - agree), 78);
}

TEST(BernoulliMixtureTest, PosteriorRowsSumToOne) {
  Rng rng(5);
  Matrix b = TwoProfiles(20, 8, 0.2, &rng);
  BernoulliMixtureConfig config;
  BernoulliMixture mix(config);
  ASSERT_TRUE(mix.Fit(b).ok());
  Result<Matrix> proba = mix.PredictProba(b);
  ASSERT_TRUE(proba.ok());
  for (int64_t i = 0; i < proba->rows(); ++i) {
    double total = 0.0;
    for (int64_t c = 0; c < proba->cols(); ++c) total += (*proba)(i, c);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(BernoulliMixtureTest, ParametersStayInOpenUnitInterval) {
  // All-ones data: without smoothing the MLE would hit exactly 1 (the
  // paper's singularity problem); smoothing must keep it inside (0, 1).
  Matrix b(10, 4, 1.0);
  BernoulliMixtureConfig config;
  BernoulliMixture mix(config);
  ASSERT_TRUE(mix.Fit(b).ok());
  for (int64_t c = 0; c < mix.bernoulli_params().rows(); ++c) {
    for (int64_t j = 0; j < mix.bernoulli_params().cols(); ++j) {
      EXPECT_GT(mix.bernoulli_params()(c, j), 0.0);
      EXPECT_LT(mix.bernoulli_params()(c, j), 1.0);
    }
  }
}

class BernoulliMonotoneSweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(BernoulliMonotoneSweep, LogLikelihoodNonDecreasing) {
  const double flip = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  Matrix b = TwoProfiles(30, 12, flip, &rng);
  BernoulliMixtureConfig config;
  config.num_components = 2;
  config.seed = seed;
  config.num_restarts = 1;
  config.tol = 0.0;
  config.max_iters = 30;
  BernoulliMixture mix(config);
  ASSERT_TRUE(mix.Fit(b).ok());
  const auto& history = mix.log_likelihood_history();
  ASSERT_GE(history.size(), 2u);
  for (size_t i = 1; i < history.size(); ++i) {
    ASSERT_GE(history[i], history[i - 1] - 1e-6) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Property, BernoulliMonotoneSweep,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.4),
                       ::testing::Values(2ULL, 23ULL, 99ULL)));

TEST(BernoulliMixtureTest, FewerSamplesThanComponentsRejected) {
  BernoulliMixtureConfig config;
  config.num_components = 5;
  BernoulliMixture mix(config);
  EXPECT_FALSE(mix.Fit(Matrix(2, 3, 1.0)).ok());
  for (const int components : {0, -1}) {
    BernoulliMixtureConfig empty_config;
    empty_config.num_components = components;
    const Status status =
        BernoulliMixture(empty_config).Fit(Matrix(4, 3, 1.0));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "num_components=" << components;
  }
}

TEST(BernoulliMixtureTest, PredictBeforeFitRejected) {
  BernoulliMixture mix{BernoulliMixtureConfig{}};
  EXPECT_FALSE(mix.PredictProba(Matrix(2, 3)).ok());
}

TEST(OneHotTest, ArgmaxBecomesOne) {
  // Two LP matrices for 3 instances, K=2.
  Matrix lp1 = Matrix::FromRows({{0.9, 0.1}, {0.2, 0.8}, {0.55, 0.45}});
  Matrix lp2 = Matrix::FromRows({{0.3, 0.7}, {0.6, 0.4}, {0.5, 0.5}});
  Matrix onehot = OneHotConcatLabelPredictions({lp1, lp2});
  EXPECT_EQ(onehot.rows(), 3);
  EXPECT_EQ(onehot.cols(), 4);  // alpha*K = 2*2
  // Instance 0: lp1 argmax = 0, lp2 argmax = 1.
  EXPECT_DOUBLE_EQ(onehot(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(onehot(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(onehot(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(onehot(0, 3), 1.0);
  // Ties go to the first class.
  EXPECT_DOUBLE_EQ(onehot(2, 2), 1.0);
  // Every instance has exactly one 1 per function block.
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(onehot(i, 0) + onehot(i, 1), 1.0);
    EXPECT_DOUBLE_EQ(onehot(i, 2) + onehot(i, 3), 1.0);
  }
}

TEST(OneHotTest, ConcatWithoutOneHotKeepsProbabilities) {
  Matrix lp1 = Matrix::FromRows({{0.9, 0.1}});
  Matrix lp2 = Matrix::FromRows({{0.3, 0.7}});
  Matrix concat = ConcatLabelPredictions({lp1, lp2});
  EXPECT_DOUBLE_EQ(concat(0, 0), 0.9);
  EXPECT_DOUBLE_EQ(concat(0, 3), 0.7);
}

TEST(OneHotTest, EmptyInputGivesEmptyMatrix) {
  EXPECT_TRUE(OneHotConcatLabelPredictions({}).empty());
  EXPECT_TRUE(ConcatLabelPredictions({}).empty());
}

}  // namespace
}  // namespace goggles
