#include "goggles/base_gmm.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "goggles/em_core.h"
#include "util/rng.h"

namespace goggles {
namespace {

/// Two well-separated diagonal Gaussian blobs in `dim` dimensions.
Matrix TwoBlobs(int n_per, int dim, double separation, Rng* rng,
                std::vector<int>* truth = nullptr) {
  Matrix x(2 * n_per, dim);
  for (int i = 0; i < 2 * n_per; ++i) {
    const int label = i < n_per ? 0 : 1;
    if (truth != nullptr) truth->push_back(label);
    for (int j = 0; j < dim; ++j) {
      const double center = label == 0 ? 0.0 : separation;
      x(i, j) = center + rng->Gaussian();
    }
  }
  return x;
}

// The E-step's log-sum-exp is the fused epilogue em::LogSoftmaxRowsInPlace:
// with zero offsets it returns the row's log-sum-exp as the LL and leaves
// the row's log-softmax behind.
TEST(LogSumExpTest, MatchesDirectComputation) {
  Matrix row(1, 3);
  row(0, 0) = 1.0;
  row(0, 1) = 2.0;
  row(0, 2) = 3.0;
  const double expected =
      std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(em::LogSoftmaxRowsInPlace({0.0, 0.0, 0.0}, &row), expected,
              1e-12);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(row(0, c), (c + 1.0) - expected, 1e-12);
  }
}

TEST(LogSumExpTest, StableForLargeValues) {
  Matrix row(1, 2, 1000.0);
  EXPECT_NEAR(em::LogSoftmaxRowsInPlace({0.0, 0.0}, &row),
              1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(row(0, 0), -std::log(2.0), 1e-12);
  EXPECT_NEAR(row(0, 1), -std::log(2.0), 1e-12);
}

TEST(DiagonalGmmTest, SeparatesTwoBlobs) {
  Rng rng(3);
  std::vector<int> truth;
  Matrix x = TwoBlobs(50, 4, 8.0, &rng, &truth);
  GmmConfig config;
  config.num_components = 2;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  Result<Matrix> proba = gmm.PredictProba(x);
  ASSERT_TRUE(proba.ok());

  // Cluster assignments must agree with truth up to label swap.
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    const int pred = (*proba)(i, 0) > (*proba)(i, 1) ? 0 : 1;
    if (pred == truth[static_cast<size_t>(i)]) ++agree;
  }
  const int correct = std::max(agree, 100 - agree);
  EXPECT_GE(correct, 98);
}

TEST(DiagonalGmmTest, PosteriorsSumToOne) {
  Rng rng(5);
  Matrix x = TwoBlobs(30, 3, 4.0, &rng);
  GmmConfig config;
  config.num_components = 2;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  Result<Matrix> proba = gmm.PredictProba(x);
  ASSERT_TRUE(proba.ok());
  for (int64_t i = 0; i < proba->rows(); ++i) {
    double total = 0.0;
    for (int64_t c = 0; c < proba->cols(); ++c) {
      EXPECT_GE((*proba)(i, c), 0.0);
      total += (*proba)(i, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(DiagonalGmmTest, WeightsSumToOne) {
  Rng rng(7);
  Matrix x = TwoBlobs(30, 3, 5.0, &rng);
  GmmConfig config;
  config.num_components = 2;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  double total = 0.0;
  for (double w : gmm.weights()) total += w;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DiagonalGmmTest, MeansNearTrueCenters) {
  Rng rng(9);
  Matrix x = TwoBlobs(200, 2, 10.0, &rng);
  GmmConfig config;
  config.num_components = 2;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  // One mean near 0, the other near 10 (either order).
  const double m0 = gmm.means()(0, 0);
  const double m1 = gmm.means()(1, 0);
  const double lo = std::min(m0, m1), hi = std::max(m0, m1);
  EXPECT_NEAR(lo, 0.0, 0.5);
  EXPECT_NEAR(hi, 10.0, 0.5);
}

TEST(DiagonalGmmTest, VarianceFloorRespected) {
  // Constant data would give zero variance without the floor.
  Matrix x(10, 2, 3.0);
  GmmConfig config;
  config.num_components = 2;
  config.var_floor = 1e-4;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_GE(gmm.variances()(c, j), 1e-4);
    }
  }
}

TEST(DiagonalGmmTest, InvalidInputsRejected) {
  GmmConfig config;
  config.num_components = 5;
  DiagonalGmm gmm(config);
  EXPECT_FALSE(gmm.Fit(Matrix(3, 2, 1.0)).ok());  // fewer rows than K
  for (const int components : {0, -1}) {
    GmmConfig empty_config;
    empty_config.num_components = components;
    const Status status = DiagonalGmm(empty_config).Fit(Matrix(3, 2, 1.0));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "num_components=" << components;
  }
  DiagonalGmm unfitted{GmmConfig{}};
  EXPECT_FALSE(unfitted.PredictProba(Matrix(3, 2)).ok());
}

// A NaN or infinite entry is refused with the column it sits in, both by
// Fit and by the base layer's FitPredict on a float slice, and leaves the
// model unfitted.
TEST(DiagonalGmmTest, NonFiniteInputRejected) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(testing::Message() << "entry " << bad);
    Rng rng(13);
    Matrix x = TwoBlobs(20, 3, 5.0, &rng);
    x(17, 2) = bad;
    DiagonalGmm gmm{GmmConfig{}};
    const Status status = gmm.Fit(x);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("column 2"), std::string::npos)
        << status;
    EXPECT_FALSE(gmm.PredictProba(x).ok());

    std::vector<float> block(x.data(), x.data() + x.size());
    std::vector<float> workspace;
    Matrix posterior;
    const Status slice_status =
        DiagonalGmm{GmmConfig{}}.FitPredict(
            em::Slice<float>{block.data(), x.rows(), x.cols(), x.cols()},
            &workspace, &posterior);
    EXPECT_EQ(slice_status.code(), StatusCode::kInvalidArgument)
        << slice_status;
  }
}

TEST(DiagonalGmmTest, PredictDimensionMismatchRejected) {
  Rng rng(11);
  Matrix x = TwoBlobs(20, 3, 5.0, &rng);
  GmmConfig config;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  EXPECT_FALSE(gmm.PredictProba(Matrix(5, 7)).ok());
}

/// EM property: the log-likelihood sequence is non-decreasing.
class GmmMonotoneSweep
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(GmmMonotoneSweep, LogLikelihoodNonDecreasing) {
  const int dim = std::get<0>(GetParam());
  const double sep = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  Rng rng(seed);
  Matrix x = TwoBlobs(40, dim, sep, &rng);
  GmmConfig config;
  config.num_components = 2;
  config.seed = seed;
  config.num_restarts = 1;
  config.tol = 0.0;  // run all iterations
  config.max_iters = 40;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());
  const auto& history = gmm.log_likelihood_history();
  ASSERT_GE(history.size(), 2u);
  for (size_t i = 1; i < history.size(); ++i) {
    // Small numerical slack for float accumulation.
    ASSERT_GE(history[i], history[i - 1] - 1e-6)
        << "iteration " << i << " decreased the log-likelihood";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Property, GmmMonotoneSweep,
    ::testing::Combine(::testing::Values(2, 8, 32),
                       ::testing::Values(0.5, 2.0, 6.0),
                       ::testing::Values(1ULL, 17ULL)));

TEST(DiagonalGmmTest, MoreRestartsNeverWorse) {
  Rng rng(13);
  Matrix x = TwoBlobs(60, 4, 3.0, &rng);
  GmmConfig one;
  one.num_components = 2;
  one.num_restarts = 1;
  GmmConfig many = one;
  many.num_restarts = 5;
  DiagonalGmm gmm_one(one), gmm_many(many);
  ASSERT_TRUE(gmm_one.Fit(x).ok());
  ASSERT_TRUE(gmm_many.Fit(x).ok());
  EXPECT_GE(gmm_many.final_log_likelihood(),
            gmm_one.final_log_likelihood() - 1e-9);
}

}  // namespace
}  // namespace goggles
