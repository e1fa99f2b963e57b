#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "goggles/base_gmm.h"
#include "goggles/em_core.h"
#include "goggles/ensemble.h"
#include "goggles/hierarchical.h"
#include "goggles/mapping.h"
#include "tensor/gemm.h"
#include "util/parallel.h"
#include "util/rng.h"

/// \file gmm_gemm_test.cc
/// \brief The GEMM-accelerated EM fit cores' determinism contract:
///  (a) DGemm / DGemmWithPackedA match the retained scalar reference
///      (DGemmReference) bit for bit over randomized shapes, including
///      shapes crossing the kGemmKChunk accumulation boundary, and a
///      naive tolerance reference for plain correctness;
///  (b) the EM products (em::EStepProducts, em::MStepProducts on an
///      em::MakeDesign of a float or double slice) equal DGemmReference
///      bit for bit on Gaussian [x² | x] and Bernoulli designs built here,
///      at the fit shapes and 1-8 stacked columns; a float block fits like
///      its widened Matrix; DiagonalGmm::Fit / BernoulliMixture::Fit are
///      bit-identical at serial vs parallel execution (ScopedSerialKernels
///      forces 1-thread kernels);
///  (c) DGemm passes the same transpose/alpha/beta/NaN semantics sweep as
///      tensor_gemm_test.cc does for SGemm;
///  (d) the posterior HierarchicalLabeler::Fit computes from each base
///      fit's own design equals DiagonalGmm::PredictProba on the same
///      affinity block;
///  (e) em::FitBestRestart's lockstep restarts each follow the trajectory
///      they follow alone: an R-restart fit equals the solo run of its
///      winning restart bit for bit, and adding a restart that does not
///      win leaves both mixtures' fits unchanged;
///  (f) the M-step's responsibilities (em::ResponsibilitiesInto) are
///      std::exp bit for bit at or above DBL_MIN and +0.0 below it, and
///      on a saturated fit the flushed subnormals change no moment of a
///      component that holds at least one row of mass.

namespace goggles {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> RandomVec(size_t size, Rng* rng) {
  std::vector<double> v(size);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform();
  return m;
}

/// Natural triple-loop reference (single ascending-k accumulator) — NOT
/// bit-comparable to the chunked kernels; used with a tolerance to guard
/// against a shared indexing bug in kernel + chunked reference.
void NaiveGemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
               double alpha, const double* a, int64_t lda, const double* b,
               int64_t ldb, double beta, double* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double av = ta ? a[p * lda + i] : a[i * lda + p];
        const double bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += av * bv;
      }
      const double prior = beta == 0.0 ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = alpha * acc + prior;
    }
  }
}

/// One geometry: DGemm vs DGemmReference must agree bit for bit, and both
/// must agree with the naive reference within tolerance. Strides add
/// `slack` columns beyond the tight leading dimension.
void CheckCase(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
               double alpha, double beta, int64_t slack, Rng* rng) {
  const int64_t lda = (ta ? m : k) + slack;
  const int64_t ldb = (tb ? k : n) + slack;
  const int64_t ldc = n + slack;
  const int64_t a_rows = ta ? k : m;
  const int64_t b_rows = tb ? n : k;

  std::vector<double> a = RandomVec(static_cast<size_t>(a_rows * lda), rng);
  std::vector<double> b = RandomVec(static_cast<size_t>(b_rows * ldb), rng);
  std::vector<double> c = RandomVec(static_cast<size_t>(m * ldc), rng);
  std::vector<double> c_ref = c;
  std::vector<double> c_naive = c;

  DGemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(),
        ldc);
  DGemmReference(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                 c_ref.data(), ldc);
  NaiveGemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
            c_naive.data(), ldc);

  ASSERT_EQ(std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(double)), 0)
      << "DGemm != DGemmReference at ta=" << ta << " tb=" << tb << " m=" << m
      << " n=" << n << " k=" << k << " alpha=" << alpha << " beta=" << beta;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double got = c[static_cast<size_t>(i * ldc + j)];
      const double want = c_naive[static_cast<size_t>(i * ldc + j)];
      ASSERT_NEAR(got, want, 1e-10 * (std::abs(want) + k))
          << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
          << " k=" << k << " at (" << i << ", " << j << ")";
    }
  }
}

// Sizes straddling the micro-tile and macro-tile boundaries, plus 257/300
// to cross the kGemmKChunk partial-sum boundary on the depth dimension.
const int64_t kSizes[] = {1, 7, 9, 64, 65};
const int64_t kDepths[] = {1, 8, 63, 256, 257, 300};

TEST(DGemmBitExactTest, MatchesChunkedReferenceAllTransposesAndStrides) {
  Rng rng(42);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int64_t m : kSizes) {
        for (int64_t n : kSizes) {
          for (int64_t k : kDepths) {
            const int64_t slack = (m + n + k) % 2 == 0 ? 0 : 3;
            CheckCase(ta, tb, m, n, k, 1.0, 0.0, slack, &rng);
          }
        }
      }
    }
  }
}

TEST(DGemmBitExactTest, AlphaBetaGrid) {
  Rng rng(43);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (double alpha : {0.0, 1.0, 0.5}) {
        for (double beta : {0.0, 1.0, 0.5}) {
          for (int64_t size : {int64_t{9}, int64_t{65}}) {
            CheckCase(ta, tb, size, size + 1, size * 5 - 1, alpha, beta,
                      /*slack=*/3, &rng);
          }
        }
      }
    }
  }
}

TEST(DGemmSemanticsTest, NanInBPropagatesThroughZeroInA) {
  const std::vector<double> a = {0.0, 1.0};
  const std::vector<double> b = {kNaN, 2.0};
  std::vector<double> c = {0.0};
  DGemm(false, false, 1, 1, 2, 1.0, a.data(), 2, b.data(), 1, 0.0, c.data(),
        1);
  EXPECT_TRUE(std::isnan(c[0])) << "0 * NaN must propagate, got " << c[0];
}

TEST(DGemmSemanticsTest, AlphaZeroDoesNotReferenceAOrB) {
  const std::vector<double> a = {kNaN, kNaN, kNaN, kNaN};
  const std::vector<double> b = {kNaN, kNaN, kNaN, kNaN};
  std::vector<double> c = {1.0, 2.0, 3.0, 4.0};
  DGemm(false, false, 2, 2, 2, 0.0, a.data(), 2, b.data(), 2, 0.5, c.data(),
        2);
  EXPECT_DOUBLE_EQ(c[0], 0.5);
  EXPECT_DOUBLE_EQ(c[3], 2.0);
}

TEST(DGemmSemanticsTest, BetaZeroOverwritesStaleNaN) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {2.0};
  std::vector<double> c = {kNaN};
  DGemm(false, false, 1, 1, 1, 1.0, a.data(), 1, b.data(), 1, 0.0, c.data(),
        1);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
}

TEST(DGemmDeterminismTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(44);
  const int64_t m = 130, n = 6, k = 300;
  std::vector<double> a = RandomVec(static_cast<size_t>(m * k), &rng);
  std::vector<double> b = RandomVec(static_cast<size_t>(k * n), &rng);
  std::vector<double> c1(static_cast<size_t>(m * n), 0.0);
  DGemmWithThreads(false, false, m, n, k, 1.0, a.data(), k, b.data(), n, 0.0,
                   c1.data(), n, /*num_threads=*/1);
  for (int threads : {2, 3, 8}) {
    std::vector<double> cn(static_cast<size_t>(m * n), 0.0);
    DGemmWithThreads(false, false, m, n, k, 1.0, a.data(), k, b.data(), n,
                     0.0, cn.data(), n, threads);
    ASSERT_EQ(std::memcmp(c1.data(), cn.data(), c1.size() * sizeof(double)),
              0)
        << "results diverge at " << threads << " threads";
  }
}

TEST(DGemmDeterminismTest, PackedOperandMatchesUnpackedBitForBit) {
  Rng rng(45);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int64_t m : {int64_t{5}, int64_t{70}, int64_t{130}}) {
        for (int64_t k : {int64_t{9}, int64_t{256}, int64_t{300}}) {
          const int64_t n = 3;
          const int64_t lda = ta ? m : k;
          std::vector<double> a =
              RandomVec(static_cast<size_t>((ta ? k : m) * lda), &rng);
          std::vector<double> b =
              RandomVec(static_cast<size_t>((tb ? n : k) * (tb ? k : n)),
                        &rng);
          std::vector<double> c_plain(static_cast<size_t>(m * n), 0.0);
          std::vector<double> c_packed = c_plain;
          DGemm(ta, tb, m, n, k, 1.0, a.data(), lda, b.data(), tb ? k : n,
                0.0, c_plain.data(), n);
          const DGemmPackedA packed =
              DGemmPackOperandA(ta, m, k, a.data(), lda);
          DGemmWithPackedA(packed, tb, n, b.data(), tb ? k : n, 0.0,
                           c_packed.data(), n);
          ASSERT_EQ(std::memcmp(c_plain.data(), c_packed.data(),
                                c_plain.size() * sizeof(double)),
                    0)
              << "ta=" << ta << " tb=" << tb << " m=" << m << " k=" << k;
        }
      }
    }
  }
}

void ExpectBitEqual(const Matrix& got, const Matrix& want,
                    const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.size()) * sizeof(double)),
            0)
      << what << " differs from its reference (" << want.rows() << " x "
      << want.cols() << ")";
}

/// A test block: `rows` x `stride` values of float precision, held as
/// floats and as their widened doubles. A slice of it starts at column 3
/// and leaves columns to its right, as an in-block slice does.
struct TwinBlock {
  std::vector<float> f32;
  Matrix f64;
  int64_t stride = 0;

  template <typename T>
  em::Slice<T> SliceOf(int64_t cols) const;
};

template <>
em::Slice<float> TwinBlock::SliceOf(int64_t cols) const {
  return {f32.data() + 3, f64.rows(), cols, stride};
}
template <>
em::Slice<double> TwinBlock::SliceOf(int64_t cols) const {
  return {f64.data() + 3, f64.rows(), cols, stride};
}

/// `values` draws each element: Uniform (Gaussian data), 0/1 (one-hot
/// LPs) or a fraction (the no-one-hot ablation's LPs).
enum class Values { kUniform, kBinary, kFraction };

TwinBlock MakeTwinBlock(int64_t rows, int64_t cols, Values values, Rng* rng) {
  TwinBlock block;
  block.stride = cols + 5;
  block.f32.resize(static_cast<size_t>(rows * block.stride));
  block.f64 = Matrix(rows, block.stride);
  for (size_t i = 0; i < block.f32.size(); ++i) {
    const double v = values == Values::kBinary
                         ? (rng->Bernoulli(0.5) ? 1.0 : 0.0)
                         : rng->Uniform() * (values == Values::kUniform ? 2.0
                                                                        : 1.0);
    block.f32[i] = static_cast<float>(v);
    block.f64.data()[i] = static_cast<double>(block.f32[i]);
  }
  return block;
}

/// The design a fit's products see, built here independently of the
/// library: [x² | x] (each square rounded once) or x, N x W.
Matrix ReferenceDesign(const em::Slice<double>& x, bool squares) {
  const int64_t d = x.cols;
  Matrix design(x.rows, squares ? 2 * d : d);
  for (int64_t i = 0; i < x.rows; ++i) {
    const double* row = x.data + i * x.stride;
    for (int64_t j = 0; j < d; ++j) {
      if (squares) design(i, j) = row[j] * row[j];
      design(i, squares ? d + j : j) = row[j];
    }
  }
  return design;
}

/// The EM products on one slice, as a fit runs them: the E-step's
/// design · panelᵀ (panel cols x W) and the M-step's designᵀ · resp (resp
/// N x cols) must equal DGemmReference on ReferenceDesign bit for bit, for
/// the float slice and its double twin, at every stacked column count
/// from 1 to 8. Outputs start NaN-filled at their final shape, as a
/// reused workspace's do. Everything else in EM is one shared
/// implementation, so equal products mean equal fit trajectories.
void CheckEmProducts(const TwinBlock& block, int64_t d, bool squares,
                     Rng* rng) {
  const em::Slice<double> x = block.SliceOf<double>(d);
  const int64_t n = x.rows;
  const Matrix design = ReferenceDesign(x, squares);
  const int64_t w = design.cols();
  std::vector<float> f32_storage;
  std::vector<double> f64_storage;
  const em::Design<float> f32_design =
      em::MakeDesign(block.SliceOf<float>(d), squares, &f32_storage);
  const em::Design<double> f64_design =
      em::MakeDesign(x, squares, &f64_storage);
  for (int64_t cols = 1; cols <= 8; ++cols) {
    SCOPED_TRACE(testing::Message() << "cols=" << cols);
    Matrix panel(cols, w);
    for (int64_t i = 0; i < panel.size(); ++i) {
      panel.data()[i] = rng->Gaussian();
    }
    const Matrix resp = RandomMatrix(n, cols, rng);
    Matrix want_e(n, cols), want_m(w, cols);
    DGemmReference(/*transpose_a=*/false, /*transpose_b=*/true, n, cols, w,
                   1.0, design.data(), w, panel.data(), w, 0.0,
                   want_e.data(), cols);
    DGemmReference(/*transpose_a=*/true, /*transpose_b=*/false, w, cols, n,
                   1.0, design.data(), w, resp.data(), cols, 0.0,
                   want_m.data(), cols);
    Matrix e32(n, cols, kNaN), e64(n, cols, kNaN);
    Matrix m32(w, cols, kNaN), m64(w, cols, kNaN);
    em::EStepProducts(f32_design, panel, &e32);
    em::EStepProducts(f64_design, panel, &e64);
    em::MStepProducts(f32_design, resp, &m32);
    em::MStepProducts(f64_design, resp, &m64);
    ExpectBitEqual(e32, want_e, "float E-step");
    ExpectBitEqual(e64, want_e, "double E-step");
    ExpectBitEqual(m32, want_m, "float M-step");
    ExpectBitEqual(m64, want_m, "double M-step");
  }
}

// n and d straddle every tier's row and dimension tiles and kEmRowAlign;
// 2d > 256 (d >= 257) crosses kGemmKChunk on the E-step depth, once
// inside the x² half (d = 300, 480) and at its end (d = 257 puts the
// second chunk boundary at 512 > 2d); n >= 257 crosses it on the M-step
// depth. 480 x 480 is a pool-480 base GMM's slice.
const int64_t kEmSizes[] = {7, 33, 108, 257, 300, 480};

TEST(EmProductTest, GaussianDesignProductsMatchDGemmReference) {
  Rng rng(1);
  for (const int64_t n : kEmSizes) {
    for (const int64_t d : kEmSizes) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d);
      CheckEmProducts(MakeTwinBlock(n, d, Values::kUniform, &rng), d,
                      /*squares=*/true, &rng);
    }
  }
}

TEST(EmProductTest, BernoulliDesignProductsMatchDGemmReference) {
  // 0/1 one-hot LP designs, and fractional ones (the no-one-hot
  // ablation's input), squares off.
  Rng rng(11);
  for (const Values values : {Values::kBinary, Values::kFraction}) {
    for (const int64_t n : kEmSizes) {
      for (const int64_t d : kEmSizes) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d
                                        << " binary="
                                        << (values == Values::kBinary));
        CheckEmProducts(MakeTwinBlock(n, d, values, &rng), d,
                        /*squares=*/false, &rng);
      }
    }
  }
}

// A reused workspace: a second, smaller and then equal-shape design in
// the same storage must not see the first one's entries (the padding
// rows past N are zeroed again).
TEST(EmProductTest, ReusedWorkspaceMatchesFreshOne) {
  Rng rng(12);
  std::vector<float> storage;
  for (const int64_t n : {int64_t{300}, int64_t{108}, int64_t{108}}) {
    const TwinBlock block = MakeTwinBlock(n, 60, Values::kUniform, &rng);
    std::vector<float> fresh_storage;
    const em::Design<float> reused =
        em::MakeDesign(block.SliceOf<float>(60), true, &storage);
    const em::Design<float> fresh =
        em::MakeDesign(block.SliceOf<float>(60), true, &fresh_storage);
    Matrix panel(4, 120);
    for (int64_t i = 0; i < panel.size(); ++i) {
      panel.data()[i] = rng.Gaussian();
    }
    Matrix got, want;
    em::EStepProducts(reused, panel, &got);
    em::EStepProducts(fresh, panel, &want);
    ExpectBitEqual(got, want, "E-step on a reused workspace");
  }
}

// The base layer fits float slices and the DiagonalGmm::Fit(Matrix)
// baselines double ones, on one EM: a float block and its widened Matrix
// must fit to the same parameters, LL history and posterior, bit for bit.
TEST(EmProductTest, FloatBlockFitsLikeItsWidenedMatrix) {
  Rng rng(13);
  for (const int64_t n : {int64_t{108}, int64_t{257}}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    TwinBlock block;
    block.stride = 2 * n + 3;
    block.f32.resize(static_cast<size_t>(n * block.stride));
    block.f64 = Matrix(n, block.stride);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < block.stride; ++j) {
        const bool same_class = (i % 2) == (j % 2);
        const float v = static_cast<float>(
            (same_class ? 0.52 : 0.48) + 0.4 * rng.Uniform());
        block.f32[static_cast<size_t>(i * block.stride + j)] = v;
        block.f64(i, j) = v;
      }
    }
    GmmConfig config;
    config.num_components = 2;
    DiagonalGmm from_float(config), from_double(config);
    std::vector<float> f32_workspace;
    std::vector<double> f64_workspace;
    Matrix float_posterior, double_posterior;
    ASSERT_TRUE(from_float
                    .FitPredict(block.SliceOf<float>(n), &f32_workspace,
                                &float_posterior)
                    .ok());
    ASSERT_TRUE(from_double
                    .FitPredict(block.SliceOf<double>(n), &f64_workspace,
                                &double_posterior)
                    .ok());
    ASSERT_GE(from_double.log_likelihood_history().size(), 3u);
    const std::vector<double>& got = from_float.log_likelihood_history();
    const std::vector<double>& want = from_double.log_likelihood_history();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0);
    ExpectBitEqual(from_float.means(), from_double.means(), "means");
    ExpectBitEqual(from_float.variances(), from_double.variances(),
                   "variances");
    EXPECT_EQ(std::memcmp(from_float.weights().data(),
                          from_double.weights().data(),
                          from_double.weights().size() * sizeof(double)),
              0);
    ExpectBitEqual(float_posterior, double_posterior, "posterior");
  }
}

// Serial vs parallel execution: ScopedSerialKernels forces every
// ParallelFor under it (the kernels' internal row-tile parallelism) onto
// one thread; an unmarked Fit uses the default worker count. The
// trajectories must match bit for bit.
TEST(EmThreadInvarianceTest, GmmFitBitIdenticalSerialVsParallel) {
  Rng rng(21);
  Matrix x = RandomMatrix(90, 90, &rng);
  GmmConfig config;
  config.num_components = 3;
  config.num_restarts = 4;
  config.max_iters = 12;
  config.tol = 0.0;

  DiagonalGmm parallel_fit(config);
  ASSERT_TRUE(parallel_fit.Fit(x).ok());
  DiagonalGmm serial_fit(config);
  {
    ScopedSerialKernels serial;
    ASSERT_TRUE(serial_fit.Fit(x).ok());
  }
  EXPECT_EQ(parallel_fit.log_likelihood_history(),
            serial_fit.log_likelihood_history());
  ASSERT_EQ(std::memcmp(parallel_fit.means().data(),
                        serial_fit.means().data(),
                        static_cast<size_t>(parallel_fit.means().size()) *
                            sizeof(double)),
            0);
  ASSERT_EQ(std::memcmp(parallel_fit.variances().data(),
                        serial_fit.variances().data(),
                        static_cast<size_t>(parallel_fit.variances().size()) *
                            sizeof(double)),
            0);
  ASSERT_EQ(parallel_fit.weights(), serial_fit.weights());
}

TEST(EmThreadInvarianceTest, BernoulliFitBitIdenticalSerialVsParallel) {
  Rng rng(22);
  Matrix b(120, 40);
  for (int64_t i = 0; i < b.size(); ++i) {
    b.data()[i] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
  }
  BernoulliMixtureConfig config;
  config.num_components = 2;
  config.num_restarts = 4;
  config.max_iters = 12;
  config.tol = 0.0;

  BernoulliMixture parallel_fit(config);
  ASSERT_TRUE(parallel_fit.Fit(b).ok());
  BernoulliMixture serial_fit(config);
  {
    ScopedSerialKernels serial;
    ASSERT_TRUE(serial_fit.Fit(b).ok());
  }
  EXPECT_EQ(parallel_fit.log_likelihood_history(),
            serial_fit.log_likelihood_history());
  ASSERT_EQ(std::memcmp(parallel_fit.bernoulli_params().data(),
                        serial_fit.bernoulli_params().data(),
                        static_cast<size_t>(
                            parallel_fit.bernoulli_params().size()) *
                            sizeof(double)),
            0);
  ASSERT_EQ(parallel_fit.weights(), serial_fit.weights());
}

// Top-level vs nested execution with the kernels' internal parallelism
// still enabled: running Fit from inside a ParallelFor worker, as the
// base layer does, runs its stacked products serially (nested
// parallelism) while a top-level Fit spreads them over the pool — results
// must not depend on which happened.
TEST(EmThreadInvarianceTest, GmmFitBitIdenticalInsideWorkerThread) {
  Rng rng(23);
  Matrix x = RandomMatrix(70, 50, &rng);
  GmmConfig config;
  config.num_components = 2;
  config.num_restarts = 4;
  config.max_iters = 10;
  config.tol = 0.0;

  DiagonalGmm top_level(config);
  ASSERT_TRUE(top_level.Fit(x).ok());

  DiagonalGmm nested(config);
  Status nested_status = Status::OK();
  ParallelFor(0, 1, [&](int64_t) { nested_status = nested.Fit(x); });
  ASSERT_TRUE(nested_status.ok());

  EXPECT_EQ(top_level.log_likelihood_history(),
            nested.log_likelihood_history());
  ASSERT_EQ(std::memcmp(top_level.means().data(), nested.means().data(),
                        static_cast<size_t>(top_level.means().size()) *
                            sizeof(double)),
            0);
}

// The base layer's fit-time posterior comes from the fit's own design
// (DiagonalGmm::FitPredict), not from a second transposed copy: it
// must equal the fitted model's PredictProba on the function's block,
// mapped the same way, bit for bit.
TEST(EmThreadInvarianceTest, FitTimePosteriorMatchesPredictProba) {
  Rng rng(24);
  const int64_t n = 40, alpha = 3;
  // Affinities are floats: Fit refuses entries no float holds exactly.
  Matrix affinity = RandomMatrix(n, alpha * n, &rng);
  for (int64_t i = 0; i < affinity.size(); ++i) {
    affinity.data()[i] = static_cast<float>(affinity.data()[i]);
  }
  std::vector<int> dev_indices, dev_labels;
  for (int i = 0; i < 8; ++i) {
    dev_indices.push_back(i);
    dev_labels.push_back(i % 2);
  }
  HierarchicalConfig config;
  config.base.max_iters = 15;
  FittedHierarchicalModel fitted;
  Result<LabelingResult> result = HierarchicalLabeler(config).Fit(
      affinity, dev_indices, dev_labels, /*num_classes=*/2, &fitted);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(result->base_label_predictions.size()),
            alpha);
  for (int64_t f = 0; f < alpha; ++f) {
    Result<Matrix> proba =
        fitted.base_models[static_cast<size_t>(f)].PredictProba(
            affinity.Block(0, f * n, n, n));
    ASSERT_TRUE(proba.ok());
    const Matrix expected =
        ApplyMapping(*proba, fitted.base_mappings[static_cast<size_t>(f)]);
    const Matrix& got =
        result->base_label_predictions[static_cast<size_t>(f)];
    ASSERT_EQ(got.rows(), expected.rows());
    ASSERT_EQ(got.cols(), expected.cols());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          static_cast<size_t>(got.size()) * sizeof(double)),
              0)
        << "function " << f;
  }
}

// ---- The M-step's responsibilities --------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(EmResponsibilityTest, FlushesExactlyTheSubnormals) {
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // log(DBL_MIN) = -708.3964185322641 and its neighbours on both sides,
  // then values well inside the subnormal range (exp(-745.2) underflows
  // to 0), -inf, NaN and ordinary log responsibilities.
  const double log_min = -708.3964185322641;
  std::vector<double> inputs = {-720.0, -745.2, -kInf, kNaN, 0.0, -1e-3};
  const size_t first_neighbour = inputs.size();
  double below = log_min, above = log_min;
  for (int step = 0; step < 4; ++step) {
    below = std::nextafter(below, -kInf);
    above = std::nextafter(above, kInf);
    inputs.push_back(below);
    inputs.push_back(above);
  }
  inputs.push_back(log_min);
  Matrix log_resp(static_cast<int64_t>(inputs.size()), 1);
  std::copy(inputs.begin(), inputs.end(), log_resp.data());

  Matrix resp(log_resp.rows(), 1, kNaN);
  em::ResponsibilitiesInto(log_resp, &resp);
  Matrix in_place = log_resp;
  em::ResponsibilitiesInto(in_place, &in_place);
  ExpectBitEqual(in_place, resp, "in-place ResponsibilitiesInto");

  int flushed_neighbours = 0, kept_neighbours = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "log_resp=" << inputs[i]);
    const double want = std::exp(inputs[i]);
    const double got = resp.data()[i];
    const bool neighbour = i >= first_neighbour;
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got));
    } else if (want >= kMinNormal) {
      EXPECT_TRUE(SameBits(got, want)) << got << " vs " << want;
      if (neighbour) ++kept_neighbours;
    } else {
      EXPECT_TRUE(SameBits(got, 0.0)) << got;
      EXPECT_FALSE(std::signbit(got));
      if (neighbour) ++flushed_neighbours;
    }
  }
  // The neighbours straddle the threshold: both outcomes are exercised.
  EXPECT_GT(flushed_neighbours, 0);
  EXPECT_GT(kept_neighbours, 0);
  // Plain exp makes -720 subnormal; -745.2 already underflows to +0.
  EXPECT_EQ(std::fpclassify(std::exp(-720.0)), FP_SUBNORMAL);
  EXPECT_TRUE(SameBits(std::exp(-745.2), 0.0));
}

// A saturated base GMM: the two-cluster [x² | x] design of
// BM_BaseGmmFitPredictSaturated (one 480 x 480 slice), whose class signal
// grows along the rows so that the rows' log-odds sweep through the
// subnormal range of exp. After the fit, one more E-step must leave subnormal
// responsibilities, and the M-step product on the flushed operand must
// equal the product on the unflushed one, bit for bit, for every
// component holding at least one row of mass.
TEST(EmResponsibilityTest, FlushedSubnormalsAreAbsorbedByTheMStep) {
  const int64_t n = 480;
  Rng rng(41);
  Matrix x(n, n);
  for (int64_t i = 0; i < n; ++i) {
    const double signal = 0.3 * static_cast<double>(i) / n;
    for (int64_t j = 0; j < n; ++j) {
      const bool same_class = (i % 2) == (j % 2);
      x(i, j) = 0.3 + (same_class ? signal : -signal) + 0.4 * rng.Uniform();
    }
  }
  GmmConfig config;
  config.num_components = 2;
  DiagonalGmm gmm(config);
  ASSERT_TRUE(gmm.Fit(x).ok());

  Matrix panel;
  std::vector<double> offsets;
  gmm.EStepPanel(&panel, &offsets);
  std::vector<double> storage;
  const em::Design<double> design =
      em::MakeDesign(em::WholeMatrix(x), /*squares=*/true, &storage);
  Matrix log_resp;
  em::EStepProducts(design, panel, &log_resp);
  em::LogSoftmaxRowsInPlace(offsets, &log_resp);

  Matrix exact, flushed;
  em::ExpInto(log_resp, &exact);
  em::ResponsibilitiesInto(log_resp, &flushed);
  int64_t subnormals = 0;
  for (int64_t i = 0; i < exact.size(); ++i) {
    if (std::fpclassify(exact.data()[i]) == FP_SUBNORMAL) ++subnormals;
  }
  ASSERT_GE(subnormals, 1) << "the design must exercise the flush";

  std::vector<double> nk;
  em::ColumnSums(flushed, &nk);
  Matrix exact_moments, flushed_moments;
  em::MStepProducts(design, exact, &exact_moments);
  em::MStepProducts(design, flushed, &flushed_moments);
  int compared = 0;
  for (int64_t c = 0; c < flushed.cols(); ++c) {
    if (!(nk[static_cast<size_t>(c)] >= 1.0)) continue;
    ++compared;
    for (int64_t j = 0; j < exact_moments.rows(); ++j) {
      ASSERT_TRUE(SameBits(flushed_moments(j, c), exact_moments(j, c)))
          << "component " << c << " dimension " << j << ": "
          << flushed_moments(j, c) << " vs " << exact_moments(j, c);
    }
  }
  EXPECT_EQ(compared, 2) << subnormals << " subnormal responsibilities";
}

// ---- The lockstep restart driver ----------------------------------------

// A test-local mixture for em::FitBestRestart: unit-variance spherical
// Gaussians over the rows of the design, means and weights free. With the
// row-constant −½|x|² − ½D·log 2π dropped from every component, panel row
// c = μ_c and offsets[c] = log w_c − ½|μ_c|²; the M-step is
// μ_c = moments[:, c] / nk_c, w_c = nk_c / N.
struct LockstepConfig {
  uint64_t seed = 5;
  int num_restarts = 1;
  int max_iters = 100;
  double tol = 1e-6;
};

struct LockstepState {
  Matrix means;
  std::vector<double> weights;
};

struct LockstepFit {
  LockstepState state;
  std::vector<double> history;
  double ll = 0.0;
};

void BuildLockstepPanel(const LockstepState& state, Matrix* panel,
                        std::vector<double>* offsets) {
  *panel = state.means;
  offsets->resize(state.weights.size());
  for (int64_t c = 0; c < panel->rows(); ++c) {
    double half_norm = 0.0;
    for (int64_t j = 0; j < panel->cols(); ++j) {
      half_norm += 0.5 * (*panel)(c, j) * (*panel)(c, j);
    }
    (*offsets)[static_cast<size_t>(c)] =
        std::log(state.weights[static_cast<size_t>(c)]) - half_norm;
  }
}

// Fits `design` with `config`; a non-negative `fixed_fork` pins every
// restart's init to Rng(config.seed).Fork(fixed_fork), the solo run of
// that restart when config.num_restarts = 1.
LockstepFit FitLockstep(const Matrix& design, int k,
                        const LockstepConfig& config, int fixed_fork = -1) {
  const int64_t n = design.rows(), d = design.cols();
  auto init = [&](Rng* rng, em::Scratch*) {
    Rng fixed = Rng(config.seed).Fork(static_cast<uint64_t>(fixed_fork));
    Rng* draw = fixed_fork >= 0 ? &fixed : rng;
    LockstepState state{Matrix(k, d),
                        std::vector<double>(static_cast<size_t>(k), 1.0 / k)};
    const std::vector<int> picks =
        draw->SampleWithoutReplacement(static_cast<int>(n), k);
    for (int c = 0; c < k; ++c) {
      for (int64_t j = 0; j < d; ++j) {
        state.means(c, j) = design(picks[static_cast<size_t>(c)], j);
      }
    }
    return state;
  };
  auto update = [n, d](const std::vector<double>& nk, const Matrix& moments,
                       int64_t first, LockstepState* state) {
    for (int64_t c = 0; c < state->means.rows(); ++c) {
      const double mass = std::max(nk[static_cast<size_t>(first + c)], 1e-12);
      for (int64_t j = 0; j < d; ++j) {
        state->means(c, j) = moments(j, first + c) / mass;
      }
      state->weights[static_cast<size_t>(c)] = mass / static_cast<double>(n);
    }
  };
  std::vector<double> storage;
  LockstepFit fit;
  fit.ll = em::FitBestRestart(
      em::MakeDesign(em::WholeMatrix(design), /*squares=*/false, &storage),
      config, init, BuildLockstepPanel, update, &fit.state, &fit.history);
  return fit;
}

void ExpectSameFit(const LockstepFit& got, const LockstepFit& want) {
  ASSERT_EQ(got.history.size(), want.history.size());
  EXPECT_EQ(std::memcmp(got.history.data(), want.history.data(),
                        got.history.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&got.ll, &want.ll, sizeof(double)), 0);
  ExpectBitEqual(got.state.means, want.state.means, "lockstep means");
  ASSERT_EQ(got.state.weights.size(), want.state.weights.size());
  EXPECT_EQ(std::memcmp(got.state.weights.data(), want.state.weights.data(),
                        got.state.weights.size() * sizeof(double)),
            0);
}

// Four loose, unequal clusters in 6 dimensions, fitted with K = 3: the
// restarts start from different rows and converge after different
// numbers of iterations.
Matrix LockstepDesign() {
  Rng rng(31);
  const int64_t n = 160, d = 6;
  Matrix x(n, d);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t cluster = i % 4;
    for (int64_t j = 0; j < d; ++j) {
      const double center = (j % 4 == cluster) ? 2.5 : 0.0;
      x(i, j) = center + rng.Gaussian() * (1.0 + 0.25 * cluster);
    }
  }
  return x;
}

TEST(EmLockstepTest, EachRestartFollowsItsSoloTrajectory) {
  const Matrix design = LockstepDesign();
  const int k = 3;
  for (int max_iters : {0, 1, 100}) {
    LockstepConfig config;
    config.max_iters = max_iters;
    std::vector<LockstepFit> solo;
    LockstepConfig solo_config = config;
    solo_config.num_restarts = 1;
    for (int r = 0; r < 4; ++r) {
      solo.push_back(FitLockstep(design, k, solo_config, r));
    }
    if (max_iters == 100) {
      // The restarts stop at different iterations, all before the cap,
      // so the stack shrinks mid-fit and the stop rule is exercised: a
      // run ends at its first LL gain below tol, never later.
      std::vector<size_t> lengths;
      for (const LockstepFit& fit : solo) {
        const std::vector<double>& h = fit.history;
        lengths.push_back(h.size());
        ASSERT_GE(h.size(), 2u);
        EXPECT_LT(h.size(), 100u);
        EXPECT_LT(h.back() - h[h.size() - 2], config.tol);
        for (size_t i = 1; i + 1 < h.size(); ++i) {
          EXPECT_GE(h[i] - h[i - 1], config.tol) << "iteration " << i;
        }
      }
      EXPECT_GT(*std::max_element(lengths.begin(), lengths.end()),
                *std::min_element(lengths.begin(), lengths.end()));
    }
    for (int num_restarts = 1; num_restarts <= 4; ++num_restarts) {
      SCOPED_TRACE(testing::Message() << "max_iters=" << max_iters
                                      << " restarts=" << num_restarts);
      // The pick: the first restart whose final LL is a strict maximum.
      size_t winner = 0;
      for (size_t r = 1; r < static_cast<size_t>(num_restarts); ++r) {
        if (solo[r].ll > solo[winner].ll) winner = r;
      }
      config.num_restarts = num_restarts;
      ExpectSameFit(FitLockstep(design, k, config), solo[winner]);
    }
  }
}

// Adding a restart that does not win must leave the fit as it was: the
// lockstep stack never lets one restart's lane touch another's.
TEST(EmLockstepTest, NonWinningRestartLeavesMixtureFitsUnchanged) {
  Rng rng(32);
  const Matrix x = LockstepDesign();
  Matrix b(120, 30);
  for (int64_t i = 0; i < b.size(); ++i) {
    b.data()[i] = rng.Bernoulli(0.3 + 0.4 * ((i / 30) % 2)) ? 1.0 : 0.0;
  }
  int gmm_unchanged = 0, bernoulli_unchanged = 0;
  GmmConfig gmm_config;
  gmm_config.num_components = 3;
  BernoulliMixtureConfig bernoulli_config;
  bernoulli_config.num_components = 3;
  for (int num_restarts = 2; num_restarts <= 6; ++num_restarts) {
    SCOPED_TRACE(testing::Message() << "restarts=" << num_restarts);
    gmm_config.num_restarts = num_restarts - 1;
    DiagonalGmm gmm_before(gmm_config);
    ASSERT_TRUE(gmm_before.Fit(x).ok());
    gmm_config.num_restarts = num_restarts;
    DiagonalGmm gmm_after(gmm_config);
    ASSERT_TRUE(gmm_after.Fit(x).ok());
    EXPECT_GE(gmm_after.final_log_likelihood(),
              gmm_before.final_log_likelihood());
    if (gmm_after.final_log_likelihood() ==
        gmm_before.final_log_likelihood()) {
      ++gmm_unchanged;
      EXPECT_EQ(gmm_after.log_likelihood_history(),
                gmm_before.log_likelihood_history());
      ExpectBitEqual(gmm_after.means(), gmm_before.means(), "GMM means");
      ExpectBitEqual(gmm_after.variances(), gmm_before.variances(),
                     "GMM variances");
      EXPECT_EQ(gmm_after.weights(), gmm_before.weights());
    }

    bernoulli_config.num_restarts = num_restarts - 1;
    BernoulliMixture bernoulli_before(bernoulli_config);
    ASSERT_TRUE(bernoulli_before.Fit(b).ok());
    bernoulli_config.num_restarts = num_restarts;
    BernoulliMixture bernoulli_after(bernoulli_config);
    ASSERT_TRUE(bernoulli_after.Fit(b).ok());
    EXPECT_GE(bernoulli_after.final_log_likelihood(),
              bernoulli_before.final_log_likelihood());
    if (bernoulli_after.final_log_likelihood() ==
        bernoulli_before.final_log_likelihood()) {
      ++bernoulli_unchanged;
      EXPECT_EQ(bernoulli_after.log_likelihood_history(),
                bernoulli_before.log_likelihood_history());
      ExpectBitEqual(bernoulli_after.bernoulli_params(),
                     bernoulli_before.bernoulli_params(), "Bernoulli params");
      EXPECT_EQ(bernoulli_after.weights(), bernoulli_before.weights());
    }
  }
  // The data must exercise the prefix case for both mixtures.
  EXPECT_GT(gmm_unchanged, 0);
  EXPECT_GT(bernoulli_unchanged, 0);
}

}  // namespace
}  // namespace goggles
