#include "tensor/gemm.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

/// \file tensor_gemm_test.cc
/// \brief Exhaustive SGemm correctness suite against a trivial reference:
/// all four transpose combinations x non-tight lda/ldb/ldc strides x
/// alpha/beta in {0, 1, 0.5} x sizes straddling the packing tile
/// boundaries — plus BLAS-semantics regressions (NaN propagation, the
/// alpha == 0 shortcut) and a multi-thread bit-determinism check. The
/// fused Eq. 2 scorer (PrototypeMaxScores) is checked bit for bit against
/// SGemmReference followed by the max over positions.

namespace goggles {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Natural triple-loop reference with double accumulation.
void ReferenceGemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                   float alpha, const float* a, int64_t lda, const float* b,
                   int64_t ldb, float beta, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      const double prior =
          beta == 0.0f ? 0.0
                       : static_cast<double>(beta) *
                             static_cast<double>(c[i * ldc + j]);
      c[i * ldc + j] =
          static_cast<float>(static_cast<double>(alpha) * acc + prior);
    }
  }
}

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

/// One full comparison of SGemm against the reference for the given
/// geometry. Strides add `slack` columns beyond the tight leading
/// dimension; the slack region is verified untouched.
void CheckCase(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha,
               float beta, int64_t slack, Rng* rng) {
  const int64_t lda = (ta ? m : k) + slack;
  const int64_t ldb = (tb ? k : n) + slack;
  const int64_t ldc = n + slack;
  const int64_t a_rows = ta ? k : m;
  const int64_t b_rows = tb ? n : k;

  std::vector<float> a = RandomVec(static_cast<size_t>(a_rows * lda), rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(b_rows * ldb), rng);
  std::vector<float> c = RandomVec(static_cast<size_t>(m * ldc), rng);
  std::vector<float> expected = c;

  ReferenceGemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                expected.data(), ldc);
  SGemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(),
        ldc);

  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < ldc; ++j) {
      const float got = c[static_cast<size_t>(i * ldc + j)];
      const float want = expected[static_cast<size_t>(i * ldc + j)];
      const float tol =
          j < n ? 1e-4f * (std::abs(want) + static_cast<float>(k)) : 0.0f;
      ASSERT_NEAR(got, want, tol)
          << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
          << " k=" << k << " alpha=" << alpha << " beta=" << beta
          << " slack=" << slack << " at (" << i << ", " << j << ")";
    }
  }
}

// Sizes straddling the micro-tile (4/8/16) and macro-tile (64) boundaries.
const int64_t kSizes[] = {1, 7, 8, 9, 63, 64, 65};

TEST(SGemmExhaustiveTest, AllTransposesSizesAndStrides) {
  Rng rng(42);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int64_t m : kSizes) {
        for (int64_t n : kSizes) {
          for (int64_t k : kSizes) {
            const int64_t slack = (m + n + k) % 2 == 0 ? 0 : 3;
            CheckCase(ta, tb, m, n, k, 1.0f, 0.0f, slack, &rng);
          }
        }
      }
    }
  }
}

TEST(SGemmExhaustiveTest, AlphaBetaGrid) {
  Rng rng(43);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (float alpha : {0.0f, 1.0f, 0.5f}) {
        for (float beta : {0.0f, 1.0f, 0.5f}) {
          for (int64_t size : {int64_t{9}, int64_t{65}}) {
            CheckCase(ta, tb, size, size + 1, size - 1, alpha, beta,
                      /*slack=*/3, &rng);
          }
        }
      }
    }
  }
}

// Regression: the old kernel skipped the inner accumulation whenever
// alpha * a(i, p) == 0, so NaN/Inf in B silently failed to propagate.
TEST(SGemmSemanticsTest, NanInBPropagatesThroughZeroInA) {
  // A = [0, 1], B = [[NaN], [2]]: the zero in A multiplies the NaN.
  const std::vector<float> a = {0.0f, 1.0f};
  const std::vector<float> b = {kNaN, 2.0f};
  std::vector<float> c = {0.0f};
  SGemm(false, false, 1, 1, 2, 1.0f, a.data(), 2, b.data(), 1, 0.0f, c.data(),
        1);
  EXPECT_TRUE(std::isnan(c[0])) << "0 * NaN must propagate, got " << c[0];
}

TEST(SGemmSemanticsTest, NanInAPropagates) {
  const std::vector<float> a = {kNaN, 0.0f};
  const std::vector<float> b = {0.0f, 3.0f};
  std::vector<float> c = {1.0f};
  SGemm(false, false, 1, 1, 2, 1.0f, a.data(), 2, b.data(), 1, 0.0f, c.data(),
        1);
  EXPECT_TRUE(std::isnan(c[0]));
}

TEST(SGemmSemanticsTest, InfInBPropagates) {
  const std::vector<float> a = {0.0f, 2.0f};
  const std::vector<float> b = {kInf, 1.0f};
  std::vector<float> c = {0.0f};
  SGemm(false, false, 1, 1, 2, 1.0f, a.data(), 2, b.data(), 1, 0.0f, c.data(),
        1);
  // 0 * inf = NaN joins 2 * 1; NaN + 2 = NaN.
  EXPECT_TRUE(std::isnan(c[0]));
}

// BLAS: alpha == 0 means A and B are not referenced at all — NaN there
// must NOT reach C, and C = beta * C exactly.
TEST(SGemmSemanticsTest, AlphaZeroDoesNotReferenceAOrB) {
  const std::vector<float> a = {kNaN, kNaN, kNaN, kNaN};
  const std::vector<float> b = {kNaN, kNaN, kNaN, kNaN};
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  SGemm(false, false, 2, 2, 2, 0.0f, a.data(), 2, b.data(), 2, 0.5f, c.data(),
        2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// BLAS: beta == 0 overwrites C without reading it — stale NaN in C must
// not survive.
TEST(SGemmSemanticsTest, BetaZeroOverwritesStaleNaN) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {2.0f};
  std::vector<float> c = {kNaN};
  SGemm(false, false, 1, 1, 1, 1.0f, a.data(), 1, b.data(), 1, 0.0f, c.data(),
        1);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

// The serving path depends on this: every C element is accumulated in a
// fixed order regardless of the worker-thread count, so results are
// bit-identical at 1 and N threads.
TEST(SGemmDeterminismTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(44);
  const int64_t m = 130, n = 70, k = 90;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), &rng);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f);
  SGemmWithThreads(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                   c1.data(), n, /*num_threads=*/1);
  for (int threads : {2, 3, 8}) {
    std::vector<float> cn(static_cast<size_t>(m * n), 0.0f);
    SGemmWithThreads(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                     0.0f, cn.data(), n, threads);
    ASSERT_EQ(std::memcmp(c1.data(), cn.data(), c1.size() * sizeof(float)), 0)
        << "results diverge at " << threads << " threads";
  }
}

// The batched affinity scorer additionally relies on shape-independence:
// the same logical dot product computed inside GEMMs of different heights
// must produce the identical float.
TEST(SGemmDeterminismTest, RowResultIndependentOfProblemHeight) {
  Rng rng(45);
  const int64_t n = 48, k = 33;
  std::vector<float> a = RandomVec(static_cast<size_t>(200 * k), &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), &rng);
  std::vector<float> big(static_cast<size_t>(200 * n), 0.0f);
  SGemm(false, false, 200, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        big.data(), n);
  // Row 137 recomputed as a 1-row GEMM must match bit for bit.
  std::vector<float> one(static_cast<size_t>(n), 0.0f);
  SGemm(false, false, 1, n, k, 1.0f, a.data() + 137 * k, k, b.data(), n, 0.0f,
        one.data(), n);
  ASSERT_EQ(std::memcmp(big.data() + 137 * n, one.data(),
                        one.size() * sizeof(float)),
            0);
}

TEST(SGemmDeterminismTest, MatchesNaiveOrderForSmallK) {
  // With k <= KC the kernel accumulates each element serially in ascending
  // k; spot-check exact equality against that order.
  Rng rng(46);
  const int64_t m = 5, n = 17, k = 12;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), &rng);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), &rng);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  SGemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
        n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fma(a[static_cast<size_t>(i * k + p)],
                       b[static_cast<size_t>(p * n + j)], acc);
      }
      const float plain = [&] {
        float s = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          s += a[static_cast<size_t>(i * k + p)] *
               b[static_cast<size_t>(p * n + j)];
        }
        return s;
      }();
      const float got = c[static_cast<size_t>(i * n + j)];
      EXPECT_TRUE(got == acc || got == plain)
          << "element (" << i << ", " << j
          << ") matches neither the fma nor the plain ascending-k order";
    }
  }
}

/// Eq. 2 by the unfused route: the full SGemmReference score matrix, then
/// a running max over ascending positions from -1 that takes a score only
/// when it is `>` the max.
std::vector<float> UnfusedMaxScores(const std::vector<float>& positions,
                                    int64_t area, int64_t c,
                                    const std::vector<float>& protos,
                                    int64_t np) {
  std::vector<float> scores(static_cast<size_t>(area * np));
  SGemmReference(false, true, area, np, c, 1.0f, positions.data(), c,
                 protos.data(), c, 0.0f, scores.data(), np);
  std::vector<float> best(static_cast<size_t>(np), -1.0f);
  for (int64_t p = 0; p < area; ++p) {
    for (int64_t q = 0; q < np; ++q) {
      const float s = scores[static_cast<size_t>(p * np + q)];
      if (s > best[static_cast<size_t>(q)]) best[static_cast<size_t>(q)] = s;
    }
  }
  return best;
}

/// The fused scorer over a panel packed in two pieces (the way the
/// affinity source packs one image's prototypes after another).
std::vector<float> FusedMaxScores(const std::vector<float>& positions,
                                  int64_t area, int64_t c,
                                  const std::vector<float>& protos,
                                  int64_t np) {
  std::vector<float> panel(static_cast<size_t>(PrototypePanelFloats(np, c)),
                           0.0f);
  const int64_t head = np / 3;
  PackPrototypePanel(protos.data(), head, c, 0, panel.data());
  PackPrototypePanel(protos.data() + head * c, np - head, c, head,
                     panel.data());
  std::vector<float> best(static_cast<size_t>(np), 0.0f);
  PrototypeMaxScores(positions.data(), area, c, panel.data(), np,
                     best.data());
  return best;
}

void ExpectFusedMatchesUnfused(const std::vector<float>& positions,
                               int64_t area, int64_t c,
                               const std::vector<float>& protos, int64_t np) {
  const std::vector<float> want =
      UnfusedMaxScores(positions, area, c, protos, np);
  const std::vector<float> got = FusedMaxScores(positions, area, c, protos, np);
  ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
            0)
      << "area " << area << " channels " << c << " prototypes " << np;
}

// Shapes cross the position tile (1, 3, 8, 9, 256 rows), the k-block
// (300 > kGemmKChunk channels) and the 16-column panel (15, 16, 17).
TEST(PrototypeMaxScoresTest, BitIdenticalToSGemmThenMax) {
  Rng rng(47);
  for (int64_t area : {1, 3, 8, 9, 256}) {
    for (int64_t c : {1, 8, 64, 300}) {
      for (int64_t np : {1, 15, 16, 17, 1000}) {
        ExpectFusedMatchesUnfused(
            RandomVec(static_cast<size_t>(area * c), &rng), area, c,
            RandomVec(static_cast<size_t>(np * c), &rng), np);
      }
    }
  }
}

// NaN and Inf inputs (a NaN score never beats the running max), signed
// zeros (0.0f + -0.0f is +0.0f, so a zero score is always +0) and exact
// ties between repeated positions.
TEST(PrototypeMaxScoresTest, SpecialValuesMatchSGemmThenMax) {
  Rng rng(48);
  const int64_t area = 19, c = 24, np = 37;
  std::vector<float> positions =
      RandomVec(static_cast<size_t>(area * c), &rng);
  std::vector<float> protos = RandomVec(static_cast<size_t>(np * c), &rng);
  positions[2 * c + 5] = kNaN;                 // position 2 scores NaN
  positions[7 * c + 1] = kInf;                 // position 7 scores +-Inf
  protos[3 * c + 4] = kNaN;                    // prototype 3 scores NaN only
  protos[5 * c + 1] = 0.0f;                    // Inf * 0 = NaN at position 7
  for (int64_t k = 0; k < c; ++k) {
    protos[static_cast<size_t>(9 * c + k)] = -0.0f;  // prototype 9: all -0
    positions[static_cast<size_t>(11 * c + k)] =
        positions[static_cast<size_t>(4 * c + k)];   // position 11 ties 4
    positions[static_cast<size_t>(12 * c + k)] =
        k % 2 == 0 ? 0.0f : -0.0f;                   // position 12: zeros
  }
  ExpectFusedMatchesUnfused(positions, area, c, protos, np);
  const std::vector<float> got = FusedMaxScores(positions, area, c, protos, np);
  EXPECT_EQ(got[3], -1.0f);  // every score NaN: the max never moves
  EXPECT_FALSE(std::signbit(got[9]));
  EXPECT_EQ(got[9], 0.0f);

  // A position block where every score is NaN leaves every max at -1.
  std::vector<float> nan_positions(static_cast<size_t>(9 * c), kNaN);
  const std::vector<float> all_nan =
      FusedMaxScores(nan_positions, 9, c, protos, np);
  for (float v : all_nan) EXPECT_EQ(v, -1.0f);
  ExpectFusedMatchesUnfused(nan_positions, 9, c, protos, np);
}

}  // namespace
}  // namespace goggles
