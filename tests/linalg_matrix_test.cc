#include "linalg/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/kernels.h"

namespace goggles {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, IdentityAndZero) {
  Matrix id = Matrix::Identity(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(Matrix::Zero(2, 2)(1, 1), 0.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, RowAndColCopies) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, TransposedSwapsIndices) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(MatrixTest, BlockExtractsSubmatrix) {
  Matrix m = Matrix::FromRows({{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}});
  Matrix b = m.Block(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 11.0);
}

TEST(MatrixTest, ScaleAndAddInPlace) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.Scale(2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
  Matrix other = Matrix::FromRows({{1, 1}, {1, 1}});
  ASSERT_TRUE(m.AddInPlace(other).ok());
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  EXPECT_FALSE(m.AddInPlace(Matrix(3, 3)).ok());
}

TEST(MatrixTest, Norms) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Result<Matrix> c = MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 19.0);
  EXPECT_DOUBLE_EQ((*c)(0, 1), 22.0);
  EXPECT_DOUBLE_EQ((*c)(1, 0), 43.0);
  EXPECT_DOUBLE_EQ((*c)(1, 1), 50.0);
}

TEST(MatrixTest, MatMulShapeMismatchFails) {
  EXPECT_FALSE(MatMul(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(MatrixTest, MatMulIdentityIsNoOp) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Result<Matrix> c = MatMul(a, Matrix::Identity(3));
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ((*c)(i, j), a(i, j));
  }
}

TEST(MatrixTest, GramTransposeMatchesExplicit) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = GramTranspose(a);  // A^T A, 2x2
  Result<Matrix> expected = MatMul(a.Transposed(), a);
  ASSERT_TRUE(expected.ok());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(g(i, j), (*expected)(i, j), 1e-12);
    }
  }
}

TEST(MatrixTest, MatVec) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Result<std::vector<double>> y = MatVec(a, {1.0, 1.0});
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)[0], 3.0);
  EXPECT_DOUBLE_EQ((*y)[1], 7.0);
  EXPECT_FALSE(MatVec(a, {1.0}).ok());
}

TEST(MatrixTest, ColumnMeansAndCenter) {
  Matrix a = Matrix::FromRows({{1, 10}, {3, 20}});
  std::vector<double> means = ColumnMeans(a);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 15.0);
  ASSERT_TRUE(CenterColumns(&a, means).ok());
  EXPECT_DOUBLE_EQ(a(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 5.0);
  std::vector<double> recentered = ColumnMeans(a);
  EXPECT_NEAR(recentered[0], 0.0, 1e-12);
  EXPECT_NEAR(recentered[1], 0.0, 1e-12);
}

TEST(KernelsTest, DotAndNorm) {
  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {4, 3, 2, 1};
  EXPECT_FLOAT_EQ(DotF(a, b, 4), 20.0f);
  EXPECT_FLOAT_EQ(NormF(a, 4), std::sqrt(30.0f));
}

TEST(KernelsTest, Normalize) {
  float a[2] = {3, 4};
  NormalizeF(a, 2);
  EXPECT_NEAR(NormF(a, 2), 1.0f, 1e-6f);
  float zero[2] = {0, 0};
  NormalizeF(zero, 2);  // must not produce NaN
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
}

TEST(MatrixTest, ToStringDoesNotCrashOnLarge) {
  Matrix m(100, 100, 1.0);
  const std::string s = m.ToString();
  EXPECT_NE(s.find("Matrix(100x100)"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

}  // namespace
}  // namespace goggles
