#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace goggles {
namespace {

TEST(GemmTest, PlainProduct) {
  // C[2,2] = A[2,3] * B[3,2]
  const float a[6] = {1, 2, 3, 4, 5, 6};
  const float b[6] = {7, 8, 9, 10, 11, 12};
  float c[4] = {0, 0, 0, 0};
  SGemm(false, false, 2, 2, 3, 1.0f, a, 3, b, 2, 0.0f, c, 2);
  EXPECT_FLOAT_EQ(c[0], 58.0f);
  EXPECT_FLOAT_EQ(c[1], 64.0f);
  EXPECT_FLOAT_EQ(c[2], 139.0f);
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(GemmTest, TransposeA) {
  // A is stored 3x2; op(A) = A^T is 2x3.
  const float a[6] = {1, 4, 2, 5, 3, 6};
  const float b[6] = {7, 8, 9, 10, 11, 12};
  float c[4] = {0, 0, 0, 0};
  SGemm(true, false, 2, 2, 3, 1.0f, a, 2, b, 2, 0.0f, c, 2);
  EXPECT_FLOAT_EQ(c[0], 58.0f);
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(GemmTest, TransposeB) {
  const float a[6] = {1, 2, 3, 4, 5, 6};
  // B stored 2x3; op(B) = B^T is 3x2.
  const float b[6] = {7, 9, 11, 8, 10, 12};
  float c[4] = {0, 0, 0, 0};
  SGemm(false, true, 2, 2, 3, 1.0f, a, 3, b, 3, 0.0f, c, 2);
  EXPECT_FLOAT_EQ(c[0], 58.0f);
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(GemmTest, AlphaBetaBlend) {
  const float a[1] = {2};
  const float b[1] = {3};
  float c[1] = {10};
  SGemm(false, false, 1, 1, 1, 2.0f, a, 1, b, 1, 0.5f, c, 1);
  EXPECT_FLOAT_EQ(c[0], 17.0f);  // 2*2*3 + 0.5*10
}

TEST(Im2ColTest, IdentityKernelLayout) {
  // 1 channel, 2x2 image, 1x1 kernel, stride 1, no pad: col == image.
  const float x[4] = {1, 2, 3, 4};
  float col[4];
  Im2Col(x, 1, 2, 2, 1, 1, 1, 0, col);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(col[i], x[i]);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  const float x[1] = {5};
  // 1x1 image, 3x3 kernel, pad 1 -> single output position, 9 rows.
  float col[9];
  Im2Col(x, 1, 1, 1, 3, 3, 1, 1, col);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(col[i], i == 4 ? 5.0f : 0.0f);
  }
}

TEST(Im2ColTest, Col2ImIsAdjoint) {
  // <Im2Col(x), y> == <x, Col2Im(y)> for random x, y (adjointness is what
  // conv backward relies on).
  Rng rng(7);
  const int c = 2, h = 5, w = 4, kh = 3, kw = 3, stride = 2, pad = 1;
  const int oh = ConvOutDim(h, kh, stride, pad);
  const int ow = ConvOutDim(w, kw, stride, pad);
  const int col_size = c * kh * kw * oh * ow;

  std::vector<float> x(static_cast<size_t>(c * h * w));
  for (auto& v : x) v = static_cast<float>(rng.Gaussian());
  std::vector<float> y(static_cast<size_t>(col_size));
  for (auto& v : y) v = static_cast<float>(rng.Gaussian());

  std::vector<float> col(static_cast<size_t>(col_size));
  Im2Col(x.data(), c, h, w, kh, kw, stride, pad, col.data());
  std::vector<float> xt(static_cast<size_t>(c * h * w), 0.0f);
  Col2Im(y.data(), c, h, w, kh, kw, stride, pad, xt.data());

  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < col.size(); ++i) lhs += static_cast<double>(col[i]) * y[i];
  for (size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ConvTest, KnownConvolution) {
  // 1x1x3x3 input, single 3x3 averaging-like kernel, pad 1.
  Tensor x({1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  Tensor w({1, 1, 3, 3}, 1.0f);  // all-ones kernel
  Tensor b({1});
  Result<Tensor> y = Conv2dForward(x, w, b, {1, 1});
  ASSERT_TRUE(y.ok());
  // Center output = sum of all inputs = 45.
  EXPECT_FLOAT_EQ(y->At4(0, 0, 1, 1), 45.0f);
  // Top-left output = sum of the 2x2 upper-left block = 1+2+4+5 = 12.
  EXPECT_FLOAT_EQ(y->At4(0, 0, 0, 0), 12.0f);
}

TEST(ConvTest, BiasApplied) {
  Tensor x({1, 1, 2, 2}, 0.0f);
  Tensor w({2, 1, 1, 1}, 0.0f);
  Tensor b = Tensor::FromVector({1.5f, -2.5f});
  Result<Tensor> y = Conv2dForward(x, w, b, {1, 0});
  ASSERT_TRUE(y.ok());
  EXPECT_FLOAT_EQ(y->At4(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y->At4(0, 1, 1, 1), -2.5f);
}

TEST(ConvTest, StrideGeometry) {
  Tensor x({1, 1, 8, 8}, 1.0f);
  Tensor w({1, 1, 3, 3}, 1.0f);
  Tensor b({1});
  Result<Tensor> y = Conv2dForward(x, w, b, {2, 1});
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->dim(2), 4);
  EXPECT_EQ(y->dim(3), 4);
}

TEST(ConvTest, ShapeValidation) {
  Tensor x({1, 2, 4, 4});
  Tensor w({3, 1, 3, 3});  // channel mismatch
  Tensor b({3});
  EXPECT_FALSE(Conv2dForward(x, w, b, {1, 1}).ok());
}

TEST(ConvTest, SerialBatchIsBitIdenticalToParallel) {
  // Conv2dForward picks its parallel axis from the width a ParallelFor
  // would really get: a batch of 8 on a pool of up to 8 workers is split
  // across images, and under ScopedSerialKernels the images run in turn.
  // Either way the output bits are the same.
  Rng rng(20261017);
  Tensor x = Tensor::RandomNormal({8, 3, 8, 8}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({16, 3, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({16}, 0.1f, &rng);
  Result<Tensor> wide = Conv2dForward(x, w, b, {1, 1});
  ASSERT_TRUE(wide.ok());
  ScopedSerialKernels serial;
  ASSERT_EQ(EffectiveNumThreads(), 1);
  Result<Tensor> narrow = Conv2dForward(x, w, b, {1, 1});
  ASSERT_TRUE(narrow.ok());
  ASSERT_EQ(narrow->NumElements(), wide->NumElements());
  EXPECT_EQ(std::memcmp(narrow->data(), wide->data(),
                        static_cast<size_t>(wide->NumElements()) *
                            sizeof(float)),
            0);
}

TEST(MaxPoolTest, SelectsMaxAndRecordsArgmax) {
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 4.0f;
  x[2] = 3.0f;
  x[3] = 2.0f;
  Result<MaxPoolResult> r = MaxPool2dForward(x, 2, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r->y[0], 4.0f);
  EXPECT_EQ(r->argmax[0], 1);
}

TEST(MaxPoolTest, BackwardRoutesGradToArgmax) {
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 4.0f;
  x[2] = 3.0f;
  x[3] = 2.0f;
  Result<MaxPoolResult> fwd = MaxPool2dForward(x, 2, 2);
  ASSERT_TRUE(fwd.ok());
  Tensor dy({1, 1, 1, 1}, 2.5f);
  Result<Tensor> dx = MaxPool2dBackward(fwd->argmax, x.shape(), dy);
  ASSERT_TRUE(dx.ok());
  EXPECT_FLOAT_EQ((*dx)[1], 2.5f);
  EXPECT_FLOAT_EQ((*dx)[0], 0.0f);
  EXPECT_FLOAT_EQ((*dx)[2], 0.0f);
}

TEST(ReluTest, ForwardAndBackward) {
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 2.0f});
  Tensor y = ReluForward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor dy = Tensor::FromVector({5.0f, 5.0f, 5.0f});
  Tensor dx = ReluBackward(x, dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.0f);  // gradient zero at x == 0
  EXPECT_FLOAT_EQ(dx[2], 5.0f);
}

TEST(LinearTest, KnownAffineMap) {
  Tensor x({1, 2});
  x[0] = 1.0f;
  x[1] = 2.0f;
  Tensor w({2, 2});  // [[1, 2], [3, 4]]
  w[0] = 1.0f;
  w[1] = 2.0f;
  w[2] = 3.0f;
  w[3] = 4.0f;
  Tensor b = Tensor::FromVector({0.5f, -0.5f});
  Result<Tensor> y = LinearForward(x, w, b);
  ASSERT_TRUE(y.ok());
  EXPECT_FLOAT_EQ(y->At2(0, 0), 5.5f);   // 1*1+2*2+0.5
  EXPECT_FLOAT_EQ(y->At2(0, 1), 10.5f);  // 1*3+2*4-0.5
}

TEST(LinearTest, ShapeValidation) {
  EXPECT_FALSE(LinearForward(Tensor({2, 3}), Tensor({4, 5}), Tensor({4})).ok());
  EXPECT_FALSE(LinearForward(Tensor({2, 3}), Tensor({4, 3}), Tensor({5})).ok());
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  Tensor logits({2, 3});
  logits.At2(0, 0) = 1.0f;
  logits.At2(0, 1) = 2.0f;
  logits.At2(0, 2) = 3.0f;
  logits.At2(1, 0) = 100.0f;  // large values must not overflow
  logits.At2(1, 1) = 100.0f;
  logits.At2(1, 2) = 100.0f;
  Result<Tensor> p = SoftmaxForward(logits);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 2; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 3; ++j) total += p->At2(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
  EXPECT_GT(p->At2(0, 2), p->At2(0, 1));
  EXPECT_NEAR(p->At2(1, 0), 1.0f / 3.0f, 1e-6f);
}

TEST(SoftmaxCrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits({1, 2});
  logits.At2(0, 0) = 20.0f;
  logits.At2(0, 1) = -20.0f;
  Tensor target({1, 2});
  target.At2(0, 0) = 1.0f;
  Result<SoftmaxCrossEntropyResult> r = SoftmaxCrossEntropy(logits, target);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->loss, 1e-6);
}

TEST(SoftmaxCrossEntropyTest, UniformTargetLoss) {
  Tensor logits({1, 2}, 0.0f);
  Tensor target({1, 2}, 0.5f);
  Result<SoftmaxCrossEntropyResult> r = SoftmaxCrossEntropy(logits, target);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->loss, std::log(2.0), 1e-6);
  // Gradient is zero at the optimum for soft targets.
  EXPECT_NEAR(r->dlogits.At2(0, 0), 0.0f, 1e-7f);
}

TEST(SoftmaxCrossEntropyTest, GradientIsProbMinusTarget) {
  Tensor logits({1, 3});
  logits.At2(0, 0) = 0.3f;
  logits.At2(0, 1) = -0.2f;
  logits.At2(0, 2) = 1.0f;
  Tensor target({1, 3});
  target.At2(0, 1) = 1.0f;
  Result<SoftmaxCrossEntropyResult> r = SoftmaxCrossEntropy(logits, target);
  ASSERT_TRUE(r.ok());
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(r->dlogits.At2(0, j),
                r->probs.At2(0, j) - target.At2(0, j), 1e-6f);
  }
}

}  // namespace
}  // namespace goggles
