#include <memory>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "nn/vgg.h"

namespace goggles::nn {
namespace {

TEST(LayersTest, Conv2DOutputShape) {
  Rng rng(1);
  Conv2D conv(3, 8, 3, 1, 1, &rng);
  Result<Tensor> y = conv.Forward(Tensor({2, 3, 16, 16}));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (std::vector<int64_t>{2, 8, 16, 16}));
  EXPECT_EQ(conv.Params().size(), 2u);
}

TEST(LayersTest, MaxPoolHalvesSpatialDims) {
  MaxPool2D pool(2, 2);
  Result<Tensor> y = pool.Forward(Tensor({1, 4, 8, 8}, 1.0f));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (std::vector<int64_t>{1, 4, 4, 4}));
}

TEST(LayersTest, FlattenRoundTrip) {
  Flatten flatten;
  Result<Tensor> y = flatten.Forward(Tensor({2, 3, 4, 5}));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (std::vector<int64_t>{2, 60}));
  Result<Tensor> back = flatten.Backward(Tensor({2, 60}));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shape(), (std::vector<int64_t>{2, 3, 4, 5}));
}

TEST(LayersTest, LinearShapes) {
  Rng rng(2);
  Linear linear(10, 4, &rng);
  EXPECT_EQ(linear.in_features(), 10);
  EXPECT_EQ(linear.out_features(), 4);
  Result<Tensor> y = linear.Forward(Tensor({3, 10}));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (std::vector<int64_t>{3, 4}));
}

TEST(LayersTest, ZeroGradClearsGradients) {
  Rng rng(3);
  Linear linear(4, 2, &rng);
  Result<Tensor> y = linear.Forward(Tensor({1, 4}, 1.0f));
  ASSERT_TRUE(y.ok());
  Result<Tensor> dx = linear.Backward(Tensor({1, 2}, 1.0f));
  ASSERT_TRUE(dx.ok());
  EXPECT_GT(linear.Params()[0]->grad.MaxAbs(), 0.0f);
  linear.ZeroGrad();
  EXPECT_FLOAT_EQ(linear.Params()[0]->grad.MaxAbs(), 0.0f);
}

Sequential MakeTinyNet(uint64_t seed) {
  Rng rng(seed);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 16, &rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(16, 2, &rng));
  return net;
}

TEST(SequentialTest, ForwardBackwardShapes) {
  Sequential net = MakeTinyNet(4);
  EXPECT_EQ(net.num_layers(), 3);
  EXPECT_EQ(net.NumParameters(), 2 * 16 + 16 + 16 * 2 + 2);
  Result<Tensor> y = net.Forward(Tensor({5, 2}));
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->shape(), (std::vector<int64_t>{5, 2}));
  Result<Tensor> dx = net.Backward(Tensor({5, 2}, 1.0f));
  ASSERT_TRUE(dx.ok());
  EXPECT_EQ(dx->shape(), (std::vector<int64_t>{5, 2}));
}

TEST(SequentialTest, ForwardTapsCapturesIntermediates) {
  const Sequential net = MakeTinyNet(5);
  std::vector<Tensor> taps;
  ASSERT_TRUE(net.ForwardTaps(Tensor({3, 2}), {0, 1}, &taps).ok());
  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps[0].shape(), (std::vector<int64_t>{3, 16}));
  EXPECT_EQ(taps[1].shape(), (std::vector<int64_t>{3, 16}));
}

TEST(SequentialTest, ForwardTapsRejectsBadIndices) {
  const Sequential net = MakeTinyNet(6);
  std::vector<Tensor> taps;
  for (const std::vector<int>& bad :
       {std::vector<int>{7}, std::vector<int>{-1}, std::vector<int>{1, 0},
        std::vector<int>{0, 0}}) {
    EXPECT_FALSE(net.ForwardTaps(Tensor({1, 2}), bad, &taps).ok());
  }
}

TEST(SequentialTest, ForwardTapsStopsAtLastTap) {
  // The head expects 4 inputs but gets 16, so only a pass that stops at
  // the last tap succeeds.
  Rng rng(7);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 16, &rng));
  net.Add(std::make_unique<ReLU>());
  net.Add(std::make_unique<Linear>(4, 2, &rng));
  const Sequential& inference = net;
  std::vector<Tensor> taps;
  ASSERT_TRUE(inference.ForwardTaps(Tensor({2, 2}), {0}, &taps).ok());
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_EQ(taps[0].shape(), (std::vector<int64_t>{2, 16}));
  EXPECT_FALSE(inference.Forward(Tensor({2, 2})).ok());
}

/// A linearly-separable 2-D two-class problem.
void MakeBlobs(int n, Tensor* x, std::vector<int>* labels, uint64_t seed) {
  Rng rng(seed);
  *x = Tensor({n, 2});
  labels->resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    (*labels)[static_cast<size_t>(i)] = label;
    const float cx = label == 0 ? -2.0f : 2.0f;
    x->At2(i, 0) = cx + static_cast<float>(rng.Gaussian() * 0.5);
    x->At2(i, 1) = static_cast<float>(rng.Gaussian() * 0.5);
  }
}

TEST(TrainerTest, LearnsSeparableBlobs) {
  Tensor x;
  std::vector<int> labels;
  MakeBlobs(64, &x, &labels, 8);
  Sequential net = MakeTinyNet(9);
  TrainerConfig config;
  config.epochs = 30;
  config.learning_rate = 5e-2f;
  config.optimizer = TrainerConfig::OptimizerKind::kSgd;
  Trainer trainer(&net, config);
  Result<double> loss = trainer.Fit(x, labels, 2);
  ASSERT_TRUE(loss.ok());
  Result<double> acc = trainer.Evaluate(x, labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
}

TEST(TrainerTest, AdamAlsoLearns) {
  Tensor x;
  std::vector<int> labels;
  MakeBlobs(64, &x, &labels, 10);
  Sequential net = MakeTinyNet(11);
  TrainerConfig config;
  config.epochs = 60;
  config.learning_rate = 1e-2f;
  config.optimizer = TrainerConfig::OptimizerKind::kAdam;
  Trainer trainer(&net, config);
  ASSERT_TRUE(trainer.Fit(x, labels, 2).ok());
  Result<double> acc = trainer.Evaluate(x, labels);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.95);
}

TEST(TrainerTest, SoftLabelsReduceLoss) {
  Tensor x;
  std::vector<int> labels;
  MakeBlobs(32, &x, &labels, 12);
  Tensor soft = MakeOneHot(labels, 2);
  // Blur the labels: 0.8 / 0.2 (probabilistic labels, as GOGGLES emits).
  for (int64_t i = 0; i < soft.dim(0); ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      soft.At2(i, j) = soft.At2(i, j) * 0.6f + 0.2f;
    }
  }
  Sequential net = MakeTinyNet(13);
  TrainerConfig config;
  config.epochs = 1;
  Trainer trainer(&net, config);
  Result<double> first = trainer.FitSoft(x, soft);
  ASSERT_TRUE(first.ok());
  TrainerConfig longer = config;
  longer.epochs = 30;
  Sequential net2 = MakeTinyNet(13);
  Trainer trainer2(&net2, longer);
  Result<double> final_loss = trainer2.FitSoft(x, soft);
  ASSERT_TRUE(final_loss.ok());
  EXPECT_LT(*final_loss, *first);
}

TEST(TrainerTest, MakeOneHot) {
  Tensor t = MakeOneHot({1, 0, 2}, 3);
  EXPECT_FLOAT_EQ(t.At2(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(t.At2(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t.At2(2, 2), 1.0f);
}

TEST(TrainerTest, GatherRows) {
  Tensor x({3, 2});
  for (int64_t i = 0; i < 6; ++i) x[i] = static_cast<float>(i);
  Tensor g = GatherRows(x, {2, 0});
  EXPECT_EQ(g.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_FLOAT_EQ(g.At2(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(g.At2(1, 1), 1.0f);
}

TEST(VggTest, BuilderShapesAndTaps) {
  VggMiniConfig config;
  config.image_size = 32;
  config.stage_channels = {4, 8, 16, 16, 16};
  Result<VggMini> model = BuildVggMini(config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->pool_layer_indices.size(), 5u);
  EXPECT_EQ(model->feature_dim, 16);  // 16 channels * 1 * 1

  const Sequential& net = model->net;
  std::vector<Tensor> taps;
  ASSERT_TRUE(
      net.ForwardTaps(Tensor({2, 3, 32, 32}), model->pool_layer_indices, &taps)
          .ok());
  Result<Tensor> logits = net.Forward(Tensor({2, 3, 32, 32}));
  ASSERT_TRUE(logits.ok());
  EXPECT_EQ(logits->shape(), (std::vector<int64_t>{2, 16}));
  ASSERT_EQ(taps.size(), 5u);
  EXPECT_EQ(taps[0].shape(), (std::vector<int64_t>{2, 4, 16, 16}));
  EXPECT_EQ(taps[4].shape(), (std::vector<int64_t>{2, 16, 1, 1}));
}

TEST(VggTest, RejectsTooSmallImages) {
  VggMiniConfig config;
  config.image_size = 8;  // cannot pool 5 times
  EXPECT_FALSE(BuildVggMini(config).ok());
}

TEST(VggTest, RejectsEmptyStages) {
  VggMiniConfig config;
  config.stage_channels = {};
  EXPECT_FALSE(BuildVggMini(config).ok());
}

TEST(SerializeTest, RoundTripPreservesParameters) {
  Sequential net = MakeTinyNet(20);
  const std::string path = ::testing::TempDir() + "/goggles_net.bin";
  ASSERT_TRUE(SaveParameters(&net, path).ok());

  Sequential other = MakeTinyNet(21);  // different init
  // Before loading, the nets differ.
  float diff = 0.0f;
  for (size_t p = 0; p < net.Params().size(); ++p) {
    Tensor delta = net.Params()[p]->value;
    ASSERT_TRUE(delta.Axpy(-1.0f, other.Params()[p]->value).ok());
    diff += delta.MaxAbs();
  }
  EXPECT_GT(diff, 0.0f);

  ASSERT_TRUE(LoadParameters(&other, path).ok());
  for (size_t p = 0; p < net.Params().size(); ++p) {
    Tensor delta = net.Params()[p]->value;
    ASSERT_TRUE(delta.Axpy(-1.0f, other.Params()[p]->value).ok());
    EXPECT_FLOAT_EQ(delta.MaxAbs(), 0.0f);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsArchitectureMismatch) {
  Sequential net = MakeTinyNet(22);
  const std::string path = ::testing::TempDir() + "/goggles_net2.bin";
  ASSERT_TRUE(SaveParameters(&net, path).ok());

  Rng rng(23);
  Sequential different;
  different.Add(std::make_unique<Linear>(3, 3, &rng));
  EXPECT_FALSE(LoadParameters(&different, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  Sequential net = MakeTinyNet(24);
  EXPECT_FALSE(LoadParameters(&net, "/nonexistent/net.bin").ok());
}

TEST(OptimizerTest, SgdMomentumMovesParameters) {
  Rng rng(30);
  Linear linear(2, 2, &rng);
  Tensor before = linear.Params()[0]->value;
  linear.Params()[0]->grad.Fill(1.0f);
  Sgd sgd(0.1f, 0.9f);
  sgd.Step(linear.Params());
  Tensor delta = linear.Params()[0]->value;
  ASSERT_TRUE(delta.Axpy(-1.0f, before).ok());
  EXPECT_NEAR(delta.MaxAbs(), 0.1f, 1e-6f);
  // Second step with momentum moves farther.
  Tensor mid = linear.Params()[0]->value;
  sgd.Step(linear.Params());
  Tensor delta2 = linear.Params()[0]->value;
  ASSERT_TRUE(delta2.Axpy(-1.0f, mid).ok());
  EXPECT_NEAR(delta2.MaxAbs(), 0.19f, 1e-5f);
}

TEST(OptimizerTest, AdamStepSizeBounded) {
  Rng rng(31);
  Linear linear(2, 2, &rng);
  Tensor before = linear.Params()[0]->value;
  linear.Params()[0]->grad.Fill(100.0f);  // huge gradient
  Adam adam(1e-3f);
  adam.Step(linear.Params());
  Tensor delta = linear.Params()[0]->value;
  ASSERT_TRUE(delta.Axpy(-1.0f, before).ok());
  // Adam normalizes by the gradient magnitude: step ~ lr.
  EXPECT_LT(delta.MaxAbs(), 2e-3f);
}

}  // namespace
}  // namespace goggles::nn
