#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "features/extractor.h"
#include "nn/vgg.h"

/// \file extractor_concurrency_test.cc
/// \brief Regression tests for lock-free concurrent feature extraction:
/// the global forward mutex is gone, so concurrent PoolFeatureMaps /
/// Logits calls on one shared extractor must run in parallel and produce
/// outputs bit-identical to a serial run. Runs under ASan/TSan in CI.

namespace goggles::features {
namespace {

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.05f * static_cast<float>(variant % 4));
  switch (variant % 3) {
    case 0:
      data::DrawFilledCircle(&img, 16, 16, 6 + variant % 5, {0.9f, 0.3f, 0.2f});
      break;
    case 1:
      data::DrawFilledRect(&img, 6, 6, 26, 26, {0.2f, 0.8f, 0.3f});
      break;
    default:
      data::DrawCross(&img, 16, 16, 14, 2, {0.3f, 0.2f, 0.9f});
      break;
  }
  return img;
}

nn::VggMiniConfig SmallConfig() {
  nn::VggMiniConfig config;
  config.stage_channels = {4, 8, 8, 8, 8};
  config.num_classes = 4;
  return config;
}

std::shared_ptr<FeatureExtractor> MakeExtractor() {
  Result<nn::VggMini> model = nn::BuildVggMini(SmallConfig());
  model.status().Abort("vgg");
  return std::make_shared<FeatureExtractor>(std::move(*model));
}

void ExpectMapsBitIdentical(const std::vector<std::vector<Tensor>>& a,
                            const std::vector<std::vector<Tensor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t layer = 0; layer < a.size(); ++layer) {
    ASSERT_EQ(a[layer].size(), b[layer].size());
    for (size_t i = 0; i < a[layer].size(); ++i) {
      const Tensor& ta = a[layer][i];
      const Tensor& tb = b[layer][i];
      ASSERT_EQ(ta.shape(), tb.shape());
      ASSERT_EQ(std::memcmp(ta.data(), tb.data(),
                            static_cast<size_t>(ta.NumElements()) *
                                sizeof(float)),
                0)
          << "filter map diverges at layer " << layer << " image " << i;
    }
  }
}

TEST(ExtractorConcurrencyTest, ConcurrentPoolFeatureMapsBitIdentical) {
  auto extractor = MakeExtractor();
  std::vector<data::Image> images;
  for (int i = 0; i < 8; ++i) images.push_back(PatternImage(i));

  // Serial reference.
  auto serial = extractor->PoolFeatureMaps(images);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  // Two concurrent extractions on the one shared extractor (the serving
  // topology: N sessions, one backbone), repeated to give a data race a
  // chance to fire under TSan.
  constexpr int kRounds = 3;
  constexpr int kThreads = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Result<std::vector<std::vector<Tensor>>>> results(
        kThreads, Status::Internal("unset"));
    {
      std::vector<std::thread> workers;
      workers.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
          results[static_cast<size_t>(t)] = extractor->PoolFeatureMaps(images);
        });
      }
      for (auto& w : workers) w.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(results[static_cast<size_t>(t)].ok())
          << results[static_cast<size_t>(t)].status().ToString();
      ExpectMapsBitIdentical(*serial, *results[static_cast<size_t>(t)]);
    }
  }
}

TEST(ExtractorConcurrencyTest, ConcurrentMixedEntryPointsBitIdentical) {
  auto extractor = MakeExtractor();
  std::vector<data::Image> images;
  for (int i = 0; i < 6; ++i) images.push_back(PatternImage(i));

  auto serial_logits = extractor->Logits(images);
  ASSERT_TRUE(serial_logits.ok());
  auto serial_feats = extractor->PenultimateFeatures(images);
  ASSERT_TRUE(serial_feats.ok());

  Result<Matrix> logits = Status::Internal("unset");
  Result<Matrix> feats = Status::Internal("unset");
  std::thread a([&] { logits = extractor->Logits(images); });
  std::thread b([&] { feats = extractor->PenultimateFeatures(images); });
  a.join();
  b.join();
  ASSERT_TRUE(logits.ok());
  ASSERT_TRUE(feats.ok());
  ASSERT_EQ(logits->rows(), serial_logits->rows());
  ASSERT_EQ(feats->rows(), serial_feats->rows());
  for (int64_t i = 0; i < logits->rows(); ++i) {
    for (int64_t j = 0; j < logits->cols(); ++j) {
      ASSERT_EQ((*logits)(i, j), (*serial_logits)(i, j));
    }
  }
  for (int64_t i = 0; i < feats->rows(); ++i) {
    for (int64_t j = 0; j < feats->cols(); ++j) {
      ASSERT_EQ((*feats)(i, j), (*serial_feats)(i, j));
    }
  }
}

// The const inference path must agree with the (stateful) training-path
// forward bit for bit — PoolFeatureMaps switched from the latter to the
// former when the forward mutex was removed.
TEST(ExtractorConcurrencyTest, InferencePathMatchesTrainingForward) {
  auto extractor = MakeExtractor();
  std::vector<data::Image> images;
  for (int i = 0; i < 4; ++i) images.push_back(PatternImage(i));
  Tensor batch = data::StackImages(images);

  const nn::Sequential& net = extractor->backbone().net;
  auto inference = net.Forward(batch);  // const overload
  ASSERT_TRUE(inference.ok());
  // A second build of the same config holds the same weights.
  Result<nn::VggMini> twin = nn::BuildVggMini(SmallConfig());
  ASSERT_TRUE(twin.ok());
  auto training = twin->net.Forward(batch);
  ASSERT_TRUE(training.ok());
  ASSERT_EQ(inference->shape(), training->shape());
  ASSERT_EQ(std::memcmp(inference->data(), training->data(),
                        static_cast<size_t>(inference->NumElements()) *
                            sizeof(float)),
            0);
}

}  // namespace
}  // namespace goggles::features
