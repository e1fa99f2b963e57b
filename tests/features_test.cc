#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "features/extractor.h"
#include "features/hog.h"
#include "features/prototypes.h"
#include "nn/layers.h"
#include "nn/vgg.h"
#include "util/rng.h"

namespace goggles::features {
namespace {

/// The paper's Example 4, verbatim: a 3x2x2 filter map with channels
///   C1 = [1 0.5; 0.3 0.6], C2 = [0.1 0.7; 0.4 0.3], C3 = [0.2 0.9; 0.5 0.1]
/// Top-2 channels by max activation are C1 (1.0) then C3 (0.9); their
/// argmax positions are (0,0) and (0,1); the prototypes are the channel-
/// spanning vectors {1, 0.1, 0.2} and {0.5, 0.7, 0.9}.
Tensor Example4FilterMap() {
  Tensor fmap({3, 2, 2});
  // C1
  fmap[0] = 1.0f;
  fmap[1] = 0.5f;
  fmap[2] = 0.3f;
  fmap[3] = 0.6f;
  // C2
  fmap[4] = 0.1f;
  fmap[5] = 0.7f;
  fmap[6] = 0.4f;
  fmap[7] = 0.3f;
  // C3
  fmap[8] = 0.2f;
  fmap[9] = 0.9f;
  fmap[10] = 0.5f;
  fmap[11] = 0.1f;
  return fmap;
}

TEST(PrototypeTest, PaperExample4TopTwoPrototypes) {
  std::vector<Prototype> protos = ExtractTopZPrototypes(Example4FilterMap(), 2);
  ASSERT_EQ(protos.size(), 2u);

  EXPECT_EQ(protos[0].channel, 0);  // C1 selected first
  EXPECT_EQ(protos[0].h, 0);
  EXPECT_EQ(protos[0].w, 0);
  ASSERT_EQ(protos[0].vector.size(), 3u);
  EXPECT_FLOAT_EQ(protos[0].vector[0], 1.0f);
  EXPECT_FLOAT_EQ(protos[0].vector[1], 0.1f);
  EXPECT_FLOAT_EQ(protos[0].vector[2], 0.2f);

  EXPECT_EQ(protos[1].channel, 2);  // C3 selected second
  EXPECT_EQ(protos[1].h, 0);
  EXPECT_EQ(protos[1].w, 1);
  EXPECT_FLOAT_EQ(protos[1].vector[0], 0.5f);
  EXPECT_FLOAT_EQ(protos[1].vector[1], 0.7f);
  EXPECT_FLOAT_EQ(protos[1].vector[2], 0.9f);
}

TEST(PrototypeTest, PaperExample4TopThreeDropsNothingNew) {
  // With Z=3, C2's argmax is also (0,1), duplicating C3's position, so the
  // duplicate is dropped and only 2 unique prototypes remain (§3.1: "we
  // drop the duplicate v's and only keep the unique prototypes").
  std::vector<Prototype> protos = ExtractTopZPrototypes(Example4FilterMap(), 3);
  EXPECT_EQ(protos.size(), 2u);
}

TEST(PrototypeTest, ZLargerThanChannelsClamps) {
  std::vector<Prototype> protos =
      ExtractTopZPrototypes(Example4FilterMap(), 100);
  EXPECT_LE(protos.size(), 3u);
}

TEST(PrototypeTest, SingleChannelSinglePrototype) {
  Tensor fmap({1, 3, 3}, 0.0f);
  fmap[4] = 2.0f;  // center
  std::vector<Prototype> protos = ExtractTopZPrototypes(fmap, 5);
  ASSERT_EQ(protos.size(), 1u);
  EXPECT_EQ(protos[0].h, 1);
  EXPECT_EQ(protos[0].w, 1);
}

data::Image EdgeImage() {
  data::Image img(3, 32, 32, 0.0f);
  // Sharp vertical edge down the middle.
  data::DrawFilledRect(&img, 16, 0, 31, 31, {1.0f, 1.0f, 1.0f});
  return img;
}

data::Image FlatImage() {
  return data::Image(3, 32, 32, 0.5f);
}

TEST(HogTest, DescriptorDimensionsMatchConfig) {
  HogConfig config;  // 8px cells, 9 bins, 2x2 blocks on 32x32 -> 3*3 blocks
  Result<std::vector<float>> hog = ComputeHog(EdgeImage(), config);
  ASSERT_TRUE(hog.ok());
  EXPECT_EQ(hog->size(), 3u * 3u * 2u * 2u * 9u);
}

TEST(HogTest, FlatImageHasZeroDescriptor) {
  Result<std::vector<float>> hog = ComputeHog(FlatImage());
  ASSERT_TRUE(hog.ok());
  for (float v : *hog) EXPECT_NEAR(v, 0.0f, 1e-4f);
}

TEST(HogTest, VerticalEdgeActivatesHorizontalGradientBin) {
  Result<std::vector<float>> hog = ComputeHog(EdgeImage());
  ASSERT_TRUE(hog.ok());
  // A vertical edge has horizontal gradient (angle 0) -> bin 0 of some cell
  // dominates the descriptor mass.
  float bin0_mass = 0.0f, other_mass = 0.0f;
  for (size_t i = 0; i < hog->size(); ++i) {
    if (i % 9 == 0) {
      bin0_mass += (*hog)[i];
    } else {
      other_mass += (*hog)[i];
    }
  }
  EXPECT_GT(bin0_mass, other_mass);
}

TEST(HogTest, BlockNormalizationBoundsValues) {
  Result<std::vector<float>> hog = ComputeHog(EdgeImage());
  ASSERT_TRUE(hog.ok());
  for (float v : *hog) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f + 1e-4f);
  }
}

TEST(HogTest, TooSmallImageRejected) {
  data::Image tiny(1, 4, 4, 0.0f);
  EXPECT_FALSE(ComputeHog(tiny).ok());
}

TEST(HogTest, MatrixStacksDescriptors) {
  Result<Matrix> m = ComputeHogMatrix({EdgeImage(), FlatImage()});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 2);
  EXPECT_GT(m->cols(), 0);
}

class ExtractorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nn::VggMiniConfig config;
    config.stage_channels = {4, 8, 8, 8, 8};
    config.num_classes = 6;
    Result<nn::VggMini> model = nn::BuildVggMini(config);
    ASSERT_TRUE(model.ok());
    extractor_ = std::make_unique<FeatureExtractor>(std::move(*model));
    for (int i = 0; i < 5; ++i) {
      images_.push_back(i % 2 == 0 ? EdgeImage() : FlatImage());
    }
  }

  std::unique_ptr<FeatureExtractor> extractor_;
  std::vector<data::Image> images_;
};

TEST_F(ExtractorTest, PoolFeatureMapShapes) {
  Result<std::vector<std::vector<Tensor>>> maps =
      extractor_->PoolFeatureMaps(images_, /*batch_size=*/2);
  ASSERT_TRUE(maps.ok());
  ASSERT_EQ(maps->size(), 5u);  // 5 pool layers
  for (int layer = 0; layer < 5; ++layer) {
    ASSERT_EQ((*maps)[static_cast<size_t>(layer)].size(), images_.size());
  }
  EXPECT_EQ((*maps)[0][0].shape(), (std::vector<int64_t>{4, 16, 16}));
  EXPECT_EQ((*maps)[4][0].shape(), (std::vector<int64_t>{8, 1, 1}));
}

TEST_F(ExtractorTest, BatchSizeDoesNotChangeResults) {
  Result<std::vector<std::vector<Tensor>>> a =
      extractor_->PoolFeatureMaps(images_, 1);
  Result<std::vector<std::vector<Tensor>>> b =
      extractor_->PoolFeatureMaps(images_, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t layer = 0; layer < a->size(); ++layer) {
    for (size_t i = 0; i < images_.size(); ++i) {
      const Tensor& ta = (*a)[layer][i];
      const Tensor& tb = (*b)[layer][i];
      ASSERT_EQ(ta.NumElements(), tb.NumElements());
      for (int64_t e = 0; e < ta.NumElements(); ++e) {
        ASSERT_FLOAT_EQ(ta[e], tb[e]);
      }
    }
  }
}

TEST_F(ExtractorTest, LogitsShape) {
  Result<Matrix> logits = extractor_->Logits(images_, 2);
  ASSERT_TRUE(logits.ok());
  EXPECT_EQ(logits->rows(), 5);
  EXPECT_EQ(logits->cols(), 6);
}

TEST_F(ExtractorTest, PenultimateFeaturesShape) {
  Result<Matrix> features = extractor_->PenultimateFeatures(images_, 3);
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->rows(), 5);
  EXPECT_EQ(features->cols(), 8);  // 8 channels * 1 * 1
}

TEST_F(ExtractorTest, IdenticalImagesGetIdenticalFeatures) {
  std::vector<data::Image> twins = {EdgeImage(), EdgeImage()};
  Result<Matrix> logits = extractor_->Logits(twins);
  ASSERT_TRUE(logits.ok());
  for (int64_t j = 0; j < logits->cols(); ++j) {
    EXPECT_DOUBLE_EQ((*logits)(0, j), (*logits)(1, j));
  }
}

TEST_F(ExtractorTest, BatchSizeBelowOneIsRejected) {
  for (int batch_size : {0, -2}) {
    SCOPED_TRACE(batch_size);
    const Status maps =
        extractor_->PoolFeatureMaps(images_, batch_size).status();
    const Status logits = extractor_->Logits(images_, batch_size).status();
    const Status features =
        extractor_->PenultimateFeatures(images_, batch_size).status();
    for (const Status& st : {maps, logits, features}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find("batch_size"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST(FeatureExtractorTest, UnsupportedBackboneIsRejected) {
  // A 5x5 conv is outside what the packed plan covers: every entry point
  // reports it instead of extracting through some other route.
  nn::VggMini model;
  Rng rng(3);
  model.net.Add(std::make_unique<nn::Conv2D>(3, 4, 5, 1, 2, &rng));
  model.net.Add(std::make_unique<nn::ReLU>());
  model.pool_layer_indices = {
      model.net.Add(std::make_unique<nn::MaxPool2D>(2, 2))};
  model.flatten_layer_index = model.net.Add(std::make_unique<nn::Flatten>());
  const FeatureExtractor extractor(std::move(model));
  const std::vector<data::Image> images = {EdgeImage()};
  for (const Status& st : {extractor.PoolFeatureMaps(images).status(),
                           extractor.Logits(images).status(),
                           extractor.PenultimateFeatures(images).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

/// A VggMini at the default widths — stages 3 and 4 span more than one
/// kGemmKChunk of depth, so the chunk partials' order is exercised — with
/// every bias nonzero, so the bias add's place in that order shows.
std::unique_ptr<FeatureExtractor> RandomBiasExtractor(int in_channels,
                                                      int convs_per_stage) {
  nn::VggMiniConfig config;
  config.in_channels = in_channels;
  config.convs_per_stage = convs_per_stage;
  Result<nn::VggMini> model = nn::BuildVggMini(config);
  model.status().Abort("vgg");
  Rng rng(static_cast<uint64_t>(17 * in_channels + convs_per_stage));
  for (nn::Parameter* p : model->net.Params()) {
    if (p->name != "conv.bias" && p->name != "linear.bias") continue;
    for (int64_t i = 0; i < p->value.NumElements(); ++i) {
      p->value[i] = static_cast<float>(rng.Gaussian(0.0, 0.3));
    }
  }
  return std::make_unique<FeatureExtractor>(std::move(*model));
}

/// `count` random images; the second (when there is one) holds a NaN, a
/// +inf and a -inf pixel.
std::vector<data::Image> RandomImages(int count, int channels, int height,
                                      int width, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Image> images;
  for (int i = 0; i < count; ++i) {
    data::Image img(channels, height, width);
    for (float& v : img.pixels) v = static_cast<float>(rng.Uniform());
    images.push_back(std::move(img));
  }
  if (count > 1) {
    std::vector<float>& px = images[1].pixels;
    px[0] = std::numeric_limits<float>::quiet_NaN();
    px[px.size() / 2] = std::numeric_limits<float>::infinity();
    px.back() = -std::numeric_limits<float>::infinity();
  }
  return images;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every PoolFeatureMaps tap against Sequential::ForwardTaps on the
/// stacked batch, PenultimateFeatures against the Flatten tap and, when
/// `with_logits`, Logits against the const Sequential::Forward.
void ExpectPlanMatchesForward(const FeatureExtractor& extractor,
                              const std::vector<data::Image>& images,
                              bool with_logits) {
  const nn::VggMini& backbone = extractor.backbone();
  const Tensor batch = data::StackImages(images);
  std::vector<Tensor> taps;
  ASSERT_TRUE(
      backbone.net.ForwardTaps(batch, backbone.pool_layer_indices, &taps).ok());
  Result<std::vector<std::vector<Tensor>>> maps =
      extractor.PoolFeatureMaps(images, /*batch_size=*/2);
  ASSERT_TRUE(maps.ok()) << maps.status();
  ASSERT_EQ(maps->size(), taps.size());
  for (size_t layer = 0; layer < taps.size(); ++layer) {
    const Tensor& ref = taps[layer];
    const int64_t floats = ref.NumElements() / ref.dim(0);
    for (size_t i = 0; i < images.size(); ++i) {
      const Tensor& map = (*maps)[layer][i];
      ASSERT_EQ(map.shape(),
                (std::vector<int64_t>{ref.dim(1), ref.dim(2), ref.dim(3)}));
      ASSERT_EQ(std::memcmp(map.data(),
                            ref.data() + static_cast<int64_t>(i) * floats,
                            static_cast<size_t>(floats) * sizeof(float)),
                0)
          << "tap " << layer << " image " << i;
    }
  }

  std::vector<Tensor> flat;
  ASSERT_TRUE(
      backbone.net.ForwardTaps(batch, {backbone.flatten_layer_index}, &flat)
          .ok());
  Result<Matrix> features = extractor.PenultimateFeatures(images, 2);
  ASSERT_TRUE(features.ok()) << features.status();
  ASSERT_EQ(features->cols(), flat[0].dim(1));
  for (int64_t i = 0; i < features->rows(); ++i) {
    for (int64_t j = 0; j < features->cols(); ++j) {
      ASSERT_TRUE(SameBits((*features)(i, j), flat[0].At2(i, j)))
          << "penultimate (" << i << ", " << j << ")";
    }
  }
  if (!with_logits) return;
  Result<Tensor> ref_logits = backbone.net.Forward(batch);
  ASSERT_TRUE(ref_logits.ok());
  Result<Matrix> logits = extractor.Logits(images, 2);
  ASSERT_TRUE(logits.ok()) << logits.status();
  ASSERT_EQ(logits->cols(), ref_logits->dim(1));
  for (int64_t i = 0; i < logits->rows(); ++i) {
    for (int64_t j = 0; j < logits->cols(); ++j) {
      ASSERT_TRUE(SameBits((*logits)(i, j), ref_logits->At2(i, j)))
          << "logit (" << i << ", " << j << ")";
    }
  }
}

TEST(FeatureExtractorTest, PlanMatchesLayerByLayerForward) {
  struct Size {
    int height, width;
  };
  // The configured 32x32; odd and non-square (every stage non-empty); and
  // maps whose late stages pool 1x1 through a clipped window.
  const Size sizes[] = {{32, 32}, {35, 33}, {16, 16}, {2, 2}};
  for (int convs : {1, 2}) {
    for (int channels : {1, 3}) {
      const std::unique_ptr<FeatureExtractor> extractor =
          RandomBiasExtractor(channels, convs);
      for (const Size& size : sizes) {
        for (int count : {1, 3, 17}) {
          SCOPED_TRACE(testing::Message()
                       << "convs_per_stage " << convs << ", " << channels
                       << "x" << size.height << "x" << size.width << ", "
                       << count << " images");
          ExpectPlanMatchesForward(
              *extractor,
              RandomImages(count, channels, size.height, size.width,
                           static_cast<uint64_t>(count * 131 + size.width)),
              /*with_logits=*/size.height == 32 && size.width == 32);
        }
      }
    }
  }
}

}  // namespace
}  // namespace goggles::features
