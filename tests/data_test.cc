#include <set>

#include <gtest/gtest.h>

#include "data/birds.h"
#include "data/dataset.h"
#include "data/raster.h"
#include "data/registry.h"
#include "data/signs.h"
#include "data/surface.h"
#include "data/synthnet.h"
#include "data/xray.h"

namespace goggles::data {
namespace {

TEST(ImageTest, AccessorsAndStacking) {
  Image img(3, 4, 5, 0.25f);
  img.at(2, 3, 4) = 0.75f;
  EXPECT_FLOAT_EQ(img.at(2, 3, 4), 0.75f);
  EXPECT_EQ(img.NumElements(), 60);

  Tensor stacked = StackImages({img, img});
  EXPECT_EQ(stacked.shape(), (std::vector<int64_t>{2, 3, 4, 5}));
  EXPECT_FLOAT_EQ(stacked.At4(1, 2, 3, 4), 0.75f);
}

TEST(ImageTest, ClampAndMean) {
  Image img(1, 2, 2);
  img.pixels = {-1.0f, 0.5f, 2.0f, 1.0f};
  ClampImage(&img);
  EXPECT_FLOAT_EQ(img.pixels[0], 0.0f);
  EXPECT_FLOAT_EQ(img.pixels[2], 1.0f);
  EXPECT_NEAR(ImageMean(img), (0.0f + 0.5f + 1.0f + 1.0f) / 4.0f, 1e-6f);
}

TEST(RasterTest, FillAndGradient) {
  Image img(3, 8, 8);
  FillConstant(&img, {0.2f, 0.4f, 0.6f});
  EXPECT_FLOAT_EQ(img.at(1, 3, 3), 0.4f);
  FillVerticalGradient(&img, Color::Gray(0.0f), Color::Gray(1.0f));
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(0, 7, 0), 1.0f);
  EXPECT_GT(img.at(0, 5, 0), img.at(0, 2, 0));
}

TEST(RasterTest, ShapesDrawInsideBounds) {
  Image img(3, 16, 16, 0.0f);
  DrawFilledCircle(&img, 8, 8, 3, {1, 1, 1});
  EXPECT_GT(img.at(0, 8, 8), 0.9f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.0f);
  // Off-canvas drawing must not crash.
  DrawFilledCircle(&img, -10, -10, 5, {1, 1, 1});
  DrawFilledRect(&img, 12, 12, 30, 30, {1, 0, 0});
  EXPECT_FLOAT_EQ(img.at(0, 15, 15), 1.0f);
}

TEST(RasterTest, RingHasHole) {
  Image img(1, 32, 32, 0.0f);
  DrawRing(&img, 16, 16, 10, 2, Color::Gray(1.0f));
  EXPECT_GT(img.at(0, 16, 16 - 10 + 1), 0.9f);  // on the ring
  EXPECT_FLOAT_EQ(img.at(0, 16, 16), 0.0f);     // center empty
}

TEST(RasterTest, TrianglesPointCorrectWay) {
  Image up(1, 32, 32, 0.0f), down(1, 32, 32, 0.0f);
  DrawFilledTriangle(&up, 16, 16, 12, true, Color::Gray(1.0f));
  DrawFilledTriangle(&down, 16, 16, 12, false, Color::Gray(1.0f));
  // The up triangle is wider at the bottom; the down one at the top.
  auto row_mass = [](const Image& img, int y) {
    float acc = 0.0f;
    for (int x = 0; x < img.width; ++x) acc += img.at(0, y, x);
    return acc;
  };
  EXPECT_GT(row_mass(up, 20), row_mass(up, 12));
  EXPECT_GT(row_mass(down, 12), row_mass(down, 20));
}

TEST(RasterTest, BlurReducesVariance) {
  Rng rng(5);
  Image img(1, 32, 32, 0.5f);
  AddGaussianNoise(&img, 0.2f, &rng);
  auto variance = [](const Image& im) {
    double mean = 0.0;
    for (float v : im.pixels) mean += v;
    mean /= static_cast<double>(im.pixels.size());
    double var = 0.0;
    for (float v : im.pixels) var += (v - mean) * (v - mean);
    return var / static_cast<double>(im.pixels.size());
  };
  const double before = variance(img);
  GaussianBlur3x3(&img, 2);
  EXPECT_LT(variance(img), before * 0.6);
}

TEST(RasterTest, SoftBlobAdditive) {
  Image img(1, 32, 32, 0.2f);
  DrawSoftBlob(&img, 16, 16, 2.0f, 0.5f, Color::Gray(1.0f));
  EXPECT_NEAR(img.at(0, 16, 16), 0.7f, 0.02f);
  EXPECT_NEAR(img.at(0, 0, 0), 0.2f, 1e-4f);
}

TEST(SynthNetTest, GeneratesBalancedClasses) {
  SynthNetConfig config;
  config.images_per_class = 5;
  LabeledDataset ds = GenerateSynthNet(config);
  EXPECT_EQ(ds.num_classes, kSynthNetNumClasses);
  EXPECT_EQ(ds.size(), 16 * 5);
  std::vector<int> counts = ClassCounts(ds);
  for (int c : counts) EXPECT_EQ(c, 5);
  EXPECT_EQ(ds.class_names.size(), 16u);
}

TEST(SynthNetTest, DeterministicForSeed) {
  SynthNetConfig config;
  config.images_per_class = 3;
  LabeledDataset a = GenerateSynthNet(config);
  LabeledDataset b = GenerateSynthNet(config);
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.images[static_cast<size_t>(i)].pixels,
              b.images[static_cast<size_t>(i)].pixels);
  }
}

TEST(SynthNetTest, PixelsInRange) {
  SynthNetConfig config;
  config.images_per_class = 2;
  LabeledDataset ds = GenerateSynthNet(config);
  for (const Image& img : ds.images) {
    for (float v : img.pixels) {
      ASSERT_GE(v, 0.0f);
      ASSERT_LE(v, 1.0f);
    }
  }
}

TEST(BirdsTest, AttributeMetadataConsistent) {
  SynthBirdsConfig config;
  config.images_per_class = 4;
  config.annotation_noise = 0.0;  // exact annotations for this test
  LabeledDataset ds = GenerateSynthBirds(config);
  EXPECT_EQ(ds.num_classes, 20);
  ASSERT_TRUE(ds.has_attributes());
  EXPECT_EQ(ds.class_attributes.rows(), 20);
  EXPECT_EQ(ds.class_attributes.cols(), kBirdNumAttributes);
  EXPECT_EQ(ds.image_attributes.rows(), ds.size());
  // Noise-free annotations equal the class attribute rows.
  for (int64_t i = 0; i < ds.size(); ++i) {
    const int label = ds.labels[static_cast<size_t>(i)];
    for (int64_t a = 0; a < kBirdNumAttributes; ++a) {
      ASSERT_DOUBLE_EQ(ds.image_attributes(i, a), ds.class_attributes(label, a));
    }
  }
}

TEST(BirdsTest, ClassPairsDifferInAtLeastThreeAttributes) {
  SynthBirdsConfig config;
  config.images_per_class = 1;
  LabeledDataset ds = GenerateSynthBirds(config);
  for (int a = 0; a < ds.num_classes; ++a) {
    for (int b = a + 1; b < ds.num_classes; ++b) {
      int dist = 0;
      for (int64_t col = 0; col < ds.class_attributes.cols(); ++col) {
        if (ds.class_attributes(a, col) != ds.class_attributes(b, col)) ++dist;
      }
      ASSERT_GE(dist, 3) << "classes " << a << "," << b;
    }
  }
}

TEST(BirdsTest, AnnotationNoiseFlipsSomeBits) {
  SynthBirdsConfig config;
  config.images_per_class = 30;
  config.annotation_noise = 0.2;
  LabeledDataset ds = GenerateSynthBirds(config);
  int64_t flips = 0, total = 0;
  for (int64_t i = 0; i < ds.size(); ++i) {
    const int label = ds.labels[static_cast<size_t>(i)];
    for (int64_t a = 0; a < kBirdNumAttributes; ++a) {
      ++total;
      if (ds.image_attributes(i, a) != ds.class_attributes(label, a)) ++flips;
    }
  }
  const double rate = static_cast<double>(flips) / static_cast<double>(total);
  EXPECT_NEAR(rate, 0.2, 0.05);
}

TEST(SignsTest, FortyThreeClasses) {
  SynthSignsConfig config;
  config.images_per_class = 2;
  LabeledDataset ds = GenerateSynthSigns(config);
  EXPECT_EQ(ds.num_classes, kSignsNumClasses);
  EXPECT_EQ(ds.size(), 43 * 2);
  EXPECT_FALSE(ds.has_attributes());
}

TEST(SurfaceTest, RoughClassHasHigherVariance) {
  SynthSurfaceConfig config;
  config.images_per_class = 20;
  LabeledDataset ds = GenerateSynthSurface(config);
  auto mean_local_variance = [&](int label) {
    double acc = 0.0;
    int count = 0;
    for (int64_t i = 0; i < ds.size(); ++i) {
      if (ds.labels[static_cast<size_t>(i)] != label) continue;
      const Image& img = ds.images[static_cast<size_t>(i)];
      // High-frequency energy: mean squared horizontal difference.
      double e = 0.0;
      for (int y = 0; y < img.height; ++y) {
        for (int x = 1; x < img.width; ++x) {
          const double d = img.at(0, y, x) - img.at(0, y, x - 1);
          e += d * d;
        }
      }
      acc += e;
      ++count;
    }
    return acc / count;
  };
  EXPECT_GT(mean_local_variance(1), 2.0 * mean_local_variance(0));
}

TEST(XrayTest, AbnormalTbImagesAreBrighterInLungs) {
  SynthXrayConfig config;
  config.images_per_class = 30;
  LabeledDataset ds = GenerateSynthTBXray(config);
  double mean_normal = 0.0, mean_abnormal = 0.0;
  int n0 = 0, n1 = 0;
  for (int64_t i = 0; i < ds.size(); ++i) {
    const float m = ImageMean(ds.images[static_cast<size_t>(i)]);
    if (ds.labels[static_cast<size_t>(i)] == 0) {
      mean_normal += m;
      ++n0;
    } else {
      mean_abnormal += m;
      ++n1;
    }
  }
  EXPECT_GT(mean_abnormal / n1, mean_normal / n0);
}

TEST(XrayTest, TwoCorporaDiffer) {
  SynthXrayConfig config;
  config.images_per_class = 2;
  LabeledDataset tb = GenerateSynthTBXray(config);
  LabeledDataset pn = GenerateSynthPNXray(config);
  EXPECT_EQ(tb.name, "tbxray");
  EXPECT_EQ(pn.name, "pnxray");
  EXPECT_NE(tb.images[3].pixels, pn.images[3].pixels);
}

TEST(DatasetTest, SelectClassesRelabelsAndFilters) {
  SynthBirdsConfig config;
  config.images_per_class = 3;
  LabeledDataset ds = GenerateSynthBirds(config);
  LabeledDataset pair = SelectClasses(ds, {7, 2});
  EXPECT_EQ(pair.num_classes, 2);
  EXPECT_EQ(pair.size(), 6);
  for (int label : pair.labels) {
    EXPECT_TRUE(label == 0 || label == 1);
  }
  // Class 0 of the pair is original class 7.
  for (int64_t a = 0; a < pair.class_attributes.cols(); ++a) {
    EXPECT_DOUBLE_EQ(pair.class_attributes(0, a), ds.class_attributes(7, a));
    EXPECT_DOUBLE_EQ(pair.class_attributes(1, a), ds.class_attributes(2, a));
  }
}

TEST(DatasetTest, StratifiedSplitDisjointAndComplete) {
  SynthSurfaceConfig config;
  config.images_per_class = 20;
  LabeledDataset ds = GenerateSynthSurface(config);
  Rng rng(3);
  TrainTestSplit split = StratifiedSplit(ds, 0.6, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  std::vector<int> train_counts = ClassCounts(split.train);
  std::vector<int> test_counts = ClassCounts(split.test);
  EXPECT_EQ(train_counts[0], 12);
  EXPECT_EQ(test_counts[0], 8);
  EXPECT_EQ(train_counts[1], 12);
}

TEST(DatasetTest, SampleDevIndicesPerClass) {
  SynthSurfaceConfig config;
  config.images_per_class = 10;
  LabeledDataset ds = GenerateSynthSurface(config);
  Rng rng(5);
  std::vector<int> dev = SampleDevIndices(ds, 5, &rng);
  EXPECT_EQ(dev.size(), 10u);
  int per_class[2] = {0, 0};
  std::set<int> uniq(dev.begin(), dev.end());
  EXPECT_EQ(uniq.size(), dev.size());
  for (int idx : dev) ++per_class[ds.labels[static_cast<size_t>(idx)]];
  EXPECT_EQ(per_class[0], 5);
  EXPECT_EQ(per_class[1], 5);
}

TEST(DatasetTest, SampleClassPairsDistinct) {
  Rng rng(7);
  auto pairs = SampleClassPairs(20, 10, &rng);
  EXPECT_EQ(pairs.size(), 10u);
  std::set<std::pair<int, int>> uniq(pairs.begin(), pairs.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(b, 20);
  }
}

TEST(DatasetTest, SampleClassPairsCapped) {
  Rng rng(9);
  auto pairs = SampleClassPairs(3, 100, &rng);
  EXPECT_EQ(pairs.size(), 3u);  // only 3 distinct pairs exist
}

TEST(RegistryTest, KnownNamesGenerate) {
  for (const std::string& name : EvaluationDatasetNames()) {
    Result<LabeledDataset> ds = GenerateDataset(name, 2);
    ASSERT_TRUE(ds.ok()) << name;
    EXPECT_GT(ds->size(), 0) << name;
  }
  Result<LabeledDataset> synthnet = GenerateDataset("synthnet", 2);
  ASSERT_TRUE(synthnet.ok());
  EXPECT_EQ(synthnet->num_classes, 16);
}

TEST(RegistryTest, UnknownNameFails) {
  EXPECT_FALSE(GenerateDataset("imagenet", 2).ok());
}

}  // namespace
}  // namespace goggles::data
