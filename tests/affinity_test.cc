#include "goggles/affinity.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "nn/vgg.h"

namespace goggles {
namespace {

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.1f);
  switch (variant % 3) {
    case 0:
      data::DrawFilledCircle(&img, 16, 16, 8, {1.0f, 0.2f, 0.2f});
      break;
    case 1:
      data::DrawFilledRect(&img, 8, 8, 24, 24, {0.2f, 1.0f, 0.2f});
      break;
    default:
      data::DrawCross(&img, 16, 16, 16, 3, {0.2f, 0.2f, 1.0f});
      break;
  }
  return img;
}

std::shared_ptr<features::FeatureExtractor> MakeExtractor() {
  nn::VggMiniConfig config;
  config.stage_channels = {4, 8, 8, 8, 8};
  config.num_classes = 4;
  Result<nn::VggMini> model = nn::BuildVggMini(config);
  model.status().Abort("vgg");
  return std::make_shared<features::FeatureExtractor>(std::move(*model));
}

class AffinityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    extractor_ = MakeExtractor();
    for (int i = 0; i < 6; ++i) images_.push_back(PatternImage(i));
  }
  std::shared_ptr<features::FeatureExtractor> extractor_;
  std::vector<data::Image> images_;
};

TEST_F(AffinityTest, LibraryHasLayersTimesZFunctions) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 10);
  EXPECT_EQ(library.functions.size(), 50u);  // 5 layers x Z=10
  AffinityLibrary small = BuildPrototypeAffinityLibrary(extractor_, 3);
  EXPECT_EQ(small.functions.size(), 15u);
}

TEST_F(AffinityTest, RoundRobinOrderingSpansLayersFirst) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  // First 5 functions are z=0 of layers 1..5.
  EXPECT_EQ(library.functions[0]->name(), "proto[L1,z0]");
  EXPECT_EQ(library.functions[1]->name(), "proto[L2,z0]");
  EXPECT_EQ(library.functions[4]->name(), "proto[L5,z0]");
  EXPECT_EQ(library.functions[5]->name(), "proto[L1,z1]");
}

TEST_F(AffinityTest, ScoresAreBoundedCosines) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 4);
  for (auto& f : library.functions) {
    ASSERT_TRUE(f->Prepare(images_).ok());
  }
  for (auto& f : library.functions) {
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) {
        const float s = f->Score(i, j);
        ASSERT_GE(s, -1.0f - 1e-5f);
        ASSERT_LE(s, 1.0f + 1e-5f);
      }
    }
  }
}

TEST_F(AffinityTest, SelfAffinityIsMaximal) {
  // Eq. 2 with i == j: the prototype of x_j exists among x_j's own position
  // vectors, so the max cosine is exactly 1.
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 4);
  for (auto& f : library.functions) {
    ASSERT_TRUE(f->Prepare(images_).ok());
  }
  for (auto& f : library.functions) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_NEAR(f->Score(i, i), 1.0f, 1e-4f);
    }
  }
}

TEST_F(AffinityTest, SameConceptScoresHigherThanDifferent) {
  // Images 0 and 3 share the circle concept; image 1 is a square.
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 10);
  for (auto& f : library.functions) {
    ASSERT_TRUE(f->Prepare(images_).ok());
  }
  double same = 0.0, diff = 0.0;
  for (auto& f : library.functions) {
    same += f->Score(0, 3);
    diff += f->Score(1, 3);
  }
  EXPECT_GT(same, diff);
}

TEST_F(AffinityTest, MatrixLayoutMatchesPaperSection22) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  std::vector<AffinityFunction*> fns = library.Pointers();
  for (auto* f : fns) ASSERT_TRUE(f->Prepare(images_).ok());
  const int n = static_cast<int>(images_.size());
  Result<Matrix> a = BuildAffinityMatrix(fns, n);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->rows(), n);
  EXPECT_EQ(a->cols(), static_cast<int64_t>(fns.size()) * n);
  // A[i, f*N + j] == f(x_i, x_j).
  for (size_t f = 0; f < fns.size(); ++f) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_NEAR((*a)(i, static_cast<int64_t>(f) * n + j),
                    static_cast<double>(fns[f]->Score(i, j)), 1e-6);
      }
    }
  }
}

TEST_F(AffinityTest, PrepareIsIdempotent) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const float before = library.source->Score(0, 0, 0, 1);
  const uint64_t fingerprint = library.source->fingerprint();
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  EXPECT_FLOAT_EQ(library.source->Score(0, 0, 0, 1), before);
  EXPECT_EQ(library.source->fingerprint(), fingerprint);
}

// Regression test: Prepare() idempotence used to be keyed on image count
// only, so re-preparing with a *different* same-sized dataset silently
// reused the stale caches. It is now keyed on a content fingerprint.
TEST_F(AffinityTest, PrepareDetectsSameCountContentChange) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const uint64_t first_fingerprint = library.source->fingerprint();

  // Same image count, shifted content: variant i+1 instead of i.
  std::vector<data::Image> shifted;
  for (size_t i = 0; i < images_.size(); ++i) {
    shifted.push_back(PatternImage(static_cast<int>(i) + 1));
  }
  ASSERT_TRUE(library.source->Prepare(shifted).ok());
  EXPECT_NE(library.source->fingerprint(), first_fingerprint);

  // The re-prepared source must agree with a source prepared on the
  // shifted dataset from scratch — not with the stale caches.
  AffinityLibrary fresh = BuildPrototypeAffinityLibrary(extractor_, 2);
  ASSERT_TRUE(fresh.source->Prepare(shifted).ok());
  for (int layer = 0; layer < library.source->num_layers(); ++layer) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        EXPECT_FLOAT_EQ(library.source->Score(layer, 1, i, j),
                        fresh.source->Score(layer, 1, i, j))
            << "stale cache at layer " << layer << " pair (" << i << ", "
            << j << ")";
      }
    }
  }
}

// The fused batched scorer must agree with the scalar ScoreQuery path —
// including for query images whose resolution (and hence filter-map
// area) differs from the pool's, which the scalar path always supported.
TEST_F(AffinityTest, BatchedQueryScoringMatchesScalarAcrossResolutions) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 3);
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const int num_functions = 15;  // 5 layers x z=3
  const int n = static_cast<int>(images_.size());

  for (int size : {32, 64}) {
    std::vector<data::Image> queries;
    for (int i = 0; i < 3; ++i) {
      data::Image img(3, size, size, 0.1f);
      data::DrawFilledCircle(&img, size / 2, size / 2, size / 4,
                             {0.9f, 0.3f, 0.2f + 0.1f * i});
      queries.push_back(img);
    }
    auto features = library.source->ExtractQueryFeatures(queries);
    ASSERT_TRUE(features.ok()) << features.status().ToString();
    auto rows = library.source->ScoreQueryRowsBatched(*features,
                                                      num_functions);
    ASSERT_TRUE(rows.ok()) << "query size " << size << ": "
                           << rows.status().ToString();
    ASSERT_EQ(rows->rows(), 3);
    ASSERT_EQ(rows->cols(), static_cast<int64_t>(num_functions) * n);
    for (int i = 0; i < 3; ++i) {
      for (int f = 0; f < num_functions; ++f) {
        const int layer = f % library.source->num_layers();
        const int z = f / library.source->num_layers();
        for (int j = 0; j < n; ++j) {
          ASSERT_NEAR(
              (*rows)(i, static_cast<int64_t>(f) * n + j),
              static_cast<double>(library.source->ScoreQuery(
                  layer, z, (*features)[static_cast<size_t>(i)], j)),
              1e-5)
              << "size " << size << " query " << i << " f " << f << " j "
              << j;
        }
      }
    }
  }
}

// Restore is public, so it must reject caches whose prototype vectors do
// not match their declared shape before packing them into the panel.
class AffinityRestoreTest : public AffinityTest {
 protected:
  void SetUp() override {
    AffinityTest::SetUp();
    PrototypeAffinitySource prepared(extractor_, 3);
    ASSERT_TRUE(prepared.Prepare(images_).ok());
    layers_ = prepared.layers();
    fingerprint_ = prepared.fingerprint();
  }

  Status RestoreLayers(std::vector<PrototypeAffinitySource::LayerData> layers) {
    PrototypeAffinitySource source(extractor_, 3);
    return source.Restore(std::move(layers),
                          static_cast<int>(images_.size()), fingerprint_);
  }

  std::vector<PrototypeAffinitySource::LayerData> layers_;
  uint64_t fingerprint_ = 0;
};

TEST_F(AffinityRestoreTest, AcceptsPreparedLayers) {
  EXPECT_TRUE(RestoreLayers(layers_).ok());
}

TEST_F(AffinityRestoreTest, RejectsNonPositiveChannels) {
  layers_[1].channels = 0;
  EXPECT_EQ(RestoreLayers(layers_).code(), StatusCode::kInvalidArgument);
}

TEST_F(AffinityRestoreTest, RejectsNegativePrototypeCount) {
  layers_[2].num_prototypes[3] = -1;
  layers_[2].prototypes[3].clear();
  EXPECT_EQ(RestoreLayers(layers_).code(), StatusCode::kInvalidArgument);
}

TEST_F(AffinityRestoreTest, RejectsPrototypeVectorOfWrongLength) {
  layers_[0].prototypes[4].push_back(0.5f);
  EXPECT_EQ(RestoreLayers(layers_).code(), StatusCode::kInvalidArgument);
}

// A restored source holds prototypes only. Re-preparing it on the very
// pool it was fitted on must still featurize that pool (the fingerprint
// alone does not make it prepared), so its pool rows match a freshly
// prepared source bit for bit.
TEST_F(AffinityRestoreTest, RePreparedSourceMatchesFreshSourceBitForBit) {
  const int n = static_cast<int>(images_.size());
  const int num_functions = 15;  // 5 layers x z=3
  PrototypeAffinitySource fresh(extractor_, 3);
  ASSERT_TRUE(fresh.Prepare(images_).ok());
  Matrix expected(n, static_cast<int64_t>(num_functions) * n);
  ASSERT_TRUE(fresh.ScorePoolRowsInto(num_functions, &expected).ok());

  PrototypeAffinitySource restored(extractor_, 3);
  ASSERT_TRUE(restored.Restore(layers_, n, fingerprint_).ok());
  Matrix got(n, static_cast<int64_t>(num_functions) * n);
  EXPECT_EQ(restored.ScorePoolRowsInto(num_functions, &got).code(),
            StatusCode::kInternal);
  ASSERT_TRUE(restored.Prepare(images_).ok());
  ASSERT_TRUE(restored.ScorePoolRowsInto(num_functions, &got).ok());
  EXPECT_EQ(restored.fingerprint(), fresh.fingerprint());
  for (int64_t i = 0; i < expected.rows(); ++i) {
    for (int64_t c = 0; c < expected.cols(); ++c) {
      ASSERT_EQ(got(i, c), expected(i, c)) << "at (" << i << ", " << c << ")";
    }
  }
}

TEST(VectorCosineAffinityTest, MatchesCosine) {
  Matrix emb = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}, {-1, 0}});
  VectorCosineAffinity affinity("test", emb);
  std::vector<data::Image> dummy(4, data::Image(1, 2, 2));
  ASSERT_TRUE(affinity.Prepare(dummy).ok());
  EXPECT_NEAR(affinity.Score(0, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(affinity.Score(0, 1), 0.0f, 1e-6f);
  EXPECT_NEAR(affinity.Score(0, 2), 1.0f / std::sqrt(2.0f), 1e-6f);
  EXPECT_NEAR(affinity.Score(0, 3), -1.0f, 1e-6f);
  EXPECT_EQ(affinity.name(), "test");
}

TEST(VectorCosineAffinityTest, PrepareValidatesRowCount) {
  Matrix emb = Matrix::FromRows({{1, 0}});
  VectorCosineAffinity affinity("test", emb);
  std::vector<data::Image> two(2, data::Image(1, 2, 2));
  EXPECT_FALSE(affinity.Prepare(two).ok());
}

TEST(BuildAffinityMatrixTest, EmptyFunctionListRejected) {
  EXPECT_FALSE(BuildAffinityMatrix({}, 3).ok());
}

}  // namespace
}  // namespace goggles
