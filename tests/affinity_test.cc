#include "goggles/affinity.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "goggles/pipeline.h"
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

/// The N x (num_functions * N) library block of `source`, prepared on
/// `images`, through the fit path's scorer: each layer's float block,
/// widened into the columns of its functions.
Matrix PoolAffinity(PrototypeAffinitySource& source,
                    const std::vector<data::Image>& images,
                    int num_functions) {
  const int64_t n = static_cast<int64_t>(images.size());
  Matrix a(n, static_cast<int64_t>(num_functions) * n);
  Status status = source.Prepare(images);
  for (int layer = 0; status.ok() && layer < source.num_layers(); ++layer) {
    const std::vector<int64_t> functions =
        source.LayerFunctions(layer, num_functions);
    const int64_t width = static_cast<int64_t>(functions.size()) * n;
    std::vector<float> block(static_cast<size_t>(n * width));
    status = source.ScorePoolLayerInto(layer, num_functions, width,
                                       block.data());
    for (int64_t i = 0; status.ok() && i < n; ++i) {
      for (size_t z = 0; z < functions.size(); ++z) {
        const float* src =
            block.data() + i * width + static_cast<int64_t>(z) * n;
        std::copy(src, src + n, a.RowPtr(i) + functions[z] * n);
      }
    }
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  return a;
}

void ExpectBitIdentical(const Matrix& got, const Matrix& expected) {
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (int64_t i = 0; i < expected.rows(); ++i) {
    for (int64_t c = 0; c < expected.cols(); ++c) {
      ASSERT_EQ(got(i, c), expected(i, c)) << "at (" << i << ", " << c << ")";
    }
  }
}

TEST_F(AffinityTest, LibraryHasLayersTimesZFunctions) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 10);
  EXPECT_EQ(library.num_functions(), 50);  // 5 layers x Z=10
  AffinityLibrary small = BuildPrototypeAffinityLibrary(extractor_, 3);
  ASSERT_EQ(small.num_functions(), 15);
  // Each layer's scorer fills every column of its 3-function block, and
  // refuses a narrower one.
  const int64_t n = static_cast<int64_t>(images_.size());
  ASSERT_TRUE(small.source->Prepare(images_).ok());
  for (int layer = 0; layer < small.source->num_layers(); ++layer) {
    ASSERT_EQ(small.source->LayerFunctions(layer, 15).size(), 3u);
    const int64_t width = 3 * n;
    std::vector<float> block(static_cast<size_t>(n * width), std::nanf(""));
    ASSERT_TRUE(
        small.source->ScorePoolLayerInto(layer, 15, width, block.data()).ok());
    for (size_t e = 0; e < block.size(); ++e) {
      ASSERT_FALSE(std::isnan(block[e])) << "layer " << layer << " unscored "
                                         << e;
    }
    EXPECT_EQ(small.source->ScorePoolLayerInto(layer, 15, width - 1,
                                               block.data())
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(AffinityTest, ScoresAreBoundedCosines) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 4);
  const Matrix a =
      PoolAffinity(*library.source, images_, library.num_functions());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      ASSERT_GE(a(i, c), -1.0 - 1e-5);
      ASSERT_LE(a(i, c), 1.0 + 1e-5);
    }
  }
}

TEST_F(AffinityTest, SelfAffinityIsMaximal) {
  // Eq. 2 with i == j: the prototype of x_j exists among x_j's own position
  // vectors, so the max cosine is exactly 1.
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 4);
  const int alpha = library.num_functions();
  const Matrix a = PoolAffinity(*library.source, images_, alpha);
  const int64_t n = static_cast<int64_t>(images_.size());
  for (int f = 0; f < alpha; ++f) {
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a(i, f * n + i), 1.0, 1e-4) << "f " << f << " i " << i;
    }
  }
}

TEST_F(AffinityTest, SameConceptScoresHigherThanDifferent) {
  // Images 0 and 3 share the circle concept; image 1 is a square.
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 10);
  const int alpha = library.num_functions();
  const Matrix a = PoolAffinity(*library.source, images_, alpha);
  const int64_t n = static_cast<int64_t>(images_.size());
  double same = 0.0, diff = 0.0;
  for (int f = 0; f < alpha; ++f) {
    same += a(0, f * n + 3);
    diff += a(1, f * n + 3);
  }
  EXPECT_GT(same, diff);
}

// A[i, f*N + j] = f(x_i, x_j), with the library ordered round-robin across
// layers (function f = layer f % L, prototype rank f / L), so prefixes span
// every scale. The pool rows are the query rows of the pool's own images,
// and each entry is the scalar Eq. 2 reference (DotF, not the fused
// kernel, hence the tolerance).
TEST_F(AffinityTest, MatrixLayoutMatchesPaperSection22) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  const PrototypeAffinitySource& source = *library.source;
  const int alpha = library.num_functions();
  const Matrix a = PoolAffinity(*library.source, images_, alpha);
  const int n = static_cast<int>(images_.size());
  EXPECT_EQ(a.rows(), n);
  EXPECT_EQ(a.cols(), static_cast<int64_t>(alpha) * n);

  auto features = source.ExtractQueryFeatures(images_);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  auto rows = source.ScoreQueryRowsBatched(*features, alpha);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectBitIdentical(a, *rows);

  const int num_layers = source.num_layers();
  for (int f = 0; f < alpha; ++f) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_NEAR(a(i, static_cast<int64_t>(f) * n + j),
                    static_cast<double>(source.ScoreQuery(
                        f % num_layers, f / num_layers,
                        (*features)[static_cast<size_t>(i)], j)),
                    1e-5)
            << "f " << f << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

// A layer's float block holds, widened bit for bit, the matrix columns of
// that layer's functions in rank order — the columns the query scorer
// writes for the pool's own images — also for a prefix that leaves the
// layers uneven (7 of 15 functions: 2, 2, 1, 1, 1).
TEST_F(AffinityTest, LayerBlocksAreTheMatrixColumnsOfTheirFunctions) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 3);
  const PrototypeAffinitySource& source = *library.source;
  const int64_t n = static_cast<int64_t>(images_.size());
  const int num_functions = 7;
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  auto features = source.ExtractQueryFeatures(images_);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  auto rows = source.ScoreQueryRowsBatched(*features, num_functions);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const Matrix& a = *rows;
  int64_t covered = 0;
  for (int layer = 0; layer < source.num_layers(); ++layer) {
    const std::vector<int64_t> functions =
        source.LayerFunctions(layer, num_functions);
    EXPECT_EQ(functions.size(), layer < 2 ? 2u : 1u) << "layer " << layer;
    const int64_t width = static_cast<int64_t>(functions.size()) * n;
    std::vector<float> block(static_cast<size_t>(n * width));
    ASSERT_TRUE(
        source.ScorePoolLayerInto(layer, num_functions, width, block.data())
            .ok());
    Matrix widened(n, width);
    std::copy(block.begin(), block.end(), widened.data());
    for (size_t z = 0; z < functions.size(); ++z) {
      EXPECT_EQ(functions[z] % source.num_layers(), layer);
      ExpectBitIdentical(widened.Block(0, static_cast<int64_t>(z) * n, n, n),
                         a.Block(0, functions[z] * n, n, n));
    }
    EXPECT_EQ(source
                  .ScorePoolLayerInto(layer, num_functions, width - 1,
                                      block.data())
                  .code(),
              StatusCode::kInvalidArgument);
    covered += static_cast<int64_t>(functions.size());
  }
  EXPECT_EQ(covered, num_functions);
}

TEST_F(AffinityTest, PrepareIsIdempotent) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  const Matrix before = PoolAffinity(*library.source, images_, 10);
  const uint64_t fingerprint = library.source->fingerprint();
  ExpectBitIdentical(PoolAffinity(*library.source, images_, 10), before);
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
  const Matrix reprepared = PoolAffinity(*library.source, shifted, 10);
  EXPECT_NE(library.source->fingerprint(), first_fingerprint);

  // The re-prepared source must agree with a source prepared on the
  // shifted dataset from scratch — not with the stale caches.
  AffinityLibrary fresh = BuildPrototypeAffinityLibrary(extractor_, 2);
  ExpectBitIdentical(reprepared, PoolAffinity(*fresh.source, shifted, 10));
}

/// A user function that counts its Prepare() calls.
class CountingAffinity : public VectorCosineAffinity {
 public:
  using VectorCosineAffinity::VectorCosineAffinity;
  Status Prepare(const std::vector<data::Image>& images) override {
    ++prepares;
    return VectorCosineAffinity::Prepare(images);
  }
  int prepares = 0;
};

// User functions take the column blocks after the library's L x Z, and a
// max_functions cap that ends inside the library never prepares them.
TEST_F(AffinityTest, UserFunctionsFollowTheLibraryBlock) {
  const int64_t n = static_cast<int64_t>(images_.size());
  Matrix embeddings(n, 3);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t d = 0; d < 3; ++d) {
      embeddings(i, d) = std::sin(static_cast<double>(1 + i * 3 + d));
    }
  }
  GogglesConfig config;
  config.top_z = 2;
  GogglesPipeline pipeline(extractor_, config);
  auto fn = std::make_unique<CountingAffinity>("user", embeddings);
  CountingAffinity* user = fn.get();
  pipeline.AddFunction(std::move(fn));
  ASSERT_EQ(pipeline.num_functions(), 11);

  auto a = pipeline.BuildAffinity(images_);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_EQ(a->cols(), 11 * n);
  EXPECT_EQ(user->prepares, 1);
  PrototypeAffinitySource source(extractor_, 2);
  const Matrix library_block = PoolAffinity(source, images_, 10);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < 10 * n; ++c) {
      ASSERT_EQ((*a)(i, c), library_block(i, c)) << "(" << i << ", " << c
                                                  << ")";
    }
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ((*a)(i, 10 * n + j),
                static_cast<double>(
                    user->Score(static_cast<int>(i), static_cast<int>(j))))
          << "(" << i << ", " << j << ")";
    }
  }

  config.max_functions = 7;
  GogglesPipeline capped(extractor_, config);
  auto capped_fn = std::make_unique<CountingAffinity>("user", embeddings);
  CountingAffinity* capped_user = capped_fn.get();
  capped.AddFunction(std::move(capped_fn));
  EXPECT_EQ(capped.num_functions(), 7);
  auto b = capped.BuildAffinity(images_);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->cols(), 7 * n);
  EXPECT_EQ(capped_user->prepares, 0);
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
  const Matrix expected = PoolAffinity(fresh, images_, num_functions);

  PrototypeAffinitySource restored(extractor_, 3);
  ASSERT_TRUE(restored.Restore(layers_, n, fingerprint_).ok());
  std::vector<float> block(static_cast<size_t>(n) * 3 * n);
  EXPECT_EQ(restored.ScorePoolLayerInto(0, num_functions, 3 * n, block.data())
                .code(),
            StatusCode::kInternal);
  const Matrix got = PoolAffinity(restored, images_, num_functions);
  EXPECT_EQ(restored.fingerprint(), fresh.fingerprint());
  ExpectBitIdentical(got, expected);
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

// With no library (top_z = 0) the pipeline's functions are the user
// functions alone: none is InvalidArgument, and one labels the pool on
// its own, the way Table 1's HOG and Logits rows run.
TEST_F(AffinityTest, PipelineWithoutLibraryLabelsWithItsUserFunction) {
  GogglesConfig config;
  config.top_z = 0;
  GogglesPipeline empty(extractor_, config);
  EXPECT_EQ(empty.num_functions(), 0);
  EXPECT_EQ(empty.Label(images_, {0, 1}, {0, 1}, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.BuildAffinity(images_).status().code(),
            StatusCode::kInvalidArgument);

  const int64_t n = static_cast<int64_t>(images_.size());
  Matrix embeddings(n, 3);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t d = 0; d < 3; ++d) {
      embeddings(i, d) = (i % 3 == d ? 1.0 : 0.1) + 0.01 * i;
    }
  }
  GogglesPipeline single(extractor_, config);
  single.AddFunction(
      std::make_unique<VectorCosineAffinity>("user", embeddings));
  ASSERT_EQ(single.num_functions(), 1);
  auto result = single.Label(images_, {0, 1}, {0, 1}, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->hard_labels.size(), static_cast<size_t>(n));
  EXPECT_EQ(result->base_label_predictions.size(), 1u);
  EXPECT_FALSE(single.library().source->num_images() > 0)
      << "a library-free pipeline must not prepare the prototype source";
}

}  // namespace
}  // namespace goggles
