#include "serve/session.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "goggles/pipeline.h"
#include "nn/vgg.h"

/// Online incremental labeling: serve::Session must reproduce the batch
/// pipeline's labels exactly — a Session fitted on a pool is the *same
/// computation* as GogglesPipeline::Label, and labeling pool images
/// online through the cached fitted state must agree bit-for-bit with
/// the fitting run (the ISSUE's acceptance criterion).

namespace goggles {
namespace {

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.05f * static_cast<float>(variant % 4));
  switch (variant % 3) {
    case 0:
      data::DrawFilledCircle(&img, 16, 16, 6 + variant % 5, {1.0f, 0.2f, 0.2f});
      break;
    case 1:
      data::DrawFilledRect(&img, 6, 6, 26, 26, {0.2f, 1.0f, 0.2f});
      break;
    default:
      data::DrawCross(&img, 16, 16, 14, 3, {0.2f, 0.2f, 1.0f});
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

class ServeSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    extractor_ = MakeExtractor();
    // Circles vs rects/crosses, 2 classes; 14-image pool + held-out images.
    for (int i = 0; i < 14; ++i) pool_.push_back(PatternImage(i));
    for (int i = 14; i < 18; ++i) held_out_.push_back(PatternImage(i));
    dev_indices_ = {0, 1, 2, 3};
    dev_labels_ = {0, 1, 2 % 2, 1};
    config_.top_z = 3;  // 15 affinity functions, fast
  }

  std::shared_ptr<features::FeatureExtractor> extractor_;
  std::vector<data::Image> pool_;
  std::vector<data::Image> held_out_;
  std::vector<int> dev_indices_;
  std::vector<int> dev_labels_;
  GogglesConfig config_;
};

TEST_F(ServeSessionTest, FitMatchesBatchPipelineExactly) {
  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, config_);
  ASSERT_TRUE(session.ok()) << session.status();

  GogglesPipeline pipeline(MakeExtractor(), config_);
  auto batch = pipeline.Label(pool_, dev_indices_, dev_labels_, 2);
  ASSERT_TRUE(batch.ok()) << batch.status();

  const Matrix& served = session->pool_result().soft_labels;
  ASSERT_EQ(served.rows(), batch->soft_labels.rows());
  ASSERT_EQ(served.cols(), batch->soft_labels.cols());
  for (int64_t i = 0; i < served.rows(); ++i) {
    for (int64_t k = 0; k < served.cols(); ++k) {
      EXPECT_EQ(served(i, k), batch->soft_labels(i, k))
          << "soft label mismatch at (" << i << ", " << k << ")";
    }
  }
  EXPECT_EQ(session->pool_result().hard_labels, batch->hard_labels);
  EXPECT_EQ(session->pool_size(), static_cast<int64_t>(pool_.size()));
  EXPECT_EQ(session->num_functions(), 15);
}

// The acceptance criterion: labeling the pool images *online* (as if
// they were new arrivals) through the cached fitted state reproduces the
// full GogglesPipeline::Label rerun for the same images, bit for bit.
TEST_F(ServeSessionTest, LabelBatchOnPoolImagesMatchesFullRerun) {
  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, config_);
  ASSERT_TRUE(session.ok()) << session.status();

  auto online = session->LabelBatch(pool_);
  ASSERT_TRUE(online.ok()) << online.status();

  GogglesPipeline pipeline(MakeExtractor(), config_);
  auto rerun = pipeline.Label(pool_, dev_indices_, dev_labels_, 2);
  ASSERT_TRUE(rerun.ok()) << rerun.status();

  ASSERT_EQ(online->soft_labels.rows(), rerun->soft_labels.rows());
  ASSERT_EQ(online->soft_labels.cols(), rerun->soft_labels.cols());
  for (int64_t i = 0; i < online->soft_labels.rows(); ++i) {
    for (int64_t k = 0; k < online->soft_labels.cols(); ++k) {
      EXPECT_EQ(online->soft_labels(i, k), rerun->soft_labels(i, k))
          << "online/rerun label mismatch at (" << i << ", " << k << ")";
    }
  }
  EXPECT_EQ(online->hard_labels, rerun->hard_labels);
}

TEST_F(ServeSessionTest, LabelOneMatchesLabelBatchRow) {
  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, config_);
  ASSERT_TRUE(session.ok()) << session.status();

  auto batch = session->LabelBatch(held_out_);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t i = 0; i < held_out_.size(); ++i) {
    auto one = session->LabelOne(held_out_[i]);
    ASSERT_TRUE(one.ok()) << one.status();
    EXPECT_EQ(one->hard, batch->hard_labels[i]);
    ASSERT_EQ(one->soft.size(), static_cast<size_t>(batch->soft_labels.cols()));
    for (size_t k = 0; k < one->soft.size(); ++k) {
      EXPECT_EQ(one->soft[k],
                batch->soft_labels(static_cast<int64_t>(i),
                                   static_cast<int64_t>(k)));
    }
  }
}

TEST_F(ServeSessionTest, HeldOutLabelingIsDeterministic) {
  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, config_);
  ASSERT_TRUE(session.ok()) << session.status();
  auto first = session->LabelBatch(held_out_);
  auto second = session->LabelBatch(held_out_);
  ASSERT_TRUE(first.ok() && second.ok());
  for (int64_t i = 0; i < first->soft_labels.rows(); ++i) {
    for (int64_t k = 0; k < first->soft_labels.cols(); ++k) {
      EXPECT_EQ(first->soft_labels(i, k), second->soft_labels(i, k));
    }
  }
}

TEST_F(ServeSessionTest, MaxFunctionsTruncationIsHonoredOnline) {
  GogglesConfig truncated = config_;
  truncated.max_functions = 7;  // prefix spanning all 5 layers
  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, truncated);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->num_functions(), 7);

  auto online = session->LabelBatch(pool_);
  ASSERT_TRUE(online.ok()) << online.status();

  GogglesPipeline pipeline(MakeExtractor(), truncated);
  auto rerun = pipeline.Label(pool_, dev_indices_, dev_labels_, 2);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(online->hard_labels, rerun->hard_labels);
  for (int64_t i = 0; i < online->soft_labels.rows(); ++i) {
    for (int64_t k = 0; k < online->soft_labels.cols(); ++k) {
      EXPECT_EQ(online->soft_labels(i, k), rerun->soft_labels(i, k));
    }
  }
}

/// FNV-1a over `n` raw bytes.
uint64_t HashBytes(const void* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  return h;
}

/// FNV-1a over the raw bits of a matrix's doubles.
uint64_t HashMatrixBits(const Matrix& m) {
  return HashBytes(m.data(), static_cast<size_t>(m.size()) * sizeof(double));
}

// Golden scores: the bits of the pool affinity matrix, of the query rows
// for held-out images, of the pool and held-out posteriors, of the saved
// artifact, and the resulting hard labels, recorded once and hard-coded.
// The other tests only compare one path of this build against another;
// this one catches any drift in the Eq. 2 scorer's, the EM's or the
// artifact writer's bits. The numerical contract (tensor/gemm.h) makes
// the values portable across ISA tiers; the posterior and artifact
// hashes also go through libm's exp/log (ARCHITECTURE invariant 6).
TEST_F(ServeSessionTest, GoldenScoresAndLabels) {
  GogglesPipeline pipeline(MakeExtractor(), config_);
  auto pool_affinity = pipeline.BuildAffinity(pool_);
  ASSERT_TRUE(pool_affinity.ok()) << pool_affinity.status();
  ASSERT_EQ(pool_affinity->cols(), 15 * 14);
  EXPECT_EQ(HashMatrixBits(*pool_affinity), 0x2b2daf55a696a0b7ull);

  const PrototypeAffinitySource& source = *pipeline.library().source;
  auto queries = source.ExtractQueryFeatures(held_out_);
  ASSERT_TRUE(queries.ok()) << queries.status();
  auto query_rows = source.ScoreQueryRowsBatched(*queries, 15);
  ASSERT_TRUE(query_rows.ok()) << query_rows.status();
  EXPECT_EQ(HashMatrixBits(*query_rows), 0x9867bdf6e800afb7ull);

  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, config_);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->pool_result().hard_labels,
            (std::vector<int>{1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1}));
  EXPECT_EQ(HashMatrixBits(session->pool_result().soft_labels),
            0x2333913ae8cee6acull);
  auto held_out = session->InferRows(*query_rows);
  ASSERT_TRUE(held_out.ok()) << held_out.status();
  EXPECT_EQ(held_out->hard_labels, (std::vector<int>{0, 1, 1, 0}));
  EXPECT_EQ(HashMatrixBits(held_out->soft_labels), 0xfee73f6bfa84254bull);

  const std::string path = ::testing::TempDir() + "/golden_session.ggsa";
  ASSERT_TRUE(session->Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(HashBytes(bytes.data(), bytes.size()), 0xa653120bbb6f774eull);
}

TEST_F(ServeSessionTest, InvalidInputsAreRejected) {
  serve::Session unfitted;
  EXPECT_FALSE(unfitted.LabelBatch(held_out_).ok());

  auto session = serve::Session::Fit(extractor_, pool_, dev_indices_,
                                     dev_labels_, 2, config_);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_FALSE(session->LabelBatch({}).ok());

  EXPECT_FALSE(serve::Session::Fit(nullptr, pool_, dev_indices_, dev_labels_,
                                   2, config_)
                   .ok());
  EXPECT_FALSE(
      serve::Session::Fit(extractor_, {}, dev_indices_, dev_labels_, 2,
                          config_)
          .ok());
}

}  // namespace
}  // namespace goggles
