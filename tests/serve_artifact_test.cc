#include "serve/artifact.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "nn/vgg.h"
#include "serve/session.h"
#include "util/binary_io.h"

/// Artifact round-trip and corruption handling: save -> load -> label
/// must be bit-identical to the in-memory session; corrupt files must
/// fail with a clean Status (never crash).

namespace goggles {
namespace {

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.1f);
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

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One section of a serialized artifact, located by walking the headers:
/// `header` is the section-header offset, `crc` the offset of the u32
/// CRC field, `payload` the payload start, `end` one past the payload.
struct SectionSpan {
  size_t header = 0;
  size_t crc = 0;
  size_t payload = 0;
  size_t end = 0;
};

/// Walks the GGSA layout (12-byte file header, then per section
/// u32 tag | u64 payload_bytes | u32 crc | payload) and returns every
/// section's span — the corruption matrix derives its cut/flip points
/// from these instead of hard-coding offsets.
std::vector<SectionSpan> ParseSectionSpans(const std::string& bytes) {
  auto read_u32 = [&](size_t off) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  auto read_u64 = [&](size_t off) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  EXPECT_GE(bytes.size(), 12u);
  const uint32_t section_count = read_u32(8);
  std::vector<SectionSpan> spans;
  size_t off = 12;
  for (uint32_t s = 0; s < section_count; ++s) {
    SectionSpan span;
    span.header = off;
    const uint64_t payload_bytes = read_u64(off + 4);
    span.crc = off + 12;
    span.payload = off + 16;
    span.end = span.payload + static_cast<size_t>(payload_bytes);
    EXPECT_LE(span.end, bytes.size());
    spans.push_back(span);
    off = span.end;
  }
  EXPECT_EQ(off, bytes.size()) << "section walk must consume the file";
  return spans;
}

/// A whole .ggsa file from (tag, payload) sections, every CRC valid.
std::string FramedArtifact(
    const std::vector<std::pair<uint32_t, std::string>>& sections) {
  io::BufferWriter w;
  w.Bytes("GGSA", 4);
  w.Pod(serve::Artifact::kFormatVersion);
  w.Pod(static_cast<uint32_t>(sections.size()));
  for (const auto& [tag, payload] : sections) {
    w.Pod(tag);
    w.Pod(static_cast<uint64_t>(payload.size()));
    w.Pod(io::Crc32(payload.data(), payload.size()));
    w.Bytes(payload.data(), payload.size());
  }
  return w.buffer();
}

/// A meta section payload (tag 1) for K = 2, Z = 3 with ensemble.
std::string MetaPayload(int64_t pool_size, int64_t alpha,
                        int32_t num_layers) {
  io::BufferWriter w;
  w.Pod(int32_t{2});   // num_classes
  w.Pod(pool_size);
  w.Pod(alpha);
  w.Pod(int32_t{3});   // top_z
  w.Pod(num_layers);
  w.Pod(uint64_t{0});  // pool fingerprint
  w.Pod(uint8_t{1});   // one_hot_lp
  w.Pod(uint8_t{1});   // use_ensemble
  return w.buffer();
}

class ServeArtifactTest : public ::testing::Test {
 protected:
  // One shared fitted session for the whole suite: fitting is the
  // expensive part and every test only reads from it.
  static void SetUpTestSuite() {
    extractor_ = new std::shared_ptr<features::FeatureExtractor>(
        MakeExtractor());
    auto* pool = new std::vector<data::Image>();
    for (int i = 0; i < 12; ++i) pool->push_back(PatternImage(i));
    pool_ = pool;
    auto* held_out = new std::vector<data::Image>();
    for (int i = 12; i < 16; ++i) held_out->push_back(PatternImage(i));
    held_out_ = held_out;
    GogglesConfig config;
    config.top_z = 3;
    auto session = serve::Session::Fit(*extractor_, *pool_, {0, 1, 2, 3},
                                       {0, 1, 0, 1}, 2, config);
    session.status().Abort("Session::Fit");
    session_ = new serve::Session(std::move(*session));
  }

  static void TearDownTestSuite() {
    delete session_;
    delete held_out_;
    delete pool_;
    delete extractor_;
  }

  static std::shared_ptr<features::FeatureExtractor>* extractor_;
  static std::vector<data::Image>* pool_;
  static std::vector<data::Image>* held_out_;
  static serve::Session* session_;
};

std::shared_ptr<features::FeatureExtractor>* ServeArtifactTest::extractor_ =
    nullptr;
std::vector<data::Image>* ServeArtifactTest::pool_ = nullptr;
std::vector<data::Image>* ServeArtifactTest::held_out_ = nullptr;
serve::Session* ServeArtifactTest::session_ = nullptr;

TEST_F(ServeArtifactTest, RoundTripLabelsAreBitIdentical) {
  const std::string path = TempPath("roundtrip.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());

  auto loaded = serve::Session::Load(path, *extractor_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->pool_size(), session_->pool_size());
  EXPECT_EQ(loaded->num_classes(), session_->num_classes());
  EXPECT_EQ(loaded->num_functions(), session_->num_functions());
  EXPECT_EQ(loaded->pool_fingerprint(), session_->pool_fingerprint());

  // Held-out labeling through the loaded artifact must be bit-identical
  // to the in-memory session.
  auto from_memory = session_->LabelBatch(*held_out_);
  auto from_disk = loaded->LabelBatch(*held_out_);
  ASSERT_TRUE(from_memory.ok()) << from_memory.status();
  ASSERT_TRUE(from_disk.ok()) << from_disk.status();
  ASSERT_EQ(from_memory->soft_labels.rows(), from_disk->soft_labels.rows());
  ASSERT_EQ(from_memory->soft_labels.cols(), from_disk->soft_labels.cols());
  for (int64_t i = 0; i < from_memory->soft_labels.rows(); ++i) {
    for (int64_t k = 0; k < from_memory->soft_labels.cols(); ++k) {
      EXPECT_EQ(from_memory->soft_labels(i, k), from_disk->soft_labels(i, k))
          << "round-trip label mismatch at (" << i << ", " << k << ")";
    }
  }
  EXPECT_EQ(from_memory->hard_labels, from_disk->hard_labels);
  EXPECT_EQ(from_memory->ensemble_log_likelihood,
            from_disk->ensemble_log_likelihood);

  // The persisted pool labels survive too.
  const Matrix& pool_soft = loaded->pool_result().soft_labels;
  ASSERT_EQ(pool_soft.rows(), session_->pool_result().soft_labels.rows());
  for (int64_t i = 0; i < pool_soft.rows(); ++i) {
    for (int64_t k = 0; k < pool_soft.cols(); ++k) {
      EXPECT_EQ(pool_soft(i, k), session_->pool_result().soft_labels(i, k));
    }
  }

  // A fitted and a loaded session hold the same state: the same resident
  // size, and they save the same bytes.
  EXPECT_EQ(loaded->ApproxMemoryBytes(), session_->ApproxMemoryBytes());
  const std::string resaved = TempPath("roundtrip_resaved.ggsa");
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_TRUE(ReadFile(resaved) == ReadFile(path))
      << "a loaded session must save the bytes it was loaded from";
  std::remove(resaved.c_str());
  std::remove(path.c_str());
}

// Eq. 2 reads only the pool's prototypes, so the source section persists
// nothing else: per layer C, area and N, per image P_i and its P_i x C
// prototype floats behind a u64 length prefix.
TEST_F(ServeArtifactTest, SourceSectionHoldsOnlyPrototypes) {
  const std::string path = TempPath("source_only_prototypes.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  auto artifact = serve::Artifact::Load(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  uint64_t expected = 4;  // u32 layer count
  for (const auto& layer : artifact->source_layers) {
    expected += 16;  // i32 channels | i32 area | u64 num_images
    for (int p : layer.num_prototypes) {
      expected += 4 + 8 + 4 * static_cast<uint64_t>(p) *
                              static_cast<uint64_t>(layer.channels);
    }
  }
  bool found = false;
  for (const SectionSpan& span : ParseSectionSpans(bytes)) {
    uint32_t tag = 0;
    std::memcpy(&tag, bytes.data() + span.header, sizeof(tag));
    if (tag != 2) continue;  // the source section
    found = true;
    EXPECT_EQ(span.end - span.payload, expected);
  }
  EXPECT_TRUE(found) << "no source section";
  std::remove(path.c_str());
}

// An averaging session (inference.use_ensemble = false) saves a 4-section
// artifact with no ensemble section; it must load and label held-out
// images exactly as the in-memory session does.
TEST_F(ServeArtifactTest, AveragingSessionRoundTrips) {
  GogglesConfig config;
  config.top_z = 3;
  config.inference.use_ensemble = false;
  auto session = serve::Session::Fit(*extractor_, *pool_, {0, 1, 2, 3},
                                     {0, 1, 0, 1}, 2, config);
  ASSERT_TRUE(session.ok()) << session.status();
  const std::string path = TempPath("averaging.ggsa");
  ASSERT_TRUE(session->Save(path).ok());
  EXPECT_EQ(ParseSectionSpans(ReadFile(path)).size(), 4u);

  auto loaded = serve::Session::Load(path, *extractor_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto from_memory = session->LabelBatch(*held_out_);
  auto from_disk = loaded->LabelBatch(*held_out_);
  ASSERT_TRUE(from_memory.ok()) << from_memory.status();
  ASSERT_TRUE(from_disk.ok()) << from_disk.status();
  ASSERT_EQ(from_memory->soft_labels.rows(), from_disk->soft_labels.rows());
  ASSERT_EQ(from_memory->soft_labels.cols(), from_disk->soft_labels.cols());
  for (int64_t i = 0; i < from_memory->soft_labels.rows(); ++i) {
    for (int64_t k = 0; k < from_memory->soft_labels.cols(); ++k) {
      EXPECT_EQ(from_memory->soft_labels(i, k), from_disk->soft_labels(i, k))
          << "round-trip label mismatch at (" << i << ", " << k << ")";
    }
  }
  EXPECT_EQ(from_memory->hard_labels, from_disk->hard_labels);
  EXPECT_EQ(from_memory->cluster_to_class, from_disk->cluster_to_class);
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, MissingFileIsNotFound) {
  auto loaded = serve::Session::Load(TempPath("does_not_exist.ggsa"),
                                     *extractor_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(ServeArtifactTest, BadMagicIsRejected) {
  const std::string path = TempPath("bad_magic.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 4u);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  auto loaded = serve::Artifact::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, TruncationIsDetectedAtEveryPrefix) {
  const std::string path = TempPath("truncated.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 64u);
  // A spread of truncation points: mid-header, mid-section-header,
  // mid-payload, and one byte short of complete.
  const size_t cuts[] = {0,  2,  4,  7,  11, 12, 20, bytes.size() / 4,
                         bytes.size() / 2, bytes.size() - 1};
  for (size_t cut : cuts) {
    WriteFile(path, bytes.substr(0, cut));
    auto loaded = serve::Artifact::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut << " not detected";
  }
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, BitFlipsFailTheCrc) {
  const std::string path = TempPath("bitflip.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  // Flip one payload byte in several spots past the 12-byte file header;
  // every section is CRC-checked, so each flip must be caught (either as
  // a CRC mismatch or as a now-invalid section header).
  for (size_t pos : {bytes.size() / 5, bytes.size() / 3, bytes.size() / 2,
                     bytes.size() - 9}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
    WriteFile(path, corrupted);
    auto loaded = serve::Artifact::Load(path);
    EXPECT_FALSE(loaded.ok()) << "bit flip at " << pos << " not detected";
  }
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, CorruptedSectionSizeFieldIsRejectedCleanly) {
  const std::string path = TempPath("huge_size.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  std::string bytes = ReadFile(path);
  // First section header starts at offset 12 (magic + version + count):
  // u32 tag, then the u64 payload size at offsets 16..23. Blow it up;
  // the loader must reject it against the file length instead of
  // attempting a ~2^64-byte allocation.
  ASSERT_GT(bytes.size(), 24u);
  for (size_t i = 16; i < 24; ++i) bytes[i] = static_cast<char>(0xFF);
  WriteFile(path, bytes);
  auto loaded = serve::Artifact::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, OutOfRangeMappingsAreRejected) {
  // Craft artifacts whose cluster-to-class mappings are not permutations
  // of [0, K): Load must reject them (ApplyMapping would otherwise index
  // out of bounds). Out-of-range ensemble widths and prototype counts
  // are rejected the same way.
  const std::string good_path = TempPath("good_mapping.ggsa");
  ASSERT_TRUE(session_->Save(good_path).ok());
  auto artifact = serve::Artifact::Load(good_path);
  ASSERT_TRUE(artifact.ok()) << artifact.status();

  const std::string bad_path = TempPath("bad_mapping.ggsa");
  {
    serve::Artifact tampered = *artifact;
    tampered.model.base_mappings[0] = {5, 7};  // out of [0, 2)
    ASSERT_TRUE(tampered.Save(bad_path).ok());
    EXPECT_FALSE(serve::Artifact::Load(bad_path).ok());
  }
  {
    serve::Artifact tampered = *artifact;
    tampered.model.ensemble_mapping = {1, 1};  // duplicate target
    ASSERT_TRUE(tampered.Save(bad_path).ok());
    EXPECT_FALSE(serve::Artifact::Load(bad_path).ok());
  }
  {
    // An ensemble one column wider than alpha * K: without the load-time
    // check it would load, and every label request would then fail as a
    // dimension mismatch blamed on the client.
    serve::Artifact tampered = *artifact;
    BernoulliMixture& ensemble = tampered.model.ensemble;
    const Matrix& params = ensemble.bernoulli_params();
    ASSERT_EQ(params.cols(),
              tampered.model.num_functions() * tampered.model.num_classes);
    Matrix wider(params.rows(), params.cols() + 1, 0.5);
    for (int64_t c = 0; c < params.rows(); ++c) {
      for (int64_t j = 0; j < params.cols(); ++j) wider(c, j) = params(c, j);
    }
    ASSERT_TRUE(ensemble
                    .SetParameters(std::move(wider), ensemble.weights(),
                                   ensemble.final_log_likelihood())
                    .ok());
    ASSERT_TRUE(tampered.Save(bad_path).ok());
    auto loaded = serve::Artifact::Load(bad_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_FALSE(serve::Session::Load(bad_path, *extractor_).ok());
  }
  {
    // Image 0 of layer 0 with Z + 1 prototypes: the format allows
    // 0 <= P_i <= Z, so a larger count is corruption even under a valid
    // CRC.
    serve::Artifact tampered = *artifact;
    PrototypeAffinitySource::LayerData& layer = tampered.source_layers[0];
    layer.num_prototypes[0] = tampered.top_z + 1;
    layer.prototypes[0].resize(static_cast<size_t>(tampered.top_z + 1) *
                                   static_cast<size_t>(layer.channels),
                               0.5f);
    ASSERT_TRUE(tampered.Save(bad_path).ok());
    auto loaded = serve::Artifact::Load(bad_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_FALSE(serve::Session::Load(bad_path, *extractor_).ok());
  }
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// Counts read from a CRC-valid file must be bounded by the bytes left in
// their section before they size a vector: each of these files is under
// 140 bytes but claims billions of elements.
TEST_F(ServeArtifactTest, CountsBeyondThePayloadAreRejected) {
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  auto pod = [](auto... values) {
    io::BufferWriter w;
    (w.Pod(values), ...);
    return w.buffer();
  };
  // A source layer header (channels 1, area 1, `num_images`).
  auto layer = [&](uint64_t num_images) {
    return pod(int32_t{1}, int32_t{1}, num_images);
  };
  const std::string files[] = {
      // 2^31 - 1 source layers.
      FramedArtifact({{1, MetaPayload(1, 1, INT32_MAX)},
                      {2, pod(static_cast<uint32_t>(INT32_MAX))}}),
      // 2^40 pool images in a source layer.
      FramedArtifact({{1, MetaPayload(static_cast<int64_t>(kHuge), 1, 1)},
                      {2, pod(uint32_t{1}) + layer(kHuge)}}),
      // 2^40 base models after a valid one-image source.
      FramedArtifact(
          {{1, MetaPayload(1, static_cast<int64_t>(kHuge), 1)},
           {2, pod(uint32_t{1}) + layer(1) + pod(int32_t{0}, uint64_t{0})},
           {3, pod(kHuge)}}),
  };
  const std::string path = TempPath("huge_count.ggsa");
  for (const std::string& bytes : files) {
    ASSERT_LT(bytes.size(), 140u);
    WriteFile(path, bytes);
    auto loaded = serve::Artifact::Load(path);
    ASSERT_FALSE(loaded.ok()) << bytes.size() << "-byte file loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, UnsupportedVersionIsRejected) {
  const std::string path = TempPath("bad_version.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  std::string bytes = ReadFile(path);
  bytes[4] = 99;  // version field follows the 4-byte magic
  WriteFile(path, bytes);
  auto loaded = serve::Artifact::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, CorruptionMatrixTruncationAtEverySectionBoundary) {
  const std::string path = TempPath("matrix_trunc.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  const std::vector<SectionSpan> spans = ParseSectionSpans(bytes);
  ASSERT_GE(spans.size(), 4u);
  // Every structurally meaningful boundary: each section's header
  // start, its CRC field, its payload start, mid-payload, and one byte
  // short of its end. A cut at any of them must load as a clean error.
  for (size_t s = 0; s < spans.size(); ++s) {
    const SectionSpan& span = spans[s];
    for (size_t cut : {span.header, span.crc, span.payload,
                       span.payload + (span.end - span.payload) / 2,
                       span.end - 1}) {
      WriteFile(path, bytes.substr(0, cut));
      auto loaded = serve::Artifact::Load(path);
      ASSERT_FALSE(loaded.ok())
          << "truncation at byte " << cut << " (section " << s
          << ") not detected";
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
      EXPECT_STREQ(StatusCodeToErrorCode(loaded.status().code()), "io_error");
    }
  }
  // Cutting exactly at a section end leaves a well-formed prefix but a
  // wrong section count — still an error, never a partial artifact.
  for (size_t s = 0; s + 1 < spans.size(); ++s) {
    WriteFile(path, bytes.substr(0, spans[s].end));
    EXPECT_FALSE(serve::Artifact::Load(path).ok())
        << "missing sections after " << s << " not detected";
  }
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, CorruptionMatrixFlippedCrcByte) {
  const std::string path = TempPath("matrix_crc.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  // Flip one byte of every section's stored CRC: the payload is intact,
  // so only the checksum compare can catch it.
  for (size_t s = 0; s < ParseSectionSpans(bytes).size(); ++s) {
    const SectionSpan span = ParseSectionSpans(bytes)[s];
    std::string corrupted = bytes;
    corrupted[span.crc] = static_cast<char>(corrupted[span.crc] ^ 0x01);
    WriteFile(path, corrupted);
    auto loaded = serve::Artifact::Load(path);
    ASSERT_FALSE(loaded.ok()) << "flipped CRC of section " << s;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find("CRC mismatch"),
              std::string::npos)
        << loaded.status();
  }
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, CorruptionMatrixTrailingBytesAreRejected) {
  const std::string path = TempPath("matrix_trailing.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  for (size_t extra : {size_t{1}, size_t{16}, size_t{4096}}) {
    WriteFile(path, bytes + std::string(extra, '\x7f'));
    auto loaded = serve::Artifact::Load(path);
    ASSERT_FALSE(loaded.ok()) << extra << " trailing bytes not detected";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, CorruptionMatrixZeroByteFile) {
  const std::string path = TempPath("matrix_empty.ggsa");
  WriteFile(path, "");
  auto loaded = serve::Artifact::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// Seeded mutation fuzzing of every section's payload. Each mutant is
// re-framed with valid CRCs, so it reaches the section parsers instead of
// stopping at the checksum. Whatever the mutation, Artifact::Load must
// return either an artifact or an error status (never crash, hang or
// over-allocate, which the sanitizer jobs would catch), and an artifact
// that loads must restore through Session::Load or fail cleanly there.
TEST_F(ServeArtifactTest, MutatedSectionsLoadOrFailCleanly) {
  const std::string path = TempPath("fuzz.ggsa");
  ASSERT_TRUE(session_->Save(path).ok());
  const std::string bytes = ReadFile(path);
  std::vector<std::pair<uint32_t, std::string>> sections;
  for (const SectionSpan& span : ParseSectionSpans(bytes)) {
    uint32_t tag = 0;
    std::memcpy(&tag, bytes.data() + span.header, sizeof(tag));
    sections.emplace_back(tag,
                          bytes.substr(span.payload, span.end - span.payload));
  }
  ASSERT_GE(sections.size(), 4u);

  std::mt19937 rng(20261020);
  auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint32_t>(n));
  };
  // Little-endian count values: 4-byte and 8-byte fields alike.
  auto le = [](uint64_t v, size_t width) {
    std::string out(width, '\0');
    std::memcpy(out.data(), &v, width);
    return out;
  };
  const std::vector<std::string> counts = {
      le(0, 4), le(1, 4), le(INT32_MAX, 4), le(0, 8), le(1, 8),
      le(INT32_MAX, 8), le(uint64_t{1} << 40, 8)};

  int mutants = 0, loaded = 0;
  auto check = [&](size_t s, const std::string& payload) {
    std::vector<std::pair<uint32_t, std::string>> framed = sections;
    framed[s].second = payload;
    WriteFile(path, FramedArtifact(framed));
    ++mutants;
    Result<serve::Artifact> artifact = serve::Artifact::Load(path);
    if (!artifact.ok()) {
      EXPECT_FALSE(artifact.status().message().empty());
      return;
    }
    ++loaded;
    Result<serve::Session> session = serve::Session::Load(path, *extractor_);
    if (!session.ok()) {
      EXPECT_FALSE(session.status().message().empty());
    }
  };
  for (size_t s = 0; s < sections.size(); ++s) {
    const std::string& payload = sections[s].second;
    ASSERT_FALSE(payload.empty());
    for (int round = 0; round < 40; ++round) {
      std::string flipped = payload;
      for (int bit = 0, n = 1 + round % 3; bit < n; ++bit) {
        flipped[below(flipped.size())] ^= static_cast<char>(1 << below(8));
      }
      check(s, flipped);
      check(s, payload.substr(0, below(payload.size())));
      std::string inserted = payload;
      std::string extra(1 + below(8), '\0');
      for (char& c : extra) c = static_cast<char>(below(256));
      inserted.insert(below(payload.size() + 1), extra);
      check(s, inserted);
    }
    // Counts sit in each payload's leading fields; overwrite every offset
    // there, then random offsets deeper in.
    for (size_t i = 0; i < 64; ++i) {
      const size_t at = i < 32 ? i : below(payload.size());
      for (const std::string& value : counts) {
        if (at + value.size() > payload.size()) continue;
        std::string overwritten = payload;
        overwritten.replace(at, value.size(), value);
        check(s, overwritten);
      }
    }
  }
  RecordProperty("mutants", mutants);
  RecordProperty("loaded", loaded);
  EXPECT_GT(mutants, 1000);
  std::remove(path.c_str());
}

TEST_F(ServeArtifactTest, SaveRoundTripsAndLeavesNoTemp) {
  const std::string dir = TempPath("atomic_dir");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/atomic.ggsa";
  ASSERT_TRUE(session_->Save(path).ok());

  // No staging temp left behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_FALSE(
        serve::IsArtifactTempFilename(entry.path().filename().string()))
        << "stray temp: " << entry.path();
  }

  auto loaded = serve::Session::Load(path, *extractor_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->pool_fingerprint(), session_->pool_fingerprint());

  // Save over an existing artifact replaces it whole.
  ASSERT_TRUE(session_->Save(path).ok());
  EXPECT_TRUE(serve::Session::Load(path, *extractor_).ok());

  std::filesystem::remove_all(dir);
}

TEST_F(ServeArtifactTest, TempFilenameGrammar) {
  const std::string temp = serve::ArtifactTempPath("/x/task.ggsa");
  EXPECT_TRUE(serve::IsArtifactTempFilename(
      std::filesystem::path(temp).filename().string()));
  EXPECT_TRUE(serve::IsArtifactTempFilename("task.ggsa.tmp-1234"));
  EXPECT_FALSE(serve::IsArtifactTempFilename("task.ggsa"));
  EXPECT_FALSE(serve::IsArtifactTempFilename("task.ggsa.tmp-"));
  EXPECT_FALSE(serve::IsArtifactTempFilename("task.ggsa.tmp-12x4"));
  EXPECT_FALSE(serve::IsArtifactTempFilename("tmp-1234"));
}

TEST_F(ServeArtifactTest, SavingAnUnfittedSessionIsRejected) {
  serve::Session unfitted;
  EXPECT_FALSE(unfitted.Save(TempPath("unfitted.ggsa")).ok());
  serve::Artifact empty;
  EXPECT_FALSE(empty.Save(TempPath("empty.ggsa")).ok());
}

}  // namespace
}  // namespace goggles
