#include "serve/artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/binary_io.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace goggles::serve {
namespace {

using io::BufferReader;
using io::BufferWriter;

constexpr char kMagic[4] = {'G', 'G', 'S', 'A'};

/// Section tags. Unknown tags are skipped on load (see artifact.h).
enum SectionTag : uint32_t {
  kMetaSection = 1,
  kSourceSection = 2,
  kBaseModelsSection = 3,
  kEnsembleSection = 4,
  kPoolLabelsSection = 5,
};

void WriteMatrix(BufferWriter* w, const Matrix& m) {
  w->Pod(static_cast<int64_t>(m.rows()));
  w->Pod(static_cast<int64_t>(m.cols()));
  w->Bytes(m.data(), static_cast<size_t>(m.size()) * sizeof(double));
}

bool ReadMatrix(BufferReader* r, Matrix* out) {
  int64_t rows = 0, cols = 0;
  if (!r->Pod(&rows) || !r->Pod(&cols)) return false;
  if (rows < 0 || cols < 0) return false;
  const uint64_t elems = static_cast<uint64_t>(rows) *
                         static_cast<uint64_t>(cols);
  if (rows != 0 && elems / static_cast<uint64_t>(rows) !=
                       static_cast<uint64_t>(cols)) {
    return false;  // rows*cols overflowed (corrupted header)
  }
  if (elems > r->remaining() / sizeof(double)) return false;
  *out = Matrix(rows, cols);
  return r->Bytes(out->data(), static_cast<size_t>(elems) * sizeof(double));
}

void WriteIntVec(BufferWriter* w, const std::vector<int>& v) {
  w->Pod(static_cast<uint64_t>(v.size()));
  w->Bytes(v.data(), v.size() * sizeof(int));
}

bool ReadIntVec(BufferReader* r, std::vector<int>* out) {
  uint64_t n = 0;
  if (!r->Pod(&n)) return false;
  if (n > r->remaining() / sizeof(int)) return false;
  out->resize(static_cast<size_t>(n));
  return r->Bytes(out->data(), static_cast<size_t>(n) * sizeof(int));
}

void WriteDoubleVec(BufferWriter* w, const std::vector<double>& v) {
  w->Pod(static_cast<uint64_t>(v.size()));
  w->Bytes(v.data(), v.size() * sizeof(double));
}

bool ReadDoubleVec(BufferReader* r, std::vector<double>* out) {
  uint64_t n = 0;
  if (!r->Pod(&n)) return false;
  if (n > r->remaining() / sizeof(double)) return false;
  out->resize(static_cast<size_t>(n));
  return r->Bytes(out->data(), static_cast<size_t>(n) * sizeof(double));
}

void WriteFloatVec(BufferWriter* w, const std::vector<float>& v) {
  w->Pod(static_cast<uint64_t>(v.size()));
  w->Bytes(v.data(), v.size() * sizeof(float));
}

bool ReadFloatVec(BufferReader* r, std::vector<float>* out) {
  uint64_t n = 0;
  if (!r->Pod(&n)) return false;
  if (n > r->remaining() / sizeof(float)) return false;
  out->resize(static_cast<size_t>(n));
  return r->Bytes(out->data(), static_cast<size_t>(n) * sizeof(float));
}

/// Counts read from a file size vectors only once `count` elements of at
/// least `min_bytes` each fit in what is left of `r`: a crafted count
/// would otherwise allocate far beyond the file (std::bad_alloc).
bool CountFits(const BufferReader& r, uint64_t count, size_t min_bytes) {
  return count <= r.remaining() / min_bytes;
}

/// A stored cluster->class mapping must be a permutation of [0, K):
/// ApplyMapping indexes columns with its entries, so out-of-range values
/// in a crafted/corrupted artifact would be out-of-bounds writes.
bool IsValidMapping(const std::vector<int>& mapping, int num_classes) {
  if (static_cast<int64_t>(mapping.size()) != num_classes) return false;
  std::vector<bool> seen(static_cast<size_t>(num_classes), false);
  for (int target : mapping) {
    if (target < 0 || target >= num_classes ||
        seen[static_cast<size_t>(target)]) {
      return false;
    }
    seen[static_cast<size_t>(target)] = true;
  }
  return true;
}

// ---- Section payload builders ---------------------------------------------

std::string BuildMetaPayload(int top_z, int num_layers,
                             uint64_t pool_fingerprint,
                             const FittedHierarchicalModel& model) {
  BufferWriter w;
  w.Pod(static_cast<int32_t>(model.num_classes));
  w.Pod(static_cast<int64_t>(model.pool_size));
  w.Pod(static_cast<int64_t>(model.num_functions()));
  w.Pod(static_cast<int32_t>(top_z));
  w.Pod(static_cast<int32_t>(num_layers));
  w.Pod(pool_fingerprint);
  w.Pod(static_cast<uint8_t>(model.one_hot_lp ? 1 : 0));
  w.Pod(static_cast<uint8_t>(model.use_ensemble ? 1 : 0));
  return w.buffer();
}

Status ParseMetaPayload(const std::string& payload, Artifact* a,
                        int64_t* alpha) {
  BufferReader r(payload);
  int32_t num_classes = 0, top_z = 0, num_layers = 0;
  int64_t pool_size = 0;
  uint8_t one_hot = 1, use_ensemble = 1;
  if (!r.Pod(&num_classes) || !r.Pod(&pool_size) || !r.Pod(alpha) ||
      !r.Pod(&top_z) || !r.Pod(&num_layers) || !r.Pod(&a->pool_fingerprint) ||
      !r.Pod(&one_hot) || !r.Pod(&use_ensemble)) {
    return Status::IOError("Artifact: truncated meta section");
  }
  if (num_classes < 1 || pool_size < 1 || *alpha < 1 || top_z < 1 ||
      num_layers < 1) {
    return Status::IOError("Artifact: meta section carries invalid sizes");
  }
  if (!r.AtEnd()) {
    return Status::IOError("Artifact: meta section carries extra bytes");
  }
  a->model.num_classes = num_classes;
  a->model.pool_size = pool_size;
  a->model.one_hot_lp = one_hot != 0;
  a->model.use_ensemble = use_ensemble != 0;
  a->top_z = top_z;
  a->num_layers = num_layers;
  return Status::OK();
}

std::string BuildSourcePayload(
    const std::vector<PrototypeAffinitySource::LayerData>& source_layers) {
  BufferWriter w;
  w.Pod(static_cast<uint32_t>(source_layers.size()));
  for (const auto& layer : source_layers) {
    w.Pod(static_cast<int32_t>(layer.channels));
    w.Pod(static_cast<int32_t>(layer.area));
    w.Pod(static_cast<uint64_t>(layer.prototypes.size()));
    for (size_t i = 0; i < layer.prototypes.size(); ++i) {
      w.Pod(static_cast<int32_t>(layer.num_prototypes[i]));
      WriteFloatVec(&w, layer.prototypes[i]);
    }
  }
  return w.buffer();
}

Status ParseSourcePayload(const std::string& payload, int64_t pool_size,
                          Artifact* a) {
  BufferReader r(payload);
  uint32_t num_layers = 0;
  if (!r.Pod(&num_layers)) {
    return Status::IOError("Artifact: truncated source section");
  }
  if (static_cast<int>(num_layers) != a->num_layers) {
    return Status::IOError("Artifact: source layer count disagrees with meta");
  }
  // Per layer at least i32 channels | i32 area | u64 image count.
  if (!CountFits(r, num_layers, 16)) {
    return Status::IOError("Artifact: source layer count exceeds the section");
  }
  a->source_layers.resize(num_layers);
  for (auto& layer : a->source_layers) {
    int32_t channels = 0, area = 0;
    uint64_t num_images = 0;
    if (!r.Pod(&channels) || !r.Pod(&area) || !r.Pod(&num_images)) {
      return Status::IOError("Artifact: truncated source layer header");
    }
    if (channels < 1 || area < 1 ||
        num_images != static_cast<uint64_t>(pool_size)) {
      return Status::IOError("Artifact: source layer shape is invalid");
    }
    // Per image at least an i32 prototype count and a u64 vector length.
    if (!CountFits(r, num_images, 12)) {
      return Status::IOError(
          "Artifact: source image count exceeds the section");
    }
    layer.channels = channels;
    layer.area = area;
    layer.prototypes.resize(static_cast<size_t>(num_images));
    layer.num_prototypes.resize(static_cast<size_t>(num_images));
    for (size_t i = 0; i < num_images; ++i) {
      int32_t num_protos = 0;
      if (!r.Pod(&num_protos) || !ReadFloatVec(&r, &layer.prototypes[i])) {
        return Status::IOError("Artifact: truncated source image cache");
      }
      if (num_protos < 0 || num_protos > a->top_z ||
          layer.prototypes[i].size() !=
              static_cast<size_t>(num_protos) * static_cast<size_t>(channels)) {
        return Status::IOError("Artifact: source cache sizes are inconsistent");
      }
      layer.num_prototypes[i] = num_protos;
    }
  }
  if (!r.AtEnd()) {
    return Status::IOError("Artifact: source section carries extra bytes");
  }
  return Status::OK();
}

std::string BuildBaseModelsPayload(const FittedHierarchicalModel& model) {
  BufferWriter w;
  w.Pod(static_cast<uint64_t>(model.base_models.size()));
  for (size_t f = 0; f < model.base_models.size(); ++f) {
    const DiagonalGmm& gmm = model.base_models[f];
    WriteMatrix(&w, gmm.means());
    WriteMatrix(&w, gmm.variances());
    WriteDoubleVec(&w, gmm.weights());
    WriteIntVec(&w, model.base_mappings[f]);
  }
  return w.buffer();
}

Status ParseBaseModelsPayload(const std::string& payload, int64_t alpha,
                              Artifact* a) {
  BufferReader r(payload);
  uint64_t count = 0;
  if (!r.Pod(&count) || count != static_cast<uint64_t>(alpha)) {
    return Status::IOError(
        "Artifact: base-model count disagrees with the meta section");
  }
  // Per model at least two 16-byte matrix headers and two u64 lengths.
  if (!CountFits(r, count, 48)) {
    return Status::IOError("Artifact: base-model count exceeds the section");
  }
  a->model.base_models.resize(static_cast<size_t>(count));
  a->model.base_mappings.resize(static_cast<size_t>(count));
  for (size_t f = 0; f < count; ++f) {
    Matrix means, variances;
    std::vector<double> weights;
    std::vector<int> mapping;
    if (!ReadMatrix(&r, &means) || !ReadMatrix(&r, &variances) ||
        !ReadDoubleVec(&r, &weights) || !ReadIntVec(&r, &mapping)) {
      return Status::IOError("Artifact: truncated base-model section");
    }
    if (means.rows() != a->model.num_classes ||
        means.cols() != a->model.pool_size ||
        !IsValidMapping(mapping, a->model.num_classes)) {
      return Status::IOError("Artifact: base-model shapes are inconsistent");
    }
    GOGGLES_RETURN_NOT_OK(a->model.base_models[f].SetParameters(
        std::move(means), std::move(variances), std::move(weights)));
    a->model.base_mappings[f] = std::move(mapping);
  }
  if (!r.AtEnd()) {
    return Status::IOError("Artifact: base-model section carries extra bytes");
  }
  return Status::OK();
}

std::string BuildEnsemblePayload(const FittedHierarchicalModel& model) {
  BufferWriter w;
  WriteMatrix(&w, model.ensemble.bernoulli_params());
  WriteDoubleVec(&w, model.ensemble.weights());
  WriteIntVec(&w, model.ensemble_mapping);
  w.Pod(model.ensemble.final_log_likelihood());
  return w.buffer();
}

Status ParseEnsemblePayload(const std::string& payload, Artifact* a) {
  BufferReader r(payload);
  Matrix params;
  std::vector<double> weights;
  std::vector<int> mapping;
  double final_ll = 0.0;
  if (!ReadMatrix(&r, &params) || !ReadDoubleVec(&r, &weights) ||
      !ReadIntVec(&r, &mapping) || !r.Pod(&final_ll)) {
    return Status::IOError("Artifact: truncated ensemble section");
  }
  if (!r.AtEnd()) {
    return Status::IOError("Artifact: ensemble section carries extra bytes");
  }
  // The ensemble scores the one-hot concatenation of every base LP: one
  // K-wide block per affinity function.
  if (params.rows() != a->model.num_classes ||
      params.cols() != a->model.num_functions() * a->model.num_classes ||
      !IsValidMapping(mapping, a->model.num_classes)) {
    return Status::IOError("Artifact: ensemble shapes are inconsistent");
  }
  GOGGLES_RETURN_NOT_OK(a->model.ensemble.SetParameters(
      std::move(params), std::move(weights), final_ll));
  a->model.ensemble_mapping = std::move(mapping);
  return Status::OK();
}

std::string BuildPoolLabelsPayload(const Matrix& pool_soft_labels,
                                   const std::vector<int>& pool_hard_labels) {
  BufferWriter w;
  WriteMatrix(&w, pool_soft_labels);
  WriteIntVec(&w, pool_hard_labels);
  return w.buffer();
}

Status ParsePoolLabelsPayload(const std::string& payload, Artifact* a) {
  BufferReader r(payload);
  if (!ReadMatrix(&r, &a->pool_soft_labels) ||
      !ReadIntVec(&r, &a->pool_hard_labels)) {
    return Status::IOError("Artifact: truncated pool-labels section");
  }
  if (a->pool_soft_labels.rows() != a->model.pool_size ||
      a->pool_soft_labels.cols() != a->model.num_classes ||
      static_cast<int64_t>(a->pool_hard_labels.size()) !=
          a->model.pool_size) {
    return Status::IOError(
        "Artifact: pool-labels shapes disagree with the meta section");
  }
  for (int label : a->pool_hard_labels) {
    if (label < 0 || label >= a->model.num_classes) {
      return Status::IOError("Artifact: pool hard label out of range");
    }
  }
  if (!r.AtEnd()) {
    return Status::IOError("Artifact: pool-labels section carries extra bytes");
  }
  return Status::OK();
}

void WriteSection(std::ostream& out, uint32_t tag, const std::string& payload) {
  io::WritePod(out, tag);
  io::WritePod(out, static_cast<uint64_t>(payload.size()));
  io::WritePod(out, io::Crc32(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Serializes a full artifact into one byte string (header + sections).
Result<std::string> BuildArtifactBytes(
    int top_z, int num_layers, uint64_t pool_fingerprint,
    const FittedHierarchicalModel& model,
    const std::vector<PrototypeAffinitySource::LayerData>& source_layers,
    const Matrix& pool_soft_labels,
    const std::vector<int>& pool_hard_labels) {
  if (!model.fitted()) {
    return Status::InvalidArgument("Artifact::Save: model is not fitted");
  }
  if (static_cast<int>(source_layers.size()) != num_layers) {
    return Status::InvalidArgument(
        "Artifact::Save: source layer count disagrees with num_layers");
  }
  std::ostringstream out(std::ios::binary);
  out.write(kMagic, sizeof(kMagic));
  io::WritePod(out, Artifact::kFormatVersion);
  const uint32_t section_count = model.use_ensemble ? 5 : 4;
  io::WritePod(out, section_count);
  WriteSection(out, kMetaSection,
               BuildMetaPayload(top_z, num_layers, pool_fingerprint, model));
  WriteSection(out, kSourceSection, BuildSourcePayload(source_layers));
  WriteSection(out, kBaseModelsSection, BuildBaseModelsPayload(model));
  if (model.use_ensemble) {
    WriteSection(out, kEnsembleSection, BuildEnsemblePayload(model));
  }
  WriteSection(out, kPoolLabelsSection,
               BuildPoolLabelsPayload(pool_soft_labels, pool_hard_labels));
  return std::move(out).str();
}

/// Writes `bytes` to `path`. The partial-write failpoint clamps the byte
/// count to simulate a torn write (crash / full disk mid-save).
Status WriteArtifactBytes(const std::string& path, const std::string& bytes) {
  GOGGLES_FAILPOINT_RETURN("artifact.save.open");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("Artifact::Save: cannot open " + path);
  }
  size_t write_bytes = bytes.size();
  GOGGLES_FAILPOINT_CLAMP("artifact.save.partial", write_bytes);
  out.write(bytes.data(), static_cast<std::streamsize>(write_bytes));
  out.flush();
  if (!out.good()) {
    return Status::IOError("Artifact::Save: write failed for " + path);
  }
  return Status::OK();
}

/// fsyncs `path`'s data to stable storage (best effort — not all
/// filesystems support it; errors other than open failures are ignored
/// the way most databases treat directory fsync).
void BestEffortFsync(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

Status SaveArtifactFile(
    const std::string& path, int top_z, int num_layers,
    uint64_t pool_fingerprint, const FittedHierarchicalModel& model,
    const std::vector<PrototypeAffinitySource::LayerData>& source_layers,
    const Matrix& pool_soft_labels,
    const std::vector<int>& pool_hard_labels) {
  GOGGLES_ASSIGN_OR_RETURN(
      std::string bytes,
      BuildArtifactBytes(top_z, num_layers, pool_fingerprint, model,
                         source_layers, pool_soft_labels, pool_hard_labels));
  const std::string tmp = ArtifactTempPath(path);
  Status write_status = WriteArtifactBytes(tmp, bytes);
  if (!write_status.ok()) {
    (void)std::remove(tmp.c_str());
    return write_status;
  }
  // The temp file's bytes must be durable before the rename makes them
  // reachable — otherwise a power loss could publish a name pointing at
  // unwritten data.
  BestEffortFsync(tmp);
  // Crash-safety probe: a crash here (after the temp write, before the
  // rename) must leave `path` untouched and only the temp to reap.
  GOGGLES_FAILPOINT("artifact.publish.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return Status::IOError("Artifact::Save: rename to " + path +
                           " failed");
  }
  // Make the rename itself durable (directory entry update).
  size_t slash = path.find_last_of('/');
  BestEffortFsync(slash == std::string::npos ? "." : path.substr(0, slash));
  return Status::OK();
}

std::string ArtifactTempPath(const std::string& path) {
  return path + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
}

bool IsArtifactTempFilename(const std::string& filename) {
  const std::string infix = ".tmp-";
  size_t pos = filename.rfind(infix);
  if (pos == std::string::npos) return false;
  size_t digits = pos + infix.size();
  if (digits == filename.size()) return false;
  for (size_t i = digits; i < filename.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(filename[i]))) return false;
  }
  return true;
}

Status Artifact::Save(const std::string& path) const {
  return SaveArtifactFile(path, top_z, num_layers, pool_fingerprint, model,
                          source_layers, pool_soft_labels, pool_hard_labels);
}

Result<Artifact> Artifact::Load(const std::string& path) {
  // Chaos sites: slow-disk stall, then transient open/read failure.
  GOGGLES_FAILPOINT("artifact.load.slow");
  GOGGLES_FAILPOINT_RETURN("artifact.load.open");
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("Artifact::Load: cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  in.seekg(0, std::ios::beg);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::string(magic, 4) != std::string(kMagic, 4)) {
    return Status::IOError("Artifact::Load: bad magic (not a GGSA artifact)");
  }
  uint32_t version = 0;
  if (!io::ReadPod(in, &version)) {
    return Status::IOError("Artifact::Load: truncated header");
  }
  if (version != kFormatVersion) {
    return Status::IOError(StrFormat(
        "Artifact::Load: unsupported format version %u (supported: %u)",
        version, kFormatVersion));
  }
  uint32_t section_count = 0;
  if (!io::ReadPod(in, &section_count) || section_count == 0 ||
      section_count > 1024) {
    return Status::IOError("Artifact::Load: invalid section count");
  }

  // Read + CRC-check every section before interpreting any payload.
  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.reserve(section_count);
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0, crc = 0;
    uint64_t size = 0;
    if (!io::ReadPod(in, &tag) || !io::ReadPod(in, &size) ||
        !io::ReadPod(in, &crc)) {
      return Status::IOError("Artifact::Load: truncated section header");
    }
    // Section headers sit outside the CRC-protected payloads: validate
    // the size field against the bytes actually left in the file before
    // allocating (a corrupted size would otherwise throw bad_alloc).
    const std::streamoff pos = in.tellg();
    if (pos < 0 ||
        size > static_cast<uint64_t>(file_size - pos)) {
      return Status::IOError(StrFormat(
          "Artifact::Load: section %u claims %llu bytes but only %lld "
          "remain",
          tag, static_cast<unsigned long long>(size),
          static_cast<long long>(file_size - (pos < 0 ? 0 : pos))));
    }
    std::string payload(static_cast<size_t>(size), '\0');
    in.read(payload.data(), static_cast<std::streamsize>(size));
    if (in.gcount() != static_cast<std::streamsize>(size)) {
      return Status::IOError(
          StrFormat("Artifact::Load: truncated section %u payload", tag));
    }
    // Simulates a checksum failure / bit rot on the read path.
    GOGGLES_FAILPOINT_RETURN("artifact.load.crc");
    const uint32_t actual = io::Crc32(payload.data(), payload.size());
    if (actual != crc) {
      return Status::IOError(StrFormat(
          "Artifact::Load: CRC mismatch in section %u (stored %08x, "
          "computed %08x)",
          tag, crc, actual));
    }
    sections.emplace_back(tag, std::move(payload));
  }
  // Oversized files are corruption too: a well-formed artifact ends at
  // the last section's last payload byte (e.g. a partially overwritten
  // longer artifact would otherwise pass every per-section CRC).
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::IOError(
        "Artifact::Load: trailing bytes after the last section");
  }

  auto find_section = [&sections](uint32_t tag) -> const std::string* {
    for (const auto& [t, payload] : sections) {
      if (t == tag) return &payload;
    }
    return nullptr;
  };

  Artifact artifact;
  int64_t alpha = 0;
  const std::string* meta = find_section(kMetaSection);
  if (meta == nullptr) {
    return Status::IOError("Artifact::Load: missing meta section");
  }
  GOGGLES_RETURN_NOT_OK(ParseMetaPayload(*meta, &artifact, &alpha));

  const std::string* source = find_section(kSourceSection);
  if (source == nullptr) {
    return Status::IOError("Artifact::Load: missing source section");
  }
  GOGGLES_RETURN_NOT_OK(
      ParseSourcePayload(*source, artifact.model.pool_size, &artifact));

  const std::string* base = find_section(kBaseModelsSection);
  if (base == nullptr) {
    return Status::IOError("Artifact::Load: missing base-models section");
  }
  GOGGLES_RETURN_NOT_OK(ParseBaseModelsPayload(*base, alpha, &artifact));

  if (artifact.model.use_ensemble) {
    const std::string* ensemble = find_section(kEnsembleSection);
    if (ensemble == nullptr) {
      return Status::IOError("Artifact::Load: missing ensemble section");
    }
    GOGGLES_RETURN_NOT_OK(ParseEnsemblePayload(*ensemble, &artifact));
  }
  artifact.model.BuildInferencePlan();

  if (const std::string* labels = find_section(kPoolLabelsSection)) {
    GOGGLES_RETURN_NOT_OK(ParsePoolLabelsPayload(*labels, &artifact));
  }
  return artifact;
}

}  // namespace goggles::serve
