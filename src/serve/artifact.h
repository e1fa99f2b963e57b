#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "goggles/affinity.h"
#include "goggles/hierarchical.h"
#include "linalg/matrix.h"
#include "util/status.h"

/// \file artifact.h
/// \brief Persistent labeling artifacts: the versioned binary format that
/// captures one fitted labeling session so it can be served without
/// refitting.
///
/// An artifact bundles (1) the prototype/position caches of the prepared
/// pool (`PrototypeAffinitySource::LayerData`), (2) every fitted base GMM
/// and the Bernoulli ensemble with their development-set cluster-to-class
/// mappings (`FittedHierarchicalModel`), and (3) the pool's probabilistic
/// labels.
///
/// ## On-disk format (version 1)
///
/// ```
/// magic "GGSA" | u32 version | u32 section_count
/// per section: u32 tag | u64 payload_bytes | u32 crc32(payload) | payload
/// ```
///
/// Sections are CRC-32 checked individually, so truncation and corruption
/// are detected before any payload is interpreted; bytes past the last
/// section (an oversized / partially overwritten file) are rejected too.
/// Versioning policy:
/// unknown section tags are skipped on load (forward-compatible additions);
/// a new `version` is only minted when an existing section's payload
/// layout changes (breaking), and loaders reject versions they don't know.

namespace goggles::serve {

/// \brief In-memory form of a persisted labeling session.
struct Artifact {
  /// The on-disk format version this build reads and writes.
  static constexpr uint32_t kFormatVersion = 1;

  /// Prototype library shape: Z prototypes per layer.
  int top_z = 0;
  /// The backbone's pool-layer count the artifact was fitted with.
  int num_layers = 0;
  /// Content fingerprint of the fitted pool (staleness detection).
  uint64_t pool_fingerprint = 0;

  /// Fitted inference stack (includes num_classes / pool_size / flags).
  FittedHierarchicalModel model;

  /// Prepared pool caches of the shared affinity source.
  std::vector<PrototypeAffinitySource::LayerData> source_layers;

  /// The pool's soft labels from the fitting run (serving stats / warm
  /// reads).
  Matrix pool_soft_labels;
  /// The pool's hard labels (argmax rows of pool_soft_labels).
  std::vector<int> pool_hard_labels;

  /// \brief Crash-safe publish: writes to `ArtifactTempPath(path)`,
  /// fsyncs, then renames over `path`. A reader never observes a torn
  /// artifact — it sees the old bytes or the new bytes.
  Status Save(const std::string& path) const;

  /// \brief Loads and validates an artifact. Corrupt input (bad magic,
  /// unsupported version, bad CRC, truncated sections) returns an error
  /// Status — never crashes.
  static Result<Artifact> Load(const std::string& path);
};

/// \brief Serializes a fitted session's state directly from the caller's
/// storage — no copying into an Artifact first (the source caches are
/// the dominant state; Session::Save streams them from its own members).
/// Crash-safe: writes `ArtifactTempPath(path)`, fsyncs the temp file,
/// then renames it over `path` (atomic on POSIX filesystems). A crash
/// before the rename leaves `path` untouched and at most one orphan temp
/// file, which SessionRegistry's recovery sweep reaps (see registry.h).
Status SaveArtifactFile(
    const std::string& path, int top_z, int num_layers,
    uint64_t pool_fingerprint, const FittedHierarchicalModel& model,
    const std::vector<PrototypeAffinitySource::LayerData>& source_layers,
    const Matrix& pool_soft_labels,
    const std::vector<int>& pool_hard_labels);

/// \brief The temp-file path SaveArtifactFile stages into:
/// `<path>.tmp-<pid>` (pid-suffixed so concurrent publishers from
/// different processes never collide).
std::string ArtifactTempPath(const std::string& path);

/// \brief True iff `filename` (no directory) matches the atomic-publish
/// staging pattern `*.tmp-<digits>` — i.e. it is reapable by the
/// registry's orphan sweep once it is old enough.
bool IsArtifactTempFilename(const std::string& filename);

}  // namespace goggles::serve
