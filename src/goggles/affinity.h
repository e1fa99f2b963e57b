#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "data/image.h"
#include "features/extractor.h"
#include "features/prototypes.h"
#include "linalg/matrix.h"
#include "util/status.h"

/// \file affinity.h
/// \brief Affinity functions and affinity matrix construction (paper §2-3).
///
/// An affinity function maps an instance pair to a similarity score. The
/// GOGGLES library is alpha = 5 layers x Z prototype functions built on the
/// VggMini backbone (Eq. 2: max over spatial positions of cosine similarity
/// to a prototype), all scored by one `PrototypeAffinitySource`. User
/// functions implement `AffinityFunction` and follow the library (see
/// `VectorCosineAffinity` and the `custom_affinity` example).

namespace goggles {

/// \brief Interface every affinity function implements.
class AffinityFunction {
 public:
  virtual ~AffinityFunction() = default;

  /// \brief Human-readable identifier (e.g. "hog").
  virtual std::string name() const = 0;

  /// \brief Caches per-image state for the dataset; called once before any
  /// Score() call. Must be idempotent.
  virtual Status Prepare(const std::vector<data::Image>& images) = 0;

  /// \brief Affinity of the ordered pair (x_i, x_j). Note Eq. 2 is
  /// asymmetric: the prototype comes from x_j, the search is over x_i.
  virtual float Score(int i, int j) const = 0;
};

/// \brief The 5 x Z prototype affinity functions: the top-Z prototypes per
/// pool image per layer (the served state), after Prepare() the pool
/// images' own query-side features, and the one scorer of every function.
class PrototypeAffinitySource {
 public:
  /// \brief Served per-layer state for one prepared pool. Public so the
  /// serving artifact store can persist and restore a fitted session.
  struct LayerData {
    int channels = 0;  ///< filter-map channels C at this layer
    int area = 0;      ///< the pool's filter-map spatial positions H * W
    /// prototypes[i]: (#unique<=Z) x channels row-major, rows L2-normalized.
    std::vector<std::vector<float>> prototypes;
    /// Unique prototype count per image (the z-wrap divisor).
    std::vector<int> num_prototypes;
  };

  /// \brief The side of Eq. 2 that is searched: an image's normalized
  /// position vectors at every layer. Pool and query images are
  /// featurized by the same routine; only the pool's prototypes are
  /// served, because Eq. 2 takes the prototype from the pool image.
  struct QueryFeatures {
    /// positions[layer]: area x channels row-major, rows L2-normalized.
    std::vector<std::vector<float>> positions;
  };

  /// \brief Scores over `extractor`'s pool layers; `top_z` prototypes are
  /// cached per image per layer.
  PrototypeAffinitySource(std::shared_ptr<features::FeatureExtractor> extractor,
                          int top_z)
      : extractor_(std::move(extractor)), top_z_(top_z) {}

  /// \brief Extracts prototypes and query-side features for `images`.
  /// Idempotent per dataset: re-preparing with the same images is a no-op,
  /// keyed on a content fingerprint (not just the image count) so a
  /// different same-sized dataset re-runs extraction instead of reusing
  /// stale caches. A restored source has no pool features, so preparing
  /// it always extracts.
  Status Prepare(const std::vector<data::Image>& images);

  /// \brief Backbone pool-layer count (the library's 5).
  int num_layers() const { return extractor_->num_pool_layers(); }
  /// \brief Prototypes per layer (Z).
  int top_z() const { return top_z_; }
  /// \brief Prepared pool size (-1 until prepared).
  int num_images() const { return num_images_; }

  /// \brief Content fingerprint of the prepared pool (0 until prepared).
  uint64_t fingerprint() const { return fingerprint_; }

  /// \brief The prepared per-layer caches (serving artifact export).
  const std::vector<LayerData>& layers() const { return layers_; }

  /// \brief Approximate resident size of the prepared caches in bytes
  /// (prototypes, the packed prototype panels and, until a Restore, the
  /// pool's features). Feeds the serving registry's LRU memory budget.
  uint64_t ApproxMemoryBytes() const;

  /// \brief Restores a prepared state previously captured via layers(),
  /// bypassing feature extraction (serving artifact import). The layer
  /// count must match the extractor's pool-layer count, and every layer
  /// needs channels >= 1 and, per image, a non-negative prototype count
  /// with exactly that many rows of `channels` floats (InvalidArgument
  /// otherwise). Drops the pool features: a restored source scores
  /// queries only, until Prepare() featurizes the pool again.
  Status Restore(std::vector<LayerData> layers, int num_images,
                 uint64_t fingerprint);

  /// \brief Extracts query-side features for images outside the pool
  /// through the routine Prepare() runs on the pool, so query scores are
  /// bit-identical to pool scores for the same image. Thread-safe: the
  /// backbone forward pass serializes inside FeatureExtractor.
  Result<std::vector<QueryFeatures>> ExtractQueryFeatures(
      const std::vector<data::Image>& images) const;

  /// \brief Eq. 2 for the ordered pair (query, pool image j): the
  /// prototype comes from pool image j, the max runs over the query's
  /// position vectors at `layer`.
  ///
  /// When image j has fewer than Z unique prototypes at this layer, the
  /// prototype index wraps around (documented deviation: the paper drops
  /// duplicates, leaving some functions undefined for that image; wrapping
  /// keeps the affinity matrix rectangular).
  float ScoreQuery(int layer, int z, const QueryFeatures& query, int j) const;

  /// \brief The library functions among the first `num_functions` that
  /// belong to pool layer `layer` under the round-robin ordering
  /// (function f = layer f % L, prototype rank f / L), by rank.
  std::vector<int64_t> LayerFunctions(int layer, int num_functions) const;

  /// \brief Pool-side scoring, one layer at a time: fills the
  /// N x (count * N) float block of the count =
  /// LayerFunctions(layer, num_functions).size() functions of `layer`, in
  /// the layout of A (§2.2) restricted to them: column block z holds the
  /// function of rank z. The layer runs the fused scorer
  /// (PrototypeMaxScores, tensor/gemm.h) once per instance against the
  /// packed prototype panel: the max over positions is folded into the
  /// kernel's register tile, so no positions x prototypes score matrix is
  /// stored — and duplicate prototypes (the z-wrap for images with fewer
  /// than Z unique prototypes) are scored once instead of once per
  /// wrapped z. `block` must hold N rows of `stride` >= count * N floats.
  /// Needs Prepare().
  Status ScorePoolLayerInto(int layer, int num_functions, int64_t stride,
                            float* block) const;

  /// \brief Batched query-side scoring: the M x (num_functions * N) row
  /// block for `queries` in the layout of A (§2.2), function f in column
  /// block f, for the round-robin library ordering. Pool and query rows
  /// run the same fused kernel, whose scores are bit-identical to SGemm
  /// followed by a max over ascending positions. Row i depends only on
  /// query i, and a query identical to a pool image reproduces, widened,
  /// its ScorePoolLayerInto scores bit for bit.
  Result<Matrix> ScoreQueryRowsBatched(
      const std::vector<QueryFeatures>& queries, int num_functions) const;

 private:
  /// Per-layer prototypes of all pool images packed into one panel in the
  /// 16-column k-major layout of PackPrototypePanel (tensor/gemm.h), the
  /// same at every ISA tier. Built in one pass from `layers_` by Prepare()
  /// and Restore(); never persisted.
  struct PackedPrototypes {
    std::vector<float> data;       ///< PrototypePanelFloats(total, channels)
    std::vector<int64_t> offsets;  ///< n+1; image j owns [offsets[j], offsets[j+1])
  };

  void BuildPackedPrototypes();

  /// The one scorer of pool and query rows, one layer at a time: fills
  /// rows [0, instances.size()) of `out` (row stride `stride`) with the
  /// LayerFunctions of `layer`, the one of rank z into the N-column block
  /// first_block + z * block_step. T is float for the pool's layer blocks
  /// and double for served query rows.
  template <typename T>
  Status ScoreLayerRowsInto(const std::vector<QueryFeatures>& instances,
                            int layer, int num_functions, int64_t first_block,
                            int64_t block_step, int64_t stride, T* out) const;

  /// Fails unless Prepare() has featurized the pool (`who` prefixes the
  /// error).
  Status CheckPoolPrepared(const char* who) const;

  std::shared_ptr<features::FeatureExtractor> extractor_;
  int top_z_;
  int num_images_ = -1;
  uint64_t fingerprint_ = 0;
  std::vector<LayerData> layers_;
  std::vector<PackedPrototypes> packed_;
  /// The pool images' own features (fit-time state, never served).
  std::vector<QueryFeatures> pool_features_;
};

/// \brief Affinity = cosine similarity between fixed per-image embedding
/// vectors (used by the HOG and Logits representation ablations, and by
/// user-defined affinity functions over any embedding).
class VectorCosineAffinity : public AffinityFunction {
 public:
  /// \param name       display name
  /// \param embeddings one row per image
  VectorCosineAffinity(std::string name, Matrix embeddings);

  std::string name() const override { return name_; }
  Status Prepare(const std::vector<data::Image>& images) override;
  float Score(int i, int j) const override;

 private:
  std::string name_;
  Matrix embeddings_;
};

/// \brief The GOGGLES affinity function library: the 5 x Z Eq. 2 functions
/// of one `PrototypeAffinitySource`, in its round-robin order (see
/// PrototypeAffinitySource::LayerFunctions). Truncated prefixes —
/// used by the Figure 9 sweep — still span all five scales.
struct AffinityLibrary {
  /// Shared per-pool caches and the scorer of every library function.
  std::shared_ptr<PrototypeAffinitySource> source;

  /// \brief Library size alpha = layers x Z (none for Z <= 0).
  int num_functions() const {
    return source->num_layers() * std::max(source->top_z(), 0);
  }
};

/// \brief Builds the prototype affinity library over `extractor`.
AffinityLibrary BuildPrototypeAffinityLibrary(
    std::shared_ptr<features::FeatureExtractor> extractor, int top_z = 10);

/// \brief Fills column blocks [first_block, first_block + functions.size())
/// of the num_images rows of the float block `a` (row stride `stride`)
/// via the generic pairwise Score() interface, in the layout of A (§2.2):
/// A[i, f*N + j] = f(x_i, x_j), function k owning block first_block + k.
/// The one implementation of that layout for functions without a batched
/// scorer; GogglesPipeline streams the user functions' block through it.
/// All functions must already be Prepare()d for `num_images` images.
void FillAffinityMatrixColumns(
    const std::vector<AffinityFunction*>& functions, int first_block,
    int num_images, int64_t stride, float* a);

}  // namespace goggles
