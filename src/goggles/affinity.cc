#include "goggles/affinity.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "linalg/kernels.h"
#include "tensor/gemm.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace goggles {
namespace {

/// Position vectors of one filter map, transposed to position-major and
/// L2-normalized.
std::vector<float> NormalizedPositions(const Tensor& fmap, int channels,
                                       int area) {
  std::vector<float> pos(static_cast<size_t>(area) * channels);
  for (int p = 0; p < area; ++p) {
    float* row = pos.data() + static_cast<size_t>(p) * channels;
    for (int ch = 0; ch < channels; ++ch) {
      row[ch] = fmap[static_cast<int64_t>(ch) * area + p];
    }
    NormalizeF(row, channels);
  }
  return pos;
}

/// The one featurization of pool (Prepare) and query
/// (ExtractQueryFeatures) images: normalized position vectors of every
/// image at every layer of the backbone's `maps`.
std::vector<PrototypeAffinitySource::QueryFeatures> Featurize(
    const std::vector<std::vector<Tensor>>& maps) {
  std::vector<PrototypeAffinitySource::QueryFeatures> out(maps[0].size());
  ParallelFor(0, static_cast<int64_t>(out.size()), [&](int64_t i) {
    std::vector<std::vector<float>>& positions =
        out[static_cast<size_t>(i)].positions;
    positions.resize(maps.size());
    for (size_t layer = 0; layer < maps.size(); ++layer) {
      const Tensor& fmap = maps[layer][static_cast<size_t>(i)];
      const int c = static_cast<int>(fmap.dim(0));
      const int area = static_cast<int>(fmap.dim(1) * fmap.dim(2));
      positions[layer] = NormalizedPositions(fmap, c, area);
    }
  });
  return out;
}

/// Eq. 2 core: max cosine between `proto` and each of `area` normalized
/// position rows.
float MaxCosineOverPositions(const std::vector<float>& positions,
                             const float* proto, int channels) {
  const int area = static_cast<int>(positions.size()) /
                   std::max(channels, 1);
  float best = -1.0f;
  for (int p = 0; p < area; ++p) {
    const float dot =
        DotF(positions.data() + static_cast<size_t>(p) * channels, proto,
             channels);
    if (dot > best) best = dot;
  }
  return best;
}

}  // namespace

Status PrototypeAffinitySource::Prepare(const std::vector<data::Image>& images) {
  const int n = static_cast<int>(images.size());
  const uint64_t fingerprint = data::FingerprintImages(images);
  if (n == num_images_ && fingerprint == fingerprint_ &&
      static_cast<int>(pool_features_.size()) == n) {
    return Status::OK();  // already prepared for this exact dataset
  }

  GOGGLES_ASSIGN_OR_RETURN(std::vector<std::vector<Tensor>> maps,
                           extractor_->PoolFeatureMaps(images));
  pool_features_ = Featurize(maps);

  layers_.assign(static_cast<size_t>(num_layers()), LayerData());
  for (int layer = 0; layer < num_layers(); ++layer) {
    LayerData& data = layers_[static_cast<size_t>(layer)];
    const auto& layer_maps = maps[static_cast<size_t>(layer)];
    const Tensor& first = layer_maps[0];
    data.channels = static_cast<int>(first.dim(0));
    data.area = static_cast<int>(first.dim(1) * first.dim(2));
    data.prototypes.resize(static_cast<size_t>(n));
    data.num_prototypes.resize(static_cast<size_t>(n));

    ParallelFor(0, n, [&](int64_t i) {
      const Tensor& fmap = layer_maps[static_cast<size_t>(i)];
      const int c = data.channels;
      // Top-Z prototypes, L2-normalized.
      std::vector<features::Prototype> protos =
          features::ExtractTopZPrototypes(fmap, top_z_);
      auto& pvec = data.prototypes[static_cast<size_t>(i)];
      data.num_prototypes[static_cast<size_t>(i)] =
          static_cast<int>(protos.size());
      pvec.resize(protos.size() * static_cast<size_t>(c));
      for (size_t z = 0; z < protos.size(); ++z) {
        float* row = pvec.data() + z * static_cast<size_t>(c);
        std::copy(protos[z].vector.begin(), protos[z].vector.end(), row);
        NormalizeF(row, c);
      }
    });
  }
  num_images_ = n;
  fingerprint_ = fingerprint;
  BuildPackedPrototypes();
  return Status::OK();
}

Status PrototypeAffinitySource::Restore(std::vector<LayerData> layers,
                                        int num_images, uint64_t fingerprint) {
  if (num_images <= 0) {
    return Status::InvalidArgument(
        "PrototypeAffinitySource::Restore: need a positive pool size");
  }
  if (static_cast<int>(layers.size()) != num_layers()) {
    return Status::InvalidArgument(StrFormat(
        "PrototypeAffinitySource::Restore: %zu layers in artifact vs %d "
        "pool layers in the extractor",
        layers.size(), num_layers()));
  }
  for (const LayerData& data : layers) {
    if (static_cast<int>(data.prototypes.size()) != num_images ||
        static_cast<int>(data.num_prototypes.size()) != num_images) {
      return Status::InvalidArgument(
          "PrototypeAffinitySource::Restore: per-image cache size does not "
          "match the pool size");
    }
    if (data.channels < 1) {
      return Status::InvalidArgument(
          "PrototypeAffinitySource::Restore: need at least one channel");
    }
    for (int j = 0; j < num_images; ++j) {
      const int np = data.num_prototypes[static_cast<size_t>(j)];
      if (np < 0 || data.prototypes[static_cast<size_t>(j)].size() !=
                        static_cast<size_t>(np) *
                            static_cast<size_t>(data.channels)) {
        return Status::InvalidArgument(StrFormat(
            "PrototypeAffinitySource::Restore: image %d has %zu prototype "
            "floats for %d prototypes of %d channels",
            j, data.prototypes[static_cast<size_t>(j)].size(), np,
            data.channels));
      }
    }
  }
  layers_ = std::move(layers);
  num_images_ = num_images;
  fingerprint_ = fingerprint;
  pool_features_.clear();
  BuildPackedPrototypes();
  return Status::OK();
}

uint64_t PrototypeAffinitySource::ApproxMemoryBytes() const {
  uint64_t bytes = sizeof(*this);
  for (const QueryFeatures& features : pool_features_) {
    for (const std::vector<float>& v : features.positions) {
      bytes += v.capacity() * sizeof(float);
    }
  }
  for (const LayerData& layer : layers_) {
    for (const std::vector<float>& v : layer.prototypes) {
      bytes += v.capacity() * sizeof(float);
    }
    bytes += layer.num_prototypes.capacity() * sizeof(int);
  }
  for (const PackedPrototypes& pack : packed_) {
    bytes += pack.data.capacity() * sizeof(float);
    bytes += pack.offsets.capacity() * sizeof(int64_t);
  }
  return bytes;
}

void PrototypeAffinitySource::BuildPackedPrototypes() {
  const int64_t n = num_images_;
  packed_.assign(layers_.size(), PackedPrototypes());
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const LayerData& data = layers_[layer];
    PackedPrototypes& pack = packed_[layer];
    pack.offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (int64_t j = 0; j < n; ++j) {
      pack.offsets[static_cast<size_t>(j) + 1] =
          pack.offsets[static_cast<size_t>(j)] +
          data.num_prototypes[static_cast<size_t>(j)];
    }
    pack.data.assign(static_cast<size_t>(PrototypePanelFloats(
                         pack.offsets.back(), data.channels)),
                     0.0f);
    for (int64_t j = 0; j < n; ++j) {
      // Per-image prototype rows are already L2-normalized and contiguous.
      PackPrototypePanel(data.prototypes[static_cast<size_t>(j)].data(),
                         data.num_prototypes[static_cast<size_t>(j)],
                         data.channels, pack.offsets[static_cast<size_t>(j)],
                         pack.data.data());
    }
  }
}

std::vector<int64_t> PrototypeAffinitySource::LayerFunctions(
    int layer, int num_functions) const {
  std::vector<int64_t> functions;
  for (int f = layer; f < num_functions; f += num_layers()) {
    functions.push_back(f);
  }
  return functions;
}

template <typename T>
Status PrototypeAffinitySource::ScoreLayerRowsInto(
    const std::vector<QueryFeatures>& instances, int layer, int num_functions,
    int64_t first_block, int64_t block_step, int64_t stride, T* out) const {
  const int64_t n = num_images_;
  const int64_t m = static_cast<int64_t>(instances.size());
  const int64_t num_ranks =
      static_cast<int64_t>(LayerFunctions(layer, num_functions).size());
  const LayerData& data = layers_[static_cast<size_t>(layer)];
  const PackedPrototypes& pack = packed_[static_cast<size_t>(layer)];
  const int64_t c = data.channels;
  const int64_t num_protos = pack.offsets.back();

  // The instances of one call share one resolution (extraction stacks
  // them into one batch), but it need not match the pool's: a query
  // image of a different size yields a different filter-map area, and
  // Eq. 2 only maxes over however many positions the instance has.
  const int64_t area =
      static_cast<int64_t>(
          instances[0].positions[static_cast<size_t>(layer)].size()) /
      std::max<int64_t>(c, 1);

  Status status = Status::OK();
  std::mutex status_mutex;
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    std::vector<float> best(static_cast<size_t>(num_protos));
    for (int64_t i = lo; i < hi; ++i) {
      const std::vector<float>& pos =
          instances[static_cast<size_t>(i)].positions[static_cast<size_t>(
              layer)];
      if (static_cast<int64_t>(pos.size()) != area * c) {
        std::lock_guard<std::mutex> guard(status_mutex);
        status = Status::InvalidArgument(StrFormat(
            "ScoreLayerRowsInto: layer %d instance %lld position size %zu != "
            "area*channels %lld — all instances of one call must share "
            "one resolution",
            layer, static_cast<long long>(i), pos.size(),
            static_cast<long long>(area * c)));
        return;
      }
      // Eq. 2 against every pool prototype at once: the kernel folds the
      // max over positions into its register tile, so the positions x
      // prototypes score matrix is never stored. Serial inside — the
      // instance loop is already the parallel axis.
      PrototypeMaxScores(pos.data(), area, c, pack.data.data(), num_protos,
                         best.data());
      // Scatter the function of rank z into its block with the z-wrap
      // for images that have fewer than Z unique prototypes.
      T* row = out + i * stride;
      for (int64_t z = 0; z < num_ranks; ++z) {
        T* dst = row + (first_block + z * block_step) * n;
        for (int64_t j = 0; j < n; ++j) {
          const int np = data.num_prototypes[static_cast<size_t>(j)];
          dst[j] = np == 0 ? T{0}
                           : static_cast<T>(best[static_cast<size_t>(
                                 pack.offsets[static_cast<size_t>(j)] +
                                 z % np)]);
        }
      }
    }
  });
  return status;
}

Status PrototypeAffinitySource::CheckPoolPrepared(const char* who) const {
  if (num_images_ <= 0 ||
      static_cast<int>(pool_features_.size()) != num_images_) {
    return Status::Internal(StrFormat(
        "PrototypeAffinitySource::%s: source not prepared", who));
  }
  return Status::OK();
}

Status PrototypeAffinitySource::ScorePoolLayerInto(int layer,
                                                  int num_functions,
                                                  int64_t stride,
                                                  float* block) const {
  GOGGLES_RETURN_NOT_OK(CheckPoolPrepared("ScorePoolLayerInto"));
  if (layer < 0 || layer >= num_layers()) {
    return Status::InvalidArgument(
        StrFormat("ScorePoolLayerInto: no layer %d", layer));
  }
  if (stride <
      static_cast<int64_t>(LayerFunctions(layer, num_functions).size()) *
          num_images_) {
    return Status::InvalidArgument(
        "ScorePoolLayerInto: output block too small");
  }
  return ScoreLayerRowsInto(pool_features_, layer, num_functions, 0, 1,
                            stride, block);
}

Result<Matrix> PrototypeAffinitySource::ScoreQueryRowsBatched(
    const std::vector<QueryFeatures>& queries, int num_functions) const {
  if (num_images_ <= 0) {
    return Status::Internal(
        "PrototypeAffinitySource::ScoreQueryRowsBatched: source not prepared");
  }
  if (queries.empty() || num_functions <= 0) {
    return Status::InvalidArgument(
        "ScoreQueryRowsBatched: need queries and functions");
  }
  Matrix rows(static_cast<int64_t>(queries.size()),
              static_cast<int64_t>(num_functions) * num_images_);
  const int l = num_layers();
  for (int layer = 0; layer < l && layer < num_functions; ++layer) {
    GOGGLES_RETURN_NOT_OK(ScoreLayerRowsInto(queries, layer, num_functions,
                                             layer, l, rows.cols(),
                                             rows.data()));
  }
  return rows;
}

Result<std::vector<PrototypeAffinitySource::QueryFeatures>>
PrototypeAffinitySource::ExtractQueryFeatures(
    const std::vector<data::Image>& images) const {
  if (num_images_ <= 0) {
    return Status::Internal(
        "PrototypeAffinitySource::ExtractQueryFeatures: source not prepared");
  }
  if (images.empty()) {
    return Status::InvalidArgument(
        "PrototypeAffinitySource::ExtractQueryFeatures: no images");
  }
  GOGGLES_ASSIGN_OR_RETURN(std::vector<std::vector<Tensor>> maps,
                           extractor_->PoolFeatureMaps(images));
  for (int layer = 0; layer < num_layers(); ++layer) {
    const auto& layer_maps = maps[static_cast<size_t>(layer)];
    const int channels = static_cast<int>(layer_maps[0].dim(0));
    if (channels != layers_[static_cast<size_t>(layer)].channels) {
      return Status::InvalidArgument(StrFormat(
          "ExtractQueryFeatures: layer %d channel mismatch (query %d vs "
          "pool %d)",
          layer, channels, layers_[static_cast<size_t>(layer)].channels));
    }
  }
  return Featurize(maps);
}

float PrototypeAffinitySource::ScoreQuery(int layer, int z,
                                          const QueryFeatures& query,
                                          int j) const {
  const LayerData& data = layers_[static_cast<size_t>(layer)];
  const int c = data.channels;
  const int num_protos = data.num_prototypes[static_cast<size_t>(j)];
  if (num_protos == 0) return 0.0f;
  // Wrap when image j has fewer than Z unique prototypes (see header).
  const int zz = z % num_protos;
  const float* proto =
      data.prototypes[static_cast<size_t>(j)].data() +
      static_cast<size_t>(zz) * c;
  return MaxCosineOverPositions(query.positions[static_cast<size_t>(layer)],
                                proto, c);
}

VectorCosineAffinity::VectorCosineAffinity(std::string name, Matrix embeddings)
    : name_(std::move(name)), embeddings_(std::move(embeddings)) {}

Status VectorCosineAffinity::Prepare(const std::vector<data::Image>& images) {
  if (static_cast<int64_t>(images.size()) != embeddings_.rows()) {
    return Status::InvalidArgument(
        "VectorCosineAffinity: embedding rows must match image count");
  }
  return Status::OK();
}

float VectorCosineAffinity::Score(int i, int j) const {
  const int64_t d = embeddings_.cols();
  const double* a = embeddings_.RowPtr(i);
  const double* b = embeddings_.RowPtr(j);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t k = 0; k < d; ++k) {
    dot += a[k] * b[k];
    na += a[k] * a[k];
    nb += b[k] * b[k];
  }
  if (na < 1e-24 || nb < 1e-24) return 0.0f;
  return static_cast<float>(dot / std::sqrt(na * nb));
}

AffinityLibrary BuildPrototypeAffinityLibrary(
    std::shared_ptr<features::FeatureExtractor> extractor, int top_z) {
  return AffinityLibrary{
      std::make_shared<PrototypeAffinitySource>(std::move(extractor), top_z)};
}

void FillAffinityMatrixColumns(
    const std::vector<AffinityFunction*>& functions, int first_block,
    int num_images, int64_t stride, float* a) {
  if (functions.empty()) return;
  const int64_t n = num_images;
  ParallelFor(0, n, [&](int64_t i) {
    float* row = a + i * stride;
    for (size_t k = 0; k < functions.size(); ++k) {
      const AffinityFunction* fn = functions[k];
      float* dst = row + (first_block + static_cast<int64_t>(k)) * n;
      for (int64_t j = 0; j < n; ++j) {
        dst[j] = fn->Score(static_cast<int>(i), static_cast<int>(j));
      }
    }
  });
}

}  // namespace goggles
