#include "eval/backbone.h"

#include <sys/stat.h>

#include <cstdio>

#include "data/synthnet.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace goggles::eval {
namespace {

/// Deterministic cache key from every field that affects the weights.
std::string CacheFileName(const BackboneOptions& options) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(options.arch.in_channels));
  mix(static_cast<uint64_t>(options.arch.image_size));
  for (int c : options.arch.stage_channels) mix(static_cast<uint64_t>(c));
  mix(static_cast<uint64_t>(options.arch.convs_per_stage));
  mix(static_cast<uint64_t>(options.arch.num_classes));
  mix(options.arch.seed);
  mix(static_cast<uint64_t>(options.pretrain_images_per_class));
  mix(static_cast<uint64_t>(options.epochs));
  mix(static_cast<uint64_t>(options.learning_rate * 1e6f));
  mix(static_cast<uint64_t>(options.batch_size));
  mix(options.data_seed);
  return StrFormat("vggmini_%016llx.bin",
                   static_cast<unsigned long long>(h));
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Result<std::shared_ptr<features::FeatureExtractor>> GetPretrainedExtractor(
    const BackboneOptions& options, double* train_accuracy) {
  GOGGLES_ASSIGN_OR_RETURN(nn::VggMini model, nn::BuildVggMini(options.arch));

  std::string cache_dir = GetEnvOr("GOGGLES_CACHE_DIR", options.cache_dir);
  std::string cache_path;
  if (!cache_dir.empty()) {
    ::mkdir(cache_dir.c_str(), 0755);  // best effort
    cache_path = cache_dir + "/" + CacheFileName(options);
  }

  if (!cache_path.empty() && FileExists(cache_path)) {
    Status st = nn::LoadParameters(&model.net, cache_path);
    if (st.ok()) {
      if (options.verbose) {
        GOGGLES_LOG(INFO) << "loaded cached backbone: " << cache_path;
      }
      if (train_accuracy != nullptr) *train_accuracy = -1.0;  // unknown
      return std::make_shared<features::FeatureExtractor>(std::move(model));
    }
    GOGGLES_LOG(WARNING) << "cache load failed (" << st.ToString()
                         << "); retraining";
  }

  // Pretrain on SynthNet (the ImageNet stand-in).
  data::SynthNetConfig data_config;
  data_config.images_per_class = options.pretrain_images_per_class;
  data_config.image_size = options.arch.image_size;
  data_config.seed = options.data_seed;
  data::LabeledDataset corpus = data::GenerateSynthNet(data_config);

  Tensor x = data::StackImages(corpus.images);
  nn::TrainerConfig tc;
  tc.epochs = options.epochs;
  tc.batch_size = options.batch_size;
  tc.learning_rate = options.learning_rate;
  tc.seed = options.arch.seed + 1;
  tc.verbose = options.verbose;
  nn::Trainer trainer(&model.net, tc);

  WallTimer timer;
  GOGGLES_ASSIGN_OR_RETURN(double final_loss,
                           trainer.Fit(x, corpus.labels, corpus.num_classes));
  GOGGLES_ASSIGN_OR_RETURN(double acc, trainer.Evaluate(x, corpus.labels));
  if (options.verbose) {
    GOGGLES_LOG(INFO) << StrFormat(
        "pretrained backbone in %.1fs (loss=%.3f, synthnet train acc=%.3f)",
        timer.ElapsedSeconds(), final_loss, acc);
  }
  if (train_accuracy != nullptr) *train_accuracy = acc;

  if (!cache_path.empty()) {
    Status st = nn::SaveParameters(&model.net, cache_path);
    if (!st.ok()) {
      GOGGLES_LOG(WARNING) << "backbone cache write failed: " << st.ToString();
    }
  }
  return std::make_shared<features::FeatureExtractor>(std::move(model));
}

}  // namespace goggles::eval
