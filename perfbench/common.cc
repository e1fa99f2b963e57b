#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "data/dataset.h"
#include "data/registry.h"
#include "eval/backbone.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using goggles::data::Image;
using goggles::data::LabeledDataset;

namespace {

/// Images per class in the cached corpora: a 480-image pool at the 60/40
/// split. Smaller pools take a per-class prefix.
constexpr int kCorpusPerClass = 400;
constexpr uint32_t kCorpusMagic = 0x50424331;  // "PBC1"

std::string CorpusPath(const std::string& work_dir, const std::string& name) {
  return work_dir + "/corpus/" + name + ".bin";
}

void WriteCorpus(const std::string& path, const LabeledDataset& dataset) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const Image& first = dataset.images.front();
    const uint32_t header[5] = {
        kCorpusMagic, static_cast<uint32_t>(dataset.images.size()),
        static_cast<uint32_t>(first.channels),
        static_cast<uint32_t>(first.height),
        static_cast<uint32_t>(first.width)};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    for (size_t i = 0; i < dataset.images.size(); ++i) {
      const int32_t label = dataset.labels[i];
      out.write(reinterpret_cast<const char*>(&label), sizeof(label));
      const std::vector<float>& px = dataset.images[i].pixels;
      out.write(reinterpret_cast<const char*>(px.data()),
                static_cast<std::streamsize>(px.size() * sizeof(float)));
    }
    if (!out) Fail("cannot write corpus " + tmp);
  }
  fs::rename(tmp, path);
}

LabeledDataset ReadCorpus(const std::string& path, int per_class) {
  std::ifstream in(path, std::ios::binary);
  uint32_t header[5] = {};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in || header[0] != kCorpusMagic) {
    Fail("missing or corrupt corpus " + path + " (run with --prepare)");
  }
  LabeledDataset dataset;
  dataset.num_classes = 2;
  std::vector<int> taken(2, 0);
  for (uint32_t i = 0; i < header[1]; ++i) {
    int32_t label = 0;
    Image img(static_cast<int>(header[2]), static_cast<int>(header[3]),
              static_cast<int>(header[4]));
    in.read(reinterpret_cast<char*>(&label), sizeof(label));
    in.read(reinterpret_cast<char*>(img.pixels.data()),
            static_cast<std::streamsize>(img.pixels.size() * sizeof(float)));
    if (!in || label < 0 || label > 1) Fail("truncated corpus " + path);
    if (taken[static_cast<size_t>(label)]++ >= per_class) continue;
    dataset.images.push_back(std::move(img));
    dataset.labels.push_back(label);
  }
  return dataset;
}

/// A "Vm...:" field of /proc/self/status (reported in kB), in MB.
double StatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  const size_t n = std::strlen(field);
  for (std::string line; std::getline(status, line);) {
    if (line.compare(0, n, field) == 0) {
      return std::atof(line.c_str() + n) / 1024.0;
    }
  }
  Fail(std::string("no ") + field + " in /proc/self/status");
}

}  // namespace

const std::vector<std::string>& DatasetNames() {
  static const std::vector<std::string> names = {"birds", "signs", "surface",
                                                 "tbxray", "pnxray"};
  return names;
}

void PrepareCorpora(const std::string& work_dir) {
  fs::create_directories(work_dir + "/corpus");
  for (const std::string& name : DatasetNames()) {
    const std::string path = CorpusPath(work_dir, name);
    if (fs::exists(path)) continue;
    auto corpus = goggles::data::GenerateDataset(name, kCorpusPerClass);
    corpus.status().Abort("GenerateDataset");
    if (corpus->num_classes == 2) {
      WriteCorpus(path, *corpus);
      continue;
    }
    // The class pair the default task suite samples first.
    goggles::Rng rng(7 ^ 0xC0FFEE);
    const auto pair =
        goggles::data::SampleClassPairs(corpus->num_classes, 1, &rng).front();
    WriteCorpus(path, goggles::data::SelectClasses(*corpus,
                                                   {pair.first, pair.second}));
  }
}

std::vector<BenchTask> MakeBenchTasks(const std::string& work_dir,
                                      int pool_size, uint64_t seed,
                                      bool keep_pool) {
  const int per_class = static_cast<int>(std::lround(pool_size / 1.2));
  if (per_class < 10 || per_class > kCorpusPerClass) {
    Fail("pool size out of range: " + std::to_string(pool_size));
  }
  std::vector<BenchTask> tasks;
  for (size_t d = 0; d < DatasetNames().size(); ++d) {
    const std::string& name = DatasetNames()[d];
    const LabeledDataset corpus =
        ReadCorpus(CorpusPath(work_dir, name), per_class);
    goggles::Rng rng(seed * 0x9E3779B97F4A7C15ULL + d);
    goggles::data::TrainTestSplit split =
        goggles::data::StratifiedSplit(corpus, 0.6, &rng);
    BenchTask task;
    task.name = name;
    task.num_classes = corpus.num_classes;
    task.dev_indices = goggles::data::SampleDevIndices(split.train, 5, &rng);
    for (int idx : task.dev_indices) {
      task.dev_labels.push_back(split.train.labels[static_cast<size_t>(idx)]);
    }
    if (keep_pool) {
      task.pool = std::move(split.train.images);
      task.pool_labels = std::move(split.train.labels);
    }
    task.test = std::move(split.test.images);
    task.test_labels = std::move(split.test.labels);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

std::shared_ptr<goggles::features::FeatureExtractor> LoadBackbone() {
  goggles::eval::BackboneOptions options;
  auto extractor = goggles::eval::GetPretrainedExtractor(options);
  extractor.status().Abort("GetPretrainedExtractor");
  return *extractor;
}

double BackboneMflopPerImage(const goggles::features::FeatureExtractor& ex) {
  const goggles::nn::VggMiniConfig& config = ex.backbone().config;
  double flops = 0.0;
  double side = config.image_size;
  double in = config.in_channels;
  for (int out : config.stage_channels) {
    for (int c = 0; c < config.convs_per_stage; ++c) {
      flops += 2.0 * side * side * in * out * 9.0;
      in = out;
    }
    side /= 2.0;  // 2x2 max-pool after every stage
  }
  return flops / 1e6;
}

double QueryScoringMflop(
    const std::vector<goggles::PrototypeAffinitySource::LayerData>& layers) {
  double flops = 0.0;
  for (const auto& layer : layers) {
    double prototypes = 0.0;
    for (int n : layer.num_prototypes) prototypes += n;
    flops += 2.0 * layer.area * layer.channels * prototypes;
  }
  return flops / 1e6;
}

double ProcessCpuSeconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() { return StatusMb("VmHWM:"); }

double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS
  clear_refs.close();
  if (!clear_refs) Fail("cannot reset the peak RSS");
  return StatusMb("VmRSS:");
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
