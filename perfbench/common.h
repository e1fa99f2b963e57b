#pragma once

/// \file common.h
/// \brief Shared plumbing of the repository benchmark: options, the
/// result record, seeded task construction from a cached corpus, timing
/// and order statistics.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/image.h"
#include "features/extractor.h"
#include "goggles/affinity.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Benchmark-owned scratch directory (corpus cache).
  std::string work_dir;
  /// Where a serve workload's fitted `.ggsa` tasks and oracle live
  /// (written once by --make-artifacts in a separate process, so fitting
  /// never counts towards the serving process's time or memory).
  std::string artifact_dir;
  /// "full" (the recorded configuration) or "tiny" (the self-test).
  std::string scale = "full";
  /// Self-test hook: flips a byte of the n-th timed response before it
  /// is checked, so the oracle must count it as failed. -1 = off.
  int corrupt_response = -1;

  bool tiny() const { return scale == "tiny"; }
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: correctness counts plus its metrics.
/// `notes` are human-readable lines printed before the JSON record.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Resident memory of the harness's own data, left out of peak_rss_mb.
  double rss_baseline_mb = 0.0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// One binary labeling task: a seeded split of a cached two-class corpus.
struct BenchTask {
  std::string name;  ///< dataset name; also the serving task name
  int num_classes = 2;
  std::vector<goggles::data::Image> pool;  ///< labeling pool (train split)
  std::vector<int> pool_labels;            ///< ground truth, never served
  std::vector<int> dev_indices;            ///< development rows of `pool`
  std::vector<int> dev_labels;
  std::vector<goggles::data::Image> test;  ///< held-out split
  std::vector<int> test_labels;
};

/// The five evaluation datasets, one class pair each.
const std::vector<std::string>& DatasetNames();

/// Writes the two-class corpus of every dataset into the work dir once
/// (generation of the multi-class corpora is large and seed-independent,
/// so it is not repeated per run).
void PrepareCorpora(const std::string& work_dir);

/// Builds one task per dataset with a labeling pool of `pool_size`
/// images: the first pool_size / 1.2 images per class of the cached
/// corpus, split 60/40 and given a 5-per-class dev set from `seed`.
/// With `keep_pool` false only the held-out split is kept.
std::vector<BenchTask> MakeBenchTasks(const std::string& work_dir,
                                      int pool_size, uint64_t seed,
                                      bool keep_pool = true);

/// Loads the pretrained backbone from the weight cache (pretraining it
/// on the first call in a fresh cache). Aborts on failure.
std::shared_ptr<goggles::features::FeatureExtractor> LoadBackbone();

/// Backbone conv work of one forward pass up to the last pool tap, in
/// MFLOP (2 * out area * in channels * out channels * k * k per conv).
double BackboneMflopPerImage(const goggles::features::FeatureExtractor& ex);

/// Prototype-scoring work of one query image against a prepared pool, in
/// MFLOP: 2 * area * channels * (pool prototypes) summed over layers.
double QueryScoringMflop(
    const std::vector<goggles::PrototypeAffinitySource::LayerData>& layers);

/// CPU time (user + system, all threads) this process has used so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Returns free heap pages to the system, resets this process's peak
/// resident set size to its current one (via /proc/self/clear_refs) and
/// returns that size in MB: later PeakRssMb() minus it is what the
/// process added on top.
double ResetPeakRss();

double SecondsSince(Clock::time_point start);
double Median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

[[noreturn]] void Fail(const std::string& message);

Outcome RunFitWorkload(const Options& options);
/// Fits the serve workload's tasks into `options.artifact_dir` and writes
/// the oracle there: each request's response from a serial HandleLine.
void MakeServeArtifacts(const Options& options, bool hot);
Outcome RunServeWorkload(const Options& options, bool hot);

}  // namespace perfbench
