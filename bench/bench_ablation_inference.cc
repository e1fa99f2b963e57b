/// \file bench_ablation_inference.cc
/// \brief Ablation of the §4.1 design choices of the hierarchical
/// generative model (DESIGN.md §3, "§4.1 design ablation"):
///   1. full hierarchical model (paper design),
///   2. no one-hot LP (raw posteriors into the Bernoulli ensemble),
///   3. base-LP averaging instead of the learned ensemble,
///   4. naive GMM directly on the full affinity rows (the paper's §4
///      "Limitations of Existing Models" strawman) with dev-set mapping.
/// Records each arm's accuracy per dataset and on average as
/// `<arm>_pct_<dataset>` / `<arm>_pct_average`, with arms `full`,
/// `no_one_hot`, `lp_averaging` and `naive_gmm`. The no-one-hot arm can
/// only differ from the full one where base posteriors are not saturated,
/// so `base_lp_unsaturated_share_<dataset>` records the share of the full
/// arm's base-LP entries strictly inside (1e-9, 1 - 1e-9).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include "bench_common.h"
#include "goggles/base_gmm.h"
#include "goggles/hierarchical.h"
#include "goggles/mapping.h"
#include "goggles/pipeline.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

double NaiveGmmOnAffinity(const Matrix& affinity,
                          const eval::LabelingTask& task) {
  GmmConfig config;
  config.num_components = 2;
  DiagonalGmm gmm(config);
  gmm.Fit(affinity).Abort("naive gmm");
  Result<Matrix> proba = gmm.PredictProba(affinity);
  proba.status().Abort("naive gmm proba");
  Result<std::vector<int>> mapping = ClusterToClassMapping(
      *proba, task.dev_indices, task.dev_labels, 2);
  mapping.status().Abort("mapping");
  Matrix mapped = ApplyMapping(*proba, *mapping);
  std::vector<int> hard;
  for (int64_t i = 0; i < mapped.rows(); ++i) {
    hard.push_back(mapped(i, 1) > mapped(i, 0) ? 1 : 0);
  }
  return eval::AccuracyExcluding(hard, task.train.labels, task.dev_indices);
}

/// Entries of a fit's base LPs: how many, and how many lie strictly
/// inside (1e-9, 1 - 1e-9).
struct LpSaturation {
  int64_t entries = 0;
  int64_t unsaturated = 0;
};

double HierarchicalVariant(const Matrix& affinity,
                           const eval::LabelingTask& task, bool one_hot,
                           bool use_ensemble,
                           LpSaturation* saturation = nullptr) {
  HierarchicalConfig config;
  config.one_hot_lp = one_hot;
  config.use_ensemble = use_ensemble;
  HierarchicalLabeler labeler(config);
  Result<LabelingResult> result =
      labeler.Fit(affinity, task.dev_indices, task.dev_labels, 2);
  result.status().Abort("variant");
  if (saturation != nullptr) {
    for (const Matrix& lp : result->base_label_predictions) {
      for (int64_t i = 0; i < lp.size(); ++i) {
        const double p = lp.data()[i];
        saturation->unsaturated += p > 1e-9 && p < 1.0 - 1e-9 ? 1 : 0;
      }
      saturation->entries += lp.size();
    }
  }
  return eval::AccuracyExcluding(result->hard_labels, task.train.labels,
                                 task.dev_indices);
}

void RunExperiment() {
  BenchScale scale = GetBenchScale();
  scale.num_pairs = std::min(scale.num_pairs, 3);
  Banner("Ablation — class-inference design choices of §4.1", scale);
  eval::RunnerContext ctx = MakeBenchContext();

  const std::vector<std::string> variants = {
      "hierarchical (paper)", "no one-hot LP", "base-LP averaging",
      "naive GMM on A"};
  // Record keys of the arms, parallel to `variants`.
  const std::vector<std::string> arm_keys = {"full", "no_one_hot",
                                             "lp_averaging", "naive_gmm"};
  std::map<std::string, std::map<std::string, std::vector<double>>> rows;
  std::map<std::string, LpSaturation> saturation;

  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    for (int rep = 0; rep < EffectiveReps(dataset, scale); ++rep) {
      for (const eval::LabelingTask& task :
           MakeDatasetTasks(dataset, scale, rep)) {
        GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
        Result<Matrix> affinity = pipeline.BuildAffinity(task.train.images);
        affinity.status().Abort("affinity");
        rows[dataset][variants[0]].push_back(HierarchicalVariant(
            *affinity, task, true, true, &saturation[dataset]));
        rows[dataset][variants[1]].push_back(
            HierarchicalVariant(*affinity, task, false, true));
        rows[dataset][variants[2]].push_back(
            HierarchicalVariant(*affinity, task, true, false));
        rows[dataset][variants[3]].push_back(
            NaiveGmmOnAffinity(*affinity, task));
      }
    }
    const LpSaturation& sat = saturation[dataset];
    const double share = static_cast<double>(sat.unsaturated) /
                         static_cast<double>(std::max<int64_t>(sat.entries, 1));
    RecordBenchMetric("base_lp_unsaturated_share_" + dataset, share);
    std::printf("  [%s done] base-LP entries inside (1e-9, 1 - 1e-9): %.4f\n",
                dataset.c_str(), share);
  }

  AsciiTable table("Inference ablation: labeling accuracy (%)");
  std::vector<std::string> header = {"Dataset"};
  for (const auto& v : variants) header.push_back(v);
  table.SetHeader(header);
  std::map<std::string, std::vector<double>> avgs;
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    std::vector<std::string> row = {dataset};
    for (size_t a = 0; a < variants.size(); ++a) {
      const double mean = eval::Mean(rows[dataset][variants[a]]);
      row.push_back(Pct(mean));
      avgs[variants[a]].push_back(mean);
      RecordBenchMetric(arm_keys[a] + "_pct_" + dataset, 100.0 * mean);
    }
    table.AddRow(row);
  }
  table.AddSeparator();
  std::vector<std::string> avg_row = {"Average"};
  for (size_t a = 0; a < variants.size(); ++a) {
    const double mean = eval::Mean(avgs[variants[a]]);
    avg_row.push_back(Pct(mean));
    RecordBenchMetric(arm_keys[a] + "_pct_average", 100.0 * mean);
  }
  table.AddRow(avg_row);
  table.Print();
  std::printf(
      "Shape check: the full hierarchical design is the best (or tied)\n"
      "variant on average, consistent with the paper's §4.1 arguments for\n"
      "one-hot LP encoding and the learned Bernoulli ensemble.\n");
}

void BM_BaseModelFitPerFunction(benchmark::State& state) {
  Rng rng(15);
  const int n = 100;
  Matrix block(n, n);
  for (int64_t i = 0; i < block.size(); ++i) block.data()[i] = rng.Uniform();
  for (auto _ : state) {
    GmmConfig config;
    config.num_components = 2;
    goggles::DiagonalGmm gmm(config);
    benchmark::DoNotOptimize(gmm.Fit(block).ok());
  }
}
BENCHMARK(BM_BaseModelFitPerFunction)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
