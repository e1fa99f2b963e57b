/// \file bench_fig8_devset_size.cc
/// \brief Reproduces **Figure 8** of the paper: GOGGLES labeling accuracy
/// as a function of the development set size (0 to 40 total labels).
///
/// The affinity matrix is built once per task; only the inference +
/// mapping stage is re-run per development-set size, exactly isolating the
/// effect Figure 8 studies. Accuracy is always evaluated on the rows
/// outside the largest (40-label) development pool so every point is
/// measured on the same instances.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "goggles/hierarchical.h"
#include "goggles/mapping.h"
#include "goggles/pipeline.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

constexpr int kMaxDevPerClass = 20;  // pool: 40 total for binary tasks
const std::vector<int> kDevSizes = {0, 2, 4, 8, 12, 20, 30, 40};

void RunExperiment() {
  BenchScale scale = GetBenchScale();
  // Inference is re-run per dev size; keep the task count modest.
  scale.num_pairs = std::min(scale.num_pairs, 3);
  Banner("Figure 8 — labeling accuracy vs development set size", scale);
  eval::RunnerContext ctx = MakeBenchContext();

  std::map<std::string, std::map<int, std::vector<double>>> curves;
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    for (int rep = 0; rep < EffectiveReps(dataset, scale); ++rep) {
      for (const eval::LabelingTask& task :
           MakeDatasetTasks(dataset, scale, rep, kMaxDevPerClass)) {
        GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
        Result<Matrix> affinity = pipeline.BuildAffinity(task.train.images);
        affinity.status().Abort("affinity");
        HierarchicalLabeler labeler(ctx.goggles.inference);

        // Split the dev pool per class so subsets stay balanced.
        std::vector<int> pool_by_class[2];
        for (size_t i = 0; i < task.dev_indices.size(); ++i) {
          pool_by_class[task.dev_labels[i]].push_back(task.dev_indices[i]);
        }
        for (int m : kDevSizes) {
          std::vector<int> dev_idx, dev_lab;
          for (int k = 0; k < 2; ++k) {
            const int take = std::min<int>(
                m / 2, static_cast<int>(pool_by_class[k].size()));
            for (int i = 0; i < take; ++i) {
              dev_idx.push_back(pool_by_class[k][static_cast<size_t>(i)]);
              dev_lab.push_back(k);
            }
          }
          Result<LabelingResult> result =
              labeler.Fit(*affinity, dev_idx, dev_lab, 2);
          result.status().Abort("inference");
          // Evaluate outside the full pool so all m share the same rows.
          curves[dataset][m].push_back(eval::AccuracyExcluding(
              result->hard_labels, task.train.labels, task.dev_indices));
        }
      }
    }
    std::printf("  [%s done]\n", dataset.c_str());
  }

  AsciiTable table("Figure 8 (ours): labeling accuracy (%) vs dev set size");
  std::vector<std::string> header = {"Dataset"};
  for (int m : kDevSizes) header.push_back(StrFormat("m=%d", m));
  table.SetHeader(header);
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    std::vector<std::string> row = {dataset};
    for (int m : kDevSizes) {
      const double mean = eval::Mean(curves[dataset][m]);
      row.push_back(Pct(mean));
      RecordBenchMetric(StrFormat("pct_%s_d%d", dataset.c_str(), m),
                        100.0 * mean);
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "Shape check (paper Fig. 8): accuracy rises with the first few dev\n"
      "labels (m=0 leaves the cluster naming to chance), converges by\n"
      "m ~ 10 (5/class), and easier datasets converge earlier.\n");
}

void BM_MappingStage(benchmark::State& state) {
  // Times just the dev-set mapping given fixed posteriors.
  Rng rng(3);
  const int n = 200;
  Matrix gamma(n, 2);
  for (int i = 0; i < n; ++i) {
    const double p = rng.Uniform();
    gamma(i, 0) = p;
    gamma(i, 1) = 1 - p;
  }
  std::vector<int> dev_idx, dev_lab;
  for (int i = 0; i < 40; ++i) {
    dev_idx.push_back(i);
    dev_lab.push_back(i % 2);
  }
  for (auto _ : state) {
    auto mapping = goggles::ClusterToClassMapping(gamma, dev_idx, dev_lab, 2);
    benchmark::DoNotOptimize(mapping.ok());
  }
}
BENCHMARK(BM_MappingStage)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
