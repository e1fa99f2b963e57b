/// \file bench_fig9_num_affinities.cc
/// \brief Reproduces **Figure 9** of the paper: GOGGLES labeling accuracy
/// as the number of affinity functions grows from 5 to the full 50.
///
/// The full 50-function affinity matrix is built once per task; prefixes of
/// the (round-robin layer-ordered) function list are evaluated by slicing
/// the corresponding column blocks, so every sweep point sees the same
/// underlying scores.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "goggles/hierarchical.h"
#include "goggles/pipeline.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

const std::vector<int> kFunctionCounts = {5, 10, 20, 30, 40, 50};

Matrix SliceFunctionPrefix(const Matrix& affinity, int n, int num_functions) {
  return affinity.Block(0, 0, affinity.rows(),
                        static_cast<int64_t>(num_functions) * n);
}

void RunExperiment() {
  BenchScale scale = GetBenchScale();
  scale.num_pairs = std::min(scale.num_pairs, 3);
  Banner("Figure 9 — labeling accuracy vs number of affinity functions",
         scale);
  eval::RunnerContext ctx = MakeBenchContext();

  std::map<std::string, std::map<int, std::vector<double>>> curves;
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    for (int rep = 0; rep < EffectiveReps(dataset, scale); ++rep) {
      for (const eval::LabelingTask& task :
           MakeDatasetTasks(dataset, scale, rep)) {
        GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
        Result<Matrix> affinity = pipeline.BuildAffinity(task.train.images);
        affinity.status().Abort("affinity");
        const int n = static_cast<int>(task.train.size());
        HierarchicalLabeler labeler(ctx.goggles.inference);
        for (int count : kFunctionCounts) {
          Matrix sliced = SliceFunctionPrefix(*affinity, n, count);
          Result<LabelingResult> result =
              labeler.Fit(sliced, task.dev_indices, task.dev_labels, 2);
          result.status().Abort("inference");
          curves[dataset][count].push_back(eval::AccuracyExcluding(
              result->hard_labels, task.train.labels, task.dev_indices));
        }
      }
    }
    std::printf("  [%s done]\n", dataset.c_str());
  }

  AsciiTable table(
      "Figure 9 (ours): labeling accuracy (%) vs # affinity functions");
  std::vector<std::string> header = {"Dataset"};
  for (int c : kFunctionCounts) header.push_back(StrFormat("a=%d", c));
  table.SetHeader(header);
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    std::vector<std::string> row = {dataset};
    for (int c : kFunctionCounts) {
      const double mean = eval::Mean(curves[dataset][c]);
      row.push_back(Pct(mean));
      RecordBenchMetric(StrFormat("pct_%s_a%d", dataset.c_str(), c),
                        100.0 * mean);
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "Shape check (paper Fig. 9): accuracy generally increases (or\n"
      "saturates) as more affinity functions provide more weak signals.\n");
}

void BM_InferencePerFunctionCount(benchmark::State& state) {
  const int alpha = static_cast<int>(state.range(0));
  Rng rng(9);
  const int n = 80;
  std::vector<int> truth(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) truth[static_cast<size_t>(i)] = i % 2;
  Matrix a(n, static_cast<int64_t>(alpha) * n);
  for (int f = 0; f < alpha; ++f) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const double base = truth[static_cast<size_t>(i)] ==
                                    truth[static_cast<size_t>(j)]
                                ? 0.8
                                : 0.2;
        // Affinities are floats; Fit refuses an entry that is not one.
        a(i, static_cast<int64_t>(f) * n + j) =
            static_cast<float>(base + rng.Gaussian() * 0.1);
      }
    }
  }
  goggles::HierarchicalLabeler labeler{goggles::HierarchicalConfig{}};
  std::vector<int> dev_idx = {0, 1, 2, 3};
  std::vector<int> dev_lab = {0, 1, 0, 1};
  for (auto _ : state) {
    auto result = labeler.Fit(a, dev_idx, dev_lab, 2);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->hard_labels.data());
  }
}
BENCHMARK(BM_InferencePerFunctionCount)
    ->Arg(5)
    ->Arg(25)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
