/// \file bench_fig2_affinity_dists.cc
/// \brief Reproduces **Figure 2** of the paper: the distributions of
/// affinity scores for instance pairs of the same class (blue in the paper)
/// vs different classes (yellow), for a highly informative, a weakly
/// informative and an uninformative affinity function.
///
/// Functions are ranked by the AUC of same-class vs different-class scores;
/// the best / median / worst functions play the roles of f1 / f2 / f3.
/// Records auc_<role> and mean_same_<role> / mean_diff_<role> for role =
/// top, median, worst.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "goggles/pipeline.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

struct FunctionStats {
  int index = 0;
  double auc = 0.5;
  std::vector<double> same_scores;
  std::vector<double> diff_scores;
};

void PrintHistogramPair(const FunctionStats& stats, const char* role) {
  constexpr int kBins = 24;
  constexpr double kLo = -1.0, kHi = 1.0;
  std::vector<int> same(kBins, 0), diff(kBins, 0);
  auto binof = [&](double v) {
    int b = static_cast<int>((v - kLo) / (kHi - kLo) * kBins);
    return std::clamp(b, 0, kBins - 1);
  };
  for (double v : stats.same_scores) ++same[static_cast<size_t>(binof(v))];
  for (double v : stats.diff_scores) ++diff[static_cast<size_t>(binof(v))];
  int max_count = 1;
  for (int c : same) max_count = std::max(max_count, c);
  for (int c : diff) max_count = std::max(max_count, c);

  std::printf("\n%s: affinity function #%d (AUC %.3f)\n", role, stats.index,
              stats.auc);
  std::printf("  score      same-class (S)                 diff-class (D)\n");
  for (int b = 0; b < kBins; ++b) {
    const double lo = kLo + (kHi - kLo) * b / kBins;
    const int s_len = 28 * same[static_cast<size_t>(b)] / max_count;
    const int d_len = 28 * diff[static_cast<size_t>(b)] / max_count;
    std::printf("  %+5.2f  |%-28.*s|%-28.*s|\n", lo, s_len,
                "SSSSSSSSSSSSSSSSSSSSSSSSSSSS", d_len,
                "DDDDDDDDDDDDDDDDDDDDDDDDDDDD");
  }
}

void RunExperiment() {
  const BenchScale scale = GetBenchScale();
  Banner("Figure 2 — same-class vs different-class affinity distributions",
         scale);
  eval::RunnerContext ctx = MakeBenchContext();
  eval::LabelingTask task = MakeDatasetTasks("birds", scale, 0)[0];
  std::printf("task: %s (n = %lld)\n", task.task_name.c_str(),
              static_cast<long long>(task.train.size()));

  GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
  Result<Matrix> affinity = pipeline.BuildAffinity(task.train.images);
  affinity.status().Abort("affinity");
  const int n = static_cast<int>(task.train.size());
  const int alpha = static_cast<int>(affinity->cols() / n);

  std::vector<FunctionStats> stats(static_cast<size_t>(alpha));
  for (int f = 0; f < alpha; ++f) {
    FunctionStats& s = stats[static_cast<size_t>(f)];
    s.index = f;
    std::vector<double> scores;
    std::vector<int> is_same;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const double v = (*affinity)(i, static_cast<int64_t>(f) * n + j);
        const bool same = task.train.labels[static_cast<size_t>(i)] ==
                          task.train.labels[static_cast<size_t>(j)];
        scores.push_back(v);
        is_same.push_back(same ? 1 : 0);
        (same ? s.same_scores : s.diff_scores).push_back(v);
      }
    }
    s.auc = eval::AucRoc(scores, is_same);
  }

  std::vector<const FunctionStats*> ranked;
  for (const auto& s : stats) ranked.push_back(&s);
  std::sort(ranked.begin(), ranked.end(),
            [](const FunctionStats* a, const FunctionStats* b) {
              return a->auc > b->auc;
            });

  AsciiTable table("Per-function separation (AUC of same vs diff scores)");
  table.SetHeader({"rank", "function", "AUC", "mean(same)", "mean(diff)"});
  for (size_t r = 0; r < ranked.size(); r += 7) {
    table.AddRow({StrFormat("%zu", r + 1), StrFormat("#%d", ranked[r]->index),
                  FormatDouble(ranked[r]->auc, 3),
                  FormatDouble(eval::Mean(ranked[r]->same_scores), 3),
                  FormatDouble(eval::Mean(ranked[r]->diff_scores), 3)});
  }
  table.Print();

  PrintHistogramPair(*ranked.front(), "f1 (most informative)");
  PrintHistogramPair(*ranked[ranked.size() / 2], "f2 (limited power)");
  PrintHistogramPair(*ranked.back(), "f3 (uninformative)");
  // The three functions the histograms show, as "<stat>_<role>".
  const std::pair<const char*, const FunctionStats*> roles[] = {
      {"top", ranked.front()},
      {"median", ranked[ranked.size() / 2]},
      {"worst", ranked.back()}};
  for (const auto& [role, s] : roles) {
    RecordBenchMetric(StrFormat("auc_%s", role), s->auc);
    RecordBenchMetric(StrFormat("mean_same_%s", role),
                      eval::Mean(s->same_scores));
    RecordBenchMetric(StrFormat("mean_diff_%s", role),
                      eval::Mean(s->diff_scores));
  }
  std::printf(
      "\nShape check (paper Fig. 2): f1 separates same/diff cleanly, f2\n"
      "partially, f3 overlaps almost entirely (AUC near 0.5).\n");
}

void BM_PairwiseAucRanking(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> scores(10000);
  std::vector<int> labels(10000);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(goggles::eval::AucRoc(scores, labels));
  }
}
BENCHMARK(BM_PairwiseAucRanking)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
