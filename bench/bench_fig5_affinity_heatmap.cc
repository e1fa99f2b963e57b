/// \file bench_fig5_affinity_heatmap.cc
/// \brief Reproduces **Figure 5** of the paper: the affinity matrix
/// visualized as a heatmap with rows/columns sorted by class. Informative
/// functions show a block structure (bright same-class blocks), noisy ones
/// do not. Rendered as ASCII intensity ramps plus block statistics,
/// recorded as mean_same_<role>, mean_diff_<role> and contrast_<role> for
/// role = top, median, worst (by contrast).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "goggles/pipeline.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

/// Prints one function's N x N block as a downsampled ASCII heatmap with
/// instances sorted by class.
void PrintHeatmap(const Matrix& affinity, int f, int n,
                  const std::vector<int>& order, const char* title) {
  constexpr const char* kRamp = " .:-=+*#%@";
  constexpr int kCells = 30;
  std::printf("\n%s\n", title);
  double lo = 1e30, hi = -1e30;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const double v = affinity(order[static_cast<size_t>(i)],
                                static_cast<int64_t>(f) * n +
                                    order[static_cast<size_t>(j)]);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const double span = hi > lo ? hi - lo : 1.0;
  const int cells = std::min(kCells, n);
  for (int cy = 0; cy < cells; ++cy) {
    std::printf("  ");
    for (int cx = 0; cx < cells; ++cx) {
      // Average the affinity over the cell.
      double acc = 0.0;
      int count = 0;
      for (int i = cy * n / cells; i < (cy + 1) * n / cells; ++i) {
        for (int j = cx * n / cells; j < (cx + 1) * n / cells; ++j) {
          acc += affinity(order[static_cast<size_t>(i)],
                          static_cast<int64_t>(f) * n +
                              order[static_cast<size_t>(j)]);
          ++count;
        }
      }
      const double v = count > 0 ? acc / count : lo;
      const int level = std::clamp(
          static_cast<int>((v - lo) / span * 9.999), 0, 9);
      std::printf("%c%c", kRamp[level], kRamp[level]);
    }
    std::printf("\n");
  }
}

void RunExperiment() {
  const BenchScale scale = GetBenchScale();
  Banner("Figure 5 — affinity matrix heatmap (rows/cols sorted by class)",
         scale);
  eval::RunnerContext ctx = MakeBenchContext();
  eval::LabelingTask task = MakeDatasetTasks("birds", scale, 0)[0];
  GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
  Result<Matrix> affinity = pipeline.BuildAffinity(task.train.images);
  affinity.status().Abort("affinity");
  const int n = static_cast<int>(task.train.size());
  const int alpha = static_cast<int>(affinity->cols() / n);

  // Sort instances by class (paper: "rows and columns are sorted by class
  // for visual intuition").
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&task](int a, int b) {
    return task.train.labels[static_cast<size_t>(a)] <
           task.train.labels[static_cast<size_t>(b)];
  });

  // Rank functions by block contrast = mean(same) - mean(diff).
  struct Contrast {
    int f;
    double same_mean, diff_mean;
  };
  std::vector<Contrast> contrasts;
  for (int f = 0; f < alpha; ++f) {
    double same = 0.0, diff = 0.0;
    int same_n = 0, diff_n = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const double v = (*affinity)(i, static_cast<int64_t>(f) * n + j);
        if (task.train.labels[static_cast<size_t>(i)] ==
            task.train.labels[static_cast<size_t>(j)]) {
          same += v;
          ++same_n;
        } else {
          diff += v;
          ++diff_n;
        }
      }
    }
    contrasts.push_back({f, same / same_n, diff / diff_n});
  }
  std::sort(contrasts.begin(), contrasts.end(),
            [](const Contrast& a, const Contrast& b) {
              return (a.same_mean - a.diff_mean) > (b.same_mean - b.diff_mean);
            });

  AsciiTable table("Block statistics per affinity function (top/median/worst)");
  table.SetHeader({"function", "mean same-class", "mean diff-class",
                   "contrast"});
  const std::pair<const char*, Contrast> roles[] = {
      {"top", contrasts.front()},
      {"median", contrasts[contrasts.size() / 2]},
      {"worst", contrasts.back()}};
  for (const auto& [role, c] : roles) {
    table.AddRow({StrFormat("#%d", c.f), FormatDouble(c.same_mean, 3),
                  FormatDouble(c.diff_mean, 3),
                  FormatDouble(c.same_mean - c.diff_mean, 3)});
    RecordBenchMetric(StrFormat("mean_same_%s", role), c.same_mean);
    RecordBenchMetric(StrFormat("mean_diff_%s", role), c.diff_mean);
    RecordBenchMetric(StrFormat("contrast_%s", role),
                      c.same_mean - c.diff_mean);
  }
  table.Print();

  PrintHeatmap(*affinity, contrasts.front().f, n, order,
               "Informative function: visible 2x2 class-block structure");
  PrintHeatmap(*affinity, contrasts[contrasts.size() / 2].f, n, order,
               "Intermediate function");
  PrintHeatmap(*affinity, contrasts.back().f, n, order,
               "Uninformative function: no block structure");
  std::printf(
      "\nShape check (paper Fig. 5): informative functions show bright\n"
      "diagonal class blocks; uninformative ones are uniform.\n");
}

void BM_BlockContrastScan(benchmark::State& state) {
  Rng rng(7);
  const int n = 128;
  Matrix a(n, n);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform();
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 2;
  for (auto _ : state) {
    double same = 0.0, diff = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        (labels[static_cast<size_t>(i)] == labels[static_cast<size_t>(j)]
             ? same
             : diff) += a(i, j);
      }
    }
    benchmark::DoNotOptimize(same - diff);
  }
}
BENCHMARK(BM_BlockContrastScan)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
