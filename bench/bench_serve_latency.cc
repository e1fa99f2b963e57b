/// \file bench_serve_latency.cc
/// \brief Serving-path benchmark: fit a labeling session once, then
/// measure online incremental labeling against the full-refit baseline.
///
/// For several pool sizes N the bench reports
///  - full refit: `GogglesPipeline::Label` over pool + new images from
///    scratch (the batch-only path: O((N+B)^2) affinity scores + EM),
///  - incremental: `serve::Session::LabelBatch` of the B new images
///    against the fitted pool (O(B*N) scores + posterior evaluation),
///  - `LabelOne` latency percentiles (p50/p99) and throughput.
///
/// It also times the gateway's decode of one label request: the median
/// `JsonValue::Parse` of a 3x32x32 label line as the perfbench client
/// writes it (`label_line_parse_us`, and `label_line_parse_mb_s` of line
/// bytes per second).
///
/// Metrics land in BENCH_serve_latency.json via the bench_common.h hook;
/// the headline metric is `poolN_speedup` = full-refit seconds divided by
/// incremental seconds at the largest pool size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "goggles/pipeline.h"
#include "serve/json.h"
#include "serve/session.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

constexpr int kNewImages = 16;   ///< online batch size B per request
constexpr int kLatencyCalls = 24;  ///< LabelOne samples for p50/p99
constexpr int kLabelLineParses = 401;  ///< timed parses for the median

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// A label request shaped like perfbench's: a 3x32x32 image of seeded
/// pixels in [0, 1), each float written as a `%.17g` double (~61 KB).
std::string LabelLine() {
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> pixel(0.0f, 1.0f);
  serve::JsonValue pixels = serve::JsonValue::MakeArray();
  for (int i = 0; i < 3 * 32 * 32; ++i) {
    pixels.Append(serve::JsonValue(static_cast<double>(pixel(rng))));
  }
  serve::JsonValue image = serve::JsonValue::MakeObject();
  image.Set("channels", serve::JsonValue(3));
  image.Set("height", serve::JsonValue(32));
  image.Set("width", serve::JsonValue(32));
  image.Set("pixels", std::move(pixels));
  serve::JsonValue request = serve::JsonValue::MakeObject();
  request.Set("op", serve::JsonValue("label"));
  request.Set("task", serve::JsonValue("task_0"));
  request.Set("image", std::move(image));
  return request.Dump();
}

/// Decode cost of one label request: the median over kLabelLineParses
/// timed parses (the parsed value is destroyed outside the timer).
void MeasureLabelLineParse() {
  const std::string line = LabelLine();
  std::vector<double> micros;
  for (int i = 0; i < kLabelLineParses; ++i) {
    WallTimer timer;
    auto parsed = serve::JsonValue::Parse(line);
    micros.push_back(timer.ElapsedMillis() * 1e3);
    parsed.status().Abort("label line parse");
  }
  const double median_us = Percentile(micros, 0.5);
  const double mb_per_s = static_cast<double>(line.size()) / median_us;
  std::printf("Label line parse (%.1f KB): median %.1f us = %.0f MB/s\n",
              static_cast<double>(line.size()) / 1024.0, median_us,
              mb_per_s);
  RecordBenchMetric("label_line_parse_us", median_us);
  RecordBenchMetric("label_line_parse_mb_s", mb_per_s);
}

void RunExperiment() {
  BenchScale scale = GetBenchScale();
  Banner("Serving — online incremental labeling vs full refit", scale);
  eval::RunnerContext ctx = MakeBenchContext();

  // Pool sizes via the surface corpus' images_per_class knob (train split
  // keeps ~60% of 2*P images).
  const std::vector<int> per_class = scale.name == "paper"
                                         ? std::vector<int>{60, 120, 240}
                                         : std::vector<int>{30, 60, 90};

  AsciiTable table("Serving latency: full refit vs incremental labeling");
  table.SetHeader({"pool N", "refit (s)", StrFormat("batch%d (s)", kNewImages),
                   "speedup", "one p50 (ms)", "one p99 (ms)", "img/s"});

  double largest_speedup = 0.0;
  int largest_pool = 0;
  for (int p : per_class) {
    eval::TaskSuiteConfig task_config;
    task_config.num_pairs = 1;
    task_config.images_per_class = p;
    auto tasks = eval::MakeTasks("surface", task_config);
    tasks.status().Abort("tasks");
    const eval::LabelingTask& task = (*tasks)[0];
    const int pool_size = static_cast<int>(task.train.size());

    // New arrivals: held-out test images the session has never seen.
    std::vector<data::Image> fresh(
        task.test.images.begin(),
        task.test.images.begin() +
            std::min<size_t>(kNewImages, task.test.images.size()));

    // Baseline: the batch-only pipeline must refit on pool + new.
    std::vector<data::Image> pool_plus_new = task.train.images;
    pool_plus_new.insert(pool_plus_new.end(), fresh.begin(), fresh.end());
    GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
    WallTimer timer;
    auto refit = pipeline.Label(pool_plus_new, task.dev_indices,
                                task.dev_labels, task.num_classes);
    refit.status().Abort("full refit");
    const double refit_seconds = timer.ElapsedSeconds();

    // Fit once (outside all timers), then serve.
    auto session =
        serve::Session::Fit(ctx.extractor, task.train.images, task.dev_indices,
                            task.dev_labels, task.num_classes, ctx.goggles);
    session.status().Abort("Session::Fit");

    timer.Restart();
    auto batch = session->LabelBatch(fresh);
    batch.status().Abort("LabelBatch");
    const double batch_seconds = timer.ElapsedSeconds();
    const double speedup = refit_seconds / std::max(batch_seconds, 1e-9);

    std::vector<double> one_millis;
    for (int call = 0; call < kLatencyCalls; ++call) {
      const data::Image& img =
          fresh[static_cast<size_t>(call) % fresh.size()];
      timer.Restart();
      auto one = session->LabelOne(img);
      one.status().Abort("LabelOne");
      one_millis.push_back(timer.ElapsedMillis());
    }
    const double p50 = Percentile(one_millis, 0.50);
    const double p99 = Percentile(one_millis, 0.99);
    const double throughput =
        static_cast<double>(fresh.size()) / std::max(batch_seconds, 1e-9);

    table.AddRow({StrFormat("%d", pool_size), StrFormat("%.3f", refit_seconds),
                  StrFormat("%.3f", batch_seconds),
                  StrFormat("%.1fx", speedup), StrFormat("%.2f", p50),
                  StrFormat("%.2f", p99), StrFormat("%.1f", throughput)});

    const std::string prefix = StrFormat("pool%d_", pool_size);
    RecordBenchMetric(prefix + "full_refit_seconds", refit_seconds);
    RecordBenchMetric(prefix + "label_batch_seconds", batch_seconds);
    RecordBenchMetric(prefix + "speedup", speedup);
    RecordBenchMetric(prefix + "label_one_p50_ms", p50);
    RecordBenchMetric(prefix + "label_one_p99_ms", p99);
    RecordBenchMetric(prefix + "throughput_img_per_s", throughput);
    if (pool_size >= largest_pool) {
      largest_pool = pool_size;
      largest_speedup = speedup;
    }
    std::printf("  [pool %d done]\n", pool_size);
  }
  RecordBenchMetric("largest_pool", largest_pool);
  RecordBenchMetric("largest_pool_speedup", largest_speedup);

  table.Print();
  std::printf(
      "Incremental labeling skips feature re-extraction of the pool and the\n"
      "entire EM refit; the speedup must widen with the pool size (the\n"
      "refit's affinity matrix alone grows as alpha*(N+B)^2).\n");
  MeasureLabelLineParse();
}

void BM_ServeJsonParse(benchmark::State& state) {
  // Front-end overhead: parsing a stats request line.
  const std::string line = "{\"op\":\"stats\"}";
  for (auto _ : state) {
    auto parsed = serve::JsonValue::Parse(line);
    benchmark::DoNotOptimize(parsed.ok());
  }
}
BENCHMARK(BM_ServeJsonParse)->Unit(benchmark::kMicrosecond);

void BM_ServeJsonParseLabelLine(benchmark::State& state) {
  // Decode of a 3x32x32 label request: the gateway's per-image parse.
  const std::string line = LabelLine();
  for (auto _ : state) {
    auto parsed = serve::JsonValue::Parse(line);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_ServeJsonParseLabelLine)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
