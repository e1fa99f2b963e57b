/// \file fit_workload.cc
/// \brief The `fit` workload: batch labeling of one task per evaluation
/// dataset through `serve::Session::Fit`, serially, at the stated pool
/// size (480) and at the pool size of the `serve_hot` tasks (108).

#include <cstdio>
#include <cstring>

#include "common.h"
#include "eval/metrics.h"
#include "goggles/pipeline.h"
#include "serve/session.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using goggles::serve::Session;

/// True iff two labeling results carry the same hard labels and
/// bit-identical soft labels.
bool SameLabels(const goggles::LabelingResult& a,
                const goggles::LabelingResult& b) {
  return a.hard_labels == b.hard_labels &&
         a.soft_labels.rows() == b.soft_labels.rows() &&
         a.soft_labels.cols() == b.soft_labels.cols() &&
         std::memcmp(a.soft_labels.data(), b.soft_labels.data(),
                     sizeof(double) * static_cast<size_t>(
                                          a.soft_labels.rows() *
                                          a.soft_labels.cols())) == 0;
}

/// One task's fit timed call by call, in `Session::Fit` order.
struct FitTrace {
  double session_fit_s = 0.0;  ///< the untraced Session::Fit
  double prepare_s = 0.0;      ///< PrototypeAffinitySource::Prepare
  double pool_score_s = 0.0;   ///< GogglesPipeline::BuildAffinity
  double pool_gflop = 0.0;     ///< pool-side scoring work
  double fit_s = 0.0;          ///< HierarchicalLabeler::Fit
  double traced_s = 0.0;       ///< wall time of the traced calls
  bool labels_match = false;   ///< traced labels == Session::Fit labels
};

/// Re-runs the fit of `task` through the public calls Session::Fit makes
/// and checks its labels against `fitted` (fitted in `session_fit_s`).
FitTrace TraceFit(
    const std::shared_ptr<goggles::features::FeatureExtractor>& extractor,
    const BenchTask& task, const Session& fitted, double session_fit_s) {
  FitTrace trace;
  trace.session_fit_s = session_fit_s;
  const auto start = Clock::now();
  goggles::GogglesPipeline pipeline(extractor);
  goggles::PrototypeAffinitySource& source = *pipeline.library().source;

  auto t = Clock::now();
  source.Prepare(task.pool).Abort("Prepare");
  trace.prepare_s = SecondsSince(t);

  t = Clock::now();
  auto affinity = pipeline.BuildAffinity(task.pool);
  affinity.status().Abort("BuildAffinity");
  trace.pool_score_s = SecondsSince(t);

  t = Clock::now();
  goggles::HierarchicalLabeler labeler(pipeline.config().inference);
  auto labels = labeler.Fit(*affinity, task.dev_indices, task.dev_labels,
                            task.num_classes);
  labels.status().Abort("HierarchicalLabeler::Fit");
  trace.fit_s = SecondsSince(t);
  trace.traced_s = SecondsSince(start);

  // Pool-side scoring scores every pool image as a query.
  trace.pool_gflop = QueryScoringMflop(source.layers()) *
                     static_cast<double>(task.pool.size()) / 1e3;
  trace.labels_match = SameLabels(*labels, fitted.pool_result());
  return trace;
}

/// Per-task means of the fit-layer metrics.
void AddFitLayerMetrics(const std::vector<FitTrace>& traces, Outcome* out) {
  double prepare = 0, score = 0, gflop = 0, fit = 0, untraced = 0, over = 0;
  for (const FitTrace& t : traces) {
    prepare += t.prepare_s;
    score += t.pool_score_s;
    gflop += t.pool_gflop;
    fit += t.fit_s;
    untraced += t.session_fit_s - (t.prepare_s + t.pool_score_s + t.fit_s);
    over += t.traced_s - t.session_fit_s;
  }
  const double n = static_cast<double>(traces.size());
  out->Add("features.prepare_s", prepare / n, "s");
  out->Add("affinity.pool_score_s", score / n, "s");
  out->Add("affinity.pool_gflop", gflop / n, "GFLOP");
  out->Add("hierarchical.fit_s", fit / n, "s");
  out->Add("fit.untraced_s", untraced / n, "s");
  out->Add("trace.overhead_ms", over / n * 1e3, "ms");
}

struct Fitted {
  Session session;
  double seconds = 0.0;      ///< wall time
  double cpu_seconds = 0.0;  ///< process CPU time, all threads
};

Fitted FitTask(
    const std::shared_ptr<goggles::features::FeatureExtractor>& extractor,
    const BenchTask& task) {
  const auto start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  auto session = Session::Fit(extractor, task.pool, task.dev_indices,
                              task.dev_labels, task.num_classes);
  const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
  const double seconds = SecondsSince(start);
  session.status().Abort("Session::Fit");
  return {std::move(*session), seconds, cpu_seconds};
}

double PoolAccuracy(const BenchTask& task, const Session& session) {
  return goggles::eval::AccuracyExcluding(session.pool_result().hard_labels,
                                          task.pool_labels, task.dev_indices);
}

/// label_accuracy is the mean over this many seeded splits per dataset
/// (rounds 0 and 2, 3, ...), which run whatever the time budget, so the
/// figure depends on the seed alone and not on how fast the rounds ran.
constexpr int kAccuracySplits = 4;

bool AccuracyRound(int round) {
  return round == 0 || (round >= 2 && round <= kAccuracySplits);
}

}  // namespace

Outcome RunFitWorkload(const Options& options) {
  const int large_pool = options.tiny() ? 60 : 480;
  const int small_pool = options.tiny() ? 24 : 108;
  Outcome out;
  LoadBackbone();  // pretrains into an empty weight cache, untimed

  // Set-up: backbone load from the warm cache plus task generation,
  // five times; the median is reported.
  std::shared_ptr<goggles::features::FeatureExtractor> extractor;
  std::vector<BenchTask> large, small;
  std::vector<double> setup;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    extractor = LoadBackbone();
    large = MakeBenchTasks(options.work_dir, large_pool, options.seed);
    small = MakeBenchTasks(options.work_dir, small_pool, options.seed);
    setup.push_back(SecondsSince(start));
  }

  if (options.trace) {
    std::vector<FitTrace> traces;
    const auto start = Clock::now();
    double round_s = 0.0;
    do {
      const auto round_start = Clock::now();
      for (const BenchTask& task : large) {
        Fitted fitted = FitTask(extractor, task);
        traces.push_back(
            TraceFit(extractor, task, fitted.session, fitted.seconds));
        ++out.attempted;
        if (!traces.back().labels_match) ++out.failed;
      }
      round_s = SecondsSince(round_start);
    } while (SecondsSince(start) + round_s < options.seconds);
    AddFitLayerMetrics(traces, &out);
    out.Add("features.mflop_per_img", BackboneMflopPerImage(*extractor),
            "MFLOP");
    return out;
  }

  // Serial fits, round after round: the accuracy rounds always, then
  // more while the next round still fits in the time budget.
  // Round 1 refits round 0's tasks (every label must come out the same);
  // later rounds draw fresh splits from the seed.
  std::vector<goggles::LabelingResult> reference;
  std::vector<double> small_p50, large_p50, small_cpu_ms, large_cpu_ms;
  std::vector<std::vector<double>> accuracy(large.size());
  double large_seconds = 0.0;
  int64_t large_images = 0;
  const auto start = Clock::now();
  double round_s = 0.0;
  for (int round = 0; round <= kAccuracySplits ||
                      SecondsSince(start) + round_s < options.seconds;
       ++round) {
    const auto round_start = Clock::now();
    if (round >= 2) {
      const uint64_t split_seed = options.seed * 1000003 + round;
      large = MakeBenchTasks(options.work_dir, large_pool, split_seed);
      small = MakeBenchTasks(options.work_dir, small_pool, split_seed);
    }
    std::vector<double> small_ms, large_ms;
    double small_cpu = 0.0, large_cpu = 0.0;
    int64_t small_images = 0, round_large_images = 0;
    for (size_t t = 0; t < large.size(); ++t) {
      const Fitted s = FitTask(extractor, small[t]);
      const Fitted l = FitTask(extractor, large[t]);
      small_ms.push_back(s.seconds * 1e3);
      large_ms.push_back(l.seconds * 1e3);
      large_seconds += l.seconds;
      large_images += static_cast<int64_t>(large[t].pool.size());
      small_cpu += s.cpu_seconds;
      large_cpu += l.cpu_seconds;
      small_images += static_cast<int64_t>(small[t].pool.size());
      round_large_images += static_cast<int64_t>(large[t].pool.size());
      out.attempted += 2;
      if (round == 1) {
        out.failed += !SameLabels(s.session.pool_result(), reference[2 * t]);
        out.failed +=
            !SameLabels(l.session.pool_result(), reference[2 * t + 1]);
        continue;
      }
      if (AccuracyRound(round)) {
        accuracy[t].push_back(PoolAccuracy(large[t], l.session));
      }
      if (round == 0) {
        reference.push_back(s.session.pool_result());
        reference.push_back(l.session.pool_result());
        out.Note(goggles::StrFormat(
            "accuracy %-8s pool %d: %.4f (first split)", large[t].name.c_str(),
            small_pool, PoolAccuracy(small[t], s.session)));
      }
    }
    small_p50.push_back(Median(small_ms));
    large_p50.push_back(Median(large_ms));
    small_cpu_ms.push_back(small_cpu * 1e3 / small_images);
    large_cpu_ms.push_back(large_cpu * 1e3 / round_large_images);
    round_s = SecondsSince(round_start);
  }
  double mean_accuracy = 0.0;
  for (size_t t = 0; t < large.size(); ++t) {
    double task_accuracy = 0.0;
    for (double a : accuracy[t]) task_accuracy += a / accuracy[t].size();
    mean_accuracy += task_accuracy / static_cast<double>(large.size());
    out.Note(goggles::StrFormat(
        "accuracy %-8s pool %d: %.4f (mean of %d splits)",
        large[t].name.c_str(), large_pool, task_accuracy, kAccuracySplits));
  }
  const double fit_img_per_s = large_images / large_seconds;

  out.Note(goggles::StrFormat(
      "fit_img_per_s %.2f img/s at pool %d over %zu rounds; label_accuracy "
      "%.4f (%zu datasets x %d splits)",
      fit_img_per_s, large_pool, large_p50.size(), mean_accuracy,
      large.size(), kAccuracySplits));
  // Latencies: each round's median over its tasks, median of rounds.
  out.Note(goggles::StrFormat(
      "per-task Session::Fit latency p50: %.3f ms at pool %d, %.3f ms at "
      "pool %d",
      Median(small_p50), small_pool, Median(large_p50), large_pool));
  out.Add("setup_s", Median(setup), "s");
  out.Add("cpu_ms_per_img.low", Median(small_cpu_ms), "ms");
  out.Add("cpu_ms_per_img.high", Median(large_cpu_ms), "ms");
  out.Add("label_accuracy", mean_accuracy, "fraction");
  return out;
}

}  // namespace perfbench
