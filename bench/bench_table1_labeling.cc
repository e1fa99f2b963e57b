/// \file bench_table1_labeling.cc
/// \brief Reproduces **Table 1** of the paper: labeling accuracy on the
/// training split for GOGGLES vs data programming (Snorkel, Snuba),
/// representation ablations (HOG, Logits) and class-inference baselines
/// (K-Means, GMM, Spectral co-clustering) across the five datasets.
///
/// The affinity matrix is built once per task and shared by GOGGLES and the
/// clustering baselines (exactly what §5.1.6 prescribes: "All methods use
/// the GOGGLES affinity matrix as input data"). Records every system's
/// accuracy per dataset and on average (percent) in
/// BENCH_table1_labeling.json as `<system>_pct_<dataset>` and
/// `<system>_pct_average` (the recorder lowercases the system name:
/// goggles, snorkel, snuba, hog, logits, k_means, gmm, spectral; Snorkel
/// only on the datasets it ran on, and without an average, as the table
/// prints it), and registers google-benchmark timers for the two pipeline
/// phases.

#include <benchmark/benchmark.h>

#include <map>

#include "baselines/kmeans.h"
#include "baselines/spectral.h"
#include "bench_common.h"
#include "goggles/base_gmm.h"
#include "goggles/hierarchical.h"
#include "goggles/pipeline.h"
#include "util/table.h"
#include "util/timer.h"

namespace goggles::bench {
namespace {

struct Cell {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double MeanOrNeg() const { return values.empty() ? -1.0 : eval::Mean(values); }
};

std::vector<int> HardLabels(const Matrix& proba) {
  std::vector<int> out;
  for (int64_t i = 0; i < proba.rows(); ++i) {
    out.push_back(proba(i, 1) > proba(i, 0) ? 1 : 0);
  }
  return out;
}

/// Runs every Table-1 system on one task, sharing the affinity matrix.
void RunTask(const eval::LabelingTask& task, const eval::RunnerContext& ctx,
             std::map<std::string, Cell>* row) {
  GogglesPipeline pipeline(ctx.extractor, ctx.goggles);
  Result<Matrix> affinity = pipeline.BuildAffinity(task.train.images);
  affinity.status().Abort("affinity");

  // GOGGLES.
  HierarchicalLabeler labeler(ctx.goggles.inference);
  Result<LabelingResult> goggles =
      labeler.Fit(*affinity, task.dev_indices, task.dev_labels, 2);
  goggles.status().Abort("goggles");
  (*row)["GOGGLES"].Add(eval::AccuracyExcluding(
      goggles->hard_labels, task.train.labels, task.dev_indices));

  // Snorkel (attribute tasks only).
  if (task.train.has_attributes()) {
    Result<double> snorkel = eval::RunSnorkelLabeling(task);
    if (snorkel.ok()) (*row)["Snorkel"].Add(*snorkel);
  }

  // Snuba.
  Result<double> snuba = eval::RunSnubaLabeling(task, ctx);
  snuba.status().Abort("snuba");
  (*row)["Snuba"].Add(*snuba);

  // Representation ablations.
  Result<double> hog = eval::RunRepresentationAffinity(
      task, ctx, eval::RepresentationKind::kHog);
  hog.status().Abort("hog");
  (*row)["HoG"].Add(*hog);
  Result<double> logits = eval::RunRepresentationAffinity(
      task, ctx, eval::RepresentationKind::kLogits);
  logits.status().Abort("logits");
  (*row)["Logits"].Add(*logits);

  // Clustering baselines on the shared affinity matrix, optimal mapping.
  {
    baselines::KMeansConfig config;
    config.num_clusters = 2;
    baselines::KMeans km(config);
    km.Fit(*affinity).Abort("kmeans");
    (*row)["K-Means"].Add(eval::AccuracyWithOptimalMappingExcluding(
        km.labels(), task.train.labels, 2, task.dev_indices));
  }
  {
    GmmConfig config;
    config.num_components = 2;
    DiagonalGmm gmm(config);
    gmm.Fit(*affinity).Abort("gmm");
    Result<Matrix> proba = gmm.PredictProba(*affinity);
    proba.status().Abort("gmm proba");
    (*row)["GMM"].Add(eval::AccuracyWithOptimalMappingExcluding(
        HardLabels(*proba), task.train.labels, 2, task.dev_indices));
  }
  {
    baselines::SpectralConfig config;
    config.num_clusters = 2;
    Result<std::vector<int>> labels =
        baselines::SpectralCoclusterRows(*affinity, config);
    labels.status().Abort("spectral");
    (*row)["Spectral"].Add(eval::AccuracyWithOptimalMappingExcluding(
        *labels, task.train.labels, 2, task.dev_indices));
  }
}

const std::vector<std::string> kSystems = {
    "GOGGLES", "Snorkel", "Snuba", "HoG", "Logits",
    "K-Means", "GMM",     "Spectral"};

// Paper Table 1 reference values (percent), "-" where not evaluated.
const std::map<std::string, std::vector<std::string>> kPaperTable1 = {
    {"birds",   {"97.83", "89.17", "58.83", "62.93", "96.35", "98.67", "97.62", "72.08"}},
    {"signs",   {"70.51", "-", "62.74", "75.48", "64.77", "70.74", "69.64", "62.40"}},
    {"surface", {"89.18", "-", "57.86", "85.82", "54.08", "69.08", "69.14", "60.82"}},
    {"tbxray",  {"76.89", "-", "59.47", "69.13", "67.16", "76.33", "76.70", "75.00"}},
    {"pnxray",  {"74.39", "-", "55.50", "53.11", "71.18", "50.66", "68.66", "75.90"}}};

const std::map<std::string, std::string> kPaperName = {
    {"birds", "CUB"},     {"signs", "GTSRB"},   {"surface", "Surface"},
    {"tbxray", "TB-Xray"}, {"pnxray", "PN-Xray"}};

void RunExperiment() {
  const BenchScale scale = GetBenchScale();
  Banner("Table 1 — labeling accuracy on the training split (percent)", scale);
  eval::RunnerContext ctx = MakeBenchContext();

  std::map<std::string, std::map<std::string, Cell>> rows;
  WallTimer timer;
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    for (int rep = 0; rep < EffectiveReps(dataset, scale); ++rep) {
      for (const eval::LabelingTask& task :
           MakeDatasetTasks(dataset, scale, rep)) {
        RunTask(task, ctx, &rows[dataset]);
      }
    }
    std::printf("  [%s done in %.1fs total]\n", dataset.c_str(),
                timer.ElapsedSeconds());
  }

  AsciiTable table("Table 1 (ours): mean labeling accuracy, % — dev = 5/class");
  std::vector<std::string> header = {"Dataset"};
  for (const auto& s : kSystems) header.push_back(s);
  table.SetHeader(header);
  std::map<std::string, Cell> averages;
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    std::vector<std::string> cells = {kPaperName.at(dataset)};
    for (const auto& system : kSystems) {
      const double mean = rows[dataset][system].MeanOrNeg();
      cells.push_back(Pct(mean));
      if (mean >= 0.0) {
        averages[system].Add(mean);
        RecordBenchMetric(system + "_pct_" + dataset, 100.0 * mean);
      }
    }
    table.AddRow(cells);
  }
  table.AddSeparator();
  std::vector<std::string> avg_row = {"Average"};
  for (const auto& system : kSystems) {
    const double mean =
        system == "Snorkel" ? -1.0 : averages[system].MeanOrNeg();
    avg_row.push_back(Pct(mean));
    if (mean >= 0.0) RecordBenchMetric(system + "_pct_average", 100.0 * mean);
  }
  table.AddRow(avg_row);
  table.Print();

  AsciiTable paper("Paper Table 1 (reference): labeling accuracy, %");
  paper.SetHeader(header);
  for (const std::string& dataset : data::EvaluationDatasetNames()) {
    std::vector<std::string> cells = {kPaperName.at(dataset)};
    for (const std::string& v : kPaperTable1.at(dataset)) cells.push_back(v);
    paper.AddRow(cells);
  }
  paper.Print();
  std::printf(
      "Shape checks: GOGGLES >> Snuba everywhere; GOGGLES best-or-near-best\n"
      "on average; birds (CUB) easiest, signs (GTSRB) hardest.\n");
}

// ---- google-benchmark timers for the two pipeline phases ----

eval::RunnerContext* g_ctx = nullptr;
eval::LabelingTask* g_task = nullptr;

void BM_AffinityMatrixBuild(benchmark::State& state) {
  GogglesPipeline pipeline(g_ctx->extractor, g_ctx->goggles);
  for (auto _ : state) {
    Result<Matrix> a = pipeline.BuildAffinity(g_task->train.images);
    benchmark::DoNotOptimize(a.ok());
  }
}
BENCHMARK(BM_AffinityMatrixBuild)->Unit(benchmark::kMillisecond);

void BM_HierarchicalInference(benchmark::State& state) {
  GogglesPipeline pipeline(g_ctx->extractor, g_ctx->goggles);
  Result<Matrix> a = pipeline.BuildAffinity(g_task->train.images);
  a.status().Abort("affinity");
  HierarchicalLabeler labeler(g_ctx->goggles.inference);
  for (auto _ : state) {
    Result<LabelingResult> r =
        labeler.Fit(*a, g_task->dev_indices, g_task->dev_labels, 2);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->hard_labels.data());
  }
}
BENCHMARK(BM_HierarchicalInference)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();

  // Micro-timers on a representative task.
  auto ctx = goggles::bench::MakeBenchContext();
  auto scale = goggles::bench::GetBenchScale();
  auto tasks = goggles::bench::MakeDatasetTasks("tbxray", scale, 0);
  goggles::bench::g_ctx = &ctx;
  goggles::bench::g_task = &tasks[0];
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
