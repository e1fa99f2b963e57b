/// \file bench_micro_kernels.cc
/// \brief google-benchmark microbenchmarks for the computational kernels
/// behind the paper's pipeline: GEMM/conv and the packed backbone forward
/// (per stage and whole), prototype affinity
/// scoring (§3.2), base-GMM and Bernoulli-ensemble EM (§4.2), one-row
/// inference through the fitted §4 stack (the serve infer stage), the
/// assignment solver for cluster mapping (§4.3), the theory DP (§4.4),
/// HOG extraction and truncated SVD (baselines). Supports the §5.3
/// running-time discussion (base models parallelize across slices).

#include <benchmark/benchmark.h>

#include "baselines/kmeans.h"
#include "data/raster.h"
#include "features/extractor.h"
#include "features/hog.h"
#include "goggles/base_gmm.h"
#include "goggles/ensemble.h"
#include "goggles/hierarchical.h"
#include "goggles/theory.h"
#include "linalg/hungarian.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"
#include "nn/layers.h"
#include "nn/vgg.h"
#include "tensor/gemm.h"
#include "tensor/isa.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace goggles {
namespace {

void BM_SGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(n) * n), b(a.size()), c(a.size());
  for (auto& v : a) v = static_cast<float>(rng.Gaussian());
  for (auto& v : b) v = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    SGemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
          c.data(), n);
    benchmark::DoNotOptimize(c[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_SGemm)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_DGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<double> a(static_cast<size_t>(n) * n), b(a.size()), c(a.size());
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  for (auto _ : state) {
    DGemm(false, false, n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
          c.data(), n);
    benchmark::DoNotOptimize(c[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_DGemm)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// A tall-skinny product against a K-column panel, with the tall operand
/// prepacked once (DGemmWithPackedA, as the truncated SVD reuses it).
void BM_DGemmPackedSkinny(benchmark::State& state) {
  const int64_t n = 200, d = 400, k = 2;
  Rng rng(12);
  std::vector<double> a(static_cast<size_t>(n * d)), b(static_cast<size_t>(k * d));
  std::vector<double> c(static_cast<size_t>(n * k));
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  const DGemmPackedA packed = DGemmPackOperandA(false, n, d, a.data(), d);
  for (auto _ : state) {
    DGemmWithPackedA(packed, /*transpose_b=*/true, k, b.data(), d, 0.0,
                     c.data(), k);
    benchmark::DoNotOptimize(c[0]);
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * d * k);
}
BENCHMARK(BM_DGemmPackedSkinny)->Unit(benchmark::kMicrosecond);

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  Tensor x = Tensor::RandomNormal({8, 16, 32, 32}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({32, 16, 3, 3}, 0.1f, &rng);
  Tensor b = Tensor::Zeros({32});
  for (auto _ : state) {
    auto y = Conv2dForward(x, w, b, {1, 1});
    benchmark::DoNotOptimize(y.ok());
  }
}
BENCHMARK(BM_Conv2dForward)->Unit(benchmark::kMillisecond);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::RandomNormal({8, 16, 32, 32}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({32, 16, 3, 3}, 0.1f, &rng);
  Tensor b = Tensor::Zeros({32});
  auto y = Conv2dForward(x, w, b, {1, 1});
  y.status().Abort("fwd");
  Tensor dy = Tensor::RandomNormal(y->shape(), 1.0f, &rng);
  for (auto _ : state) {
    auto grads = Conv2dBackward(x, w, dy, {1, 1});
    benchmark::DoNotOptimize(grads.ok());
  }
}
BENCHMARK(BM_Conv2dBackward)->Unit(benchmark::kMillisecond);

/// The default VggMini (3x32x32 input, stages of 8/16/32/48/64 channels)
/// with every conv bias drawn nonzero, as a trained backbone has them.
nn::VggMini RandomBiasBackbone() {
  Result<nn::VggMini> model = nn::BuildVggMini(nn::VggMiniConfig{});
  model.status().Abort("BuildVggMini");
  Rng rng(9);
  for (nn::Parameter* p : model->net.Params()) {
    if (p->name != "conv.bias") continue;
    for (int64_t i = 0; i < p->value.NumElements(); ++i) {
      p->value[i] = static_cast<float>(rng.Gaussian(0.0, 0.1));
    }
  }
  return std::move(*model);
}

data::Image RandomImage(int channels, int size, uint64_t seed) {
  Rng rng(seed);
  data::Image img(channels, size, size);
  for (float& v : img.pixels) v = static_cast<float>(rng.Uniform());
  return img;
}

/// One stage of the extractor's packed plan on one image, serially: stage
/// s's prepacked 3x3 conv, bias, ReLU and 2x2 max pool, fused in one
/// Conv3x3BiasReluPool call, on the previous stage's tap of a random
/// image. Arg = stage.
void BM_BackboneStage(benchmark::State& state) {
  const int stage = static_cast<int>(state.range(0));
  const nn::VggMini model = RandomBiasBackbone();
  const auto* conv = dynamic_cast<const nn::Conv2D*>(model.net.layer(3 * stage));
  if (conv == nullptr) {
    state.SkipWithError("stage layout");
    return;
  }
  const data::Image image = RandomImage(3, 32, 10);
  Tensor in = data::StackImages({image});
  if (stage > 0) {
    std::vector<Tensor> taps;
    model.net.ForwardTaps(in, {model.pool_layer_indices[stage - 1]}, &taps)
        .Abort("ForwardTaps");
    in = taps[0];
  }
  const int64_t c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int64_t oc = conv->out_channels(), depth = c * 9;
  std::vector<float> panel(
      static_cast<size_t>(PrototypePanelFloats(oc, depth)), 0.0f);
  PackPrototypePanel(conv->weight().data(), oc, depth, 0, panel.data());
  std::vector<float> scratch(
      static_cast<size_t>(Conv3x3ScratchFloats(c, h, w, oc, true)));
  std::vector<float> out(static_cast<size_t>(oc * (h / 2) * (w / 2)));
  ScopedSerialKernels serial;
  for (auto _ : state) {
    Conv3x3BiasReluPool(in.data(), c, h, w, panel.data(),
                        conv->bias().data(), oc, /*pool=*/true,
                        scratch.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(oc * depth * h * w),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BackboneStage)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

/// All five pool taps of one 3x32x32 image, serially. Arg 0 runs the
/// backbone layer by layer (Sequential::ForwardTaps: im2col + SGemm conv,
/// then separate ReLU and max-pool passes); Arg 1 runs the extractor's
/// packed plan (FeatureExtractor::PoolFeatureMaps).
void BM_BackboneForward(benchmark::State& state) {
  nn::VggMini model = RandomBiasBackbone();
  const data::Image image = RandomImage(3, 32, 11);
  ScopedSerialKernels serial;
  if (state.range(0) == 0) {
    const Tensor x = data::StackImages({image});
    std::vector<Tensor> taps;
    for (auto _ : state) {
      model.net.ForwardTaps(x, model.pool_layer_indices, &taps)
          .Abort("ForwardTaps");
      benchmark::DoNotOptimize(taps.data());
    }
    return;
  }
  const features::FeatureExtractor extractor(std::move(model));
  const std::vector<data::Image> images = {image};
  for (auto _ : state) {
    auto maps = extractor.PoolFeatureMaps(images);
    benchmark::DoNotOptimize(maps.ok());
  }
}
BENCHMARK(BM_BackboneForward)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_CosineKernel(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(4);
  std::vector<float> a(static_cast<size_t>(d)), b(a.size());
  for (auto& v : a) v = static_cast<float>(rng.Gaussian());
  for (auto& v : b) v = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineSimilarityF(a.data(), b.data(), d));
  }
}
BENCHMARK(BM_CosineKernel)->Arg(8)->Arg(64)->Arg(512);

/// Eq. 2 as the serving path runs it: one query's positions at one tap
/// against every prototype of a pool-480 task (480 images x top-10), via
/// the fused scorer over the packed panel. Args: area, channels,
/// prototypes — the three largest taps of the VggMini backbone.
void BM_PrototypeMaxScores(benchmark::State& state) {
  const int64_t area = state.range(0);
  const int64_t channels = state.range(1);
  const int64_t protos = state.range(2);
  Rng rng(5);
  std::vector<float> positions(static_cast<size_t>(area * channels));
  std::vector<float> rows(static_cast<size_t>(protos * channels));
  for (auto& v : positions) v = static_cast<float>(rng.Gaussian());
  for (auto& v : rows) v = static_cast<float>(rng.Gaussian());
  for (int64_t p = 0; p < area; ++p) {
    NormalizeF(positions.data() + p * channels, channels);
  }
  for (int64_t q = 0; q < protos; ++q) {
    NormalizeF(rows.data() + q * channels, channels);
  }
  std::vector<float> panel(
      static_cast<size_t>(PrototypePanelFloats(protos, channels)), 0.0f);
  PackPrototypePanel(rows.data(), protos, channels, 0, panel.data());
  std::vector<float> best(static_cast<size_t>(protos));
  for (auto _ : state) {
    PrototypeMaxScores(positions.data(), area, channels, panel.data(), protos,
                       best.data());
    benchmark::DoNotOptimize(best.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(area * channels * protos),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_PrototypeMaxScores)
    ->Args({256, 8, 4800})
    ->Args({64, 16, 4800})
    ->Args({16, 32, 4800})
    ->Unit(benchmark::kMicrosecond);

void BM_DiagonalGmmFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  Matrix x(n, n);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  for (auto _ : state) {
    GmmConfig config;
    config.num_components = 2;
    config.num_restarts = 1;
    DiagonalGmm gmm(config);
    benchmark::DoNotOptimize(gmm.Fit(x).ok());
  }
}
BENCHMARK(BM_DiagonalGmmFit)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// One 480 x 480 diagonal-GMM fit: DiagonalGmm::FitPredict at K = 2 and
// the default GmmConfig on the second 480 x 480 slice of a two-function
// block of `stride` elements per row, with a reused workspace and a
// posterior out, serial as the base layer's slots run it; `em_iters`
// reports the best restart's iterations. The double rows
// (BM_BaseGmmFitPredict, BM_BaseGmmFitPredictSaturated) time the double
// EM that the DiagonalGmm::Fit(Matrix) baselines run; the base layer of
// every HierarchicalLabeler fit runs the float one
// (BM_BaseGmmFitPredictFloat).
template <typename T>
void RunBaseGmmFitPredict(const T* block, int64_t n, int64_t stride,
                          benchmark::State& state) {
  GmmConfig config;
  config.num_components = 2;
  std::vector<T> workspace;
  Matrix posterior;
  ScopedSerialKernels serial;
  double iters = 0.0;
  for (auto _ : state) {
    DiagonalGmm gmm(config);
    if (!gmm.FitPredict(em::Slice<T>{block + n, n, n, stride}, &workspace,
                        &posterior)
             .ok()) {
      state.SkipWithError("DiagonalGmm::FitPredict");
      return;
    }
    iters = static_cast<double>(gmm.log_likelihood_history().size());
    benchmark::DoNotOptimize(posterior.data());
    benchmark::ClobberMemory();
  }
  state.counters["em_iters"] = iters;
}

void RunBaseGmmFitPredict(const Matrix& block, benchmark::State& state) {
  RunBaseGmmFitPredict(block.data(), block.rows(), block.cols(), state);
}

// The block holds two weakly planted classes (slightly higher affinity
// within a class), so the best restart runs about 20 EM iterations, as a
// base GMM of a real pool-480 fit does.
Matrix PlantedBlock() {
  const int64_t n = 480;
  Rng rng(9);
  Matrix block(n, 2 * n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < 2 * n; ++j) {
      const bool same_class = (i % 2) == ((j % n) % 2);
      block(i, j) = (same_class ? 0.515 : 0.485) + 0.4 * rng.Uniform();
    }
  }
  return block;
}

void BM_BaseGmmFitPredict(benchmark::State& state) {
  RunBaseGmmFitPredict(PlantedBlock(), state);
}
BENCHMARK(BM_BaseGmmFitPredict)->Unit(benchmark::kMillisecond);

// The same fit on the float block the base layer reads: the planted
// block rounded to float (its own EM trajectory, not
// BM_BaseGmmFitPredict's).
void BM_BaseGmmFitPredictFloat(benchmark::State& state) {
  const Matrix block = PlantedBlock();
  const std::vector<float> f32(block.data(), block.data() + block.size());
  RunBaseGmmFitPredict(f32.data(), block.rows(), block.cols(), state);
}
BENCHMARK(BM_BaseGmmFitPredictFloat)->Unit(benchmark::kMillisecond);

// The same fit on well separated classes whose signal grows along the
// rows, so the posteriors saturate and the rows' log-odds sweep through
// exp's subnormal range, as they do on real pools: the M-step sees
// subnormal responsibilities unless em::ResponsibilitiesInto flushes
// them (the design of gmm_gemm_test's absorption test).
void BM_BaseGmmFitPredictSaturated(benchmark::State& state) {
  const int64_t n = 480;
  Rng rng(41);
  Matrix block(n, 2 * n);
  for (int64_t i = 0; i < n; ++i) {
    const double signal = 0.3 * static_cast<double>(i) / n;
    for (int64_t j = 0; j < 2 * n; ++j) {
      const bool same_class = (i % 2) == ((j % n) % 2);
      block(i, j) =
          0.3 + (same_class ? signal : -signal) + 0.4 * rng.Uniform();
    }
  }
  RunBaseGmmFitPredict(block, state);
}
BENCHMARK(BM_BaseGmmFitPredictSaturated)->Unit(benchmark::kMillisecond);

// One lockstep EM iteration's products on a base GMM's float slice, as a
// fit of pool N runs them: the second N x N slice of an N x 10N block
// (Z = 10 functions per tap layer), K = 2, `cols` = K x live restarts
// stacked columns, serial as the base layer's slots run them. The design
// is built once (one transposed copy per GMM), as a fit does.
struct EmStepFixture {
  std::vector<float> block;
  std::vector<float> transposed;
  em::Design<float> design;
  Matrix panel, resp, out;

  EmStepFixture(int64_t n, int64_t cols) {
    Rng rng(10);
    block.resize(static_cast<size_t>(n * 10 * n));
    for (auto& v : block) v = static_cast<float>(rng.Uniform());
    design = em::MakeDesign(em::Slice<float>{block.data() + n, n, n, 10 * n},
                            /*squares=*/true, &transposed);
    panel = Matrix(cols, 2 * n);
    for (int64_t i = 0; i < panel.size(); ++i) {
      panel.data()[i] = rng.Gaussian();
    }
    resp = Matrix(n, cols);
    for (int64_t i = 0; i < resp.size(); ++i) resp.data()[i] = rng.Uniform();
  }
};

void BM_EmEStep(benchmark::State& state) {
  EmStepFixture fx(state.range(0), state.range(1));
  ScopedSerialKernels serial;
  for (auto _ : state) {
    em::EStepProducts(fx.design, fx.panel, &fx.out);
    benchmark::DoNotOptimize(fx.out.data());
  }
}
BENCHMARK(BM_EmEStep)
    ->ArgsProduct({{108, 480}, {2, 4, 6}})
    ->Unit(benchmark::kMicrosecond);

void BM_EmMStep(benchmark::State& state) {
  EmStepFixture fx(state.range(0), state.range(1));
  ScopedSerialKernels serial;
  for (auto _ : state) {
    em::MStepProducts(fx.design, fx.resp, &fx.out);
    benchmark::DoNotOptimize(fx.out.data());
  }
}
BENCHMARK(BM_EmMStep)
    ->ArgsProduct({{108, 480}, {2, 4, 6}})
    ->Unit(benchmark::kMicrosecond);

void BM_BernoulliMixtureFit(benchmark::State& state) {
  const int alpha = static_cast<int>(state.range(0));
  Rng rng(7);
  Matrix b(150, 2 * alpha);
  for (int64_t i = 0; i < b.size(); ++i) {
    b.data()[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  for (auto _ : state) {
    BernoulliMixtureConfig config;
    config.num_components = 2;
    config.num_restarts = 1;
    BernoulliMixture mix(config);
    benchmark::DoNotOptimize(mix.Fit(b).ok());
  }
}
BENCHMARK(BM_BernoulliMixtureFit)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMillisecond);

// One served label's inference: FittedHierarchicalModel::Infer on one
// affinity row, serially as the serve infer stage runs it. The model is
// the perfbench shape (alpha = 50 base GMMs, K = 2, Bernoulli ensemble
// over the one-hot LPs) with synthetic parameters; Arg = pool size N.
void BM_InferOneRow(benchmark::State& state) {
  const int64_t n = state.range(0), alpha = 50, k = 2;
  Rng rng(8);
  FittedHierarchicalModel model;
  model.num_classes = static_cast<int>(k);
  model.pool_size = n;
  model.base_models.resize(static_cast<size_t>(alpha));
  model.base_mappings.assign(static_cast<size_t>(alpha), {1, 0});
  for (DiagonalGmm& gmm : model.base_models) {
    Matrix means(k, n), variances(k, n);
    for (int64_t i = 0; i < means.size(); ++i) {
      means.data()[i] = rng.Uniform();
      variances.data()[i] = rng.Uniform(0.01, 0.1);
    }
    if (!gmm.SetParameters(std::move(means), std::move(variances),
                           {0.4, 0.6})
             .ok()) {
      state.SkipWithError("DiagonalGmm::SetParameters");
      return;
    }
  }
  Matrix probs(k, alpha * k);
  for (int64_t i = 0; i < probs.size(); ++i) {
    probs.data()[i] = rng.Uniform(0.05, 0.95);
  }
  if (!model.ensemble.SetParameters(std::move(probs), {0.5, 0.5}).ok()) {
    state.SkipWithError("BernoulliMixture::SetParameters");
    return;
  }
  model.ensemble_mapping = {0, 1};
  model.BuildInferencePlan();
  Matrix row(1, alpha * n);
  for (int64_t i = 0; i < row.size(); ++i) row.data()[i] = rng.Uniform();
  ScopedSerialKernels serial;
  for (auto _ : state) {
    Result<LabelingResult> result = model.Infer(row);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_InferOneRow)->Arg(108)->Arg(480)
    ->Unit(benchmark::kMicrosecond);

void BM_HungarianAssignment(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(8);
  Matrix cost(k, k);
  for (int64_t i = 0; i < cost.size(); ++i) cost.data()[i] = rng.Uniform();
  for (auto _ : state) {
    auto a = SolveAssignmentMin(cost);
    benchmark::DoNotOptimize(a.ok());
  }
}
BENCHMARK(BM_HungarianAssignment)->Arg(2)->Arg(43)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_TheoryDp(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(CorrectMappingProbabilityLowerBound(4, 40, 0.8));
  }
}
BENCHMARK(BM_TheoryDp)->Unit(benchmark::kMicrosecond);

void BM_HogDescriptor(benchmark::State& state) {
  data::Image img(3, 32, 32, 0.3f);
  data::DrawFilledCircle(&img, 16, 16, 9, {0.9f, 0.4f, 0.4f});
  for (auto _ : state) {
    auto hog = features::ComputeHog(img);
    benchmark::DoNotOptimize(hog.ok());
  }
}
BENCHMARK(BM_HogDescriptor)->Unit(benchmark::kMicrosecond);

void BM_TruncatedSvd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  Matrix a(n, 8 * n);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform();
  for (auto _ : state) {
    auto svd = TruncatedSvd(a, 2, 30);
    benchmark::DoNotOptimize(svd.ok());
  }
}
BENCHMARK(BM_TruncatedSvd)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_KMeansFit(benchmark::State& state) {
  Rng rng(10);
  Matrix x(200, 400);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  for (auto _ : state) {
    baselines::KMeansConfig config;
    config.num_clusters = 2;
    config.num_restarts = 1;
    baselines::KMeans km(config);
    benchmark::DoNotOptimize(km.Fit(x).ok());
  }
}
BENCHMARK(BM_KMeansFit)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goggles

// Expanded BENCHMARK_MAIN() so the JSON context carries the ISA tier the
// run dispatched to plus the host's cpu flags — kernel numbers are only
// comparable within one tier, and the trajectory file mixes machines.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("goggles_isa",
                              goggles::IsaTierName(goggles::ActiveIsaTier()));
  benchmark::AddCustomContext("goggles_cpu_flags",
                              goggles::HostCpuFlagsString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
