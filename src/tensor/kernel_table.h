#pragma once

#include <cstdint>

#include "tensor/gemm.h"
#include "tensor/isa.h"

/// \file kernel_table.h
/// \brief Internal per-ISA kernel dispatch table (see isa.h).
///
/// Each ISA tier's translation unit (kernels_<tier>.cc, all compiled
/// from kernels_impl.inc with tier-specific -m flags) exports one
/// GetKernels() returning its filled table. The public entry points in
/// gemm.cc / linalg/kernels.cc / ops.cc dispatch through
/// ActiveKernels(). Not part of the public API — the stable surface is
/// gemm.h / ops.h / linalg/kernels.h.

namespace goggles {

/// \brief Function-pointer table of one ISA tier's kernels. All entries
/// are bit-identical across tiers (fixed-order std::fma accumulation).
struct TensorKernels {
  void (*sgemm)(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                int64_t k, float alpha, const float* a, int64_t lda,
                const float* b, int64_t ldb, float beta, float* c,
                int64_t ldc, int num_threads);
  void (*dgemm)(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                int64_t k, double alpha, const double* a, int64_t lda,
                const double* b, int64_t ldb, double beta, double* c,
                int64_t ldc, int num_threads);
  void (*dgemm_pack_a)(bool transpose_a, int64_t m, int64_t k,
                       const double* a, int64_t lda, DGemmPackedA* out);
  void (*dgemm_with_packed_a)(const DGemmPackedA& packed_a, bool transpose_b,
                              int64_t n, const double* b, int64_t ldb,
                              double beta, double* c, int64_t ldc,
                              int num_threads);
  /// Fused Eq. 2 scorer behind PrototypeMaxScores (gemm.h).
  void (*prototype_max_scores)(const float* positions, int64_t area,
                               int64_t channels, const float* panel,
                               int64_t num_protos, float* best);
  /// One prepacked conv + bias + ReLU (+ 2x2 max pool) of one image
  /// (ops.h Conv3x3BiasReluPool).
  void (*conv3x3_bias_relu_pool)(const float* x, int64_t channels,
                                 int64_t height, int64_t width,
                                 const float* panel, const float* bias,
                                 int64_t out_channels, bool pool,
                                 float* scratch, float* out);
  /// Lane-per-function mixture E-step products (gemm.h
  /// PanelStackProducts).
  void (*panel_stack_products)(const double* x, int64_t num_functions,
                               int64_t dims, bool augment_squares,
                               const double* stack, int64_t components,
                               double* out);
  /// EM products straight from a design slice (gemm.h EmEStepProducts,
  /// EmMStepProducts), per element type of the slice.
  void (*em_estep_f)(const float* xt, int64_t n, int64_t d, bool squares,
                     const double* panel, int64_t cols, double* out);
  void (*em_estep_d)(const double* xt, int64_t n, int64_t d, bool squares,
                     const double* panel, int64_t cols, double* out);
  void (*em_mstep_f)(const float* x, int64_t stride, int64_t n, int64_t d,
                     bool squares, const double* resp, int64_t cols,
                     double* out);
  void (*em_mstep_d)(const double* x, int64_t stride, int64_t n, int64_t d,
                     bool squares, const double* resp, int64_t cols,
                     double* out);
  float (*dot_f)(const float* a, const float* b, int64_t n);
  float (*squared_distance_f)(const float* a, const float* b, int64_t n);
  /// One fused pass computing dot(a,b), |a|^2 and |b|^2.
  void (*cosine_terms_f)(const float* a, const float* b, int64_t n,
                         float* dot, float* na2, float* nb2);
};

/// \brief Table of the active tier (resolving it on first use).
const TensorKernels& ActiveKernels();

/// \brief Table of a specific compiled-in tier; nullptr when the binary
/// does not carry it.
const TensorKernels* KernelsForTier(IsaTier tier);

namespace isa_impl {
namespace scalar {
const TensorKernels& GetKernels();
}
#if defined(GOGGLES_ISA_HAVE_AVX2)
namespace avx2 {
const TensorKernels& GetKernels();
}
#endif
#if defined(GOGGLES_ISA_HAVE_AVX512)
namespace avx512 {
const TensorKernels& GetKernels();
}
#endif
}  // namespace isa_impl

}  // namespace goggles
