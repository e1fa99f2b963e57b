#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernel_table.h"

// The kernel implementation lives in kernels_impl.inc, compiled once per
// ISA tier (kernels_<tier>.cc) with tier-specific -m flags; this TU only
// dispatches through the table selected at startup (see isa.h). Every
// tier is bit-identical for f32 and f64 — explicit std::fma in the fixed
// chunked order — so the dispatch is invisible in the output bits.

namespace goggles {

void SGemmWithThreads(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                      int64_t k, float alpha, const float* a, int64_t lda,
                      const float* b, int64_t ldb, float beta, float* c,
                      int64_t ldc, int num_threads) {
  ActiveKernels().sgemm(transpose_a, transpose_b, m, n, k, alpha, a, lda, b,
                        ldb, beta, c, ldc, num_threads);
}

void SGemm(bool transpose_a, bool transpose_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc) {
  SGemmWithThreads(transpose_a, transpose_b, m, n, k, alpha, a, lda, b, ldb,
                   beta, c, ldc, /*num_threads=*/0);
}

void DGemmWithThreads(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                      int64_t k, double alpha, const double* a, int64_t lda,
                      const double* b, int64_t ldb, double beta, double* c,
                      int64_t ldc, int num_threads) {
  ActiveKernels().dgemm(transpose_a, transpose_b, m, n, k, alpha, a, lda, b,
                        ldb, beta, c, ldc, num_threads);
}

void DGemm(bool transpose_a, bool transpose_b, int64_t m, int64_t n, int64_t k,
           double alpha, const double* a, int64_t lda, const double* b,
           int64_t ldb, double beta, double* c, int64_t ldc) {
  DGemmWithThreads(transpose_a, transpose_b, m, n, k, alpha, a, lda, b, ldb,
                   beta, c, ldc, /*num_threads=*/0);
}

DGemmPackedA DGemmPackOperandA(bool transpose_a, int64_t m, int64_t k,
                               const double* a, int64_t lda) {
  DGemmPackedA packed;
  DGemmPackOperandAInto(transpose_a, m, k, a, lda, &packed);
  return packed;
}

void DGemmPackOperandAInto(bool transpose_a, int64_t m, int64_t k,
                           const double* a, int64_t lda, DGemmPackedA* out) {
  ActiveKernels().dgemm_pack_a(transpose_a, m, k, a, lda, out);
}

void DGemmWithPackedA(const DGemmPackedA& packed_a, bool transpose_b,
                      int64_t n, const double* b, int64_t ldb, double beta,
                      double* c, int64_t ldc, int num_threads) {
  // The micro-panel layout is tier-specific, so a packed operand must be
  // consumed by the tier that packed it — which also makes the call
  // robust against a tier switch (tests force tiers mid-process) between
  // packing and multiplying.
  const TensorKernels* table =
      packed_a.isa_tier >= 0
          ? KernelsForTier(static_cast<IsaTier>(packed_a.isa_tier))
          : nullptr;
  if (table == nullptr) table = &ActiveKernels();
  table->dgemm_with_packed_a(packed_a, transpose_b, n, b, ldb, beta, c, ldc,
                             num_threads);
}

void PackPrototypePanel(const float* rows, int64_t count, int64_t channels,
                        int64_t first, float* panel) {
  constexpr int64_t kNR = kPrototypePanelCols;
  for (int64_t r = 0; r < count; ++r) {
    const int64_t q = first + r;
    float* dst = panel + q / kNR * kNR * channels + q % kNR;
    const float* src = rows + r * channels;
    for (int64_t k = 0; k < channels; ++k) dst[k * kNR] = src[k];
  }
}

void PrototypeMaxScores(const float* positions, int64_t area,
                        int64_t channels, const float* panel,
                        int64_t num_protos, float* best) {
  ActiveKernels().prototype_max_scores(positions, area, channels, panel,
                                       num_protos, best);
}

void PackPanelStack(const double* panel, int64_t num_functions,
                    int64_t components, int64_t width, int64_t function,
                    double* stack) {
  constexpr int64_t kL = kPanelStackLanes;
  const int64_t first = function / kL * kL;  // the group's first function
  const int64_t lanes = std::min(kL, num_functions - first);
  double* dst = stack + first * components * width + function - first;
  for (int64_t i = 0; i < components * width; ++i) dst[i * lanes] = panel[i];
}

void PanelStackProducts(const double* x, int64_t num_functions, int64_t dims,
                        bool augment_squares, const double* stack,
                        int64_t components, double* out) {
  ActiveKernels().panel_stack_products(x, num_functions, dims,
                                       augment_squares, stack, components,
                                       out);
}

void EmEStepProducts(const float* xt, int64_t n, int64_t d, bool squares,
                     const double* panel, int64_t cols, double* out) {
  ActiveKernels().em_estep_f(xt, n, d, squares, panel, cols, out);
}

void EmEStepProducts(const double* xt, int64_t n, int64_t d, bool squares,
                     const double* panel, int64_t cols, double* out) {
  ActiveKernels().em_estep_d(xt, n, d, squares, panel, cols, out);
}

void EmMStepProducts(const float* x, int64_t stride, int64_t n, int64_t d,
                     bool squares, const double* resp, int64_t cols,
                     double* out) {
  ActiveKernels().em_mstep_f(x, stride, n, d, squares, resp, cols, out);
}

void EmMStepProducts(const double* x, int64_t stride, int64_t n, int64_t d,
                     bool squares, const double* resp, int64_t cols,
                     double* out) {
  ActiveKernels().em_mstep_d(x, stride, n, d, squares, resp, cols, out);
}

void DGemmReference(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                    int64_t k, double alpha, const double* a, int64_t lda,
                    const double* b, int64_t ldb, double beta, double* c,
                    int64_t ldc) {
  // Deliberately NOT dispatched: this is the retained scalar reference,
  // compiled as baseline code in this TU. Its std::fma accumulation in
  // the same chunked order is what every tier must (and does) reproduce.
  if (m <= 0 || n <= 0) return;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      // Same order as the blocked kernel: C is scaled by beta first, then
      // one std::fma-accumulated partial sum per kGemmKChunk-sized k-block
      // is added in ascending block order.
      double total = beta == 0.0 ? 0.0 : c[i * ldc + j] * beta;
      if (alpha != 0.0) {  // BLAS: alpha == 0 must not reference A or B.
        for (int64_t pc = 0; pc < k; pc += kGemmKChunk) {
          const int64_t pc_end = std::min(pc + kGemmKChunk, k);
          double local = 0.0;
          for (int64_t p = pc; p < pc_end; ++p) {
            const double av =
                alpha * (transpose_a ? a[p * lda + i] : a[i * lda + p]);
            const double bv = transpose_b ? b[j * ldb + p] : b[p * ldb + j];
            local = std::fma(av, bv, local);
          }
          total += local;
        }
      }
      c[i * ldc + j] = total;
    }
  }
}

void SGemmReference(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                    int64_t k, float alpha, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float beta, float* c,
                    int64_t ldc) {
  // Single-precision twin of DGemmReference, added with the ISA dispatch:
  // now that SGemm accumulates through explicit std::fma too, a scalar
  // fma loop in the same chunked order reproduces it bit for bit — this
  // is the reference the forced-tier tests compare every tier against.
  if (m <= 0 || n <= 0) return;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float total = beta == 0.0f ? 0.0f : c[i * ldc + j] * beta;
      if (alpha != 0.0f) {  // BLAS: alpha == 0 must not reference A or B.
        for (int64_t pc = 0; pc < k; pc += kGemmKChunk) {
          const int64_t pc_end = std::min(pc + kGemmKChunk, k);
          float local = 0.0f;
          for (int64_t p = pc; p < pc_end; ++p) {
            const float av =
                alpha * (transpose_a ? a[p * lda + i] : a[i * lda + p]);
            const float bv = transpose_b ? b[j * ldb + p] : b[p * ldb + j];
            local = std::fma(av, bv, local);
          }
          total += local;
        }
      }
      c[i * ldc + j] = total;
    }
  }
}

}  // namespace goggles
