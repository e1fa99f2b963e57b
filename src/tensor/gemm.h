#pragma once

#include <cstdint>
#include <vector>

/// \file gemm.h
/// \brief Packed cache-blocked GEMM in single precision (conv, linear)
/// and double precision (MatMul, the truncated SVD), plus the fused Eq. 2
/// prototype scorer (PrototypeMaxScores), which folds the max over
/// positions into the GEMM register tile, and the mixture products: the
/// served posteriors (PanelStackProducts) and the EM E-step and M-step
/// (EmEStepProducts, EmMStepProducts).
///
/// The implementation is a cache-blocked, register-tiled, panel-packing
/// kernel (BLIS-style): op(A) and op(B) are repacked into contiguous
/// micro-panels once per cache block, and an MR x NR register micro-kernel
/// runs over the packed data. Macro row-tiles are distributed across the
/// kernel pool with ParallelForChunked. Packing scratch is thread_local and
/// grow-only (a fresh allocation per call showed up when thousands of
/// small products ran per fit; a long-lived thread retains up to a few MB
/// of panel scratch until it exits). Concurrent GEMM calls from different
/// threads remain safe and lock-free: each thread owns its scratch, and
/// the kernels never re-enter themselves, so one call per thread holds
/// the buffers at a time.
///
/// Numerical contract: every C element is accumulated in a fixed order —
/// ascending k, with one partial sum per kGemmKChunk-sized k-block added
/// into C in block order — independent of the blocking geometry, the total
/// problem shape and the number of worker threads. The same (i, j) dot
/// product yields bit-identical results at 1 and N threads and whether it
/// is computed inside a large or a small GEMM. The serving path relies on
/// this to reproduce fit-time affinity scores exactly.
///
/// Rounding policy (both precisions): every accumulation is an explicit
/// std::fma, which is correctly rounded whether it lowers to the hardware
/// instruction or the library fallback. Results are therefore bit-portable
/// across machines, compile flags and runtime ISA tiers: the kernels are
/// compiled once per ISA tier (scalar/AVX2/AVX-512 translation units, see
/// isa.h) and dispatched at startup, and every tier reproduces
/// the same bits as a scalar loop applying std::fma in the same chunked
/// order — the contract the retained scalar references (SGemmReference,
/// DGemmReference) are built on, and what lets one portable binary and
/// one artifact serve a fleet of heterogeneous hosts.

namespace goggles {

/// \brief Fixed k-blocking (and accumulation-chunk) size of the packed
/// GEMM kernels. Part of the numerical contract: each C element is the
/// ordered sum of one partial sum per kGemmKChunk-aligned k-block.
inline constexpr int64_t kGemmKChunk = 256;

/// \brief C = alpha * op(A) * op(B) + beta * C (single precision).
///
/// A is (m x k) after optional transpose, B is (k x n) after optional
/// transpose, C is (m x n) row-major. BLAS semantics: when alpha == 0,
/// A and B are not referenced and C = beta * C; when beta == 0, C is
/// overwritten without being read (NaN/Inf already in C do not propagate).
/// Non-zero elements of A never short-circuit the accumulation, so NaN/Inf
/// in A or B propagate into C exactly as in reference BLAS.
void SGemm(bool transpose_a, bool transpose_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc);

/// \brief SGemm with an explicit worker-thread count.
///
/// `num_threads <= 0` resolves to DefaultNumThreads(); 1 forces a serial
/// run. The GEMM tests call it to check that results are bit-identical
/// for every thread count.
void SGemmWithThreads(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                      int64_t k, float alpha, const float* a, int64_t lda,
                      const float* b, int64_t ldb, float beta, float* c,
                      int64_t ldc, int num_threads);

/// \brief C = alpha * op(A) * op(B) + beta * C (double precision).
///
/// Same packing/blocking machinery, BLAS semantics and std::fma policy as
/// SGemm, so results are bit-identical at any thread count AND
/// bit-reproducible by the serial DGemmReference below. Used by MatMul
/// and the truncated SVD.
void DGemm(bool transpose_a, bool transpose_b, int64_t m, int64_t n, int64_t k,
           double alpha, const double* a, int64_t lda, const double* b,
           int64_t ldb, double beta, double* c, int64_t ldc);

/// \brief DGemm with an explicit worker-thread count (`<= 0` = default,
/// 1 = serial). Results are bit-identical for every thread count.
void DGemmWithThreads(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                      int64_t k, double alpha, const double* a, int64_t lda,
                      const double* b, int64_t ldb, double beta, double* c,
                      int64_t ldc, int num_threads);

/// \brief Prepacked double-precision op(A): every KC-aligned k-block's
/// MR-row micro-panels, in the exact layout the blocked driver consumes.
/// Built once with DGemmPackOperandA and reused across many products —
/// the truncated SVD's power iteration multiplies the same matrix every
/// step, and for skinny products the transposing repack of that operand
/// would dominate the whole call. alpha is not folded (packing is
/// value-preserving; the products run with alpha = 1).
struct DGemmPackedA {
  std::vector<double> data;         ///< packed micro-panels
  std::vector<int64_t> block_base;  ///< offset of each k-block in `data`
  int64_t m = 0;                    ///< rows of op(A)
  int64_t k = 0;                    ///< depth (columns) of op(A)
  /// ISA tier (isa.h IsaTier value) whose micro-panel geometry `data`
  /// uses; DGemmWithPackedA dispatches to this tier, so a packed operand
  /// survives a mid-process tier switch. -1 = unpacked.
  int isa_tier = -1;
};

/// \brief Packs op(A) (m x k after the optional transpose) into the
/// micro-panel layout consumed by DGemmWithPackedA.
DGemmPackedA DGemmPackOperandA(bool transpose_a, int64_t m, int64_t k,
                               const double* a, int64_t lda);

/// \brief DGemmPackOperandA into an existing operand: `out`'s storage is
/// reused, so repacking a same-shape operand does not allocate.
void DGemmPackOperandAInto(bool transpose_a, int64_t m, int64_t k,
                           const double* a, int64_t lda, DGemmPackedA* out);

/// \brief C = packed_a * op(B) + beta * C. Bit-identical to the
/// corresponding DGemm call with alpha == 1 — same packing layout, same
/// micro-kernels, same fixed accumulation order — at any thread count.
/// `packed_a` is read-only and may be shared by concurrent callers.
void DGemmWithPackedA(const DGemmPackedA& packed_a, bool transpose_b,
                      int64_t n, const double* b, int64_t ldb, double beta,
                      double* c, int64_t ldc, int num_threads = 0);

/// \brief Column count of a prototype panel, the right-hand operand of
/// PrototypeMaxScores. Prototypes are grouped 16 at a time and each group
/// is stored k-major: element k of prototype q sits at
/// `panel[(q / 16) * 16 * channels + k * 16 + q % 16]`. Columns past the
/// last prototype are zero. The layout is the same at every ISA tier.
inline constexpr int64_t kPrototypePanelCols = 16;

/// \brief Floats of a panel holding `num_protos` prototypes of `channels`.
inline int64_t PrototypePanelFloats(int64_t num_protos, int64_t channels) {
  return (num_protos + kPrototypePanelCols - 1) / kPrototypePanelCols *
         kPrototypePanelCols * channels;
}

/// \brief Writes `count` row-major prototypes (count x channels) into
/// panel columns [first, first + count). One pass over `rows`; the
/// padding columns are not touched, so `panel` must start zeroed.
void PackPrototypePanel(const float* rows, int64_t count, int64_t channels,
                        int64_t first, float* panel);

/// \brief Fused Eq. 2 scorer: for every prototype q < num_protos,
/// `best[q]` is the max over the `area` position rows (area x channels,
/// row-major) of their dot product with prototype q of `panel`.
///
/// Bit-identical to SGemm(false, true, area, num_protos, channels, 1,
/// positions, channels, prototypes, channels, 0, scores, num_protos)
/// followed by a running max over ascending positions that starts at -1
/// and takes a score only when it is `>` the max, so NaN scores never
/// win. No score matrix is stored: each register tile of dot products is
/// folded into the max as soon as it is complete. Serial; callers
/// parallelize over instances.
void PrototypeMaxScores(const float* positions, int64_t area,
                        int64_t channels, const float* panel,
                        int64_t num_protos, float* best);

/// \brief Lane count of a panel stack, the prepacked operand of
/// PanelStackProducts. A stack holds one K x W row-major panel per
/// function, in exactly num_functions * K * W doubles: functions are
/// grouped kPanelStackLanes at a time (the last group holds the rest),
/// and in a group of w functions starting at function g * kL, element k
/// of component c's row of the group's function l sits at
/// `stack[g * kL * K * W + (c * W + k) * w + l]`. The layout is the same
/// at every ISA tier.
inline constexpr int64_t kPanelStackLanes = 8;

/// \brief Writes function `function`'s K x W row-major `panel` into its
/// lane of a stack of `num_functions` panels.
void PackPanelStack(const double* panel, int64_t num_functions,
                    int64_t components, int64_t width, int64_t function,
                    double* stack);

/// \brief The E-step products of a stack of mixtures on one row:
/// out[f * K + c] = a_f · panel_{f,c} for every function f < num_functions
/// and component c < K, where x_f = x[f * dims, (f + 1) * dims) and a_f is
/// the augmented [x_f ⊙ x_f | x_f] (width 2·dims; each square rounded
/// once) when `augment_squares`, else x_f itself (width dims).
///
/// Bit-identical, per (f, c), to DGemm(false, true, 1, K, W, 1, a_f, W,
/// panel_f, W, 0, out + f * K, K): ascending k, one std::fma partial sum
/// per kGemmKChunk block, the partials added in block order to a total
/// that starts at 0.0. Lanes are functions, so one vector instruction
/// advances kPanelStackLanes dot products by one k. Serial.
void PanelStackProducts(const double* x, int64_t num_functions, int64_t dims,
                        bool augment_squares, const double* stack,
                        int64_t components, double* out);

/// \brief Row count of one panel of the transposed design that
/// EmEStepProducts reads: element j < d of design row i sits at
/// xt[(i / kEmRowAlign * d + j) * kEmRowAlign + i % kEmRowAlign], so a
/// panel's d columns of kEmRowAlign rows are contiguous. The layout is the
/// same at every ISA tier.
inline constexpr int64_t kEmRowAlign = 16;

/// \brief The E-step products of an EM design, read transposed:
/// out[i * cols + c] = a_i · panel_c for every row i < n and column
/// c < cols, where design row x_i is read from the kEmRowAlign-row panels
/// of `xt` (each element widened to double) and a_i is the augmented
/// [x_i ⊙ x_i | x_i] (width W = 2d; each square rounded once) when
/// `squares`, else x_i (W = d). `panel` is cols x W row-major. The last
/// panel's rows past n are read but their products dropped.
///
/// Bit-identical to DGemmReference(false, true, n, cols, W, 1, a, W,
/// panel, W, 0, out, cols) on the widened augmented design: ascending
/// depth, one std::fma partial sum per kGemmKChunk block, the partials
/// added in block order to a total that starts at 0.0. Rows are the
/// vector lanes, so no augmented or packed copy is stored. Parallel over
/// panels; bit-identical at any thread count and ISA tier.
void EmEStepProducts(const float* xt, int64_t n, int64_t d, bool squares,
                     const double* panel, int64_t cols, double* out);
/// \brief EmEStepProducts on a double design.
void EmEStepProducts(const double* xt, int64_t n, int64_t d, bool squares,
                     const double* panel, int64_t cols, double* out);

/// \brief The M-step products of an EM design, read in place:
/// out[j * cols + c] = Σ_i a_i[j] · resp[i * cols + c] for j < W and
/// c < cols, with a_i the augmented row of EmEStepProducts built from row
/// i of the n x d design at x + i * stride (widened to double). Rows
/// [0, d) of `out` hold the squared moments when `squares`.
///
/// Bit-identical to DGemmReference(true, false, W, cols, n, 1, a, W, resp,
/// cols, 0, out, cols): ascending rows, one std::fma partial sum per
/// kGemmKChunk rows, added in block order to a total that starts at 0.0.
/// Dimensions are the vector lanes, contiguous in the row-major design.
/// Parallel over dimension tiles; bit-identical at any thread count and
/// ISA tier.
void EmMStepProducts(const float* x, int64_t stride, int64_t n, int64_t d,
                     bool squares, const double* resp, int64_t cols,
                     double* out);
/// \brief EmMStepProducts on a double design.
void EmMStepProducts(const double* x, int64_t stride, int64_t n, int64_t d,
                     bool squares, const double* resp, int64_t cols,
                     double* out);

/// \brief Serial scalar reference with DGemm's exact accumulation
/// semantics: per C element, one std::fma-accumulated partial sum per
/// kGemmKChunk-sized k-block, added into C in ascending block order, with
/// alpha folded into each A element up front (one rounding, as the packed
/// kernel does). Bit-identical to DGemm/DGemmWithThreads by contract —
/// the tests enforce the equality over randomized shapes and check the
/// mixture products (PanelStackProducts, the EM kernels) against it.
void DGemmReference(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                    int64_t k, double alpha, const double* a, int64_t lda,
                    const double* b, int64_t ldb, double beta, double* c,
                    int64_t ldc);

/// \brief Single-precision twin of DGemmReference: a serial scalar
/// std::fma loop with SGemm's exact accumulation semantics, bit-identical
/// to SGemm at every ISA tier by contract (the forced-tier dispatch tests
/// enforce the equality).
void SGemmReference(bool transpose_a, bool transpose_b, int64_t m, int64_t n,
                    int64_t k, float alpha, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float beta, float* c,
                    int64_t ldc);

}  // namespace goggles
