#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "tensor/gemm.h"

/// \file em_core.h
/// \brief Shared linear-algebra building blocks of the EM fit cores
/// (DiagonalGmm, BernoulliMixture).
///
/// Both mixtures cast their E-step as one N x K matrix product against a
/// per-component parameter panel plus a per-component additive offset,
/// and their M-step as one D x K product of the (augmented) design matrix
/// against the responsibilities. The products run on one of two engines:
/// the packed, blocked, parallel DGemm, or the retained serial scalar
/// reference (DGemmReference) — bit-identical by the accumulation
/// contract in tensor/gemm.h, which the tests enforce. Everything that is
/// NOT a matrix product (the log-softmax epilogue, responsibility
/// exponentiation, column sums) is implemented exactly once here and
/// shared by both engines, so whole EM trajectories are bit-identical
/// across engines and thread counts.

namespace goggles {
namespace em {

/// \brief Which kernel computes the E/M-step matrix products.
enum class Engine {
  kGemm,       ///< packed blocked DGemm (parallel; the production default)
  kReference,  ///< retained serial scalar reference (validation/debugging)
};

/// \brief The constant per-fit design matrix with its once-per-fit packed
/// forms. Every EM iteration multiplies the same N x D matrix; for the
/// skinny per-iteration products (the other operand has K = #components
/// columns) the transposing repack of this operand would dominate the
/// whole call, so both product orientations are packed up front and
/// shared read-only across restarts. Both engines keep `raw`; only the
/// GEMM engine builds the packs. An operand can be refilled for the next
/// fit: a same-shape design reuses every buffer without allocating.
struct FitOperand {
  Matrix raw;               ///< design matrix
  DGemmPackedA fwd;         ///< packed op(A) = design (E-step product)
  DGemmPackedA transposed;  ///< packed op(A) = design^T (M-step product)
};

/// \brief Builds the engine's form of `op->raw`: both packs on the GEMM
/// engine, in their existing storage; nothing on the reference engine.
void PackFitOperand(Engine engine, FitOperand* op);

/// \brief out = design * b^T for b (k x d); out is reshaped to n x k
/// only when its shape differs (reusable across EM iterations).
void ProductNT(const FitOperand& x, const Matrix& b, Engine engine,
               Matrix* out);

/// \brief out = a * b^T for a (n x d), b (k x d) — the unpacked variant
/// used by one-shot posterior evaluation (PredictProba); out is reshaped
/// to n x k only when its shape differs.
void ProductNT(const Matrix& a, const Matrix& b, Engine engine, Matrix* out);

/// \brief out = design^T * b for b (n x k); out is reshaped to d x k
/// only when its shape differs. The output is the *transpose* of the textbook
/// M-step moment matrix — callers index it (dimension, component) — so
/// the product's long dimension rides the fully-utilized row-tile side of
/// the kernel.
void ProductTB(const FitOperand& x, const Matrix& b, Engine engine,
               Matrix* out);

/// \brief Fused E-step epilogue, in place and allocation-free: adds
/// offsets[c] to every row's entry c, replaces each row by its
/// log-softmax (row - LogSumExp(row)), and returns the summed row
/// LogSumExp values — the data log-likelihood when the input holds
/// per-component log joint densities.
double LogSoftmaxRowsInPlace(const std::vector<double>& offsets,
                             Matrix* densities);

/// \brief resp = exp(log_resp) elementwise; resp is reshaped only when
/// its shape differs.
void ExpInto(const Matrix& log_resp, Matrix* resp);

/// \brief Fixed-order per-column sums (ascending rows into one
/// accumulator per column): out[c] = sum_i m(i, c).
void ColumnSums(const Matrix& m, std::vector<double>* out);

}  // namespace em
}  // namespace goggles
