#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "linalg/matrix.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/status.h"

/// \file em_core.h
/// \brief The EM fit core shared by both mixtures (DiagonalGmm,
/// BernoulliMixture): the multi-restart driver, its E/M-step building
/// blocks and the posterior.
///
/// Both mixtures cast their E-step as one N x K product of the design
/// against a per-component parameter panel plus a per-component additive
/// offset, and their M-step as one D x K product of the transposed
/// design against the responsibilities. Each product is one kernel
/// (tensor/gemm.h EmEStepProducts, EmMStepProducts) that reads the slice
/// itself — float when the fit streams affinity blocks, double for a
/// Matrix — and squares it on the fly for the Gaussian [x² | x], which is
/// never stored: bit-equal to DGemmReference on the widened design at any
/// thread count and ISA tier (tests/gmm_gemm_test.cc). Everything that is
/// NOT a product (the log-softmax epilogue, responsibility exp, column
/// sums) is implemented once here, so whole EM trajectories are
/// bit-identical across thread counts, tiers and slice types. So is
/// everything that is not model-specific: FitBestRestart owns the restart
/// loop, the iteration and its stop rule, and the best-restart pick; a
/// mixture supplies only its init, its E-step panel and its per-component
/// parameter update.

namespace goggles {
namespace em {

/// \brief A read-only row-major slice: `rows` x `cols` elements, row r
/// at data + r * stride, e.g. an affinity function's slice in its block.
template <typename T>
struct Slice {
  const T* data = nullptr;
  int64_t rows = 0, cols = 0, stride = 0;
};

/// \brief The slice of all of `m`.
inline Slice<double> WholeMatrix(const Matrix& m) {
  return {m.data(), m.rows(), m.cols(), m.cols()};
}

/// \brief The constant design of one EM fit: the slice, which the
/// M-step reads in place, and its transposed copy in the panel layout of
/// EmEStepProducts (zero past slice.rows), which the E-step reads. `squares`
/// selects the Gaussian design [x² | x] over the plain (Bernoulli) x.
template <typename T>
struct Design {
  Slice<T> slice;
  bool squares = false;
  const T* transposed = nullptr;
};

/// \brief Reshapes `m` to rows x cols, only when its shape differs (so a
/// reused output does not allocate).
inline void EnsureShape(int64_t rows, int64_t cols, Matrix* m) {
  if (m->rows() != rows || m->cols() != cols) *m = Matrix(rows, cols);
}

/// \brief The design of `x`, its transposed copy written into `storage`,
/// which grows only when too small: one storage serves any number of
/// sequential fits, and a same-shape fit allocates nothing.
template <typename T>
Design<T> MakeDesign(const Slice<T>& x, bool squares,
                     std::vector<T>* storage) {
  constexpr int64_t kP = kEmRowAlign;
  const int64_t n = x.rows, d = x.cols, panels = (n + kP - 1) / kP;
  if (storage->size() < static_cast<size_t>(panels * d * kP)) {
    storage->resize(static_cast<size_t>(panels * d * kP));
  }
  for (int64_t i = 0; i < panels * kP; ++i) {
    T* dst = storage->data() + i / kP * d * kP + i % kP;
    const T* row = x.data + (i < n ? i : 0) * x.stride;
    for (int64_t j = 0; j < d; ++j) dst[j * kP] = i < n ? row[j] : T{0};
  }
  return Design<T>{x, squares, storage->data()};
}

/// \brief out = design · panelᵀ (EmEStepProducts) for a panel of W
/// columns; out is reshaped to N x panel.rows() only when its shape
/// differs (reusable across EM iterations).
template <typename T>
void EStepProducts(const Design<T>& x, const Matrix& panel, Matrix* out) {
  const Slice<T>& s = x.slice;
  EnsureShape(s.rows, panel.rows(), out);
  EmEStepProducts(x.transposed, s.rows, s.cols, x.squares, panel.data(),
                  panel.rows(), out->data());
}

/// \brief out = designᵀ · resp (EmMStepProducts) for resp (N x k); out is
/// reshaped to W x k only when its shape differs. The output is the
/// *transpose* of the textbook M-step moment matrix — callers index it
/// (dimension, component).
template <typename T>
void MStepProducts(const Design<T>& x, const Matrix& resp, Matrix* out) {
  const Slice<T>& s = x.slice;
  EnsureShape(x.squares ? 2 * s.cols : s.cols, resp.cols(), out);
  EmMStepProducts(s.data, s.stride, s.rows, s.cols, x.squares, resp.data(),
                  resp.cols(), out->data());
}

/// \brief One row of LogSoftmaxRowsInPlace: adds offsets[c] to row[c]
/// for c < k, replaces the row by its log-softmax and returns its
/// LogSumExp.
double LogSoftmaxRowInPlace(const double* offsets, int64_t k, double* row);

/// \brief Fused E-step epilogue, in place and allocation-free: adds
/// offsets[c] to every row's entry c, replaces each row by its
/// log-softmax (row - LogSumExp(row)), and returns the summed row
/// LogSumExp values — the data log-likelihood when the input holds
/// per-component log joint densities.
double LogSoftmaxRowsInPlace(const std::vector<double>& offsets,
                             Matrix* densities);

/// \brief resp = exp(log_resp) elementwise (resp may alias log_resp);
/// resp is reshaped only when its shape differs. The posterior's exp:
/// Posterior keeps every value, subnormals included.
void ExpInto(const Matrix& log_resp, Matrix* resp);

/// \brief The M-step's responsibilities: resp = exp(log_resp) as ExpInto,
/// except that every entry below std::numeric_limits<double>::min()
/// (DBL_MIN, i.e. every subnormal) is written as +0.0. NaN propagates
/// unchanged; entries >= DBL_MIN equal std::exp bit for bit. resp may
/// alias log_resp.
///
/// Saturated posteriors leave a few subnormal responsibilities per
/// iteration, and an FMA with a subnormal operand or result takes a
/// microcode assist (~50 ns against ~1 ns on AVX-512 Xeons) — enough to
/// make the M-step product 2–3x slower than the E-step product of the
/// same FLOPs. A subnormal term r·x with |x| <= 1 is absorbed
/// exactly by any partial sum of at least about 2^-968, so flushing can
/// change a moment only where a whole k-chunk of a component's column
/// stays below that level: an essentially empty component. No MXCSR
/// DAZ/FTZ is set; the products keep their DGemmReference contract.
void ResponsibilitiesInto(const Matrix& log_resp, Matrix* resp);

/// \brief Fixed-order per-column sums (ascending rows into one
/// accumulator per column): out[c] = sum_i m(i, c).
void ColumnSums(const Matrix& m, std::vector<double>* out);

/// \brief Checks restored mixture weights (SetParameters): exactly `k`
/// entries, each finite and non-negative, not all zero. The error
/// message is prefixed with `who`.
Status ValidateWeights(const std::vector<double>& weights, int64_t k,
                       const char* who);

/// \brief Per-restart scratch of the EM driver, reused across iterations.
/// FitBestRestart also keeps one for the stack of live restarts, whose
/// fields then hold every live restart's K columns (or panel rows) side
/// by side, in restart order.
struct Scratch {
  Matrix panel;                 ///< K x W E-step parameter panel
  std::vector<double> offsets;  ///< per-component E-step offsets
  Matrix log_resp;              ///< N x K log responsibilities
  Matrix resp;                  ///< N x K responsibilities
  std::vector<double> nk;       ///< per-component responsibility mass
  Matrix moments;               ///< W x K product design^T * resp
};

/// \brief M-step from `s->log_resp`: the shared prefix (responsibilities
/// by ResponsibilitiesInto, their column sums nk, and moments =
/// design^T * resp), then the model's `update(nk, moments, first, state)`
/// of its per-component parameters, which reads component c's mass and
/// moments at column first + c (first = 0 here).
template <typename T, typename State, typename Update>
void MStep(const Design<T>& x, const Update& update, Scratch* s,
           State* state) {
  ResponsibilitiesInto(s->log_resp, &s->resp);
  ColumnSums(s->resp, &s->nk);
  MStepProducts(x, s->resp, &s->moments);
  update(s->nk, s->moments, 0, state);
}

/// \brief Fits a mixture by multi-restart EM and keeps the best restart.
///
/// The design `x` is shared read-only by every restart and iteration.
/// Restart r starts from `init(&rng, &scratch)` with
/// rng = Rng(config.seed).Fork(r)
/// (an init may MStep on responsibilities it writes to scratch.log_resp);
/// the inits run first, serially, in restart order. Each iteration is an
/// E-step — `build_panel(state, &panel, &offsets)`, the design · panelᵀ
/// product, the log-softmax epilogue, whose LL joins the history — then
/// an M-step on ResponsibilitiesInto's flushed responsibilities, as
/// MStep's, so both mixtures share one definition of a responsibility —
/// until config.max_iters or an LL gain below config.tol.
///
/// The restarts run in lockstep: an iteration stacks the live restarts'
/// K x W panels into one (live·K) x W panel, so one E-step and one M-step
/// product serve all of them, and each streams the design once. Per
/// element the stacked products keep DGemmReference's accumulation order
/// (independent of the column count), and the epilogue, exp and column
/// sums work per column, so every restart follows the trajectory it
/// would follow alone, bit for bit. A restart that meets its stop rule
/// leaves the stack after that iteration's M-step. Nothing here fans
/// out: the product kernels parallelize inside (serially when nested in
/// an outer ParallelFor or under ScopedSerialKernels), bit-identical at
/// any thread count. The pick is serial in restart order: the first
/// strict improvement of the final LL (0 for an empty history) wins and
/// is moved into `best_state` / `best_history` (untouched if none beats
/// -inf). Returns the winning final LL.
template <typename T, typename Config, typename State, typename Init,
          typename BuildPanel, typename Update>
double FitBestRestart(const Design<T>& x, const Config& config,
                      const Init& init, const BuildPanel& build_panel,
                      const Update& update, State* best_state,
                      std::vector<double>* best_history) {
  struct Run {
    State state;
    std::vector<double> history;
    Scratch s;
    double prev_ll = -std::numeric_limits<double>::infinity();
  };
  const Rng rng(config.seed);
  const int num_restarts = std::max(1, config.num_restarts);
  std::vector<Run> runs(static_cast<size_t>(num_restarts));
  std::vector<Run*> live;
  for (int restart = 0; restart < num_restarts; ++restart) {
    Rng restart_rng = rng.Fork(static_cast<uint64_t>(restart));
    Run& run = runs[static_cast<size_t>(restart)];
    run.state = init(&restart_rng, &run.s);
    live.push_back(&run);
  }

  Scratch stack;
  std::vector<double> lls;
  const int64_t n = x.slice.rows;
  for (int iter = 0; iter < config.max_iters && !live.empty(); ++iter) {
    // E-step: one product against the live restarts' stacked panels.
    const int64_t lanes = static_cast<int64_t>(live.size());
    int64_t k = 0, lane = 0;
    for (Run* run : live) {
      Scratch& s = run->s;
      build_panel(run->state, &s.panel, &s.offsets);
      k = s.panel.rows();
      EnsureShape(lanes * k, s.panel.cols(), &stack.panel);
      std::copy(s.panel.data(), s.panel.data() + s.panel.size(),
                stack.panel.RowPtr(lane++ * k));
    }
    EStepProducts(x, stack.panel, &stack.log_resp);
    lls.assign(static_cast<size_t>(lanes), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      double* row = stack.log_resp.RowPtr(i);
      for (int64_t l = 0; l < lanes; ++l) {
        lls[static_cast<size_t>(l)] += LogSoftmaxRowInPlace(
            live[static_cast<size_t>(l)]->s.offsets.data(), k, row + l * k);
      }
    }

    // M-step: one product against all lanes' responsibilities, with no
    // subnormal operand (ResponsibilitiesInto); each restart's update
    // reads its own K columns, from column l·K on.
    ResponsibilitiesInto(stack.log_resp, &stack.resp);
    ColumnSums(stack.resp, &stack.nk);
    MStepProducts(x, stack.resp, &stack.moments);
    size_t kept = 0;
    for (int64_t l = 0; l < lanes; ++l) {
      Run& run = *live[static_cast<size_t>(l)];
      update(stack.nk, stack.moments, l * k, &run.state);
      const double ll = lls[static_cast<size_t>(l)];
      run.history.push_back(ll);
      const bool stop = iter > 0 && ll - run.prev_ll < config.tol;
      run.prev_ll = ll;
      if (!stop) live[kept++] = &run;
    }
    live.resize(kept);
  }

  double best_ll = -std::numeric_limits<double>::infinity();
  Run* best = nullptr;
  for (Run& run : runs) {
    const double final_ll = run.history.empty() ? 0.0 : run.history.back();
    if (final_ll > best_ll) {
      best_ll = final_ll;
      best = &run;
    }
  }
  if (best != nullptr) {
    *best_state = std::move(best->state);
    *best_history = std::move(best->history);
  }
  return best_ll;
}

/// \brief Posterior responsibilities of the rows of `x` under `params`:
/// the E-step of FitBestRestart with the same `build_panel`, then the
/// plain ExpInto, not the M-step's ResponsibilitiesInto: fit-time LPs,
/// served soft labels and saved artifacts keep every exact value.
template <typename T, typename BuildPanel, typename State>
Matrix Posterior(const Design<T>& x, const BuildPanel& build_panel,
                 const State& params) {
  Matrix panel, proba;
  std::vector<double> offsets;
  build_panel(params, &panel, &offsets);
  EStepProducts(x, panel, &proba);
  LogSoftmaxRowsInPlace(offsets, &proba);
  ExpInto(proba, &proba);
  return proba;
}

}  // namespace em
}  // namespace goggles
