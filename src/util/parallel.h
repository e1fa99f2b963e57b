#pragma once

#include <cstdint>
#include <functional>

/// \file parallel.h
/// \brief Minimal data-parallel helpers used by the compute kernels.

namespace goggles {

/// \brief Number of worker threads to use by default.
///
/// Resolves, in order: the `GOGGLES_NUM_THREADS` environment variable
/// (strictly parsed; malformed values are ignored), then
/// `std::thread::hardware_concurrency()`, with a floor of 1. The result is
/// computed once and cached for the lifetime of the process.
int DefaultNumThreads();

/// \brief Uncached variant of DefaultNumThreads(): re-reads the
/// environment on every call. Intended for tests; production code should
/// use DefaultNumThreads().
int ComputeDefaultNumThreads();

/// \brief Runs `fn(i)` for every i in [begin, end) across worker threads.
///
/// The range is split into contiguous chunks, one batch per worker. `fn`
/// must be safe to invoke concurrently for distinct indices. Falls back to
/// a serial loop when the range is small or one thread is requested.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn,
                 int num_threads = 0);

/// \brief Runs `fn(chunk_begin, chunk_end)` over disjoint chunks covering
/// [begin, end). Useful when per-iteration work is tiny.
///
/// Nested parallelism collapses to serial: a call made from inside a
/// ParallelFor* worker (or under a ScopedSerialKernels marker) runs the
/// whole range on the calling thread instead of spawning another layer
/// of threads — kernels that parallelize internally (SGemm, conv) can be
/// called freely from already-parallel code without oversubscription.
/// All in-repo kernels are bit-deterministic across thread counts, so
/// the collapse never changes results.
void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int num_threads = 0);

/// \brief RAII marker: while alive on this thread, ParallelFor* runs
/// serially (as if num_threads == 1). For coarse-grained worker threads
/// that already saturate the cores — the fine-grained kernel parallelism
/// below them would only oversubscribe.
class ScopedSerialKernels {
 public:
  ScopedSerialKernels();
  ~ScopedSerialKernels();
  ScopedSerialKernels(const ScopedSerialKernels&) = delete;
  ScopedSerialKernels& operator=(const ScopedSerialKernels&) = delete;
};

/// \brief RAII executor-aware token: while alive on this thread,
/// ParallelFor* spawns at most `max_threads` workers (1 = fully serial,
/// the ScopedSerialKernels behavior). Budgets compose by taking the
/// minimum, so a stage worker that grants its kernels 4 threads cannot
/// be widened again by nested code asking for more.
///
/// The serving flowgraph (util/pipeline.h) installs one of these on
/// every stage worker: N stage threads each running kernels capped at
/// ~cores/N collapse to the machine width instead of oversubscribing
/// N x cores the way unbudgeted nested ParallelFor would. The binary
/// ScopedSerialKernels marker still wins when present (depth beats
/// budget): a worker inside another ParallelFor never re-forks.
class ScopedKernelThreadBudget {
 public:
  explicit ScopedKernelThreadBudget(int max_threads);
  ~ScopedKernelThreadBudget();
  ScopedKernelThreadBudget(const ScopedKernelThreadBudget&) = delete;
  ScopedKernelThreadBudget& operator=(const ScopedKernelThreadBudget&) =
      delete;

  /// \brief The budget active on this thread (0 = unlimited).
  static int Current();

 private:
  int previous_;
};

}  // namespace goggles
