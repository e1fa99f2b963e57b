#pragma once

#include <cstdint>
#include <functional>

/// \file parallel.h
/// \brief Minimal data-parallel helpers used by the compute kernels.
///
/// Every ParallelFor* call that fans out runs on one process-wide pool of
/// DefaultNumThreads() - 1 long-lived workers, created on first use: no
/// call spawns a thread. The calling thread runs the first chunk itself
/// and keeps claiming its own call's chunks until none are left, so
/// concurrent callers share the pool without deadlock. A call made from
/// inside a chunk runs inline.

namespace goggles {

/// \brief Largest `GOGGLES_NUM_THREADS` value honoured; larger requests
/// fall back to hardware concurrency instead of spawning that many pool
/// workers.
inline constexpr int kMaxNumThreads = 4096;

/// \brief Number of worker threads to use by default.
///
/// Resolves, in order: the `GOGGLES_NUM_THREADS` environment variable
/// (strictly parsed; malformed values, values < 1 and values above
/// kMaxNumThreads are ignored), then
/// `std::thread::hardware_concurrency()`, with a floor of 1. The result is
/// computed once and cached for the lifetime of the process.
int DefaultNumThreads();

/// \brief Uncached variant of DefaultNumThreads(): re-reads the
/// environment on every call. Intended for tests; production code should
/// use DefaultNumThreads().
int ComputeDefaultNumThreads();

/// \brief How many chunks a ParallelFor* call from this thread asking for
/// `num_threads` (<= 0 = DefaultNumThreads()) would split into, before
/// capping by the range length: 1 inside a chunk or under
/// ScopedSerialKernels, otherwise `num_threads`. Kernels that pick a
/// strategy by width ask this, not DefaultNumThreads().
int EffectiveNumThreads(int num_threads = 0);

/// \brief Runs `fn(i)` for every i in [begin, end) on the kernel pool.
///
/// The range is split into EffectiveNumThreads(num_threads) contiguous
/// chunks; the caller runs one of them. `fn` must be safe to invoke
/// concurrently for distinct indices. Falls back to a serial loop when
/// the range is small or one thread is requested.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn,
                 int num_threads = 0);

/// \brief Runs `fn(chunk_begin, chunk_end)` over disjoint chunks covering
/// [begin, end). Useful when per-iteration work is tiny.
///
/// Chunk boundaries depend only on the range and the effective width,
/// never on which thread runs a chunk. Nested parallelism collapses to
/// serial: a call made from inside a chunk (or under a
/// ScopedSerialKernels marker) runs the whole range on the calling thread
/// instead of queueing more pool work — kernels that parallelize
/// internally (SGemm, conv) can be called freely from already-parallel
/// code without oversubscription. All in-repo kernels are
/// bit-deterministic across thread counts, so the collapse never changes
/// results.
void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int num_threads = 0);

/// \brief RAII marker: while alive on this thread, ParallelFor* runs
/// serially (as if num_threads == 1). For coarse-grained worker threads
/// that already saturate the cores — the fine-grained kernel parallelism
/// below them would only oversubscribe. Every serve stage worker
/// (util/pipeline.h) runs under one: a request's kernels stay on the
/// worker that took it, and the stage thread counts set the serve width.
class ScopedSerialKernels {
 public:
  ScopedSerialKernels();
  ~ScopedSerialKernels();
  ScopedSerialKernels(const ScopedSerialKernels&) = delete;
  ScopedSerialKernels& operator=(const ScopedSerialKernels&) = delete;
};

}  // namespace goggles
