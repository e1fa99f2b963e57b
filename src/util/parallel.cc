#include "util/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include <pthread.h>
#include <signal.h>

#include "util/env.h"

namespace goggles {

int ComputeDefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
  // Zero and negative requests mean "auto" without a warning, as before
  // this knob was strictly parsed.
  const int64_t n =
      GetEnvRangedIntOr("GOGGLES_NUM_THREADS", fallback,
                        std::numeric_limits<int64_t>::min(), kMaxNumThreads);
  return n < 1 ? fallback : static_cast<int>(n);
}

int DefaultNumThreads() {
  static int cached = ComputeDefaultNumThreads();
  return cached;
}

namespace {
// > 0 on threads that must not fan out nested kernel parallelism: while
// running a ParallelFor* chunk, on a pool worker, or under a
// ScopedSerialKernels marker.
thread_local int t_serial_kernel_depth = 0;

/// One ParallelForChunked call in flight: [begin, end) in `num_chunks`
/// chunks of `chunk` indices (the last may be shorter). Lives on the
/// caller's stack; `next` and `unfinished` are guarded by the pool mutex.
struct Job {
  Job(const std::function<void(int64_t, int64_t)>& fn, int64_t begin,
      int64_t end, int64_t max_chunks)
      : fn(fn),
        begin(begin),
        end(end),
        chunk((end - begin + max_chunks - 1) / max_chunks),
        num_chunks((end - begin + chunk - 1) / chunk),
        unfinished(num_chunks) {}

  // noexcept: an exception escaping a chunk terminates the process, as
  // it did when chunks ran on threads of their own, instead of unwinding
  // the caller past a job the workers still reference.
  void RunChunk(int64_t index) const noexcept {
    const int64_t lo = begin + index * chunk;
    ScopedSerialKernels nested_guard;
    fn(lo, std::min(end, lo + chunk));
  }

  const std::function<void(int64_t, int64_t)>& fn;
  const int64_t begin, end, chunk, num_chunks;
  int64_t next = 1;  // next unclaimed chunk; the caller pre-claims chunk 0
  int64_t unfinished;
  std::condition_variable done;
};

/// The process-wide kernel pool: DefaultNumThreads() - 1 long-lived
/// workers, created on first use and joined at exit. Queued jobs are
/// served oldest first.
class KernelPool {
 public:
  explicit KernelPool(int num_workers) {
    // Workers are created with every signal blocked, whatever the mask of
    // the thread that first used the pool: a process-directed signal
    // (SIGTERM for the serve binary's drain) must land on a thread that
    // expects it, never on a kernel worker.
    sigset_t all, previous;
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &previous);
    workers_.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  }

  ~KernelPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

  static KernelPool& Instance() {
    static KernelPool pool(DefaultNumThreads() - 1);
    return pool;
  }

  /// Runs every chunk of `job` and returns once all have finished. The
  /// caller runs chunk 0, then keeps claiming its own job's chunks until
  /// none are left, so it only ever waits on chunks already running on a
  /// worker: concurrent callers cannot deadlock, and a pool with no
  /// workers degrades to a serial loop.
  void Run(Job* job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(job);
    }
    const int64_t helpers = std::min(
        job->num_chunks - 1, static_cast<int64_t>(workers_.size()));
    for (int64_t h = 0; h < helpers; ++h) work_.notify_one();
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    for (int64_t index = 0;;) {
      job->RunChunk(index);
      lock.lock();
      --job->unfinished;
      if (job->next == job->num_chunks) break;
      index = Claim(job);
      lock.unlock();
    }
    job->done.wait(lock, [job] { return job->unfinished == 0; });
  }

 private:
  /// Claims the job's next chunk; the claim of its last chunk unqueues
  /// it. Requires `mu_` and an unclaimed chunk.
  int64_t Claim(Job* job) {
    const int64_t index = job->next++;
    if (job->next == job->num_chunks) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    }
    return index;
  }

  void WorkerLoop() {
    ScopedSerialKernels worker_guard;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to help
      Job* job = queue_.front();
      const int64_t index = Claim(job);
      lock.unlock();
      job->RunChunk(index);
      lock.lock();
      // Notified under the mutex: the caller cannot observe zero and
      // destroy the job before this notify has returned.
      if (--job->unfinished == 0) job->done.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable work_;
  std::deque<Job*> queue_;  // jobs with unclaimed chunks, oldest first
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace

int EffectiveNumThreads(int num_threads) {
  if (t_serial_kernel_depth > 0) return 1;
  return num_threads > 0 ? num_threads : DefaultNumThreads();
}

ScopedSerialKernels::ScopedSerialKernels() { ++t_serial_kernel_depth; }
ScopedSerialKernels::~ScopedSerialKernels() { --t_serial_kernel_depth; }

void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int num_threads) {
  if (end <= begin) return;
  const int64_t workers =
      std::min<int64_t>(EffectiveNumThreads(num_threads), end - begin);
  if (workers <= 1) {
    fn(begin, end);
    return;
  }
  Job job(fn, begin, end, workers);
  KernelPool::Instance().Run(&job);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn, int num_threads) {
  ParallelForChunked(
      begin, end,
      [&fn](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      },
      num_threads);
}

}  // namespace goggles
