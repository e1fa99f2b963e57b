#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/logging.h"
#include "util/parallel.h"

/// \file pipeline.h
/// \brief Static staged flowgraph executor — the serving hot path's
/// backbone (decode → extract → infer).
///
/// A Pipeline<Item> is a fixed linear chain of stages, each on its own
/// small thread pool, and each stage owns one intake queue: a mutex, a
/// `not_empty` condition variable, a FIFO and a count of upstream
/// producers still open. Every worker of the stage waits on that queue
/// and takes *whatever it holds* up to `max_batch` items per wakeup —
/// natural micro-batching with zero added latency: a lone item is
/// processed immediately, a burst is processed together, and an idle
/// worker takes any queued item while a sibling is busy.
///
/// Every wait is a predicate wait under the queue's mutex, so no wakeup
/// can be lost. Idle workers wait with no timeout; the only timed wait
/// is the opt-in stall watchdog's. Queues are unbounded: Submit() never
/// waits, and the external caller bounds how many items it has in
/// flight (admission control), which bounds every queue too.
///
/// A worker only takes, runs and pushes: it runs its stage function
/// under ScopedSerialKernels, so the kernels inside stay on the worker
/// and the stage thread counts alone set how wide the graph runs.
///
/// Shutdown cascades: Drain() closes stage 0's queue; each exiting
/// worker decrements the next stage's open-producer count once, so stage
/// s+1 sees end-of-stream only after all of stage s has flushed. Items
/// reach the sink exactly once, in some interleaved order (the serving
/// gateway re-sequences them). Nothing is duplicated, dropped or mutated
/// outside the stage functions, so with per-item deterministic stages
/// the (item, result) pairs are identical at any thread/stage count.

namespace goggles {

/// \brief Per-stage tuning knobs.
struct PipelineStageConfig {
  /// Stage name surfaced in stats (e.g. "extract").
  std::string name;
  /// Worker threads for this stage (clamped to >= 1).
  int num_threads = 1;
  /// Max items handed to one stage-function call. Workers never wait
  /// to fill a batch — this only caps how much of a burst is grouped.
  int max_batch = 1;
};

/// \brief Snapshot of one stage's counters for the `stats` op.
struct PipelineStageStats {
  std::string name;
  int num_threads = 0;
  /// Items sitting in this stage's intake queue at snapshot time.
  size_t queue_depth = 0;
  /// Items that entered the stage function.
  uint64_t items = 0;
  /// Stage-function invocations (batches). items / batches = mean
  /// effective batch size.
  uint64_t batches = 0;
  /// Times the watchdog caught a worker inside one stage-function call
  /// for longer than the stall budget (0 when the watchdog is off). One
  /// stuck call counts once, not once per watchdog sweep.
  uint64_t stalls = 0;
};

/// \brief Fixed linear flowgraph of batch-capable stages, one intake
/// queue per stage. Build with AddStage (in flow order), then Start,
/// then Submit items from ONE thread; Drain flushes and joins. Not
/// reusable after Drain.
template <typename Item>
class Pipeline {
 public:
  /// Stage body: consumes/transforms `items` in place; every element
  /// still present on return is forwarded to the next stage (or sink).
  using BatchFn = std::function<void(std::vector<Item>&)>;
  /// Terminal consumer, called by last-stage workers (possibly
  /// concurrently — must be thread-safe).
  using SinkFn = std::function<void(Item&&)>;

  Pipeline() = default;
  ~Pipeline() { Drain(); }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// \brief Arms the stall watchdog: a monitor thread started by
  /// Start() that flags any worker spending longer than `budget_micros`
  /// inside one stage-function call (PipelineStageStats::stalls and a
  /// warning log). 0 (default) = no monitor thread and no per-batch
  /// timestamp stores. Must be called before Start().
  void SetWatchdogBudgetMicros(int64_t budget_micros) {
    if (!started_) watchdog_budget_micros_ = budget_micros > 0 ? budget_micros : 0;
  }

  /// \brief Appends a stage. Must be called before Start().
  void AddStage(PipelineStageConfig config, BatchFn fn) {
    if (started_) return;
    if (config.num_threads < 1) config.num_threads = 1;
    if (config.max_batch < 1) config.max_batch = 1;
    auto stage = std::make_unique<Stage>();
    stage->config = std::move(config);
    stage->fn = std::move(fn);
    stage->watch = std::vector<WorkerWatch>(
        static_cast<size_t>(stage->config.num_threads));
    stages_.push_back(std::move(stage));
  }

  /// \brief Launches every stage's workers.
  void Start(SinkFn sink) {
    if (started_ || stages_.empty()) return;
    started_ = true;
    sink_ = std::move(sink);
    for (size_t s = 0; s < stages_.size(); ++s) {
      stages_[s]->open_producers =
          s == 0 ? 1 : stages_[s - 1]->config.num_threads;
    }
    for (size_t s = 0; s < stages_.size(); ++s) {
      for (int w = 0; w < stages_[s]->config.num_threads; ++w) {
        stages_[s]->threads.emplace_back([this, s, w] { WorkerLoop(s, w); });
      }
    }
    if (watchdog_budget_micros_ > 0) {
      watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
    }
  }

  /// \brief Feeds one item into stage 0 (single external producer).
  /// Never waits: the caller bounds how many items it has in flight.
  /// Fails only before Start() or after Drain().
  bool Submit(Item&& item) {
    if (!started_ || drained_) return false;
    Push(*stages_[0], std::move(item));
    return true;
  }

  /// \brief Closes the intake, waits for every in-flight item to reach
  /// the sink, and joins all workers. Idempotent; called by ~Pipeline.
  void Drain() {
    if (!started_ || drained_) return;
    drained_ = true;
    CloseOneProducer(*stages_[0]);
    for (auto& stage : stages_) {
      for (auto& t : stage->threads) t.join();
      stage->threads.clear();
    }
    if (watchdog_thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(watchdog_mu_);
        watchdog_stop_ = true;
      }
      watchdog_cv_.notify_all();
      watchdog_thread_.join();
    }
  }

  /// \brief Per-stage counters + live queue depths (approximate while
  /// the pipeline is running).
  std::vector<PipelineStageStats> Stats() const {
    std::vector<PipelineStageStats> out;
    out.reserve(stages_.size());
    for (const auto& stage : stages_) {
      PipelineStageStats s;
      s.name = stage->config.name;
      s.num_threads = stage->config.num_threads;
      {
        std::lock_guard<std::mutex> lock(stage->mu);
        s.queue_depth = stage->queue.size();
      }
      s.items = stage->items.load(std::memory_order_relaxed);
      s.batches = stage->batches.load(std::memory_order_relaxed);
      s.stalls = stage->stalls.load(std::memory_order_relaxed);
      out.push_back(std::move(s));
    }
    return out;
  }

 private:
  /// One worker's watchdog slot.
  struct WorkerWatch {
    /// MonotonicMicros() when the worker entered its current stage call,
    /// 0 outside one. Written only when the watchdog is armed.
    std::atomic<int64_t> batch_start{0};
    /// Last `batch_start` the watchdog flagged (watchdog thread only).
    int64_t flagged_start = 0;
  };

  /// One stage: its intake queue (`queue` and `open_producers` are
  /// guarded by `mu`), its workers and its counters.
  struct Stage {
    PipelineStageConfig config;
    BatchFn fn;
    std::mutex mu;
    std::condition_variable not_empty;
    std::deque<Item> queue;
    /// Upstream producers that may still push; 0 with `queue` empty is
    /// end-of-stream for the stage's workers.
    int open_producers = 0;
    std::vector<WorkerWatch> watch;  // one per worker
    std::vector<std::thread> threads;
    std::atomic<uint64_t> items{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> stalls{0};
  };

  /// Appends `item` to `st`'s queue and wakes one of its workers.
  static void Push(Stage& st, Item&& item) {
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.queue.push_back(std::move(item));
    }
    st.not_empty.notify_one();
  }

  /// One producer of `st` is done: wakes every worker to notice.
  static void CloseOneProducer(Stage& st) {
    {
      std::lock_guard<std::mutex> lock(st.mu);
      --st.open_producers;
    }
    st.not_empty.notify_all();
  }

  void WorkerLoop(size_t stage_idx, int worker) {
    ScopedSerialKernels serial_kernels;
    Stage& st = *stages_[stage_idx];
    WorkerWatch& watch = st.watch[static_cast<size_t>(worker)];
    Stage* next = stage_idx + 1 < stages_.size()
                      ? stages_[stage_idx + 1].get()
                      : nullptr;
    const size_t max_batch = static_cast<size_t>(st.config.max_batch);
    std::vector<Item> batch;
    batch.reserve(max_batch);

    while (true) {
      batch.clear();
      {
        std::unique_lock<std::mutex> lock(st.mu);
        st.not_empty.wait(lock, [&st] {
          return !st.queue.empty() || st.open_producers == 0;
        });
        while (!st.queue.empty() && batch.size() < max_batch) {
          batch.push_back(std::move(st.queue.front()));
          st.queue.pop_front();
        }
        if (batch.empty()) break;  // closed and drained
      }
      st.items.fetch_add(batch.size(), std::memory_order_relaxed);
      st.batches.fetch_add(1, std::memory_order_relaxed);
      const bool timed = watchdog_budget_micros_ > 0;
      if (timed) {
        watch.batch_start.store(MonotonicMicros(), std::memory_order_relaxed);
      }
      st.fn(batch);
      if (timed) watch.batch_start.store(0, std::memory_order_relaxed);
      for (auto& item : batch) {
        if (next != nullptr) {
          Push(*next, std::move(item));
        } else {
          sink_(std::move(item));
        }
      }
    }
    // Cascade end-of-stream only after everything this worker will ever
    // produce has been pushed.
    if (next != nullptr) CloseOneProducer(*next);
  }

  /// Samples every worker's batch timestamp and counts each stage-function
  /// call that overruns the budget exactly once (keyed by its start time).
  void WatchdogLoop() {
    const int64_t budget = watchdog_budget_micros_;
    const int64_t sweep_micros = std::max<int64_t>(budget / 4, 1000);
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    while (!watchdog_stop_) {
      watchdog_cv_.wait_for(lock, std::chrono::microseconds(sweep_micros));
      if (watchdog_stop_) break;
      const int64_t now = MonotonicMicros();
      for (auto& stage : stages_) {
        for (size_t w = 0; w < stage->watch.size(); ++w) {
          WorkerWatch& watch = stage->watch[w];
          const int64_t start =
              watch.batch_start.load(std::memory_order_relaxed);
          if (start == 0 || now - start < budget) continue;
          if (watch.flagged_start == start) continue;  // same stuck call
          watch.flagged_start = start;
          stage->stalls.fetch_add(1, std::memory_order_relaxed);
          GOGGLES_LOG(WARNING)
              << "pipeline watchdog: stage '" << stage->config.name
              << "' worker " << w << " stuck in one batch for "
              << (now - start) << "us (budget " << budget << "us)";
        }
      }
    }
  }

  std::vector<std::unique_ptr<Stage>> stages_;
  SinkFn sink_;
  bool started_ = false;
  bool drained_ = false;
  int64_t watchdog_budget_micros_ = 0;
  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace goggles
