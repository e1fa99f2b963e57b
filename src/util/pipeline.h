#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>

#include "util/clock.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/spsc_queue.h"

/// \file pipeline.h
/// \brief Static staged flowgraph executor over SPSC queue crossbars —
/// the serving hot path's backbone (decode → extract → infer → encode).
///
/// A Pipeline<Item> is a fixed linear chain of stages. Stage s with P
/// threads feeds stage s+1 with C threads through a P x C crossbar of
/// bounded SpscQueue<Item> edges, so every queue keeps the
/// single-producer/single-consumer contract and no lock is ever taken
/// on the data path. Consumers drain *whatever is available* up to
/// `max_batch` items per wakeup and hand the whole vector to the stage
/// function — natural micro-batching with zero added latency: a lone
/// item is processed immediately, a burst is processed together.
///
/// Waiting is done on per-consumer doorbells (mutex + condvar + an
/// atomic `sleeping` flag), and wakeups are exact. A parking consumer
/// raises the flag, then re-checks its queues; a producer publishes its
/// push (or Close()), then takes the flag down and notifies if it was
/// up. Both flag operations are seq_cst read-modify-writes of the same
/// atomic, so the later one sees the earlier: either the producer finds
/// the flag up, or the consumer's re-check finds the item (a Dekker
/// pairing). An idle consumer therefore sleeps with no timeout; the only
/// timed wait is the batch-gather window, held only with a partial
/// batch. The condition this relies on: every push onto an edge and
/// every Close() of an edge is followed by a Ring() of that edge's
/// consumer.
///
/// Backpressure propagates upstream edge by edge: an internal producer
/// blocked on a full downstream queue spins/sleeps (counted in stats);
/// the *external* Submit() caller chooses block-vs-reject, which is
/// where admission control lives.
///
/// Shutdown cascades: Drain() closes stage 0's input queues; each
/// worker, after its inputs are closed and drained, closes the crossbar
/// row it produces into, so stage s+1 workers observe end-of-stream
/// only after every stage-s worker has flushed. Drain() then joins all
/// threads. Items reach the sink exactly once, in some interleaved
/// order — callers that need input order re-sequence downstream (the
/// serving gateway keys items by sequence number).
///
/// Ordering/determinism contract: the pipeline may reorder items across
/// threads but never duplicates, drops (short of explicit Submit
/// rejection), or mutates them outside the stage functions. If each
/// stage function is deterministic per item — true for all serving
/// stages by the repo's batch-equals-singleton kernel invariants — the
/// set of (item, result) pairs is identical at any thread/stage count.

namespace goggles {

/// \brief Per-stage tuning knobs.
struct PipelineStageConfig {
  /// Stage name surfaced in stats (e.g. "extract").
  std::string name;
  /// Worker threads for this stage (clamped to >= 1).
  int num_threads = 1;
  /// Capacity of EACH input edge feeding this stage (rounded up to a
  /// power of two by SpscQueue, clamped to >= 1 before rounding).
  int queue_capacity = 64;
  /// Max items handed to one stage-function call. With
  /// `batch_wait_micros` == 0 consumers never wait to fill a batch —
  /// this only caps how much of a burst is grouped.
  int max_batch = 1;
  /// Bounded batch-gather window: a consumer holding a PARTIAL batch
  /// parks up to this long for more arrivals before running the stage
  /// function (a full batch, a closed intake, or the deadline all
  /// release it immediately). 0 (default) = process whatever is
  /// available at once. Trades up to this much latency for larger
  /// batches — the amortization knob for stages whose per-batch work
  /// dedupes or fuses (the serve extract stage).
  int64_t batch_wait_micros = 0;
};

/// \brief Snapshot of one stage's counters for the `stats` op.
struct PipelineStageStats {
  std::string name;
  int num_threads = 0;
  /// Rounded per-edge capacity actually allocated.
  size_t queue_capacity = 0;
  /// Items sitting in this stage's input edges at snapshot time.
  size_t queue_depth = 0;
  /// Items that entered the stage function.
  uint64_t items = 0;
  /// Stage-function invocations (batches). items / batches = mean
  /// effective batch size.
  uint64_t batches = 0;
  /// Times a producer found every input edge of this stage full and had
  /// to wait (or, for stage 0 in reject mode, gave up).
  uint64_t backpressured = 0;
  /// Times the watchdog caught a worker inside one stage-function call
  /// for longer than the stall budget (0 when the watchdog is off). One
  /// stuck call counts once, not once per watchdog sweep.
  uint64_t stalls = 0;
};

namespace pipeline_internal {

/// \brief Doorbell::Wait() deadline meaning "until rung".
constexpr int64_t kNoDeadline = -1;

/// \brief Per-consumer parking spot. The consumer raises `sleeping`
/// with Park(), re-checks its queues, then waits until a producer's
/// Ring() takes the flag down. Park() and Ring() are seq_cst RMWs of
/// `sleeping`, so whichever runs second reads the other's effect: a
/// producer that pushed (or closed an edge) before ringing is either
/// seen by the consumer's re-check or finds the flag up and notifies.
/// No ring is lost, so no wait needs a timeout to recover one.
struct Doorbell {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> sleeping{false};

  /// \brief Producer side, called after every push onto and every
  /// Close() of one of this consumer's edges: takes the flag down and
  /// wakes the consumer if it was up.
  void Ring();

  /// \brief Consumer side: raises the flag. The caller then re-checks
  /// its queues and, if they offer nothing, calls Wait().
  void Park() { sleeping.exchange(true, std::memory_order_seq_cst); }

  /// \brief Sleeps until a Ring(), or until the MonotonicMicros()
  /// `deadline` unless it is kNoDeadline; then lowers the flag.
  void Wait(int64_t deadline);

  /// \brief Lowers the flag without waiting (the re-check found work).
  void Unpark() { sleeping.store(false, std::memory_order_relaxed); }
};

/// \brief Kernel-thread budget for each stage worker: an even split of
/// the machine width across all pipeline threads, floored at 1. Keeps
/// nested ParallelFor inside stage functions at ~machine width total
/// instead of stages x width.
int AutoKernelBudget(int total_pipeline_threads);

/// \brief Microseconds an internal producer sleeps between retries on a
/// full downstream edge.
constexpr int64_t kProducerRetrySleepMicros = 50;

}  // namespace pipeline_internal

/// \brief Fixed linear flowgraph of batch-capable stages over SPSC
/// edges. Build with AddStage (in flow order), then Start, then Submit
/// items from ONE thread; Drain flushes and joins. Not reusable after
/// Drain.
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
  /// inside a single stage-function call (surfaced as
  /// PipelineStageStats::stalls and a warning log). 0 (default)
  /// disables the watchdog entirely — no monitor thread, and workers
  /// skip the per-batch timestamp stores, so the off state costs
  /// nothing. Must be called before Start().
  void SetWatchdogBudgetMicros(int64_t budget_micros) {
    if (!started_) watchdog_budget_micros_ = budget_micros > 0 ? budget_micros : 0;
  }

  /// \brief Appends a stage. Must be called before Start().
  void AddStage(PipelineStageConfig config, BatchFn fn) {
    if (started_) return;
    if (config.num_threads < 1) config.num_threads = 1;
    if (config.queue_capacity < 1) config.queue_capacity = 1;
    if (config.max_batch < 1) config.max_batch = 1;
    if (config.batch_wait_micros < 0) config.batch_wait_micros = 0;
    auto stage = std::make_unique<Stage>();
    stage->config = std::move(config);
    stage->fn = std::move(fn);
    stages_.push_back(std::move(stage));
  }

  /// \brief Allocates the crossbars and launches every stage worker.
  void Start(SinkFn sink) {
    if (started_ || stages_.empty()) return;
    started_ = true;
    sink_ = std::move(sink);
    int total_threads = 0;
    for (const auto& s : stages_) total_threads += s->config.num_threads;
    kernel_budget_ = pipeline_internal::AutoKernelBudget(total_threads);
    for (size_t s = 0; s < stages_.size(); ++s) {
      Stage& st = *stages_[s];
      const int producers =
          s == 0 ? 1 : stages_[s - 1]->config.num_threads;
      const int consumers = st.config.num_threads;
      st.in.resize(static_cast<size_t>(producers));
      for (auto& row : st.in) {
        row.reserve(static_cast<size_t>(consumers));
        for (int c = 0; c < consumers; ++c) {
          row.push_back(std::make_unique<SpscQueue<Item>>(
              static_cast<size_t>(st.config.queue_capacity)));
        }
      }
      st.doorbells.resize(static_cast<size_t>(consumers));
      for (auto& db : st.doorbells) {
        db = std::make_unique<pipeline_internal::Doorbell>();
      }
      if (watchdog_budget_micros_ > 0) {
        st.batch_start.reserve(static_cast<size_t>(consumers));
        for (int c = 0; c < consumers; ++c) {
          st.batch_start.push_back(
              std::make_unique<std::atomic<int64_t>>(0));
        }
      }
    }
    for (size_t s = 0; s < stages_.size(); ++s) {
      Stage& st = *stages_[s];
      for (int c = 0; c < st.config.num_threads; ++c) {
        st.threads.emplace_back([this, s, c] { WorkerLoop(s, c); });
      }
    }
    if (watchdog_budget_micros_ > 0) {
      watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
    }
  }

  /// \brief Feeds one item into stage 0 (single external producer).
  ///
  /// `block` = true: waits (counted as stage-0 backpressure) until an
  /// edge frees up; only fails once Drain() closed the intake.
  /// `block` = false: returns false immediately when every stage-0 edge
  /// is full — the caller's admission-control rejection point. On
  /// false, `item` is left intact.
  bool Submit(Item&& item, bool block) {
    if (!started_ || drained_) return false;
    Stage& s0 = *stages_[0];
    const int consumers = s0.config.num_threads;
    bool counted_backpressure = false;
    while (true) {
      for (int i = 0; i < consumers; ++i) {
        const size_t c =
            static_cast<size_t>((submit_rr_ + static_cast<uint64_t>(i)) %
                                static_cast<uint64_t>(consumers));
        if (s0.in[0][c]->TryPush(item)) {
          ++submit_rr_;
          s0.doorbells[c]->Ring();
          return true;
        }
        if (s0.in[0][c]->closed()) return false;
      }
      if (!counted_backpressure) {
        counted_backpressure = true;
        s0.backpressured.fetch_add(1, std::memory_order_relaxed);
      }
      if (!block) return false;
      SleepForMicros(pipeline_internal::kProducerRetrySleepMicros);
    }
  }

  /// \brief Closes the intake, waits for every in-flight item to reach
  /// the sink, and joins all workers. Idempotent; called by ~Pipeline.
  void Drain() {
    if (!started_ || drained_) return;
    drained_ = true;
    Stage& s0 = *stages_[0];
    for (size_t c = 0; c < s0.in[0].size(); ++c) {
      s0.in[0][c]->Close();
      s0.doorbells[c]->Ring();
    }
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
      if (!stage->in.empty() && !stage->in[0].empty()) {
        s.queue_capacity = stage->in[0][0]->capacity();
      }
      for (const auto& row : stage->in) {
        for (const auto& q : row) s.queue_depth += q->size();
      }
      s.items = stage->items.load(std::memory_order_relaxed);
      s.batches = stage->batches.load(std::memory_order_relaxed);
      s.backpressured =
          stage->backpressured.load(std::memory_order_relaxed);
      s.stalls = stage->stalls.load(std::memory_order_relaxed);
      out.push_back(std::move(s));
    }
    return out;
  }

  /// \brief Sum of worker threads across stages.
  int TotalThreads() const {
    int n = 0;
    for (const auto& s : stages_) n += s->config.num_threads;
    return n;
  }

  /// \brief Kernel-thread budget each worker installs (0 before Start).
  int KernelBudget() const { return kernel_budget_; }

 private:
  struct Stage {
    PipelineStageConfig config;
    BatchFn fn;
    /// Input crossbar, in[producer][consumer]; stage 0 has one producer
    /// row (the external Submit caller).
    std::vector<std::vector<std::unique_ptr<SpscQueue<Item>>>> in;
    /// One parking spot per consumer thread.
    std::vector<std::unique_ptr<pipeline_internal::Doorbell>> doorbells;
    std::vector<std::thread> threads;
    std::atomic<uint64_t> items{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> backpressured{0};
    std::atomic<uint64_t> stalls{0};
    /// MonotonicMicros() when consumer c entered its current
    /// stage-function call, 0 while not inside one. Allocated (and
    /// written by workers) only when the watchdog is armed.
    std::vector<std::unique_ptr<std::atomic<int64_t>>> batch_start;
  };

  /// \brief Blocking push used between internal stages (items must
  /// never drop mid-flow). Rotates `rr` across the target stage's
  /// consumers; waits on full. `producer` is this worker's row in the
  /// target crossbar.
  void PushToStage(size_t target, int producer, uint64_t& rr, Item& item) {
    Stage& st = *stages_[target];
    const int consumers = st.config.num_threads;
    bool counted = false;
    while (true) {
      for (int i = 0; i < consumers; ++i) {
        const size_t c =
            static_cast<size_t>((rr + static_cast<uint64_t>(i)) %
                                static_cast<uint64_t>(consumers));
        if (st.in[static_cast<size_t>(producer)][c]->TryPush(item)) {
          ++rr;
          st.doorbells[c]->Ring();
          return;
        }
      }
      if (!counted) {
        counted = true;
        st.backpressured.fetch_add(1, std::memory_order_relaxed);
      }
      SleepForMicros(pipeline_internal::kProducerRetrySleepMicros);
    }
  }

  void WorkerLoop(size_t stage_idx, int consumer_idx) {
    ScopedKernelThreadBudget budget(kernel_budget_);
    Stage& st = *stages_[stage_idx];
    const size_t producers = st.in.size();
    const size_t max_batch = static_cast<size_t>(st.config.max_batch);
    pipeline_internal::Doorbell& db =
        *st.doorbells[static_cast<size_t>(consumer_idx)];
    std::vector<Item> batch;
    batch.reserve(max_batch);
    size_t scan_from = 0;  // rotate fairness across producer rows
    uint64_t downstream_rr = static_cast<uint64_t>(consumer_idx);

    auto my_queue = [&](size_t p) -> SpscQueue<Item>& {
      return *st.in[p][static_cast<size_t>(consumer_idx)];
    };
    // Pops up to max_batch items already available across this
    // consumer's column of the crossbar; never waits for more.
    auto gather = [&] {
      while (batch.size() < max_batch) {
        bool popped_any = false;
        for (size_t i = 0; i < producers && batch.size() < max_batch;
             ++i) {
          Item item;
          if (my_queue((scan_from + i) % producers).TryPop(&item)) {
            batch.push_back(std::move(item));
            popped_any = true;
          }
        }
        if (!popped_any) break;
        scan_from = (scan_from + 1) % producers;
      }
    };
    auto all_inputs_finished = [&] {
      for (size_t p = 0; p < producers; ++p) {
        if (!my_queue(p).closed() || !my_queue(p).Empty()) return false;
      }
      return true;
    };
    auto work_or_exit_ready = [&] {
      for (size_t p = 0; p < producers; ++p) {
        if (!my_queue(p).Empty()) return true;
      }
      return all_inputs_finished();
    };

    // Advertise, re-check, then wait (see Doorbell).
    auto park = [&](int64_t deadline) {
      db.Park();
      if (work_or_exit_ready()) {
        db.Unpark();
      } else {
        db.Wait(deadline);
      }
    };

    const int64_t batch_wait = st.config.batch_wait_micros;
    while (true) {
      batch.clear();
      gather();
      if (batch.empty()) {
        if (all_inputs_finished()) break;
        park(pipeline_internal::kNoDeadline);
        continue;
      }
      if (batch.size() < max_batch && batch_wait > 0 &&
          !all_inputs_finished()) {
        // Bounded batch-gather window: hold the partial batch a little
        // for stragglers. A full batch, end-of-stream, or the deadline
        // releases it; correctness never depends on what lands inside
        // one batch, so this only trades latency for amortization.
        const int64_t deadline = MonotonicMicros() + batch_wait;
        while (batch.size() < max_batch) {
          const size_t before = batch.size();
          gather();
          if (batch.size() > before) continue;
          if (all_inputs_finished()) break;
          if (MonotonicMicros() >= deadline) break;
          park(deadline);
        }
      }
      st.items.fetch_add(batch.size(), std::memory_order_relaxed);
      st.batches.fetch_add(1, std::memory_order_relaxed);
      if (watchdog_budget_micros_ > 0) {
        auto& start = *st.batch_start[static_cast<size_t>(consumer_idx)];
        start.store(MonotonicMicros(), std::memory_order_relaxed);
        st.fn(batch);
        start.store(0, std::memory_order_relaxed);
      } else {
        st.fn(batch);
      }
      if (stage_idx + 1 < stages_.size()) {
        for (auto& item : batch) {
          PushToStage(stage_idx + 1, consumer_idx, downstream_rr, item);
        }
      } else {
        for (auto& item : batch) sink_(std::move(item));
      }
    }
    // Cascade end-of-stream: this worker owns row `consumer_idx` of the
    // next stage's crossbar; close it so downstream observes EOF only
    // after this worker has flushed everything it will ever produce.
    if (stage_idx + 1 < stages_.size()) {
      Stage& next = *stages_[stage_idx + 1];
      for (size_t c = 0; c < next.in[static_cast<size_t>(consumer_idx)].size();
           ++c) {
        next.in[static_cast<size_t>(consumer_idx)][c]->Close();
        next.doorbells[c]->Ring();
      }
    }
  }

  /// Samples every armed stage's per-consumer batch timestamps and
  /// counts each stage-function call that overruns the budget exactly
  /// once (keyed by its start timestamp, so a long-stuck call is not
  /// re-counted every sweep).
  void WatchdogLoop() {
    const int64_t budget = watchdog_budget_micros_;
    const int64_t sweep_micros = std::max<int64_t>(budget / 4, 1000);
    // Last start timestamp already flagged, per [stage][consumer].
    std::vector<std::vector<int64_t>> flagged(stages_.size());
    for (size_t s = 0; s < stages_.size(); ++s) {
      flagged[s].resize(stages_[s]->batch_start.size(), 0);
    }
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    while (!watchdog_stop_) {
      watchdog_cv_.wait_for(lock, std::chrono::microseconds(sweep_micros));
      if (watchdog_stop_) break;
      const int64_t now = MonotonicMicros();
      for (size_t s = 0; s < stages_.size(); ++s) {
        Stage& st = *stages_[s];
        for (size_t c = 0; c < st.batch_start.size(); ++c) {
          const int64_t start =
              st.batch_start[c]->load(std::memory_order_relaxed);
          if (start == 0 || now - start < budget) continue;
          if (flagged[s][c] == start) continue;  // same stuck call
          flagged[s][c] = start;
          st.stalls.fetch_add(1, std::memory_order_relaxed);
          GOGGLES_LOG(WARNING)
              << "pipeline watchdog: stage '" << st.config.name
              << "' worker " << c << " stuck in one batch for "
              << (now - start) << "us (budget " << budget << "us)";
        }
      }
    }
  }

  std::vector<std::unique_ptr<Stage>> stages_;
  SinkFn sink_;
  bool started_ = false;
  bool drained_ = false;
  uint64_t submit_rr_ = 0;
  int kernel_budget_ = 0;
  int64_t watchdog_budget_micros_ = 0;
  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace goggles
