#include "util/pipeline.h"

#include <algorithm>

namespace goggles {
namespace pipeline_internal {

void Doorbell::Ring() {
  // An RMW, not a load: it reads the latest value of `sleeping`, so it
  // either follows the consumer's Park() (and sees the flag up) or
  // precedes it (and the consumer's Park() acquires this release, making
  // the caller's push or Close() visible to the consumer's re-check). A
  // plain load could be reordered before the caller's release store of
  // the queue tail and miss both. Lock before notify so the wakeup cannot
  // land between the consumer's predicate check and its wait.
  if (sleeping.exchange(false, std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_one();
  }
}

void Doorbell::Wait(int64_t deadline) {
  {
    std::unique_lock<std::mutex> lock(mu);
    const auto rung = [this] {
      return !sleeping.load(std::memory_order_relaxed);
    };
    if (deadline == kNoDeadline) {
      cv.wait(lock, rung);
    } else {
      cv.wait_until(lock, SteadyTimePointFromMicros(deadline), rung);
    }
  }
  Unpark();
}

int AutoKernelBudget(int total_pipeline_threads) {
  const int width = DefaultNumThreads();
  const int denom = std::max(1, total_pipeline_threads);
  return std::max(1, width / denom);
}

}  // namespace pipeline_internal
}  // namespace goggles
