#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

/// \file clock.h
/// \brief Monotonic-clock helpers for deadline arithmetic (request
/// deadlines, the pipeline stall watchdog, retry backoff, bench
/// timestamps).

namespace goggles {

/// \brief Microseconds on the monotonic (steady) clock, from an arbitrary
/// but fixed process-local epoch. Safe for measuring intervals and
/// computing deadlines; never affected by wall-clock adjustments.
inline int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Sleeps the calling thread for (at least) `micros` microseconds.
inline void SleepForMicros(int64_t micros) {
  if (micros > 0) std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace goggles
