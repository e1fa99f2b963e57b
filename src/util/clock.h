#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

/// \file clock.h
/// \brief Monotonic-clock helpers for deadline arithmetic (pipeline
/// batch-gather windows, request deadlines, retry backoff, bench
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

/// \brief Converts a MonotonicMicros() deadline into a
/// `steady_clock::time_point` usable with `condition_variable::wait_until`.
inline std::chrono::steady_clock::time_point SteadyTimePointFromMicros(
    int64_t micros) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::microseconds(micros)));
}

/// \brief Sleeps the calling thread for (at least) `micros` microseconds.
inline void SleepForMicros(int64_t micros) {
  if (micros > 0) std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace goggles
