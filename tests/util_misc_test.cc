#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <signal.h>

#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/lru.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/topk.h"

namespace goggles {
namespace {

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d", 42), "x=42");
  EXPECT_EQ(StrFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  std::vector<std::string> parts = {"a", "bb", "ccc"};
  EXPECT_EQ(Split("a,bb,ccc", ','), parts);
  std::vector<std::string> with_empty = {"", "x", ""};
  EXPECT_EQ(Split(",x,", ','), with_empty);
}

TEST(StringUtilTest, TrimStripsAsciiWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, FormatPercentAndDouble) {
  EXPECT_EQ(FormatPercent(0.9783), "97.83");
  EXPECT_EQ(FormatPercent(0.5, 1), "50.0");
  EXPECT_EQ(FormatDouble(1.23456, 3), "1.235");
}

TEST(TopkTest, ArgMaxArgMin) {
  std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(ArgMax(v), 4);
  EXPECT_EQ(ArgMin(v), 1);
  EXPECT_EQ(ArgMax(std::vector<double>{}), -1);
}

TEST(TopkTest, ArgSortDescendingStable) {
  std::vector<int> v = {2, 7, 2, 9};
  std::vector<int> idx = ArgSortDescending(v);
  EXPECT_EQ(idx, (std::vector<int>{3, 1, 0, 2}));
}

TEST(TopkTest, ArgTopK) {
  std::vector<double> v = {0.1, 0.9, 0.5, 0.7};
  EXPECT_EQ(ArgTopK(v, 2), (std::vector<int>{1, 3}));
  EXPECT_EQ(ArgTopK(v, 10).size(), 4u);
}

TEST(ClockTest, MonotonicMicrosAdvances) {
  const int64_t before = MonotonicMicros();
  SleepForMicros(1000);
  const int64_t after = MonotonicMicros();
  EXPECT_GE(after - before, 1000);
}

TEST(LruCacheTest, GetTouchesRecency) {
  LruCache<std::string, int> cache(/*cost_budget=*/30);
  EXPECT_TRUE(cache.Put("a", 1, 10).empty());
  EXPECT_TRUE(cache.Put("b", 2, 10).empty());
  EXPECT_TRUE(cache.Put("c", 3, 10).empty());
  ASSERT_NE(cache.Get("a"), nullptr);  // a is now most recent; b is LRU

  auto evicted = cache.Put("d", 4, 10);  // 40 > 30: evict b
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, "b");
  EXPECT_EQ(evicted[0].value, 2);
  EXPECT_EQ(evicted[0].cost, 10u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.total_cost(), 30u);
  std::vector<std::string> keys;
  cache.ForEach([&](const std::string& key, int, uint64_t) {
    keys.push_back(key);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"d", "a", "c"}));
}

TEST(LruCacheTest, CostBudgetEvictsMultiple) {
  LruCache<int, int> cache(/*cost_budget=*/100);
  cache.Put(1, 1, 40);
  cache.Put(2, 2, 40);
  auto evicted = cache.Put(3, 3, 90);  // needs both old entries gone
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].key, 1);  // least recently used first
  EXPECT_EQ(evicted[1].key, 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, NewestEntrySurvivesEvenOverBudget) {
  LruCache<int, int> cache(/*cost_budget=*/10);
  cache.Put(1, 1, 5);
  auto evicted = cache.Put(2, 2, 1000);  // alone over budget: stays
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get(2), nullptr);
}

TEST(LruCacheTest, MaxEntriesCap) {
  LruCache<int, int> cache(/*cost_budget=*/0, /*max_entries=*/2);
  cache.Put(1, 1, 0);
  cache.Put(2, 2, 0);
  auto evicted = cache.Put(3, 3, 0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1);
}

TEST(LruCacheTest, PutReplacesAndEraseRemoves) {
  LruCache<std::string, int> cache(/*cost_budget=*/100);
  cache.Put("a", 1, 10);
  // Replacing hands the old value back (never destroyed in the cache).
  auto replaced = cache.Put("a", 2, 20);
  ASSERT_EQ(replaced.size(), 1u);
  EXPECT_EQ(replaced[0].value, 1);
  EXPECT_EQ(replaced[0].cost, 10u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.total_cost(), 20u);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 2);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.total_cost(), 0u);
}

TEST(LruCacheTest, ForEachIsMostRecentFirst) {
  LruCache<int, int> cache;
  cache.Put(1, 10, 1);
  cache.Put(2, 20, 1);
  cache.Get(1);
  std::vector<int> order;
  cache.ForEach([&](int key, int value, uint64_t cost) {
    order.push_back(key);
    EXPECT_EQ(value, key * 10);
    EXPECT_EQ(cost, 1u);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelTest, CoversEveryIndexExactlyOnce) {
  const int64_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelTest, EmptyRangeIsNoOp) {
  bool called = false;
  ParallelFor(5, 5, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
  ParallelFor(5, 3, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelTest, ChunkedCoversRange) {
  std::atomic<int64_t> total{0};
  ParallelForChunked(0, 1000, [&](int64_t lo, int64_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ParallelTest, SingleThreadFallback) {
  std::vector<int> hits(100, 0);
  ParallelFor(0, 100, [&](int64_t i) { hits[static_cast<size_t>(i)]++; },
              /*num_threads=*/1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

// Counts the peak number of concurrent workers inside a ParallelFor by
// holding each worker briefly at a rendezvous.
int PeakConcurrency(int num_threads_requested) {
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  ParallelForChunked(
      0, 64,
      [&](int64_t, int64_t) {
        const int now = live.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        live.fetch_sub(1);
      },
      num_threads_requested);
  return peak.load();
}

TEST(ParallelTest, SerialKernelsMarkerForcesSerial) {
  // The serve stage workers' contract: under the marker, a kernel asking
  // for 8 threads runs on the calling thread alone.
  ScopedSerialKernels serial;
  EXPECT_EQ(EffectiveNumThreads(8), 1);
  EXPECT_EQ(PeakConcurrency(/*num_threads_requested=*/8), 1)
      << "depth marker must force serial";
}

TEST(ParallelTest, TwoWideCallsStillCoverTheWholeRange) {
  const int64_t n = 4099;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, [&](int64_t i) { hits[static_cast<size_t>(i)]++; }, 2);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelTest, WorkersPersistAcrossCalls) {
  // Every fan-out runs on the same long-lived pool workers plus the
  // calling thread; a spawn-per-call implementation shows new threads
  // call after call. The C library recycles the id of an exited thread,
  // so each thread also draws a serial number on its first chunk.
  static std::atomic<int> next_serial{0};
  std::mutex mu;
  std::set<std::pair<std::thread::id, int>> threads;
  for (int call = 0; call < 200; ++call) {
    ParallelForChunked(0, 64, [&](int64_t, int64_t) {
      thread_local const int serial = next_serial++;
      std::lock_guard<std::mutex> lock(mu);
      threads.emplace(std::this_thread::get_id(), serial);
    });
  }
  EXPECT_LE(static_cast<int>(threads.size()), DefaultNumThreads());
}

TEST(ParallelTest, ConcurrentCallersShareThePool) {
  // Several external threads fan out at once, some of them two wide:
  // each call must cover its own range exactly once and return.
  constexpr int kCallers = 8;
  constexpr int kCalls = 500;
  constexpr int64_t kRange = 97;
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &bad_calls] {
      std::vector<std::atomic<int>> hits(kRange);
      for (int call = 0; call < kCalls; ++call) {
        for (auto& h : hits) h.store(0);
        auto body = [&](int64_t i) { hits[static_cast<size_t>(i)]++; };
        ParallelFor(0, kRange, body, (t + call) % 3 == 0 ? 2 : 0);
        for (auto& h : hits) {
          if (h.load() != 1) {
            bad_calls++;
            break;
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

TEST(ParallelTest, PoolWorkersBlockSignals) {
  // A SIGTERM sent to the process must reach the thread that waits for
  // it, so pool workers block every signal whatever the caller's mask.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> unblocked{0};
  ParallelForChunked(0, 64, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() == caller) return;
    sigset_t mask;
    pthread_sigmask(SIG_BLOCK, nullptr, &mask);
    if (!sigismember(&mask, SIGTERM) || !sigismember(&mask, SIGINT)) {
      unblocked++;
    }
  });
  EXPECT_EQ(unblocked.load(), 0);
}

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable table("Title");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddSeparator();
  table.AddRow({"bb", "22"});
  std::string s = table.ToString();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| bb    | 22    |"), std::string::npos);
}

TEST(TableTest, PadsShortRows) {
  AsciiTable table;
  table.SetHeader({"a", "b", "c"});
  table.AddRow({"only"});
  std::string s = table.ToString();
  EXPECT_NE(s.find("only"), std::string::npos);
}

// Any int64_t passes the range check, so these cases isolate the strict
// whole-string parse.
int64_t GetEnvAnyIntOr(const std::string& name, int64_t fallback) {
  return GetEnvRangedIntOr(name, fallback,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max());
}

TEST(EnvTest, FallbacksWhenUnset) {
  EXPECT_EQ(GetEnvOr("GOGGLES_SURELY_UNSET_VAR", "dflt"), "dflt");
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_SURELY_UNSET_VAR", 5), 5);
}

TEST(EnvTest, ParsesSetValues) {
  ::setenv("GOGGLES_TEST_ENV_INT", "17", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", 0), 17);
  ::unsetenv("GOGGLES_TEST_ENV_INT");
}

TEST(EnvTest, RejectsTrailingGarbage) {
  ::setenv("GOGGLES_TEST_ENV_INT", "12abc", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", 7), 7);
  // Fully non-numeric and empty values also fall back.
  ::setenv("GOGGLES_TEST_ENV_INT", "paper", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", 7), 7);
  ::setenv("GOGGLES_TEST_ENV_INT", "", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", 7), 7);
  ::unsetenv("GOGGLES_TEST_ENV_INT");
}

TEST(EnvTest, RejectsOutOfRangeValues) {
  ::setenv("GOGGLES_TEST_ENV_INT", "99999999999999999999999999", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", -3), -3);
  ::setenv("GOGGLES_TEST_ENV_INT", "-99999999999999999999999999", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", -3), -3);
  ::unsetenv("GOGGLES_TEST_ENV_INT");
}

TEST(EnvTest, ParsesSignsAndWhitespacePrefix) {
  // strtoll accepts leading whitespace and an explicit sign; the
  // full-string rule still applies after the number.
  ::setenv("GOGGLES_TEST_ENV_INT", "  -42", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", 0), -42);
  ::setenv("GOGGLES_TEST_ENV_INT", "  -42 ", 1);
  EXPECT_EQ(GetEnvAnyIntOr("GOGGLES_TEST_ENV_INT", 0), 0);
  ::unsetenv("GOGGLES_TEST_ENV_INT");
}

TEST(ParallelTest, NumThreadsEnvOverride) {
  ::setenv("GOGGLES_NUM_THREADS", "3", 1);
  EXPECT_EQ(ComputeDefaultNumThreads(), 3);
  // Malformed values fall back to hardware concurrency (>= 1).
  ::setenv("GOGGLES_NUM_THREADS", "4cores", 1);
  const int hw_fallback = ComputeDefaultNumThreads();
  ::unsetenv("GOGGLES_NUM_THREADS");
  EXPECT_EQ(hw_fallback, ComputeDefaultNumThreads());
  EXPECT_GE(hw_fallback, 1);
  // Zero or negative requests mean "auto": hardware concurrency again.
  ::setenv("GOGGLES_NUM_THREADS", "0", 1);
  EXPECT_EQ(ComputeDefaultNumThreads(), hw_fallback);
  ::setenv("GOGGLES_NUM_THREADS", "-8", 1);
  EXPECT_EQ(ComputeDefaultNumThreads(), hw_fallback);
  // Requests above kMaxNumThreads fall back too, instead of making the
  // kernel pool spawn that many workers; the bound itself is honoured.
  ::setenv("GOGGLES_NUM_THREADS", "2000000000", 1);
  EXPECT_EQ(ComputeDefaultNumThreads(), hw_fallback);
  ::setenv("GOGGLES_NUM_THREADS", std::to_string(kMaxNumThreads).c_str(), 1);
  EXPECT_EQ(ComputeDefaultNumThreads(), kMaxNumThreads);
  ::unsetenv("GOGGLES_NUM_THREADS");
  // The cached entry point agrees with the floor.
  EXPECT_GE(DefaultNumThreads(), 1);
}

TEST(TimerTest, MeasuresNonNegativeTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

/// The byte-at-a-time CRC-32 the slicing-by-8 Crc32 must reproduce:
/// reflected polynomial 0xEDB88320, one bit per step.
uint32_t BitwiseCrc32(const unsigned char* data, size_t n, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(io::Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(io::Crc32(check.data(), 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buf(64 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (size_t start = 0; start < 8; ++start) {  // misaligned starts
    for (size_t n = 0; n <= 64; ++n) {
      const unsigned char* p = buf.data() + start;
      EXPECT_EQ(io::Crc32(p, n), BitwiseCrc32(p, n, 0))
          << "start=" << start << " n=" << n;
    }
  }
}

TEST(Crc32Test, ChainsThroughTheCrcArgument) {
  std::vector<unsigned char> buf(200);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(255 - i * 17);
  }
  const uint32_t whole = io::Crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, BitwiseCrc32(buf.data(), buf.size(), 0));
  for (size_t split : {0, 1, 7, 8, 9, 63, 100, 199, 200}) {
    const uint32_t head = io::Crc32(buf.data(), split);
    EXPECT_EQ(io::Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split=" << split;
    EXPECT_EQ(io::Crc32(buf.data() + split, buf.size() - split, head),
              BitwiseCrc32(buf.data() + split, buf.size() - split, head))
        << "split=" << split;
  }
}

}  // namespace
}  // namespace goggles
