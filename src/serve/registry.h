#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "features/extractor.h"
#include "serve/session.h"
#include "util/backoff.h"
#include "util/lru.h"
#include "util/status.h"

/// \file registry.h
/// \brief The multi-task session registry: hosts many fitted labeling
/// tasks in one `goggles_serve` process.
///
/// A *task* is a named `.ggsa` artifact inside a configured directory
/// (`<artifact_dir>/<task>.ggsa`). The registry loads tasks on demand the
/// first time a request routes to them, keeps them resident in an LRU
/// cache bounded by an approximate-memory budget, hot-reloads a task when
/// its artifact file changes on disk, and shares one lock-free
/// `features::FeatureExtractor` backbone across every resident session —
/// the per-task state is only the fitted artifact payload.
///
/// Eviction is *graceful by construction*: sessions are handed out as
/// `shared_ptr<const Session>`, so evicting (or unloading, or
/// hot-reloading) a task only drops the registry's reference. Requests
/// already holding the session finish against the old state and the
/// memory is reclaimed when the last in-flight request completes.

namespace goggles::serve {

/// \brief Registry tuning knobs.
struct RegistryConfig {
  /// Directory holding `<task>.ggsa` artifacts.
  std::string artifact_dir;
  /// Approximate-memory budget for resident sessions in bytes; least-
  /// recently-used tasks are evicted when the sum of
  /// `Session::ApproxMemoryBytes()` exceeds it. 0 = unlimited. A single
  /// session larger than the budget still loads (and is alone resident).
  uint64_t memory_budget_bytes = 0;
  /// Maximum number of resident tasks. 0 = unlimited.
  size_t max_resident_tasks = 0;
  /// Retry policy for transient artifact-load failures (I/O errors and
  /// loads that raced a concurrent publish). NotFound / corrupt-format
  /// errors are not retried. `max_attempts <= 1` disables retries.
  BackoffPolicy load_retry;
  /// Minimum age before an orphaned atomic-publish temp file
  /// (`*.ggsa.tmp-<pid>`, see artifact.h) is reaped by
  /// ReapOrphanTemps(); younger temps may belong to a live publish.
  int64_t temp_reap_age_micros = 60 * 1000 * 1000;
};

/// \brief One row of SessionRegistry::ListTasks().
struct TaskInfo {
  std::string task;        ///< task name (artifact basename without .ggsa)
  bool resident = false;   ///< currently loaded in the registry
  bool on_disk = false;    ///< artifact file present in the directory
  int64_t pool_size = 0;   ///< fitted pool size (resident tasks only)
  int num_classes = 0;     ///< number of classes (resident tasks only)
  int64_t num_functions = 0;  ///< affinity-function count (resident only)
  uint64_t approx_bytes = 0;  ///< ApproxMemoryBytes() (resident tasks only)
};

/// \brief Registry counters (monotonic over the process lifetime).
struct RegistryStats {
  uint64_t hits = 0;        ///< Acquire() served from the resident cache
  uint64_t loads = 0;       ///< artifact loads (cold misses + reloads)
  uint64_t reloads = 0;     ///< hot reloads triggered by a changed file
  uint64_t evictions = 0;   ///< sessions evicted by the LRU budget
  uint64_t load_failures = 0;  ///< artifact loads that returned an error
  uint64_t load_retries = 0;   ///< backoff retries of transient failures
  uint64_t torn_loads_rejected = 0;  ///< loads discarded because the file
                                     ///< changed mid-load (publish race)
  uint64_t temps_reaped = 0;   ///< orphan publish temps removed by sweeps
  size_t resident_tasks = 0;   ///< currently resident sessions
  uint64_t resident_bytes = 0;  ///< sum of resident ApproxMemoryBytes()
};

/// \brief Hosts many fitted tasks behind one shared backbone.
///
/// Thread-safe: any number of threads may Acquire/Load/Unload/ListTasks
/// concurrently. Artifact loads run *outside* the registry lock — two
/// requests for the same cold task coalesce into a single load while
/// requests for other (resident) tasks proceed unblocked.
class SessionRegistry {
 public:
  /// \param extractor the shared backbone every loaded session scores
  ///        through; must outlive the registry.
  /// \param config    directory, budget, and reload policy.
  SessionRegistry(std::shared_ptr<features::FeatureExtractor> extractor,
                  RegistryConfig config);

  /// \brief Resolves a task name to its fitted session, loading the
  /// artifact on a cold miss and hot-reloading when the file's (mtime,
  /// size) signature changed since it was loaded (re-stat on every call).
  /// The returned shared_ptr stays valid across later
  /// evictions/unloads/reloads of the task. Hot reloads are
  /// opportunistic: when the changed file fails to load (torn write,
  /// corruption), the resident session keeps serving and the reload is
  /// retried on the next Acquire; only cold loads propagate errors.
  Result<std::shared_ptr<const Session>> Acquire(const std::string& task);

  /// \brief Forces a (re)load of `task` from its artifact file, replacing
  /// any resident session. Requests holding the old session drain
  /// against it.
  Result<std::shared_ptr<const Session>> Load(const std::string& task);

  /// \brief Drops the resident session of `task`, if any. In-flight
  /// requests drain; the artifact file is untouched (the task cold-loads
  /// again on the next Acquire).
  /// \return NotFound when the task is not resident.
  Status Unload(const std::string& task);

  /// \brief Lists every known task: resident sessions (with shape and
  /// memory info, most-recently-used first) plus `.ggsa` artifacts found
  /// in the directory that are not currently loaded.
  std::vector<TaskInfo> ListTasks() const;

  /// \brief Snapshot of the registry counters.
  RegistryStats stats() const;

  /// \brief Task names map to files, so they must be clean path
  /// components: non-empty, at most 255 bytes, no '/', '\\', NUL, and not
  /// "." or "..".
  static bool IsValidTaskName(const std::string& task);

  /// \brief The artifact path a task name resolves to
  /// (`<artifact_dir>/<task>.ggsa`).
  std::string ArtifactPath(const std::string& task) const;

  /// \brief Crash-recovery sweep: deletes orphaned atomic-publish temp
  /// files (`*.ggsa.tmp-<pid>`) in the artifact directory older than
  /// `config.temp_reap_age_micros` — debris of publishers that crashed
  /// between the temp write and the rename. Runs automatically at
  /// construction and from ListTasks(); callable directly for tests and
  /// maintenance. Returns the number of files removed. (const: touches
  /// the directory, not registry state beyond a counter.)
  size_t ReapOrphanTemps() const;

  /// \brief The configured artifact directory.
  const std::string& artifact_dir() const { return config_.artifact_dir; }

 private:
  /// (mtime, size) signature of an artifact file, for hot-reload checks.
  struct FileSignature {
    int64_t mtime_ns = 0;
    uint64_t size = 0;
    bool operator==(const FileSignature& other) const {
      return mtime_ns == other.mtime_ns && size == other.size;
    }
  };

  /// One resident task.
  struct Entry {
    std::shared_ptr<const Session> session;
    FileSignature signature;
  };

  /// Stats the artifact file; false when it cannot be statted.
  static bool StatArtifact(const std::string& path, FileSignature* out);

  /// Loads the artifact (outside the lock) and installs it under the
  /// lock, evicting LRU tasks past the budget. Callers must NOT hold
  /// `mu_` and must have registered `task` in `loading_`.
  Result<std::shared_ptr<const Session>> LoadAndInstall(
      const std::string& task);

  /// Blocks until no other thread is loading `task`, then registers the
  /// caller as its loader. Returns the resident entry instead if one
  /// appeared while waiting (nullptr session when the caller must load).
  std::shared_ptr<const Session> BeginLoadOrWait(const std::string& task);

  std::shared_ptr<features::FeatureExtractor> extractor_;
  RegistryConfig config_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  LruCache<std::string, Entry> cache_;
  std::set<std::string> loading_;  ///< tasks with an in-flight load

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> loads_{0};
  mutable std::atomic<uint64_t> reloads_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> load_failures_{0};
  mutable std::atomic<uint64_t> load_retries_{0};
  mutable std::atomic<uint64_t> torn_loads_rejected_{0};
  mutable std::atomic<uint64_t> temps_reaped_{0};
};

}  // namespace goggles::serve
