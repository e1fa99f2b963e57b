#include "serve/registry.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <utility>

#include "serve/artifact.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace goggles::serve {

namespace fs = std::filesystem;

namespace {

/// True for error codes worth retrying with backoff: transient I/O
/// trouble and load/publish races. Missing artifacts (NotFound) and
/// structurally invalid requests are permanent.
bool IsTransientLoadError(StatusCode code) {
  return code == StatusCode::kIOError || code == StatusCode::kUnavailable;
}

/// Failpoint shim: lets chaos tests inject a transient load failure that
/// the retry loop must absorb (arm "registry.load.transient" with a
/// count to fail the first N attempts).
Status InjectedLoadFailure() {
  GOGGLES_FAILPOINT_RETURN("registry.load.transient");
  return Status::OK();
}

}  // namespace

SessionRegistry::SessionRegistry(
    std::shared_ptr<features::FeatureExtractor> extractor,
    RegistryConfig config)
    : extractor_(std::move(extractor)),
      config_(std::move(config)),
      cache_(config_.memory_budget_bytes, config_.max_resident_tasks) {
  // Crash recovery: reap debris of publishers that died mid-publish.
  ReapOrphanTemps();
}

bool SessionRegistry::IsValidTaskName(const std::string& task) {
  if (task.empty() || task.size() > 255) return false;
  if (task == "." || task == "..") return false;
  for (char c : task) {
    if (c == '/' || c == '\\' || c == '\0') return false;
  }
  return true;
}

std::string SessionRegistry::ArtifactPath(const std::string& task) const {
  return config_.artifact_dir + "/" + task + ".ggsa";
}

bool SessionRegistry::StatArtifact(const std::string& path,
                                   FileSignature* out) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return false;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) return false;
  out->mtime_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  out->size = static_cast<uint64_t>(size);
  return true;
}

std::shared_ptr<const Session> SessionRegistry::BeginLoadOrWait(
    const std::string& task) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (loading_.count(task) == 0) {
      loading_.insert(task);
      return nullptr;  // the caller owns the load now
    }
    // Another thread is loading this task; wait for it and reuse its
    // result if it succeeded (a failed load leaves no resident entry and
    // the caller takes over).
    load_done_.wait(lock, [&] { return loading_.count(task) == 0; });
    if (Entry* entry = cache_.Get(task)) {
      hits_.fetch_add(1);
      return entry->session;
    }
  }
}

Result<std::shared_ptr<const Session>> SessionRegistry::LoadAndInstall(
    const std::string& task) {
  const std::string path = ArtifactPath(task);
  // Load with retry: transient I/O failures and loads that raced a
  // concurrent publish back off (jittered, capped) and try again. The
  // caller holds the `loading_` slot throughout, so concurrent Acquires
  // of the task coalesce onto this retry loop instead of stacking their
  // own. Seeded per-task for reproducible jitter sequences.
  Backoff backoff(config_.load_retry,
                  static_cast<uint64_t>(std::hash<std::string>{}(task)));
  FileSignature signature;
  bool have_signature = false;
  Result<Session> loaded = Status::Internal("unreachable");
  while (true) {
    // Signature before the load: the post-load re-check below compares
    // against it, and if the load is installed it becomes the entry's
    // signature so the next Acquire() re-stats against the loaded bytes.
    have_signature = StatArtifact(path, &signature);

    Status injected = InjectedLoadFailure();
    loaded = injected.ok() ? Session::Load(path, extractor_)
                           : Result<Session>(injected);

    if (loaded.ok()) {
      // Re-stat after the load: if the file changed underneath us the
      // loaded bytes may be a torn mix of old and new artifact that
      // happened to pass section CRCs (each section is checked
      // individually). Reject the swap and retry against the new file.
      FileSignature after;
      const bool have_after = StatArtifact(path, &after);
      if (have_signature && (!have_after || !(after == signature))) {
        torn_loads_rejected_.fetch_add(1);
        loaded = Status::Unavailable("artifact '" + path +
                                     "' changed mid-load (publish race)");
      }
    }
    if (loaded.ok() || !IsTransientLoadError(loaded.status().code())) break;
    const int64_t delay = backoff.NextDelayMicros();
    if (delay < 0) break;  // attempts exhausted; report the last error
    load_retries_.fetch_add(1);
    GOGGLES_LOG(INFO) << "registry: retrying load of '" << task << "' in "
                      << delay << "us: " << loaded.status().ToString();
    SleepForMicros(delay);
  }

  std::vector<LruCache<std::string, Entry>::Evicted> evicted;
  Result<std::shared_ptr<const Session>> result =
      Status::Internal("unreachable");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!loaded.ok()) {
      load_failures_.fetch_add(1);
      result = loaded.status();
    } else {
      auto session = std::make_shared<const Session>(std::move(*loaded));
      Entry entry;
      entry.session = session;
      if (have_signature) entry.signature = signature;
      evicted = cache_.Put(task, std::move(entry),
                           session->ApproxMemoryBytes());
      loads_.fetch_add(1);
      // A same-key replacement (hot reload) is handed back in `evicted`
      // too so it is released outside the lock, but it is not a budget
      // eviction.
      size_t budget_evictions = 0;
      for (const auto& e : evicted) {
        if (e.key != task) ++budget_evictions;
      }
      evictions_.fetch_add(budget_evictions);
      result = std::move(session);
    }
    loading_.erase(task);
  }
  load_done_.notify_all();
  // Evicted sessions release their memory here, outside the lock, once
  // any in-flight requests that still hold them complete.
  return result;
}

Result<std::shared_ptr<const Session>> SessionRegistry::Acquire(
    const std::string& task) {
  if (!IsValidTaskName(task)) {
    return Status::InvalidArgument("invalid task name '" + task + "'");
  }
  // Resident fast path. The stat for hot reload runs OUTSIDE the lock:
  // it is a filesystem syscall, and holding the registry mutex across it
  // would serialize every task's session resolution on disk latency.
  std::shared_ptr<const Session> stale;
  FileSignature loaded_signature;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (Entry* entry = cache_.Get(task)) {
      stale = entry->session;
      loaded_signature = entry->signature;
    }
  }
  if (stale != nullptr) {
    FileSignature current;
    if (!StatArtifact(ArtifactPath(task), &current) ||
        current == loaded_signature) {
      // Unchanged — or unstattable (e.g. the artifact was deleted from
      // the directory): keep serving the resident session; a cold load
      // would fail anyway.
      hits_.fetch_add(1);
      return stale;
    }
    reloads_.fetch_add(1);
    // Fall through to the load path below; `stale` doubles as the
    // fallback if the replacement file turns out to be torn.
  }
  if (std::shared_ptr<const Session> session = BeginLoadOrWait(task)) {
    return session;
  }
  Result<std::shared_ptr<const Session>> loaded = LoadAndInstall(task);
  if (!loaded.ok() && stale != nullptr) {
    // A hot reload is opportunistic: when the replacement file is torn
    // or corrupt (e.g. caught mid-overwrite), keep serving the resident
    // session — the stale signature makes the next Acquire retry.
    return stale;
  }
  return loaded;
}

Result<std::shared_ptr<const Session>> SessionRegistry::Load(
    const std::string& task) {
  if (!IsValidTaskName(task)) {
    return Status::InvalidArgument("invalid task name '" + task + "'");
  }
  // Unconditional (re)load: wait out any in-flight load of the task, then
  // take ownership of a fresh one — `load` is a directive to read the
  // file again, so a concurrent load's result is not reused here.
  {
    std::unique_lock<std::mutex> lock(mu_);
    load_done_.wait(lock, [&] { return loading_.count(task) == 0; });
    loading_.insert(task);
  }
  return LoadAndInstall(task);
}

Status SessionRegistry::Unload(const std::string& task) {
  if (!IsValidTaskName(task)) {
    return Status::InvalidArgument("invalid task name '" + task + "'");
  }
  std::shared_ptr<const Session> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* entry = cache_.Get(task);
    if (entry == nullptr) {
      return Status::NotFound("task '" + task + "' is not resident");
    }
    drained = std::move(entry->session);  // destroyed outside the lock
    cache_.Erase(task);
  }
  return Status::OK();
}

size_t SessionRegistry::ReapOrphanTemps() const {
  // A publish temp younger than the reap age may belong to a publisher
  // that is alive and about to rename; leave it alone.
  const auto now = fs::file_time_type::clock::now();
  size_t reaped = 0;
  std::error_code ec;
  for (fs::directory_iterator it(config_.artifact_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const fs::path& path = it->path();
    if (!IsArtifactTempFilename(path.filename().string())) continue;
    std::error_code file_ec;
    const fs::file_time_type mtime = fs::last_write_time(path, file_ec);
    if (file_ec) continue;
    const int64_t age_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(now - mtime)
            .count();
    if (age_micros < config_.temp_reap_age_micros) continue;
    if (fs::remove(path, file_ec) && !file_ec) {
      ++reaped;
      GOGGLES_LOG(WARNING) << "registry: reaped orphan publish temp "
                           << path.string();
    }
  }
  temps_reaped_.fetch_add(reaped);
  return reaped;
}

std::vector<TaskInfo> SessionRegistry::ListTasks() const {
  // The periodic registry scan doubles as the crash-recovery sweep.
  ReapOrphanTemps();
  std::vector<TaskInfo> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.ForEach([&](const std::string& task, const Entry& entry,
                       uint64_t cost) {
      TaskInfo info;
      info.task = task;
      info.resident = true;
      info.pool_size = entry.session->pool_size();
      info.num_classes = entry.session->num_classes();
      info.num_functions = entry.session->num_functions();
      info.approx_bytes = cost;
      tasks.push_back(std::move(info));
    });
  }
  // Artifacts on disk that are not resident. Directory errors (missing
  // dir, permissions) degrade to "resident tasks only" rather than fail.
  std::error_code ec;
  for (fs::directory_iterator it(config_.artifact_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() != ".ggsa") continue;
    const std::string task = path.stem().string();
    if (!IsValidTaskName(task)) continue;
    auto resident = std::find_if(
        tasks.begin(), tasks.end(),
        [&](const TaskInfo& info) { return info.task == task; });
    if (resident != tasks.end()) {
      resident->on_disk = true;
    } else {
      TaskInfo info;
      info.task = task;
      info.on_disk = true;
      tasks.push_back(std::move(info));
    }
  }
  return tasks;
}

RegistryStats SessionRegistry::stats() const {
  RegistryStats stats;
  stats.hits = hits_.load();
  stats.loads = loads_.load();
  stats.reloads = reloads_.load();
  stats.evictions = evictions_.load();
  stats.load_failures = load_failures_.load();
  stats.load_retries = load_retries_.load();
  stats.torn_loads_rejected = torn_loads_rejected_.load();
  stats.temps_reaped = temps_reaped_.load();
  std::lock_guard<std::mutex> lock(mu_);
  stats.resident_tasks = cache_.size();
  stats.resident_bytes = cache_.total_cost();
  return stats;
}

}  // namespace goggles::serve
