#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "serve/json.h"
#include "serve/registry.h"
#include "serve/session.h"

/// \file service.h
/// \brief The `goggles_serve` request loop: newline-delimited JSON
/// requests in, one JSON response line per request out (in input order).
///
/// Run() pushes requests through a staged flowgraph (decode → extract →
/// infer, util/pipeline.h) in which the workers of each stage share one
/// mutex-guarded intake queue. The extraction stage takes whatever
/// label requests are queued (up to `pipeline.max_batch`) and hands
/// them to BuildGroupedQueryRows(): ONE batched
/// `Session::BuildQueryRows` call per (session, shape) group, identical
/// pixels scored once. The GEMM-bound extraction stage overlaps the
/// EM-posterior inference stage across requests. Admission control
/// bounds in-flight requests at the reader (block, or reject with a
/// clean error response); it is the graph's only bound.
/// Responses are bit-identical to the serial HandleLine() path at any
/// thread/stage configuration — the scorer computes each output row on
/// its own, in a fixed order independent of batch shape, so grouped
/// extraction row i equals the singleton extraction of image i, and
/// inference is row-independent.
///
/// Protocol (one JSON object per line; docs/serve_protocol.md has the
/// full specification):
///   {"op":"stats"}
///   {"op":"label","image":{"channels":C,"height":H,"width":W,
///                          "pixels":[...C*H*W floats...]}}
///   {"op":"label_batch","images":[{...},{...}]}
///   {"op":"list_tasks"} | {"op":"load","task":T} | {"op":"unload","task":T}
/// Requests routed to a multi-task registry carry "task":"name"; an
/// absent "task" falls back to the default (single-artifact) session,
/// keeping the original one-artifact protocol byte-compatible.
/// Responses always carry "ok" (true/false); errors carry "error".

namespace goggles::serve {

/// \brief Staged-flowgraph tuning for Run() (see util/pipeline.h).
struct PipelineOptions {
  /// Threads for the parse/validate/route stage (also handles non-label
  /// ops end to end).
  int decode_threads = 1;
  /// Threads for the batched-extraction stage (backbone forward + GEMM
  /// scoring — the hot stage).
  int extract_threads = 2;
  /// Threads for the posterior-inference stage, which also encodes each
  /// label response.
  int infer_threads = 1;
  /// Max requests a stage worker takes per wakeup; the extraction stage
  /// groups them into batched scoring calls. Grouping never waits — it
  /// takes what is queued.
  int max_batch = 8;
  /// Admission cap on in-flight requests (submitted minus written), the
  /// flowgraph's only bound: stage queues never hold more than this.
  int admission_capacity = 64;
  /// true: a request arriving with `admission_capacity` already in
  /// flight gets an immediate {"ok":false,...} response instead of
  /// stalling the reader (load-shedding mode).
  bool reject_on_full = false;
  /// Stall watchdog budget for the staged flowgraph: a monitor thread
  /// flags any stage-function call running longer than this (see
  /// Pipeline::SetWatchdogBudgetMicros; surfaced as per-stage "stalls"
  /// in the stats op). 0 (default) = watchdog off, zero overhead.
  int64_t watchdog_budget_micros = 0;
};

/// \brief One label request as the extraction stage sees it: the session
/// it routes to and its decoded image (both borrowed, both non-null).
struct ExtractRequest {
  const Session* session = nullptr;
  const data::Image* image = nullptr;
};

/// \brief The extraction stage's body. Groups `requests` by (session,
/// image shape), scores identical pixels inside a group once, runs ONE
/// Session::BuildQueryRows per group and slices the rows back out.
/// Element i is request i's 1 x F affinity row — bit-identical to
/// `BuildQueryRows({*requests[i].image})`, because the scorer computes
/// each row on its own — or, when its group's call fails, that call's
/// error (every member of the group gets it).
std::vector<Result<Matrix>> BuildGroupedQueryRows(
    const std::vector<ExtractRequest>& requests);

/// \brief Service tuning knobs.
struct ServiceConfig {
  /// Stage shape, batching and admission of Run()'s flowgraph.
  PipelineOptions pipeline;
  /// Per-request deadline measured from admission (the reader accepting
  /// the request line) to inference. A request that overruns it is
  /// answered with {"ok":false,"error":...,"error_code":
  /// "deadline_exceeded"} instead of its result — stages check the
  /// deadline before starting expensive work, so a stalled stage sheds
  /// queued work instead of processing stale requests. 0 (default) =
  /// no deadline.
  int64_t request_deadline_micros = 0;
};

/// \brief Serves labeling requests — either against one fitted Session
/// (the original single-artifact mode) or as a multi-task gateway over a
/// SessionRegistry.
class Service {
 public:
  /// \brief Single-artifact service: every request hits `session`;
  /// "task"-routed requests and registry ops are rejected.
  explicit Service(std::shared_ptr<const Session> session,
                   ServiceConfig config = {});

  /// \brief Multi-task gateway: "task"-routed requests resolve through
  /// `registry` (loading artifacts on demand); requests without a "task"
  /// hit `default_session`, which may be null (then a task is required).
  Service(std::shared_ptr<SessionRegistry> registry,
          std::shared_ptr<const Session> default_session,
          ServiceConfig config = {});

  /// \brief Handles one parsed request (also the unit tests' entry
  /// point). Thread-safe.
  JsonValue HandleRequest(const JsonValue& request) const;

  /// \brief Handles one raw request line: parse + dispatch + serialize.
  std::string HandleLine(const std::string& line) const;

  /// \brief Pumps `in` to exhaustion: reads request lines, runs them
  /// through the staged flowgraph (decode → extract → infer over one
  /// queue per stage, with reader-side admission control), writes
  /// responses to `out` in input order. Returns after every response is
  /// flushed.
  Status Run(std::istream& in, std::ostream& out);

  /// \brief Graceful-drain trigger (thread-safe, callable from a signal
  /// watcher thread): a running Run() stops admitting new requests,
  /// flushes every in-flight response, and returns OK. Requests read
  /// but not yet admitted are dropped. Idempotent; a Run() started
  /// after a stop returns immediately.
  void RequestStop();

  /// \brief True once RequestStop() has been called.
  bool stop_requested() const { return stop_requested_.load(); }

  /// \brief Total requests handled so far (including errored ones).
  uint64_t requests_served() const { return requests_served_.load(); }

  /// \brief Requests shed by reject-on-full admission control.
  uint64_t requests_rejected() const { return pipeline_rejected_.load(); }

  /// \brief The normalized configuration the service runs with.
  const ServiceConfig& config() const { return config_; }

 private:
  /// Resolves the session a request targets: its "task" member through
  /// the registry, or the default session when absent.
  Result<std::shared_ptr<const Session>> ResolveSession(
      const JsonValue& request) const;

  /// Decodes a `label` request into its session and image, counting an
  /// error on failure. HandleRequest and Run's decode stage both use it.
  Status DecodeLabel(const JsonValue& request,
                     std::shared_ptr<const Session>* session,
                     data::Image* image) const;

  /// Encodes one image's labels (row 0 of `result`) as the `label`
  /// response, or `result`'s error, counted. HandleRequest and Run's
  /// infer stage both use it.
  JsonValue LabelResponse(const Result<LabelingResult>& result) const;

  /// Registry ops (load/unload/list_tasks); `op` is pre-validated.
  JsonValue HandleRegistryOp(const std::string& op,
                             const JsonValue& request) const;

  /// The `failpoint` chaos op (arm/disarm/disarm_all/list). Arming
  /// requires a binary built with -DGOGGLES_FAILPOINTS=ON; otherwise
  /// answers error_code "unimplemented". `list` always works.
  JsonValue HandleFailpointOp(const JsonValue& request) const;

  std::shared_ptr<SessionRegistry> registry_;   // null in single mode
  std::shared_ptr<const Session> session_;      // may be null in gateway mode
  ServiceConfig config_;
  mutable std::atomic<uint64_t> requests_served_{0};
  mutable std::atomic<uint64_t> errors_{0};
  mutable std::atomic<uint64_t> pipeline_rejected_{0};
  /// Set for the duration of a Run: snapshots the live
  /// flowgraph for the `stats` op's "pipeline" section.
  mutable std::mutex pipeline_stats_mu_;
  mutable std::function<JsonValue()> pipeline_stats_fn_;
  /// Graceful-drain flag + a pointer to the active Run's wake condvar
  /// so RequestStop() can rouse a reader blocked on admission control.
  std::atomic<bool> stop_requested_{false};
  std::mutex run_wake_mu_;
  std::condition_variable* run_wake_cv_ = nullptr;
};

}  // namespace goggles::serve
