/// \file goggles_serve_main.cc
/// \brief The `goggles_serve` binary: a labeling gateway answering
/// newline-delimited JSON requests on stdin/stdout.
///
/// Usage:
///   goggles_serve --artifact PATH [options]           # single-artifact
///   goggles_serve --artifact-dir DIR [options]        # multi-task gateway
///   goggles_serve --artifact PATH --artifact-dir DIR  # both: PATH serves
///                                                     # task-less requests
///
/// Requests run through a staged flowgraph (decode → extract → infer) in
/// which the workers of each stage share one intake queue and run their
/// kernels serially on their own threads; the admission cap is its only
/// bound. The flags below shape it. Settings come from flags only; an
/// unset flag keeps the ServiceConfig / RegistryConfig default.
///
/// Options:
///   --pipeline-decode N     decode-stage threads (default 1)
///   --pipeline-extract N    extraction-stage threads (default 2)
///   --pipeline-infer N      inference-stage threads, which also encode
///                           label responses (default 1)
///   --pipeline-batch N      requests a stage worker takes per wakeup;
///                           the extraction stage groups them into
///                           batched scoring calls, never waiting for
///                           more (default 8)
///   --pipeline-admission N  in-flight request cap, the flowgraph's only
///                           bound (default 64)
///   --pipeline-reject       shed over-capacity requests with an
///                           immediate error response instead of
///                           stalling the reader
///   --task-budget-mb N      approximate-memory budget for resident
///                           tasks; LRU eviction beyond it (default 0 =
///                           unlimited)
///   --max-tasks N           resident-task cap (default 0 = unlimited)
///   --request-deadline-ms N per-request deadline measured from
///                           admission; overruns answer with
///                           error_code "deadline_exceeded" (default 0 =
///                           none)
///   --pipeline-watchdog-ms N stall watchdog budget: stage calls running
///                           longer than N ms are flagged (WARNING log +
///                           per-stage "stalls" in the stats op; default
///                           0 = off)
///
/// SIGTERM/SIGINT drain gracefully: admission stops, every in-flight
/// request still gets its response, then the process exits 0.
///
/// In gateway mode, tasks are `<dir>/<task>.ggsa` artifacts loaded on the
/// first request that routes to them ("task":"name"), hot-reloaded when
/// the file changes, and LRU-evicted past the memory budget.
///
/// The backbone extractor is the pretrained VggMini (cached under
/// $GOGGLES_CACHE_DIR, default /tmp/goggles_cache) — the same backbone
/// every artifact was fitted with. Startup prints one `{"ok":true,...}`
/// ready line to stderr; every request line then gets exactly one
/// response line on stdout, in input order (docs/serve_protocol.md has
/// the full protocol).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>

#include "eval/backbone.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/shutdown.h"
#include "tensor/isa.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace {

/// Strict ranged integer parse (no trailing garbage, no overflow).
bool ParseIntInRange(const char* text, long long min_value,
                     long long max_value, long long* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < min_value ||
      value > max_value) {
    return false;
  }
  *out = value;
  return true;
}

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--artifact PATH | --artifact-dir DIR)\n"
      "       [--pipeline-decode N] [--pipeline-extract N]\n"
      "       [--pipeline-infer N] [--pipeline-batch N]\n"
      "       [--pipeline-admission N] [--pipeline-reject]\n"
      "       [--task-budget-mb N] [--max-tasks N]\n"
      "       [--request-deadline-ms N] [--pipeline-watchdog-ms N]\n"
      "Serves newline-delimited JSON labeling requests on stdin/stdout\n"
      "through a staged decode -> extract -> infer flowgraph;\n"
      "--pipeline-admission is its only bound on queued requests.\n"
      "Ops: {\"op\":\"stats\"} | {\"op\":\"label\",\"image\":{...}} |\n"
      "     {\"op\":\"label_batch\",\"images\":[...]} |\n"
      "     {\"op\":\"list_tasks\"} | {\"op\":\"load\",\"task\":T} |\n"
      "     {\"op\":\"unload\",\"task\":T} | {\"op\":\"failpoint\",...}\n"
      "Multi-task requests carry \"task\":\"name\" "
      "(-> DIR/name.ggsa; see docs/serve_protocol.md).\n"
      "Fault injection: build with -DGOGGLES_FAILPOINTS=ON, arm via the\n"
      "failpoint op or GOGGLES_FAILPOINTS=name=action[:prob][:count].\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace goggles;

  std::string artifact_path;
  std::string artifact_dir;
  serve::ServiceConfig config;
  serve::RegistryConfig registry_config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    long long value = 0;
    // Reads the flag's value into `value`.
    const auto value_in = [&](long long min_value, long long max_value) {
      if (ParseIntInRange(argv[++i], min_value, max_value, &value)) {
        return true;
      }
      std::fprintf(stderr, "error: %s expects %lld..%lld, got '%s'\n",
                   arg.c_str(), min_value, max_value, argv[i]);
      return false;
    };
    if (arg == "--artifact" && has_value) {
      artifact_path = argv[++i];
    } else if (arg == "--artifact-dir" && has_value) {
      artifact_dir = argv[++i];
    } else if (arg == "--pipeline-decode" && has_value) {
      if (!value_in(1, 256)) return 2;
      config.pipeline.decode_threads = static_cast<int>(value);
    } else if (arg == "--pipeline-extract" && has_value) {
      if (!value_in(1, 256)) return 2;
      config.pipeline.extract_threads = static_cast<int>(value);
    } else if (arg == "--pipeline-infer" && has_value) {
      if (!value_in(1, 256)) return 2;
      config.pipeline.infer_threads = static_cast<int>(value);
    } else if (arg == "--pipeline-batch" && has_value) {
      if (!value_in(1, 4096)) return 2;
      config.pipeline.max_batch = static_cast<int>(value);
    } else if (arg == "--pipeline-admission" && has_value) {
      if (!value_in(1, 1 << 20)) return 2;
      config.pipeline.admission_capacity = static_cast<int>(value);
    } else if (arg == "--pipeline-reject") {
      config.pipeline.reject_on_full = true;
    } else if (arg == "--task-budget-mb" && has_value) {
      if (!value_in(0, 1 << 20)) return 2;
      registry_config.memory_budget_bytes = static_cast<uint64_t>(value) << 20;
    } else if (arg == "--max-tasks" && has_value) {
      if (!value_in(0, 1 << 20)) return 2;
      registry_config.max_resident_tasks = static_cast<size_t>(value);
    } else if (arg == "--request-deadline-ms" && has_value) {
      if (!value_in(0, 3'600'000)) return 2;
      config.request_deadline_micros = value * 1000;
    } else if (arg == "--pipeline-watchdog-ms" && has_value) {
      if (!value_in(0, 3'600'000)) return 2;
      config.pipeline.watchdog_budget_micros = value * 1000;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown or incomplete argument '%s'\n",
                   arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (artifact_path.empty() && artifact_dir.empty()) {
    std::fprintf(stderr, "error: need --artifact and/or --artifact-dir\n");
    PrintUsage(argv[0]);
    return 2;
  }

  WallTimer timer;
  eval::BackboneOptions backbone_options;
  auto extractor = eval::GetPretrainedExtractor(backbone_options);
  if (!extractor.ok()) {
    std::fprintf(stderr, "error: backbone unavailable: %s\n",
                 extractor.status().ToString().c_str());
    return 1;
  }

  // The default session (serves requests without a "task").
  std::shared_ptr<const serve::Session> default_session;
  if (!artifact_path.empty()) {
    auto session = serve::Session::Load(artifact_path, *extractor);
    if (!session.ok()) {
      std::fprintf(stderr, "error: cannot load artifact: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    default_session =
        std::make_shared<const serve::Session>(std::move(*session));
  }

  std::shared_ptr<serve::SessionRegistry> registry;
  if (!artifact_dir.empty()) {
    registry_config.artifact_dir = artifact_dir;
    registry = std::make_shared<serve::SessionRegistry>(*extractor,
                                                        registry_config);
  }

  serve::JsonValue threads = serve::JsonValue::MakeArray();
  for (const int n :
       {config.pipeline.decode_threads, config.pipeline.extract_threads,
        config.pipeline.infer_threads}) {
    threads.Append(n);
  }
  serve::JsonValue ready = serve::JsonValue::MakeObject();
  ready.Set("ok", true);
  ready.Set("ready", true);
  ready.Set("artifact", artifact_path);
  ready.Set("artifact_dir", artifact_dir);
  ready.Set("pipeline_threads", std::move(threads));
  ready.Set("pipeline_batch", config.pipeline.max_batch);
  ready.Set("pipeline_admission", config.pipeline.admission_capacity);
  ready.Set("pipeline_reject", config.pipeline.reject_on_full);
  ready.Set("task_budget_bytes",
            static_cast<int64_t>(registry_config.memory_budget_bytes));
  ready.Set("isa", IsaTierName(ActiveIsaTier()));
  ready.Set("request_deadline_ms", config.request_deadline_micros / 1000);
  ready.Set("watchdog_ms", config.pipeline.watchdog_budget_micros / 1000);
  ready.Set("failpoints", failpoint::CompiledIn());
  ready.Set("startup_seconds", timer.ElapsedSeconds());
  std::fprintf(stderr, "%s\n", ready.Dump().c_str());

  // SIGTERM/SIGINT drain the service instead of killing the process:
  // the watcher trips RequestStop() and interrupts the blocked stdin
  // read; Run flushes every in-flight response before returning. A null
  // registry is the single-artifact mode.
  serve::Service service(registry, default_session, config);
  serve::GracefulShutdown drain([&service] { service.RequestStop(); });
  const Status status = service.Run(std::cin, std::cout);
  const int drain_signal = drain.signal_number();
  if (drain_signal != 0) {
    std::fprintf(stderr,
                 "{\"ok\":true,\"drained\":true,\"signal\":%d}\n",
                 drain_signal);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
