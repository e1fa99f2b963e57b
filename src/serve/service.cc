#include "serve/service.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/isa.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/pipeline.h"

namespace goggles::serve {
namespace {

/// Every error response carries the human message AND the stable
/// machine-readable `error_code` string (docs/serve_protocol.md —
/// clients branch on the code, never the message).
JsonValue ErrorResponse(const std::string& message,
                        StatusCode code = StatusCode::kInvalidArgument) {
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", JsonValue(false));
  response.Set("error", JsonValue(message));
  response.Set("error_code",
               JsonValue(std::string(StatusCodeToErrorCode(code))));
  return response;
}

JsonValue ErrorResponse(const Status& status) {
  return ErrorResponse(status.message(), status.code());
}

/// Decodes {"channels":C,"height":H,"width":W,"pixels":[...]}.
Result<data::Image> ParseImage(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("image must be a JSON object");
  }
  const JsonValue* channels = value.Find("channels");
  const JsonValue* height = value.Find("height");
  const JsonValue* width = value.Find("width");
  const JsonValue* pixels = value.Find("pixels");
  if (channels == nullptr || !channels->is_number() || height == nullptr ||
      !height->is_number() || width == nullptr || !width->is_number() ||
      pixels == nullptr || !pixels->is_array()) {
    return Status::InvalidArgument(
        "image needs numeric channels/height/width and a pixels array");
  }
  // Dimensions arrive as doubles: reject non-integral / out-of-range
  // values before casting (float->int overflow is undefined behavior).
  constexpr double kMaxDim = 65536.0;
  auto as_dim = [](double v) -> int {
    if (!std::isfinite(v) || v < 1.0 || v > kMaxDim || v != std::floor(v)) {
      return -1;
    }
    return static_cast<int>(v);
  };
  const int c = as_dim(channels->number());
  const int h = as_dim(height->number());
  const int w = as_dim(width->number());
  if (c < 1 || h < 1 || w < 1) {
    return Status::InvalidArgument(
        "image dimensions must be positive integers (at most 65536)");
  }
  const size_t expected = static_cast<size_t>(c) * static_cast<size_t>(h) *
                          static_cast<size_t>(w);
  if (pixels->items().size() != expected) {
    return Status::InvalidArgument(
        "pixels array length must equal channels*height*width");
  }
  data::Image image(c, h, w);
  for (size_t i = 0; i < expected; ++i) {
    const JsonValue& px = pixels->items()[i];
    if (!px.is_number()) {
      return Status::InvalidArgument("pixels must all be numbers");
    }
    // A double beyond the float range has no float value (the cast is
    // undefined behavior), so it cannot be a pixel.
    if (std::fabs(px.number()) > std::numeric_limits<float>::max()) {
      return Status::InvalidArgument(
          "pixels must lie within the float range (|v| <= FLT_MAX)");
    }
    image.pixels[i] = static_cast<float>(px.number());
  }
  return image;
}

JsonValue SoftRowToJson(const Matrix& soft, int64_t row) {
  JsonValue arr = JsonValue::MakeArray();
  for (int64_t k = 0; k < soft.cols(); ++k) arr.Append(JsonValue(soft(row, k)));
  return arr;
}

JsonValue SessionShapeJson(const Session& session, JsonValue response) {
  response.Set("pool_size", JsonValue(session.pool_size()));
  response.Set("num_classes", JsonValue(session.num_classes()));
  response.Set("num_functions", JsonValue(session.num_functions()));
  return response;
}

/// FNV-1a over an image's dimensions and raw pixel bytes: the extract
/// stage's duplicate-grouping key, always confirmed by SamePixels.
uint64_t HashImageContent(const data::Image& image) {
  uint64_t hash = 1469598103934665603ull;
  auto mix_bytes = [&hash](const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  };
  const int dims[3] = {image.channels, image.height, image.width};
  mix_bytes(dims, sizeof(dims));
  mix_bytes(image.pixels.data(), image.pixels.size() * sizeof(float));
  return hash;
}

/// Exact shape + pixel-byte equality.
bool SamePixels(const data::Image& a, const data::Image& b) {
  return a.channels == b.channels && a.height == b.height &&
         a.width == b.width &&
         std::memcmp(a.pixels.data(), b.pixels.data(),
                     a.pixels.size() * sizeof(float)) == 0;
}

ServiceConfig NormalizeConfig(ServiceConfig config) {
  PipelineOptions& p = config.pipeline;
  if (p.decode_threads < 1) p.decode_threads = 1;
  if (p.extract_threads < 1) p.extract_threads = 1;
  if (p.infer_threads < 1) p.infer_threads = 1;
  if (p.max_batch < 1) p.max_batch = 1;
  if (p.admission_capacity < 1) p.admission_capacity = 1;
  if (p.watchdog_budget_micros < 0) p.watchdog_budget_micros = 0;
  if (config.request_deadline_micros < 0) config.request_deadline_micros = 0;
  return config;
}

}  // namespace

std::vector<Result<Matrix>> BuildGroupedQueryRows(
    const std::vector<ExtractRequest>& requests) {
  std::vector<Result<Matrix>> rows(requests.size(),
                                   Status::Internal("not extracted"));
  std::vector<bool> grouped(requests.size(), false);
  for (size_t lead = 0; lead < requests.size(); ++lead) {
    if (grouped[lead]) continue;
    const Session& session = *requests[lead].session;
    const data::Image& shape = *requests[lead].image;
    // Members that can stack into one extraction tensor. Identical
    // pixels are scored once and share the (bit-identical) row.
    std::vector<size_t> members;
    std::vector<size_t> unique_of;  // member -> its image in `images`
    std::vector<data::Image> images;
    std::vector<uint64_t> hashes;
    for (size_t i = lead; i < requests.size(); ++i) {
      const data::Image& img = *requests[i].image;
      if (grouped[i] || requests[i].session != &session ||
          img.channels != shape.channels || img.height != shape.height ||
          img.width != shape.width) {
        continue;
      }
      grouped[i] = true;
      members.push_back(i);
      const uint64_t hash = HashImageContent(img);
      size_t u = 0;
      while (u < images.size() &&
             !(hashes[u] == hash && SamePixels(images[u], img))) {
        ++u;
      }
      if (u == images.size()) {
        images.push_back(img);
        hashes.push_back(hash);
      }
      unique_of.push_back(u);
    }
    const Result<Matrix> group_rows = session.BuildQueryRows(images);
    for (size_t m = 0; m < members.size(); ++m) {
      if (!group_rows.ok()) {
        rows[members[m]] = group_rows.status();
      } else {
        rows[members[m]] = group_rows->Block(
            static_cast<int64_t>(unique_of[m]), 0, 1, group_rows->cols());
      }
    }
  }
  return rows;
}

Service::Service(std::shared_ptr<const Session> session, ServiceConfig config)
    : session_(std::move(session)), config_(NormalizeConfig(config)) {}

Service::Service(std::shared_ptr<SessionRegistry> registry,
                 std::shared_ptr<const Session> default_session,
                 ServiceConfig config)
    : registry_(std::move(registry)),
      session_(std::move(default_session)),
      config_(NormalizeConfig(config)) {}

Result<std::shared_ptr<const Session>> Service::ResolveSession(
    const JsonValue& request) const {
  const JsonValue* task = request.Find("task");
  if (task == nullptr) {
    if (session_ != nullptr) return session_;
    return Status::InvalidArgument(
        "request needs a 'task' (no default artifact is loaded)");
  }
  if (!task->is_string()) {
    return Status::InvalidArgument("'task' must be a string");
  }
  if (registry_ == nullptr) {
    return Status::InvalidArgument(
        "task routing requires an artifact directory (--artifact-dir)");
  }
  return registry_->Acquire(task->str());
}

Status Service::DecodeLabel(const JsonValue& request,
                            std::shared_ptr<const Session>* session,
                            data::Image* image) const {
  Result<std::shared_ptr<const Session>> resolved = ResolveSession(request);
  if (!resolved.ok()) {
    errors_.fetch_add(1);
    return resolved.status();
  }
  const JsonValue* image_json = request.Find("image");
  if (image_json == nullptr) {
    errors_.fetch_add(1);
    return Status::InvalidArgument("label request needs an 'image'");
  }
  Result<data::Image> parsed = ParseImage(*image_json);
  if (!parsed.ok()) {
    errors_.fetch_add(1);
    return parsed.status();
  }
  *session = std::move(*resolved);
  *image = std::move(*parsed);
  return Status::OK();
}

JsonValue Service::LabelResponse(const Result<LabelingResult>& result) const {
  if (!result.ok()) {
    errors_.fetch_add(1);
    return ErrorResponse(result.status());
  }
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", JsonValue(true));
  response.Set("label", JsonValue(result->hard_labels[0]));
  response.Set("soft", SoftRowToJson(result->soft_labels, 0));
  return response;
}

JsonValue Service::HandleRegistryOp(const std::string& op,
                                    const JsonValue& request) const {
  if (registry_ == nullptr) {
    errors_.fetch_add(1);
    return ErrorResponse("'" + op +
                         "' requires an artifact directory (--artifact-dir)");
  }

  if (op == "list_tasks") {
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    JsonValue tasks = JsonValue::MakeArray();
    for (const TaskInfo& info : registry_->ListTasks()) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("task", JsonValue(info.task));
      entry.Set("resident", JsonValue(info.resident));
      entry.Set("on_disk", JsonValue(info.on_disk));
      if (info.resident) {
        entry.Set("pool_size", JsonValue(info.pool_size));
        entry.Set("num_classes", JsonValue(info.num_classes));
        entry.Set("num_functions", JsonValue(info.num_functions));
        entry.Set("approx_bytes",
                  JsonValue(static_cast<double>(info.approx_bytes)));
      }
      tasks.Append(std::move(entry));
    }
    response.Set("tasks", std::move(tasks));
    return response;
  }

  const JsonValue* task = request.Find("task");
  if (task == nullptr || !task->is_string()) {
    errors_.fetch_add(1);
    return ErrorResponse("'" + op + "' needs a string 'task'");
  }

  if (op == "load") {
    Result<std::shared_ptr<const Session>> session =
        registry_->Load(task->str());
    if (!session.ok()) {
      errors_.fetch_add(1);
      return ErrorResponse(session.status());
    }
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    response.Set("task", JsonValue(task->str()));
    response = SessionShapeJson(**session, std::move(response));
    response.Set("approx_bytes",
                 JsonValue(static_cast<double>((*session)->ApproxMemoryBytes())));
    return response;
  }

  // op == "unload"
  Status status = registry_->Unload(task->str());
  if (!status.ok()) {
    errors_.fetch_add(1);
    return ErrorResponse(status);
  }
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", JsonValue(true));
  response.Set("task", JsonValue(task->str()));
  return response;
}

JsonValue Service::HandleRequest(const JsonValue& request) const {
  requests_served_.fetch_add(1);
  if (!request.is_object()) {
    errors_.fetch_add(1);
    return ErrorResponse("request must be a JSON object");
  }
  const JsonValue* op = request.Find("op");
  if (op == nullptr || !op->is_string()) {
    errors_.fetch_add(1);
    return ErrorResponse("request needs a string 'op'");
  }

  if (op->str() == "stats") {
    // Field order matters for the single-artifact mode: the response must
    // stay byte-compatible with the original one-session protocol, so
    // gateway fields are only appended in gateway mode.
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    Result<std::shared_ptr<const Session>> session = ResolveSession(request);
    if (session.ok()) {
      response = SessionShapeJson(**session, std::move(response));
    } else if (request.Find("task") != nullptr) {
      // An explicitly named task that cannot be resolved is an error; a
      // merely absent default session still yields gateway-level stats.
      errors_.fetch_add(1);
      return ErrorResponse(session.status());
    }
    response.Set("requests_served",
                 JsonValue(static_cast<double>(requests_served_.load())));
    response.Set("errors", JsonValue(static_cast<double>(errors_.load())));
    // Which kernel tier this process dispatched to (runtime cpuid probe /
    // GOGGLES_ISA) — lets a fleet operator confirm a portable binary is
    // actually running its fast path on this host.
    response.Set("isa", JsonValue(std::string(IsaTierName(ActiveIsaTier()))));
    if (registry_ != nullptr) {
      const RegistryStats stats = registry_->stats();
      JsonValue registry = JsonValue::MakeObject();
      registry.Set("resident_tasks",
                   JsonValue(static_cast<double>(stats.resident_tasks)));
      registry.Set("resident_bytes",
                   JsonValue(static_cast<double>(stats.resident_bytes)));
      registry.Set("hits", JsonValue(static_cast<double>(stats.hits)));
      registry.Set("loads", JsonValue(static_cast<double>(stats.loads)));
      registry.Set("reloads", JsonValue(static_cast<double>(stats.reloads)));
      registry.Set("evictions",
                   JsonValue(static_cast<double>(stats.evictions)));
      registry.Set("load_failures",
                   JsonValue(static_cast<double>(stats.load_failures)));
      registry.Set("load_retries",
                   JsonValue(static_cast<double>(stats.load_retries)));
      registry.Set("torn_loads_rejected",
                   JsonValue(static_cast<double>(stats.torn_loads_rejected)));
      registry.Set("temps_reaped",
                   JsonValue(static_cast<double>(stats.temps_reaped)));
      response.Set("registry", std::move(registry));
    }
    // Live flowgraph snapshot — present only while a Run is active, so
    // direct HandleLine callers keep their original byte layout.
    std::function<JsonValue()> pipeline_fn;
    {
      std::lock_guard<std::mutex> lock(pipeline_stats_mu_);
      pipeline_fn = pipeline_stats_fn_;
    }
    if (pipeline_fn) response.Set("pipeline", pipeline_fn());
    return response;
  }

  if (op->str() == "label") {
    std::shared_ptr<const Session> session;
    data::Image image;
    const Status decoded = DecodeLabel(request, &session, &image);
    if (!decoded.ok()) return ErrorResponse(decoded);
    // One image, no grouping: the serial reference the flowgraph's
    // grouped extraction is checked against.
    return LabelResponse(session->LabelBatch({image}));
  }

  if (op->str() == "label_batch") {
    Result<std::shared_ptr<const Session>> session = ResolveSession(request);
    if (!session.ok()) {
      errors_.fetch_add(1);
      return ErrorResponse(session.status());
    }
    const JsonValue* images_json = request.Find("images");
    if (images_json == nullptr || !images_json->is_array() ||
        images_json->items().empty()) {
      errors_.fetch_add(1);
      return ErrorResponse("label_batch request needs a non-empty 'images'");
    }
    std::vector<data::Image> images;
    images.reserve(images_json->items().size());
    for (const JsonValue& item : images_json->items()) {
      Result<data::Image> image = ParseImage(item);
      if (!image.ok()) {
        errors_.fetch_add(1);
        return ErrorResponse(image.status());
      }
      images.push_back(std::move(*image));
    }
    Result<LabelingResult> result = (*session)->LabelBatch(images);
    if (!result.ok()) {
      errors_.fetch_add(1);
      return ErrorResponse(result.status());
    }
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    JsonValue labels = JsonValue::MakeArray();
    JsonValue soft = JsonValue::MakeArray();
    for (int64_t i = 0; i < result->soft_labels.rows(); ++i) {
      labels.Append(JsonValue(result->hard_labels[static_cast<size_t>(i)]));
      soft.Append(SoftRowToJson(result->soft_labels, i));
    }
    response.Set("labels", std::move(labels));
    response.Set("soft", std::move(soft));
    return response;
  }

  if (op->str() == "load" || op->str() == "unload" ||
      op->str() == "list_tasks") {
    return HandleRegistryOp(op->str(), request);
  }

  if (op->str() == "failpoint") {
    return HandleFailpointOp(request);
  }

  errors_.fetch_add(1);
  return ErrorResponse("unknown op '" + op->str() + "'");
}

JsonValue Service::HandleFailpointOp(const JsonValue& request) const {
  const JsonValue* action = request.Find("action");
  if (action == nullptr || !action->is_string()) {
    errors_.fetch_add(1);
    return ErrorResponse(
        "'failpoint' needs a string 'action' (arm|disarm|disarm_all|list)");
  }
  const std::string& act = action->str();

  if (act == "list") {
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    response.Set("compiled_in", JsonValue(failpoint::CompiledIn()));
    JsonValue points = JsonValue::MakeArray();
    for (const failpoint::Info& info : failpoint::List()) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("name", JsonValue(info.name));
      entry.Set("action",
                JsonValue(std::string(failpoint::ActionName(info.spec.action))));
      entry.Set("arg", JsonValue(static_cast<double>(info.spec.arg)));
      entry.Set("probability", JsonValue(info.spec.probability));
      entry.Set("count", JsonValue(static_cast<double>(info.spec.count)));
      entry.Set("hits", JsonValue(static_cast<double>(info.hits)));
      entry.Set("triggers", JsonValue(static_cast<double>(info.triggers)));
      points.Append(std::move(entry));
    }
    response.Set("failpoints", std::move(points));
    return response;
  }

  if (!failpoint::CompiledIn()) {
    errors_.fetch_add(1);
    return ErrorResponse(
        "failpoints are not compiled into this binary "
        "(configure with -DGOGGLES_FAILPOINTS=ON)",
        StatusCode::kNotImplemented);
  }

  if (act == "disarm_all") {
    failpoint::DisarmAll();
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    return response;
  }

  const JsonValue* name = request.Find("name");
  if (name == nullptr || !name->is_string()) {
    errors_.fetch_add(1);
    return ErrorResponse("'failpoint' " + act + " needs a string 'name'");
  }

  Status status = Status::OK();
  if (act == "arm") {
    const JsonValue* spec = request.Find("spec");
    if (spec == nullptr || !spec->is_string()) {
      errors_.fetch_add(1);
      return ErrorResponse(
          "'failpoint' arm needs a string 'spec' "
          "(action[(arg)][:prob][:count])");
    }
    status = failpoint::ArmFromString(name->str(), spec->str());
  } else if (act == "disarm") {
    status = failpoint::Disarm(name->str());
  } else {
    errors_.fetch_add(1);
    return ErrorResponse("unknown failpoint action '" + act + "'");
  }
  if (!status.ok()) {
    errors_.fetch_add(1);
    return ErrorResponse(status);
  }
  JsonValue response = JsonValue::MakeObject();
  response.Set("ok", JsonValue(true));
  response.Set("name", JsonValue(name->str()));
  return response;
}

std::string Service::HandleLine(const std::string& line) const {
  Result<JsonValue> request = JsonValue::Parse(line);
  if (!request.ok()) {
    requests_served_.fetch_add(1);
    errors_.fetch_add(1);
    return ErrorResponse(request.status()).Dump();
  }
  return HandleRequest(*request).Dump();
}

void Service::RequestStop() {
  stop_requested_.store(true);
  // Rouse a reader parked on admission control; a reader blocked inside
  // std::getline is the caller's job to interrupt (the serve binary does
  // it with a signal that EINTRs the read).
  std::lock_guard<std::mutex> lock(run_wake_mu_);
  if (run_wake_cv_ != nullptr) run_wake_cv_->notify_all();
}

namespace {

/// One request flowing through the staged pipeline. Stages fill it in
/// progressively; `done` short-circuits the remaining stages once a
/// final response exists (errors, non-label ops). An item not done
/// after decode is a decoded `label` request.
struct PipeItem {
  uint64_t seq = 0;
  int64_t admit_micros = 0;                 ///< deadline epoch (admission)
  std::string line;                         ///< raw request line
  std::shared_ptr<const Session> session;   ///< resolved target (label)
  data::Image image;                        ///< decoded image (label)
  Matrix rows;                              ///< 1 x F affinity rows
  bool done = false;  ///< `response` is final; later stages skip
  std::string response;
};

}  // namespace

Status Service::Run(std::istream& in, std::ostream& out) {
  if (stop_requested_.load()) return Status::OK();
  const PipelineOptions& popt = config_.pipeline;
  const uint64_t admission_cap =
      static_cast<uint64_t>(popt.admission_capacity);
  // In-flight requests never exceed the admission cap, so lanes bounded
  // by it never fill; the reader alone waits, at admission.
  const int lane_capacity = popt.admission_capacity;
  const int64_t deadline_micros = config_.request_deadline_micros;
  // Once the request aged past its deadline, answers it with the
  // deadline error, releases what it holds and returns true. Stages call
  // this before starting expensive work so a stalled stage sheds its
  // queue instead of grinding through stale requests.
  auto shed_expired = [this, deadline_micros](PipeItem& item) {
    if (deadline_micros == 0 ||
        MonotonicMicros() - item.admit_micros <= deadline_micros) {
      return false;
    }
    errors_.fetch_add(1);
    PipeItem shed;
    shed.seq = item.seq;
    shed.response = ErrorResponse("request deadline exceeded",
                                  StatusCode::kDeadlineExceeded)
                        .Dump();
    shed.done = true;
    item = std::move(shed);
    return true;
  };

  // Reorder state: responses land here keyed by sequence number; the
  // writer emits them in input order. Bounded by admission control —
  // `submitted - written <= admission_cap` always.
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::map<uint64_t, std::string> done;
  uint64_t written = 0;
  uint64_t submitted = 0;
  bool intake_closed = false;
  uint64_t total = 0;

  Pipeline<PipeItem> pipe;

  // Stage 1 — decode: parse JSON, route. `label` requests resolve their
  // session and image here (DecodeLabel, as in HandleRequest) and
  // continue down the fast path; every other op (stats, label_batch,
  // registry ops, malformed input) is answered in place via the shared
  // HandleRequest path, preserving the serial semantics (and counters)
  // exactly.
  pipe.AddStage(
      // max_batch lets one wake drain every queued line — items are
      // still parsed one by one, the batching only amortizes lane
      // wakeups under load.
      {"decode", popt.decode_threads, lane_capacity, popt.max_batch},
      [this, &shed_expired](std::vector<PipeItem>& items) {
        GOGGLES_FAILPOINT("serve.stage.decode");
        for (PipeItem& item : items) {
          if (shed_expired(item)) {
            requests_served_.fetch_add(1);
            continue;
          }
          Result<JsonValue> request = JsonValue::Parse(item.line);
          item.line.clear();
          if (!request.ok()) {
            requests_served_.fetch_add(1);
            errors_.fetch_add(1);
            item.response = ErrorResponse(request.status()).Dump();
            item.done = true;
            continue;
          }
          const JsonValue* op =
              request->is_object() ? request->Find("op") : nullptr;
          if (op == nullptr || !op->is_string() || op->str() != "label") {
            item.response = HandleRequest(*request).Dump();
            item.done = true;
            continue;
          }
          requests_served_.fetch_add(1);
          const Status decoded =
              DecodeLabel(*request, &item.session, &item.image);
          if (!decoded.ok()) {
            item.response = ErrorResponse(decoded).Dump();
            item.done = true;
          }
        }
      });

  // Stage 2 — extract: the batching stage. Hands every label request
  // of the batch to BuildGroupedQueryRows, whose row i is bit-identical
  // to extracting image i alone.
  pipe.AddStage(
      {"extract", popt.extract_threads, lane_capacity, popt.max_batch},
      [this, &shed_expired](std::vector<PipeItem>& items) {
        GOGGLES_FAILPOINT("serve.stage.extract");
        std::vector<PipeItem*> pending;
        std::vector<ExtractRequest> requests;
        for (PipeItem& item : items) {
          if (item.done || shed_expired(item)) continue;
          pending.push_back(&item);
          requests.push_back({item.session.get(), &item.image});
        }
        std::vector<Result<Matrix>> rows = BuildGroupedQueryRows(requests);
        for (size_t i = 0; i < pending.size(); ++i) {
          PipeItem& item = *pending[i];
          if (!rows[i].ok()) {
            errors_.fetch_add(1);
            item.response = ErrorResponse(rows[i].status()).Dump();
            item.done = true;
            continue;
          }
          item.rows = std::move(*rows[i]);
          item.image = data::Image();  // pixels no longer needed
        }
      });

  // Stage 3 — infer: posterior evaluation of each request's affinity
  // row under its session's fitted hierarchical model, encoded as
  // HandleRequest encodes it. Items are inferred independently; the
  // batch only amortizes wakeups.
  pipe.AddStage(
      {"infer", popt.infer_threads, lane_capacity, popt.max_batch},
      [this, &shed_expired](std::vector<PipeItem>& items) {
        GOGGLES_FAILPOINT("serve.stage.infer");
        for (PipeItem& item : items) {
          if (item.done || shed_expired(item)) continue;
          item.response =
              LabelResponse(item.session->InferRows(item.rows)).Dump();
        }
      });

  pipe.SetWatchdogBudgetMicros(popt.watchdog_budget_micros);
  pipe.Start([&](PipeItem&& item) {
    {
      std::lock_guard<std::mutex> lock(done_mu);
      done.emplace(item.seq, std::move(item.response));
    }
    done_cv.notify_all();
  });

  // Expose the live flowgraph to the `stats` op for the duration of the
  // run (the callback outlives every stage thread that can invoke it:
  // it is cleared only after Drain()).
  {
    std::lock_guard<std::mutex> lock(pipeline_stats_mu_);
    pipeline_stats_fn_ = [this, &pipe, &done_mu, &written, &submitted,
                          admission_cap, reject = popt.reject_on_full] {
      JsonValue section = JsonValue::MakeObject();
      section.Set("mode", JsonValue(std::string("pipelined")));
      JsonValue admission = JsonValue::MakeObject();
      admission.Set("capacity",
                    JsonValue(static_cast<double>(admission_cap)));
      {
        std::lock_guard<std::mutex> lock(done_mu);
        admission.Set("in_flight",
                      JsonValue(static_cast<double>(submitted - written)));
      }
      admission.Set("policy", JsonValue(std::string(
                                  reject ? "reject" : "block")));
      admission.Set("rejected", JsonValue(static_cast<double>(
                                    pipeline_rejected_.load())));
      section.Set("admission", std::move(admission));
      JsonValue stages = JsonValue::MakeArray();
      for (const PipelineStageStats& s : pipe.Stats()) {
        JsonValue stage = JsonValue::MakeObject();
        stage.Set("name", JsonValue(s.name));
        stage.Set("threads", JsonValue(s.num_threads));
        stage.Set("queue_capacity",
                  JsonValue(static_cast<double>(s.queue_capacity)));
        stage.Set("queue_depth",
                  JsonValue(static_cast<double>(s.queue_depth)));
        stage.Set("items", JsonValue(static_cast<double>(s.items)));
        stage.Set("batches", JsonValue(static_cast<double>(s.batches)));
        stage.Set("backpressured",
                  JsonValue(static_cast<double>(s.backpressured)));
        stage.Set("stalls", JsonValue(static_cast<double>(s.stalls)));
        stages.Append(std::move(stage));
      }
      section.Set("stages", std::move(stages));
      return section;
    };
  }

  // Let RequestStop() rouse the reader should it be parked on the
  // admission-control wait below.
  {
    std::lock_guard<std::mutex> lock(run_wake_mu_);
    run_wake_cv_ = &done_cv;
  }

  std::thread writer([&] {
    uint64_t next = 0;
    std::unique_lock<std::mutex> lock(done_mu);
    while (true) {
      done_cv.wait(lock, [&] {
        return done.count(next) > 0 || (intake_closed && next >= total);
      });
      if (done.count(next) == 0) break;  // all input handled
      std::string response = std::move(done[next]);
      done.erase(next);
      ++next;
      ++written;
      done_cv.notify_all();  // frees the reader blocked on admission
      lock.unlock();
      out << response << "\n" << std::flush;
      lock.lock();
    }
  });

  // Reader + admission control. In-flight (submitted - written) never
  // exceeds admission_cap: block mode stalls the reader — classic
  // backpressure on the input stream — while reject mode sheds the
  // request with an immediate error response that still occupies its
  // slot in the output order.
  std::string line;
  uint64_t seq = 0;
  while (!stop_requested_.load() && std::getline(in, line)) {
    if (line.empty()) continue;  // tolerate blank lines between requests
    {
      std::unique_lock<std::mutex> lock(done_mu);
      if (popt.reject_on_full) {
        if (submitted - written >= admission_cap) {
          requests_served_.fetch_add(1);
          errors_.fetch_add(1);
          pipeline_rejected_.fetch_add(1);
          done.emplace(seq,
                       ErrorResponse(Status::Unavailable(
                                         "server overloaded: admission "
                                         "queue full"))
                           .Dump());
          ++submitted;
          ++seq;
          done_cv.notify_all();
          line.clear();
          continue;
        }
      } else {
        done_cv.wait(lock, [&] {
          return submitted - written < admission_cap ||
                 stop_requested_.load();
        });
        // Drain trigger while parked: drop the in-hand (unadmitted)
        // line — everything already submitted still flushes below.
        if (stop_requested_.load()) break;
      }
      ++submitted;
    }
    PipeItem item;
    item.seq = seq++;
    item.admit_micros = MonotonicMicros();
    item.line = std::move(line);
    pipe.Submit(std::move(item));
    line.clear();
  }

  pipe.Drain();  // flush every in-flight item into `done`
  {
    std::lock_guard<std::mutex> lock(done_mu);
    intake_closed = true;
    total = seq;
  }
  done_cv.notify_all();
  writer.join();
  {
    std::lock_guard<std::mutex> lock(run_wake_mu_);
    run_wake_cv_ = nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(pipeline_stats_mu_);
    pipeline_stats_fn_ = nullptr;
  }

  if (!out.good()) return Status::IOError("Service::Run: output write failed");
  return Status::OK();
}

}  // namespace goggles::serve
