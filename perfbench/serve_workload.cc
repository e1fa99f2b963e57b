/// \file serve_workload.cc
/// \brief The `serve_unique` and `serve_hot` workloads: an open loop of
/// seeded arrivals into the multi-task gateway (`SessionRegistry` over an
/// artifact directory, driven through `Service::Run`).
///
/// Requests are fed to `Service::Run` through a stream buffer that hands
/// out each request line at its due time; a second stream buffer stamps
/// every response line as it is written. Latency runs from due time to
/// response, so a stalled server is charged for the requests it delayed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <streambuf>
#include <thread>

#include "common.h"
#include "serve/artifact.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using goggles::Rng;
using goggles::StrFormat;
using goggles::data::Image;
using goggles::serve::JsonValue;

/// Requests per burst on serve_hot, and the hot images per task.
constexpr int kBurst = 8;
constexpr int kHotPerTask = 4;

/// The fixed shape of one serve workload.
struct Spec {
  int pool = 0;             ///< fitted pool size of every task
  double low_rate = 0.0;    ///< img/s
  double high_rate = 0.0;   ///< img/s
  double p90_limit_ms = 0;  ///< latency limit of max_rate_img_per_s
  int min_requests = 0;     ///< floor per rate point (p99 needs >= 1000)
};

Spec SpecFor(bool hot, bool tiny) {
  if (tiny) return {hot ? 24 : 36, 40.0, 80.0, 2000.0, 40};
  // Rates sit at about 1/4 and 1/2 of saturation on a 4-core x86 VM.
  if (hot) return {108, 450.0, 900.0, 50.0, 1000};
  return {480, 100.0, 200.0, 50.0, 1000};
}

/// The capacity probe's rate, as a share of the saturated throughput
/// measured so far in the run.
constexpr double kProbeShare = 0.6;

/// The served tasks are fixed deployment state: their pools and held-out
/// splits do not depend on the workload seed, which drives the request
/// stream and the arrival schedule.
constexpr uint64_t kDeploySeed = 1;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One distinct request line and what it must produce.
struct Request {
  std::string line;  ///< NDJSON, newline-terminated
  int label = 0;     ///< ground truth
  int task = 0;
  std::string oracle;  ///< reference response (serial HandleLine)
};

std::string LabelLine(const std::string& task, const Image& img) {
  JsonValue image = JsonValue::MakeObject();
  image.Set("channels", JsonValue(img.channels));
  image.Set("height", JsonValue(img.height));
  image.Set("width", JsonValue(img.width));
  JsonValue pixels = JsonValue::MakeArray();
  for (float v : img.pixels) pixels.Append(JsonValue(static_cast<double>(v)));
  image.Set("pixels", std::move(pixels));
  JsonValue request = JsonValue::MakeObject();
  request.Set("op", JsonValue("label"));
  request.Set("task", JsonValue(task));
  request.Set("image", std::move(image));
  return request.Dump() + "\n";
}

/// Which request is due when, relative to the start of the run.
struct Schedule {
  std::vector<int> request;
  std::vector<int64_t> due_us;
  int64_t repeats = 0;  ///< requests whose image repeats earlier in its burst
};

double Exponential(Rng* rng, double rate) {
  return -std::log(1.0 - rng->Uniform()) / rate;
}

/// Poisson arrivals, each a distinct request while they last.
Schedule PoissonSchedule(int n, double rate, int distinct, Rng* rng) {
  std::vector<int> order(static_cast<size_t>(distinct));
  for (int i = 0; i < distinct; ++i) order[static_cast<size_t>(i)] = i;
  Schedule s;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    const int k = i % distinct;
    if (k == 0) {  // fresh shuffle per pass over the distinct requests
      for (int j = distinct - 1; j > 0; --j) {
        std::swap(order[static_cast<size_t>(j)],
                  order[static_cast<size_t>(rng->UniformInt(0, j))]);
      }
    }
    t += rate > 0 ? Exponential(rng, rate) : 0.0;
    s.request.push_back(order[static_cast<size_t>(k)]);
    s.due_us.push_back(static_cast<int64_t>(t * 1e6));
  }
  return s;
}

/// Poisson bursts of kBurst simultaneous requests (same mean request
/// rate), each for one task drawn uniformly, images drawn from that
/// task's hot set.
Schedule BurstSchedule(int n, double rate,
                       const std::vector<std::vector<int>>& hot, Rng* rng) {
  Schedule s;
  double t = 0.0;
  while (static_cast<int>(s.request.size()) < n) {
    t += rate > 0 ? Exponential(rng, rate / kBurst) : 0.0;
    const auto& set = hot[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(hot.size()) - 1))];
    std::vector<int> seen;
    for (int b = 0; b < kBurst; ++b) {
      const int r = set[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(set.size()) - 1))];
      if (std::find(seen.begin(), seen.end(), r) != seen.end()) ++s.repeats;
      seen.push_back(r);
      s.request.push_back(r);
      s.due_us.push_back(static_cast<int64_t>(t * 1e6));
    }
  }
  return s;
}

/// Output side: stamps and keeps every response line.
class StampingSink : public std::streambuf {
 public:
  std::vector<std::string> lines;
  std::vector<int64_t> stamps;
  std::atomic<size_t> done{0};

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] != '\n') {
        current_.push_back(s[i]);
        continue;
      }
      stamps.push_back(NowMicros());
      lines.push_back(std::move(current_));
      current_.clear();
      done.fetch_add(1, std::memory_order_release);
    }
    return n;
  }

 private:
  std::string current_;
};

/// Input side: hands out request lines at their due times; optionally a
/// trailing `stats` request once every response has been written.
class ScheduledSource : public std::streambuf {
 public:
  ScheduledSource(const std::vector<Request>& requests,
                  const Schedule& schedule, const StampingSink* sink,
                  bool stats)
      : requests_(requests), schedule_(schedule), sink_(sink),
        stats_(stats) {}

  int64_t t0 = 0;
  std::vector<int64_t> handed;

 protected:
  int_type underflow() override {
    const size_t n = schedule_.request.size();
    const std::string* line = nullptr;
    if (next_ < n) {
      if (next_ == 0) t0 = NowMicros() + 2000;
      const int64_t due = t0 + schedule_.due_us[next_];
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::microseconds(due)));
      handed.push_back(NowMicros());
      line = &requests_[static_cast<size_t>(schedule_.request[next_])].line;
    } else if (next_ == n && stats_) {
      while (sink_->done.load(std::memory_order_acquire) < n) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      line = &kStatsLine;
    } else {
      return traits_type::eof();
    }
    ++next_;
    char* base = const_cast<char*>(line->data());
    setg(base, base, base + line->size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  inline static const std::string kStatsLine = "{\"op\":\"stats\"}\n";
  const std::vector<Request>& requests_;
  const Schedule& schedule_;
  const StampingSink* sink_;
  bool stats_;
  size_t next_ = 0;
};

/// The other tenants of the host slow some cycles and not others; the
/// second-best cycle (the 10th percentile of 12) tracks the program, not
/// its neighbours.
double QuietCycle(const std::vector<double>& per_cycle_latency) {
  return Percentile(per_cycle_latency, 0.1);
}

struct PointResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< due -> response, correct responses
  std::vector<double> late_ms;     ///< due -> handed to the server
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;  ///< first due -> last response (one segment)
  /// Per segment: p50, p90, the mean latency of its last tenth (above
  /// the limit when the backlog grew during the segment), and the process
  /// CPU time per request.
  std::vector<double> segment_p50, segment_p90, segment_tail, segment_cpu_ms;
  JsonValue stats;  ///< the trailing stats response, if requested

  double p50() const { return Percentile(latency_ms, 0.50); }
  double p99() const { return Percentile(latency_ms, 0.99); }

  /// Meets the limit: no failures, and p90 and the tail mean within it.
  bool Meets(double limit_ms) const {
    return failed == 0 && !latency_ms.empty() &&
           QuietCycle(segment_p90) <= limit_ms &&
           QuietCycle(segment_tail) <= limit_ms;
  }

  /// Pools another segment of the same rate point into this one.
  void Append(const PointResult& other) {
    rate = other.rate;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    for (auto [to, from] : {std::pair{&segment_p50, &other.segment_p50},
                            std::pair{&segment_p90, &other.segment_p90},
                            std::pair{&segment_tail, &other.segment_tail},
                            std::pair{&segment_cpu_ms, &other.segment_cpu_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
};

PointResult RunPoint(goggles::serve::Service* service,
                     const std::vector<Request>& requests,
                     const Schedule& schedule, double rate, bool stats,
                     int corrupt = -1) {
  StampingSink sink;
  ScheduledSource source(requests, schedule, &sink, stats);
  std::istream in(&source);
  std::ostream out(&sink);
  const double cpu_start = ProcessCpuSeconds();
  service->Run(in, out).Abort("Service::Run");
  const double cpu_s = ProcessCpuSeconds() - cpu_start;

  PointResult r;
  r.rate = rate;
  const size_t n = schedule.request.size();
  r.attempted = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    if (i >= sink.lines.size()) {
      ++r.failed;
      continue;
    }
    if (static_cast<int>(i) == corrupt) sink.lines[i][0] ^= 0x20;
    const int64_t due = source.t0 + schedule.due_us[i];
    r.late_ms.push_back(static_cast<double>(source.handed[i] - due) / 1e3);
    if (sink.lines[i] != requests[static_cast<size_t>(schedule.request[i])]
                             .oracle) {
      ++r.failed;
      continue;
    }
    r.latency_ms.push_back(static_cast<double>(sink.stamps[i] - due) / 1e3);
  }
  const size_t tail = std::max<size_t>(1, r.latency_ms.size() / 10);
  double tail_mean = 0.0;
  for (size_t i = r.latency_ms.size() - std::min(tail, r.latency_ms.size());
       i < r.latency_ms.size(); ++i) {
    tail_mean += r.latency_ms[i] / static_cast<double>(tail);
  }
  r.segment_p50 = {r.p50()};
  r.segment_p90 = {Percentile(r.latency_ms, 0.90)};
  r.segment_tail = {tail_mean};
  r.segment_cpu_ms = {cpu_s * 1e3 / static_cast<double>(std::max<size_t>(n, 1))};
  if (!sink.stamps.empty()) {
    r.wall_s = static_cast<double>(sink.stamps[std::min(n, sink.stamps.size()) -
                                               1] -
                                   source.t0) /
               1e6;
  }
  if (stats) {  // the stats request is one more operation to check
    ++r.attempted;
    auto parsed = sink.lines.size() == n + 1 ? JsonValue::Parse(sink.lines[n])
                                             : JsonValue::Parse("");
    if (parsed.ok() && parsed->Find("pipeline") != nullptr) {
      r.stats = std::move(*parsed);
    } else {
      ++r.failed;
    }
  }
  return r;
}

double StatNumber(const JsonValue& v, std::initializer_list<const char*> path) {
  const JsonValue* cur = &v;
  for (const char* key : path) {
    cur = cur->Find(key);
    if (cur == nullptr) return 0.0;
  }
  return cur->is_number() ? cur->number() : 0.0;
}

/// Executor counters from a stats response: extract-stage items per
/// batch, and backpressure events summed over stages.
void ExecutorCounters(const JsonValue& stats, double* batch_mean,
                      double* backpressured) {
  *batch_mean = 0.0;
  *backpressured = 0.0;
  const JsonValue* pipeline = stats.Find("pipeline");
  const JsonValue* stages = pipeline ? pipeline->Find("stages") : nullptr;
  if (stages == nullptr) return;
  for (const JsonValue& stage : stages->items()) {
    *backpressured += StatNumber(stage, {"backpressured"});
    const JsonValue* name = stage.Find("name");
    if (name != nullptr && name->str() == "extract") {
      const double batches = StatNumber(stage, {"batches"});
      if (batches > 0) *batch_mean = StatNumber(stage, {"items"}) / batches;
    }
  }
}

Image ImageFromJson(const JsonValue& image) {
  Image img(static_cast<int>(StatNumber(image, {"channels"})),
            static_cast<int>(StatNumber(image, {"height"})),
            static_cast<int>(StatNumber(image, {"width"})));
  const std::vector<JsonValue>& px = image.Find("pixels")->items();
  for (size_t i = 0; i < px.size() && i < img.pixels.size(); ++i) {
    img.pixels[i] = static_cast<float>(px[i].number());
  }
  return img;
}

/// The hard label of a label response. Read without JsonValue::Parse,
/// which rejects the subnormal soft labels Dump can emit.
int ResponseLabel(const std::string& response) {
  const size_t at = response.find("\"label\":");
  return at == std::string::npos ? -1 : std::atoi(response.c_str() + at + 8);
}

/// The soft labels of a label response, read the same way.
std::vector<double> ResponseSoft(const std::string& response) {
  std::vector<double> soft;
  const size_t at = response.find("\"soft\":[");
  if (at == std::string::npos) return soft;
  const char* p = response.c_str() + at + 7;  // at '[', then at each ','
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    soft.push_back(std::strtod(p + 1, &end));
    if (end == p + 1) return {};
    p = end;
  }
  return soft;
}

/// True iff a replayed result carries the oracle response's hard label and
/// its soft labels to within 1e-9, whatever the response's exact bytes.
bool MatchesOracle(const goggles::LabelingResult& labels,
                   const std::string& oracle) {
  const std::vector<double> soft = ResponseSoft(oracle);
  if (ResponseLabel(oracle) != labels.hard_labels.front() ||
      static_cast<int64_t>(soft.size()) != labels.soft_labels.cols()) {
    return false;
  }
  for (size_t k = 0; k < soft.size(); ++k) {
    const double v = labels.soft_labels(0, static_cast<int64_t>(k));
    if (std::fabs(v - soft[k]) > 1e-9) return false;
  }
  return true;
}

std::string OraclePath(const std::string& dir) { return dir + "/oracle.txt"; }

/// One request per held-out image of every task, in task order.
std::vector<Request> BuildRequests(const std::vector<BenchTask>& tasks) {
  std::vector<Request> requests;
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (size_t i = 0; i < tasks[t].test.size(); ++i) {
      requests.push_back({LabelLine(tasks[t].name, tasks[t].test[i]),
                          tasks[t].test_labels[i], static_cast<int>(t), ""});
    }
  }
  return requests;
}

/// The traced run: the low and high points again with a trailing `stats`
/// request (executor and registry counters; it is sent after the last
/// response, off the timed path), and a serial replay of the low point's
/// first requests through each layer's public functions.
template <typename MakeSchedule>
void AddServeLayerMetrics(
    const Options& options, const Spec& spec,
    const std::vector<Request>& requests, MakeSchedule& make,
    const std::shared_ptr<goggles::serve::SessionRegistry>& registry,
    goggles::serve::Service* service, Outcome* out) {
  auto points = [&](double share, double rate) {
    return std::max(spec.min_requests,
                    static_cast<int>(share * options.seconds * rate));
  };
  const Schedule low_schedule =
      make(points(0.3, spec.low_rate), spec.low_rate);
  const PointResult low =
      RunPoint(service, requests, low_schedule, spec.low_rate, true);
  const PointResult high = RunPoint(
      service, requests, make(points(0.15, spec.high_rate), spec.high_rate),
      spec.high_rate, true);
  for (const PointResult* p : {&low, &high}) {
    out->attempted += p->attempted;
    out->failed += p->failed;
  }

  // Per-task layer state rebuilt the way a session holds it.
  struct TaskLayers {
    std::unique_ptr<goggles::PrototypeAffinitySource> source;
    goggles::FittedHierarchicalModel model;
    double mflop_per_req = 0.0;
  };
  auto extractor = LoadBackbone();
  std::vector<TaskLayers> layers;
  std::vector<double> load_s;
  for (const std::string& name : DatasetNames()) {
    const std::string path = options.artifact_dir + "/" + name + ".ggsa";
    const auto start = Clock::now();
    goggles::serve::Session::Load(path, extractor)
        .status()
        .Abort("Session::Load");
    load_s.push_back(SecondsSince(start));
    auto artifact = goggles::serve::Artifact::Load(path);
    artifact.status().Abort("Artifact::Load");
    TaskLayers tl;
    tl.mflop_per_req = QueryScoringMflop(artifact->source_layers);
    tl.source = std::make_unique<goggles::PrototypeAffinitySource>(
        extractor, artifact->top_z);
    tl.source
        ->Restore(std::move(artifact->source_layers),
                  static_cast<int>(artifact->model.pool_size),
                  artifact->pool_fingerprint)
        .Abort("Restore");
    tl.model = std::move(artifact->model);
    layers.push_back(std::move(tl));
  }

  std::vector<double> parse, kb, acquire, extract, score, infer, encode,
      mflop;
  double replay_s = 0.0;  // wall time of the replay, timed calls included
  const size_t replay = std::min<size_t>(low_schedule.request.size(),
                                         options.tiny() ? 20 : 200);
  for (size_t i = 0; i < replay; ++i) {
    const auto request_start = Clock::now();
    const Request& r = requests[static_cast<size_t>(low_schedule.request[i])];
    const std::string line = r.line.substr(0, r.line.size() - 1);
    ++out->attempted;
    auto t = Clock::now();
    auto parsed = JsonValue::Parse(line);
    parse.push_back(SecondsSince(t) * 1e6);
    parsed.status().Abort("JsonValue::Parse");
    kb.push_back(static_cast<double>(line.size()) / 1024.0);
    const Image img = ImageFromJson(*parsed->Find("image"));
    TaskLayers& tl = layers[static_cast<size_t>(r.task)];

    t = Clock::now();
    auto session = registry->Acquire(parsed->Find("task")->str());
    acquire.push_back(SecondsSince(t) * 1e6);
    session.status().Abort("SessionRegistry::Acquire");

    t = Clock::now();
    auto features = tl.source->ExtractQueryFeatures({img});
    extract.push_back(SecondsSince(t) * 1e6);
    features.status().Abort("ExtractQueryFeatures");

    t = Clock::now();
    auto rows = tl.source->ScoreQueryRowsBatched(
        *features, static_cast<int>(tl.model.num_functions()));
    score.push_back(SecondsSince(t) * 1e6);
    rows.status().Abort("ScoreQueryRowsBatched");
    mflop.push_back(tl.mflop_per_req);

    t = Clock::now();
    auto labels = tl.model.Infer(*rows);
    infer.push_back(SecondsSince(t) * 1e6);
    labels.status().Abort("FittedHierarchicalModel::Infer");

    // The replayed labels must be the served ones; the response is built
    // as the protocol builds it, to time its encoding.
    if (!MatchesOracle(*labels, r.oracle)) ++out->failed;
    JsonValue response = JsonValue::MakeObject();
    response.Set("ok", JsonValue(true));
    response.Set("label", JsonValue(labels->hard_labels.front()));
    JsonValue soft = JsonValue::MakeArray();
    for (int64_t k = 0; k < labels->soft_labels.cols(); ++k) {
      soft.Append(JsonValue(labels->soft_labels(0, k)));
    }
    response.Set("soft", std::move(soft));
    t = Clock::now();
    const std::string encoded = response.Dump();
    encode.push_back(SecondsSince(t) * 1e6);
    replay_s += SecondsSince(request_start);
  }
  double timed_us = 0.0;
  for (const auto* spans : {&parse, &acquire, &extract, &score, &infer,
                            &encode}) {
    for (double us : *spans) timed_us += us;
  }

  double batch_low = 0, back_low = 0, batch_high = 0, back_high = 0;
  ExecutorCounters(low.stats, &batch_low, &back_low);
  ExecutorCounters(high.stats, &batch_high, &back_high);
  const double layer_ms = (Median(parse) + Median(acquire) + Median(extract) +
                           Median(score) + Median(infer) + Median(encode)) /
                          1e3;
  out->Add("json.parse_us", Median(parse), "us");
  out->Add("json.request_kb", Median(kb), "KB");
  out->Add("json.encode_us", Median(encode), "us");
  out->Add("registry.acquire_us", Median(acquire), "us");
  out->Add("registry.loads", StatNumber(high.stats, {"registry", "loads"}),
           "count");
  out->Add("registry.evictions",
           StatNumber(high.stats, {"registry", "evictions"}), "count");
  out->Add("artifact.load_s", Median(load_s), "s");
  out->Add("features.extract_us", Median(extract), "us");
  out->Add("features.mflop_per_img", BackboneMflopPerImage(*extractor),
           "MFLOP");
  out->Add("affinity.score_us", Median(score), "us");
  out->Add("affinity.mflop_per_req", Median(mflop), "MFLOP");
  out->Add("affinity.gflop_s", Median(mflop) / Median(score) * 1e3,
           "GFLOP/s");
  out->Add("hierarchical.infer_us", Median(infer), "us");
  out->Add("executor.extract_batch_mean.low", batch_low, "items/batch");
  out->Add("executor.extract_batch_mean.high", batch_high, "items/batch");
  out->Add("executor.backpressured.low", back_low, "count");
  out->Add("executor.backpressured.high", back_high, "count");
  out->Add("executor.rejected",
           StatNumber(high.stats, {"pipeline", "admission", "rejected"}),
           "count");
  out->Add("executor.overhead_ms.low", low.p50() - layer_ms, "ms");
  out->Add("workload.dup_share",
           static_cast<double>(low_schedule.repeats) /
               static_cast<double>(low_schedule.request.size()),
           "fraction");
  out->Add("gen.late_p99_ms", Percentile(low.late_ms, 0.99), "ms");
  // The rate points carry no tracing; what tracing costs is the replay's
  // time outside its timed calls (clock reads, rebuilding each image and
  // response), per replayed request.
  out->Add("trace.overhead_ms",
           (replay_s * 1e3 - timed_us / 1e3) / static_cast<double>(replay),
           "ms");
  out->Note(StrFormat(
      "traced low point: p50 %.3f ms = layers %.3f ms + executor overhead "
      "%.3f ms",
      low.p50(), layer_ms, low.p50() - layer_ms));
}

}  // namespace

void MakeServeArtifacts(const Options& options, bool hot) {
  const Spec spec = SpecFor(hot, options.tiny());
  auto extractor = LoadBackbone();
  fs::create_directories(options.artifact_dir);
  const std::vector<BenchTask> tasks =
      MakeBenchTasks(options.work_dir, spec.pool, kDeploySeed);
  for (const BenchTask& task : tasks) {
    auto session = goggles::serve::Session::Fit(
        extractor, task.pool, task.dev_indices, task.dev_labels,
        task.num_classes);
    session.status().Abort("Session::Fit");
    session->Save(options.artifact_dir + "/" + task.name + ".ggsa")
        .Abort("Session::Save");
  }
  // The oracle: every request answered serially through HandleLine.
  goggles::serve::RegistryConfig config;
  config.artifact_dir = options.artifact_dir;
  goggles::serve::Service service(
      std::make_shared<goggles::serve::SessionRegistry>(extractor, config),
      nullptr);
  std::ofstream out(OraclePath(options.artifact_dir) + ".tmp");
  for (const Request& r : BuildRequests(tasks)) {
    const std::string response =
        service.HandleLine(r.line.substr(0, r.line.size() - 1));
    if (response.rfind("{\"ok\":true", 0) != 0) {
      Fail("oracle request failed: " + response.substr(0, 200));
    }
    out << response << '\n';
  }
  out.close();
  if (!out) Fail("cannot write the oracle");
  fs::rename(OraclePath(options.artifact_dir) + ".tmp",
             OraclePath(options.artifact_dir));
}

Outcome RunServeWorkload(const Options& options, bool hot) {
  const Spec spec = SpecFor(hot, options.tiny());
  Outcome out;

  // label_accuracy covers every held-out image of every task, read from
  // the oracle responses (each timed response must equal its oracle byte
  // for byte). Request lines are built only for the images the workload
  // sends: all of them on serve_unique, a seeded hot set of kHotPerTask
  // per task on serve_hot.
  Rng rng(options.seed * 0xD1B54A32D192ED03ULL + (hot ? 2 : 1));
  std::vector<Request> requests;
  std::vector<std::vector<int>> hot_sets(DatasetNames().size());
  double accuracy = 0.0;
  {
    const std::vector<BenchTask> tasks = MakeBenchTasks(
        options.work_dir, spec.pool, kDeploySeed, /*keep_pool=*/false);
    std::ifstream oracle_file(OraclePath(options.artifact_dir));
    double correct = 0.0, total = 0.0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      const BenchTask& task = tasks[t];
      std::vector<std::string> oracle(task.test.size());
      double task_correct = 0.0;
      for (size_t i = 0; i < oracle.size(); ++i) {
        std::getline(oracle_file, oracle[i]);
        task_correct += ResponseLabel(oracle[i]) == task.test_labels[i];
      }
      correct += task_correct;
      total += static_cast<double>(oracle.size());
      out.Note(StrFormat("accuracy %-8s pool %d: %.4f (%zu held-out images)",
                         task.name.c_str(), spec.pool,
                         task_correct / static_cast<double>(oracle.size()),
                         oracle.size()));
      std::vector<int> send(oracle.size());
      for (size_t i = 0; i < send.size(); ++i) send[i] = static_cast<int>(i);
      if (hot) {
        for (int h = 0; h < kHotPerTask; ++h) {  // seeded partial shuffle
          std::swap(send[static_cast<size_t>(h)],
                    send[static_cast<size_t>(rng.UniformInt(
                        h, static_cast<int64_t>(send.size()) - 1))]);
        }
        send.resize(kHotPerTask);
      }
      for (int i : send) {
        const size_t k = static_cast<size_t>(i);
        hot_sets[t].push_back(static_cast<int>(requests.size()));
        requests.push_back({LabelLine(task.name, task.test[k]),
                            task.test_labels[k], static_cast<int>(t),
                            std::move(oracle[k])});
      }
    }
    std::string extra;
    if (!oracle_file || std::getline(oracle_file, extra)) {
      Fail("oracle file does not match the held-out images");
    }
    accuracy = correct / total;
  }
  // The harness's own data ends here: peak_rss_mb counts from this point.
  out.rss_baseline_mb = ResetPeakRss();

  // Set-up: backbone load plus loading every task into a fresh registry,
  // five times; the median is reported and the last registry serves.
  std::shared_ptr<goggles::features::FeatureExtractor> extractor;
  std::shared_ptr<goggles::serve::SessionRegistry> registry;
  std::vector<double> setup;
  for (int rep = 0; rep < 5; ++rep) {
    registry.reset();
    const auto start = Clock::now();
    extractor = LoadBackbone();
    goggles::serve::RegistryConfig config;
    config.artifact_dir = options.artifact_dir;
    registry = std::make_shared<goggles::serve::SessionRegistry>(extractor,
                                                                 config);
    for (const std::string& name : DatasetNames()) {
      registry->Acquire(name).status().Abort("SessionRegistry::Acquire");
    }
    setup.push_back(SecondsSince(start));
  }
  goggles::serve::Service service(registry, nullptr);

  const int distinct = static_cast<int>(requests.size());
  auto make = [&](int n, double rate) {
    return hot ? BurstSchedule(n, rate, hot_sets, &rng)
               : PoissonSchedule(n, rate, distinct, &rng);
  };
  auto tally = [&](const PointResult& p) {
    out.attempted += p.attempted;
    out.failed += p.failed;
  };

  // Warm-up: the first Run after start is several times slower.
  const int warm = std::max(spec.min_requests / 5, 20);
  tally(RunPoint(&service, requests, make(warm, 0.0), 0.0, false));

  if (options.trace) {
    AddServeLayerMetrics(options, spec, requests, make, registry, &service,
                         &out);
    return out;
  }

  // The timed rate points run in interleaved cycles (flood, low, high,
  // capacity probe), so a slow spell of the host hits every point alike.
  const int cycles = options.tiny() ? 1 : 12;
  const double cycle_s = options.seconds / cycles;
  auto count = [&](double share, double rate) {
    return std::max(spec.min_requests / cycles,
                    static_cast<int>(share * cycle_s * rate));
  };
  PointResult low, high, probe;
  std::vector<double> capacity;
  const int flood_n = count(0.1, 2.0 * spec.high_rate);
  for (int c = 0; c < cycles; ++c) {
    const PointResult flood =
        RunPoint(&service, requests, make(flood_n, 0.0), 0.0, false);
    tally(flood);
    capacity.push_back(flood_n / flood.wall_s);
    const PointResult l =
        RunPoint(&service, requests, make(count(0.45, spec.low_rate),
                                          spec.low_rate),
                 spec.low_rate, false, c == 0 ? options.corrupt_response : -1);
    const PointResult h = RunPoint(
        &service, requests, make(count(0.35, spec.high_rate), spec.high_rate),
        spec.high_rate, false);
    const double rate = kProbeShare * Percentile(capacity, 0.9);
    const PointResult p = RunPoint(
        &service, requests, make(count(0.1, rate), rate), rate, false);
    for (const PointResult* r : {&l, &h, &p}) tally(*r);
    low.Append(l);
    high.Append(h);
    probe.Append(p);
  }

  // The flood measures what the gateway sustains with its admission
  // window full; max_rate_img_per_s is the highest of the probe, `high`
  // and `low` rates meeting the latency limit.
  const double saturated = Percentile(capacity, 0.9);
  double max_rate = 0.0;
  for (const PointResult* p : {&probe, &high, &low}) {
    if (p->Meets(spec.p90_limit_ms)) {
      max_rate = p->rate;
      break;
    }
  }
  for (const PointResult* p : {&low, &high, &probe}) {
    out.Note(StrFormat(
        "%s %.0f img/s: %zu requests pooled, p50 %.3f ms, p90 %.3f ms, p99 "
        "%.3f ms, generator late p99 %.3f ms; quiet-cycle p50 %.3f ms, p90 "
        "%.3f ms",
        p == &low ? "low" : p == &high ? "high" : "probe", p->rate,
        p->latency_ms.size(), p->p50(), Percentile(p->latency_ms, 0.9),
        p->p99(), Percentile(p->late_ms, 0.99), QuietCycle(p->segment_p50),
        QuietCycle(p->segment_p90)));
  }
  out.Note(StrFormat(
      "saturated %.1f img/s (90th percentile of %zu floods); "
      "max_rate_img_per_s %.1f at p90 <= %.0f ms (0: no rate met it)",
      saturated, capacity.size(), max_rate, spec.p90_limit_ms));
  out.Add("setup_s", Median(setup), "s");
  out.Add("cpu_ms_per_img.low", Median(low.segment_cpu_ms), "ms");
  out.Add("cpu_ms_per_img.high", Median(high.segment_cpu_ms), "ms");
  out.Add("label_accuracy", accuracy, "fraction");
  return out;
}

}  // namespace perfbench
