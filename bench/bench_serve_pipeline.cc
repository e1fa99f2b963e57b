/// \file bench_serve_pipeline.cc
/// \brief Serving-path benchmark: the staged flowgraph with and without
/// extract-stage micro-batching on the same NDJSON request streams.
///
/// A session is fitted once; then the same stream of R `label` requests
/// is replayed through `serve::Service::Run` with extraction micro-batch
/// 1 and 8, on a unique and a duplicate-heavy ("hot") stream. Batch 8
/// groups whatever is queued and never waits for more. Each row is
/// replayed kReplays times, the two rows alternating which goes first,
/// and every figure is the median over a row's replays.
///
/// In-flight concurrency is pinned to C (admission_capacity) in every
/// row, so the throughput and latency numbers compare the batching, not
/// the admission policy. Per-request latency is measured with a timestamping
/// stream pair: the input streambuf stamps the instant each request line
/// is consumed by the reader, the output streambuf stamps the instant its
/// response line is flushed; responses arrive in input order, so the two
/// stamp vectors pair up index-for-index.
///
/// Metrics land in BENCH_serve_pipeline.json via the bench_common.h hook;
/// the headline metric is `batch_speedup` = median batch-8 img/s divided
/// by median batch-1 img/s on the hot stream, same run, gated at >= 1.0x
/// by bench/check_serve_regression.py in CI.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/clock.h"
#include "util/pipeline.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

// C: concurrent in-flight requests. Kept at 2x the extraction batch cap
// so the decode stage refills the extract queue while a batch computes —
// with C == max_batch the batching stage would hold every admitted item
// and starve its own intake.
constexpr int kInFlight = 16;

// Measured replays per row and stream. Odd, so each median is one replay;
// single replays of this short stream spread too widely to gate on.
constexpr int kReplays = 7;

/// \brief Input streambuf serving one request line per underflow and
/// stamping the instant the reader consumed it.
class TimestampedLineSource : public std::streambuf {
 public:
  TimestampedLineSource(const std::string& text, std::vector<int64_t>* stamps)
      : text_(text), stamps_(stamps) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    size_t end = text_.find('\n', pos_);
    end = (end == std::string::npos) ? text_.size() : end + 1;
    stamps_->push_back(MonotonicMicros());
    char* base = const_cast<char*>(text_.data());
    setg(base + pos_, base + pos_, base + end);
    pos_ = end;
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::string& text_;
  std::vector<int64_t>* stamps_;
  size_t pos_ = 0;
};

/// \brief Output streambuf stamping the completion of each response line.
class TimestampingSink : public std::streambuf {
 public:
  explicit TimestampingSink(std::vector<int64_t>* stamps) : stamps_(stamps) {}
  const std::string& str() const { return buffer_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    Put(traits_type::to_char_type(ch));
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) Put(s[i]);
    return n;
  }

 private:
  void Put(char c) {
    buffer_.push_back(c);
    if (c == '\n') stamps_->push_back(MonotonicMicros());
  }

  std::string buffer_;
  std::vector<int64_t>* stamps_;
};

std::string ImageToJson(const data::Image& img) {
  serve::JsonValue obj = serve::JsonValue::MakeObject();
  obj.Set("channels", serve::JsonValue(img.channels));
  obj.Set("height", serve::JsonValue(img.height));
  obj.Set("width", serve::JsonValue(img.width));
  serve::JsonValue pixels = serve::JsonValue::MakeArray();
  for (float v : img.pixels) {
    pixels.Append(serve::JsonValue(static_cast<double>(v)));
  }
  obj.Set("pixels", std::move(pixels));
  return obj.Dump();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct RowResult {
  double seconds = 0.0;
  double img_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double error_rate = 0.0;
};

/// \brief Fraction of NDJSON response lines carrying `"ok":false`.
double ErrorRate(const std::string& responses, int requests) {
  if (requests <= 0) return 0.0;
  int errors = 0;
  size_t pos = 0;
  while ((pos = responses.find("\"ok\":false", pos)) != std::string::npos) {
    ++errors;
    ++pos;
  }
  return static_cast<double>(errors) / static_cast<double>(requests);
}

RowResult ReplayStream(const std::shared_ptr<const serve::Session>& session,
                       const serve::ServiceConfig& config,
                       const std::string& stream, int requests) {
  serve::Service service(session, config);
  std::vector<int64_t> in_stamps;
  std::vector<int64_t> out_stamps;
  in_stamps.reserve(static_cast<size_t>(requests));
  out_stamps.reserve(static_cast<size_t>(requests));
  TimestampedLineSource source(stream, &in_stamps);
  TimestampingSink sink(&out_stamps);
  std::istream in(&source);
  std::ostream out(&sink);

  WallTimer timer;
  Status status = service.Run(in, out);
  RowResult row;
  row.seconds = timer.ElapsedSeconds();
  status.Abort("Service::Run");
  if (in_stamps.size() != static_cast<size_t>(requests) ||
      out_stamps.size() != static_cast<size_t>(requests)) {
    std::fprintf(stderr, "stamp mismatch: %zu reads, %zu responses, %d sent\n",
                 in_stamps.size(), out_stamps.size(), requests);
    std::abort();
  }
  std::vector<double> latency_ms;
  latency_ms.reserve(in_stamps.size());
  for (size_t i = 0; i < in_stamps.size(); ++i) {
    latency_ms.push_back(
        static_cast<double>(out_stamps[i] - in_stamps[i]) / 1000.0);
  }
  row.img_per_s = static_cast<double>(requests) / std::max(row.seconds, 1e-9);
  row.p50_ms = Percentile(latency_ms, 0.50);
  row.p99_ms = Percentile(latency_ms, 0.99);
  row.error_rate = ErrorRate(sink.str(), requests);
  return row;
}

void RunExperiment() {
  BenchScale scale = GetBenchScale();
  Banner("Serving — staged flowgraph, extraction batch 1 vs 8", scale);
  eval::RunnerContext ctx = MakeBenchContext();

  eval::TaskSuiteConfig task_config;
  task_config.num_pairs = 1;
  task_config.images_per_class = scale.name == "paper" ? 150 : 90;
  auto tasks = eval::MakeTasks("surface", task_config);
  tasks.status().Abort("tasks");
  const eval::LabelingTask& task = (*tasks)[0];

  auto fitted =
      serve::Session::Fit(ctx.extractor, task.train.images, task.dev_indices,
                          task.dev_labels, task.num_classes, ctx.goggles);
  fitted.status().Abort("Session::Fit");
  auto session =
      std::make_shared<const serve::Session>(std::move(*fitted));

  // Two request streams of R labels each, serialized once so every row
  // replays identical bytes:
  //  - unique: every request a distinct held-out test image (cycled),
  //  - hot: two distinct images cycled — duplicate-heavy traffic, the
  //    regime extract-stage dedup and micro-batching are built for.
  const int requests = scale.name == "paper" ? 192 : 64;
  auto make_stream = [&](size_t distinct) {
    std::string stream;
    for (int i = 0; i < requests; ++i) {
      const data::Image& img =
          task.test.images[static_cast<size_t>(i) %
                           std::min(distinct, task.test.images.size())];
      stream += R"({"op":"label","image":)" + ImageToJson(img) + "}\n";
    }
    return stream;
  };
  const std::string unique_stream = make_stream(task.test.images.size());
  const std::string hot_stream = make_stream(2);

  // In-flight bounded by admission_capacity; batch 1 disables extraction
  // micro-batching, batch 8 groups whatever is queued.
  serve::ServiceConfig pipe1;
  pipe1.pipeline.admission_capacity = kInFlight;
  pipe1.pipeline.max_batch = 1;
  // One extraction consumer: round-robin across two would split the
  // arrival trickle so neither accumulates a full batch on the small
  // machines this bench targets.
  pipe1.pipeline.extract_threads = 1;
  serve::ServiceConfig pipe8 = pipe1;
  pipe8.pipeline.max_batch = 8;

  struct NamedRow {
    const char* label;
    const char* metric_prefix;
    const serve::ServiceConfig* config;
  };
  const NamedRow rows[] = {
      {"pipelined, batch 1", "pipe_batch1_", &pipe1},
      {"pipelined, batch 8", "pipe_batch8_", &pipe8},
  };
  const struct {
    const char* label;
    const char* metric_prefix;
    const std::string* stream;
  } workloads[] = {
      {"unique", "unique_", &unique_stream},
      {"hot", "hot_", &hot_stream},
  };

  AsciiTable table(StrFormat(
      "Serve hot path: %d label requests, %d in flight", requests, kInFlight));
  table.SetHeader(
      {"workload", "mode", "wall (s)", "img/s", "p50 (ms)", "p99 (ms)"});
  double img_per_s[2][2] = {};
  for (int w = 0; w < 2; ++w) {
    const std::string& stream = *workloads[w].stream;
    // Warm-up replays outside the timers (first-touch allocation, thread
    // spin-up), then kReplays rounds in which the two rows swap order.
    for (const NamedRow& row : rows) {
      ReplayStream(session, *row.config, stream, requests);
    }
    std::vector<RowResult> results[2];
    for (int round = 0; round < kReplays; ++round) {
      for (int k = 0; k < 2; ++k) {
        const int r = round % 2 == 0 ? k : 1 - k;
        results[r].push_back(
            ReplayStream(session, *rows[r].config, stream, requests));
      }
    }
    for (int r = 0; r < 2; ++r) {
      const auto median = [&](double RowResult::*field) {
        std::vector<double> values;
        for (const RowResult& result : results[r]) {
          values.push_back(result.*field);
        }
        return Percentile(std::move(values), 0.5);
      };
      const NamedRow& row = rows[r];
      img_per_s[w][r] = median(&RowResult::img_per_s);
      table.AddRow({workloads[w].label, row.label,
                    StrFormat("%.3f", median(&RowResult::seconds)),
                    StrFormat("%.1f", img_per_s[w][r]),
                    StrFormat("%.2f", median(&RowResult::p50_ms)),
                    StrFormat("%.2f", median(&RowResult::p99_ms))});
      const std::string prefix =
          std::string(workloads[w].metric_prefix) + row.metric_prefix;
      RecordBenchMetric(prefix + "img_per_s", img_per_s[w][r]);
      RecordBenchMetric(prefix + "p50_ms", median(&RowResult::p50_ms));
      RecordBenchMetric(prefix + "p99_ms", median(&RowResult::p99_ms));
    }
    std::printf("  [%s done]\n", workloads[w].label);
  }

  // Headline: extraction micro-batch 8 against batch 1 on the
  // duplicate-heavy stream, where grouping dedups the hot images — the
  // batching must never lose there.
  const double batch_speedup =
      img_per_s[1][1] / std::max(img_per_s[1][0], 1e-9);
  RecordBenchMetric("in_flight", kInFlight);
  RecordBenchMetric("requests", requests);
  RecordBenchMetric("replays", kReplays);
  RecordBenchMetric("batch_speedup", batch_speedup);

  // fault_recovery: the same unique stream with ~1% of requests replaced
  // by protocol-level faults (a pixels array of the wrong length). Each
  // bad line still produces exactly one `"ok":false` response carrying a
  // stable error_code, so the replay accounting is unchanged; the row
  // measures how much tail latency the error path costs the healthy
  // requests sharing the flowgraph.
  int faults = 0;
  std::string faulty_stream;
  {
    const std::string bad_image =
        R"({"channels":3,"height":2,"width":2,"pixels":[0.25]})";
    size_t line_start = 0;
    int i = 0;
    while (line_start < unique_stream.size()) {
      size_t line_end = unique_stream.find('\n', line_start);
      if (line_end == std::string::npos) line_end = unique_stream.size() - 1;
      if (i % 97 == 0) {
        faulty_stream +=
            R"({"op":"label","image":)" + bad_image + "}\n";
        ++faults;
      } else {
        faulty_stream +=
            unique_stream.substr(line_start, line_end - line_start + 1);
      }
      line_start = line_end + 1;
      ++i;
    }
  }
  ReplayStream(session, pipe8, faulty_stream, requests);  // warm-up
  const RowResult fault_row =
      ReplayStream(session, pipe8, faulty_stream, requests);
  table.AddRow({"unique+faults", "pipelined, batch 8",
                StrFormat("%.3f", fault_row.seconds),
                StrFormat("%.1f", fault_row.img_per_s),
                StrFormat("%.2f", fault_row.p50_ms),
                StrFormat("%.2f", fault_row.p99_ms)});
  RecordBenchMetric("fault_recovery_img_per_s", fault_row.img_per_s);
  RecordBenchMetric("fault_recovery_p50_ms", fault_row.p50_ms);
  RecordBenchMetric("fault_recovery_p99_ms", fault_row.p99_ms);
  RecordBenchMetric("fault_recovery_error_rate", fault_row.error_rate);
  RecordBenchMetric("fault_recovery_faults_injected", faults);

  table.Print();
  std::printf(
      "batch_speedup (hot stream, median batch 8 vs batch 1 over %d "
      "replays): %.2fx\n"
      "Batch 8 fuses queued extractions into one deduped, batched GEMM;\n"
      "responses remain bit-identical to the serial path in every row.\n",
      kReplays, batch_speedup);
  std::printf(
      "fault_recovery (unique stream, %d/%d requests malformed): "
      "%.1f img/s, p99 %.2f ms, error rate %.3f\n",
      faults, requests, fault_row.img_per_s, fault_row.p99_ms,
      fault_row.error_rate);
}

void BM_PipelineSubmitDrain(benchmark::State& state) {
  // Executor overhead floor: items through a 4-stage pipeline with no-op
  // stage bodies (queue pushes, pops and wakeups only, no model work).
  const int items = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Pipeline<int> pipe;
    for (const char* name : {"a", "b", "c", "d"}) {
      pipe.AddStage({name, 1, 8}, [](std::vector<int>&) {});
    }
    std::atomic<int> sunk{0};
    pipe.Start([&](int&&) { sunk.fetch_add(1, std::memory_order_relaxed); });
    for (int i = 0; i < items; ++i) pipe.Submit(int(i));
    pipe.Drain();
    if (sunk.load() != items) state.SkipWithError("lost items");
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_PipelineSubmitDrain)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace goggles::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  goggles::bench::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
