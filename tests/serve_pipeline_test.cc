#include "util/pipeline.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "nn/vgg.h"
#include "serve/service.h"

/// The staged serving flowgraph: the pipeline executor (flow, batching,
/// drain, backpressure, stats, exact lane wakeups: an idle graph and a
/// blocked producer sleep, no wakeup is ever lost), and the
/// Service-level guarantees — Run() responses bit-identical to serial
/// HandleLine() calls at multiple stage/thread/batching configurations,
/// grouped extraction rows bit-identical to singleton ones and its
/// errors reaching every member of the group, reject-mode
/// admission control answering (not hanging), and the `stats` op's
/// pipeline section.

namespace goggles {
namespace {

// ---- Pipeline executor ----------------------------------------------------

TEST(PipelineTest, EveryItemFlowsThroughEveryStageOnce) {
  Pipeline<int> pipe;
  pipe.AddStage({"add", 2, 4, 4},
                [](std::vector<int>& items) {
                  for (int& v : items) v += 1000;
                });
  pipe.AddStage({"double", 3, 4, 2},
                [](std::vector<int>& items) {
                  for (int& v : items) v *= 2;
                });
  pipe.AddStage({"sub", 2, 4, 1},
                [](std::vector<int>& items) {
                  for (int& v : items) v -= 1;
                });
  std::mutex mu;
  std::vector<int> out;
  pipe.Start([&](int&& v) {
    std::lock_guard<std::mutex> lock(mu);
    out.push_back(v);
  });
  constexpr int kItems = 500;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(pipe.Submit(int(i)));
  }
  pipe.Drain();
  ASSERT_EQ(out.size(), static_cast<size_t>(kItems));
  std::sort(out.begin(), out.end());
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], (i + 1000) * 2 - 1) << i;
  }
}

TEST(PipelineTest, MidStreamDrainFlushesEverything) {
  Pipeline<int> pipe;
  std::atomic<int> processed{0};
  pipe.AddStage({"slow", 2, 2, 3}, [&](std::vector<int>& items) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    processed.fetch_add(static_cast<int>(items.size()));
  });
  std::atomic<int> sunk{0};
  pipe.Start([&](int&&) { sunk.fetch_add(1); });
  constexpr int kItems = 50;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(pipe.Submit(int(i)));
  }
  // Drain immediately, mid-stream: every submitted item must still
  // reach the sink exactly once before Drain returns.
  pipe.Drain();
  EXPECT_EQ(processed.load(), kItems);
  EXPECT_EQ(sunk.load(), kItems);
}

TEST(PipelineTest, BatchingNeverExceedsMaxBatch) {
  Pipeline<int> pipe;
  std::atomic<int> oversized{0};
  std::atomic<int> batches{0};
  pipe.AddStage({"batched", 1, 16, 4}, [&](std::vector<int>& items) {
    batches.fetch_add(1);
    if (items.size() > 4) oversized.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  std::atomic<int> sunk{0};
  pipe.Start([&](int&&) { sunk.fetch_add(1); });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pipe.Submit(int(i)));
  }
  pipe.Drain();
  EXPECT_EQ(sunk.load(), 100);
  EXPECT_EQ(oversized.load(), 0);
  EXPECT_GE(batches.load(), 25) << "max_batch=4 needs >= 100/4 calls";
}

TEST(PipelineTest, StatsCountItemsBatchesAndDepth) {
  Pipeline<int> pipe;
  pipe.AddStage({"a", 2, 8, 2}, [](std::vector<int>&) {});
  pipe.AddStage({"b", 1, 8, 1}, [](std::vector<int>&) {});
  pipe.Start([](int&&) {});
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pipe.Submit(int(i)));
  }
  pipe.Drain();
  const auto stats = pipe.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[1].name, "b");
  for (const auto& s : stats) {
    EXPECT_EQ(s.items, 64u);
    EXPECT_GE(s.batches, 1u);
    EXPECT_LE(s.batches, s.items);
    EXPECT_EQ(s.queue_depth, 0u) << "drained pipeline still holds items";
  }
  EXPECT_EQ(stats[0].num_threads, 2);
  EXPECT_EQ(stats[0].queue_capacity, 8u);
}

TEST(PipelineTest, StageWorkersRunKernelsSerially) {
  // A stage worker runs its kernels on its own thread, whatever the
  // machine width and the stage's thread count.
  Pipeline<int> pipe;
  std::atomic<int> observed{-1};
  pipe.AddStage({"check", 2, 4, 1}, [&](std::vector<int>&) {
    observed.store(EffectiveNumThreads());
  });
  pipe.Start([](int&&) {});
  ASSERT_TRUE(pipe.Submit(1));
  pipe.Drain();
  EXPECT_EQ(observed.load(), 1)
      << "stage worker kernels must run under ScopedSerialKernels";
}

long VoluntaryContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

TEST(PipelineTest, IdleFlowgraphSleeps) {
  // The serve graph's shape (decode 1, extract 2, infer 1) plus one more
  // stage, all no-ops. Once idle, every worker must sleep until rung: a
  // timed park would wake each worker thousands of times per second. The
  // sink's state is declared first so it outlives the pipeline's final
  // Drain().
  std::atomic<int> sunk{0};
  Pipeline<int> pipe;
  const auto noop = [](std::vector<int>&) {};
  pipe.AddStage({"decode", 1, 64, 1}, noop);
  pipe.AddStage({"extract", 2, 64, 8}, noop);
  pipe.AddStage({"infer", 1, 64, 1}, noop);
  pipe.AddStage({"encode", 1, 64, 1}, noop);
  pipe.Start([&](int&&) { sunk.fetch_add(1); });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pipe.Submit(int(i)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // settle
  ASSERT_EQ(sunk.load(), 4);

  const long before = VoluntaryContextSwitches();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const long switches = VoluntaryContextSwitches() - before;
  EXPECT_LE(switches, 20)
      << "idle flowgraph woke " << switches << " times in 300 ms";
  pipe.Drain();
  EXPECT_EQ(sunk.load(), 4);
}

TEST(PipelineTest, BlockedProducerSleeps) {
  // Stage 2 is gated shut, so a blocking Submit soon finds every lane
  // full. The parked producer must sleep until a lane has room, not poll.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> sunk{0};
  Pipeline<int> pipe;
  pipe.AddStage({"first", 1, 2, 1}, [](std::vector<int>&) {});
  pipe.AddStage({"gated", 1, 2, 1}, [&](std::vector<int>&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  });
  pipe.Start([&](int&&) { sunk.fetch_add(1); });
  constexpr int kItems = 32;  // far more than the graph can hold
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) pipe.Submit(int(i));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pipe.Stats()[0].backpressured == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pipe.Stats()[0].backpressured, 1u) << "producer never blocked";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // settle

  const long before = VoluntaryContextSwitches();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const long switches = VoluntaryContextSwitches() - before;
  EXPECT_LE(switches, 20)
      << "blocked producer woke " << switches << " times in 300 ms";
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  producer.join();
  pipe.Drain();
  EXPECT_EQ(sunk.load(), kItems);
}

// Round trips one item at a time: each item is submitted only after the
// previous one reached the sink, so every consumer parks between items
// and each hop is a fresh park/ring handshake. The submitter spins on the
// sink's counter, so in a one-stage graph the next Submit races the
// worker's own return to park — the window a lost ring needs. Idle waits
// have no timeout, so one lost ring stalls the graph; the in-test
// deadline turns that into a failure with the count reached.
void PingPong(int num_stages) {
  constexpr int kRoundTrips = 20000;
  // Declared before the pipeline: after a failed ASSERT its destructor
  // drains the stuck item into the sink.
  std::atomic<int> returned{0};
  std::atomic<bool> values_ok{true};
  Pipeline<int> pipe;
  for (int s = 0; s < num_stages; ++s) {
    pipe.AddStage({"s" + std::to_string(s), s == 1 ? 2 : 1, 4, 4},
                  [](std::vector<int>& items) {
                    for (int& v : items) ++v;
                  });
  }
  pipe.Start([&](int&& v) {
    if (v != returned.load(std::memory_order_relaxed) * 10 + num_stages) {
      values_ok.store(false);
    }
    returned.fetch_add(1, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (int i = 0; i < kRoundTrips; ++i) {
    ASSERT_TRUE(pipe.Submit(i * 10));
    for (int spins = 1; returned.load(std::memory_order_acquire) <= i;
         ++spins) {
      if (spins % 1024 != 0) continue;  // react within nanoseconds
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "lost a ring: only " << returned.load() << " of "
          << kRoundTrips << " round trips completed before the deadline";
      std::this_thread::yield();
    }
  }
  pipe.Drain();
  EXPECT_EQ(returned.load(), kRoundTrips);
  EXPECT_TRUE(values_ok.load())
      << "an item skipped a stage or arrived out of turn";
}

TEST(PipelineTest, PingPongNeverLosesARing) {
  {
    SCOPED_TRACE("4 stages");
    PingPong(4);
  }
  {
    SCOPED_TRACE("1 stage: every Submit races the worker's park");
    PingPong(1);
  }
}

// ---- PipelineOptions normalization --------------------------------------

TEST(PipelineOptionsTest, ServiceNormalizationClampsAndDefaults) {
  EXPECT_EQ(serve::ServiceConfig().pipeline.admission_capacity, 64);
  serve::ServiceConfig config;
  config.pipeline.decode_threads = 0;
  config.pipeline.extract_threads = -4;
  config.pipeline.max_batch = 0;
  config.pipeline.admission_capacity = 0;
  serve::Service service(std::shared_ptr<const serve::Session>(), config);
  const serve::PipelineOptions& p = service.config().pipeline;
  EXPECT_EQ(p.decode_threads, 1);
  EXPECT_EQ(p.extract_threads, 1);
  EXPECT_EQ(p.max_batch, 1);
  EXPECT_EQ(p.admission_capacity, 1);
}

// ---- Service: pipelined Run vs serial -------------------------------------

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.1f);
  switch (variant % 3) {
    case 0:
      data::DrawFilledCircle(&img, 16, 16, 6 + variant % 5, {1.0f, 0.2f, 0.2f});
      break;
    case 1:
      data::DrawFilledRect(&img, 6, 6, 26, 26, {0.2f, 1.0f, 0.2f});
      break;
    default:
      data::DrawCross(&img, 16, 16, 14, 3, {0.2f, 0.2f, 1.0f});
      break;
  }
  return img;
}

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

class ServePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    nn::VggMiniConfig config;
    config.stage_channels = {4, 8, 8, 8, 8};
    config.num_classes = 4;
    Result<nn::VggMini> model = nn::BuildVggMini(config);
    model.status().Abort("vgg");
    auto extractor =
        std::make_shared<features::FeatureExtractor>(std::move(*model));
    std::vector<data::Image> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(PatternImage(i));
    GogglesConfig goggles_config;
    goggles_config.top_z = 3;
    auto session = serve::Session::Fit(extractor, pool, {0, 1, 2, 3},
                                       {0, 1, 0, 1}, 2, goggles_config);
    session.status().Abort("Session::Fit");
    session_ = new std::shared_ptr<const serve::Session>(
        std::make_shared<const serve::Session>(std::move(*session)));
    // A second task: another pool and dev labelling, so another fit.
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i] = PatternImage(static_cast<int>(i) + 1);
    }
    auto other = serve::Session::Fit(extractor, pool, {0, 1, 2, 3},
                                     {1, 0, 1, 0}, 2, goggles_config);
    other.status().Abort("Session::Fit other");
    other_ = new serve::Session(std::move(*other));
  }

  static void TearDownTestSuite() {
    delete other_;
    delete session_;
  }

  /// A request mix that exercises every pipeline path: singleton labels,
  /// duplicate images (extract-stage dedup), a second shape (separate
  /// extraction group), label_batch, malformed/unknown requests and
  /// every error the label decoder can return (decode-stage
  /// short-circuit). No `stats` op — its counters are
  /// timing-dependent snapshots, everything else must be byte-stable.
  static std::string RequestStream() {
    std::ostringstream input;
    const data::Image dup = PatternImage(41);
    data::Image small(3, 16, 16, 0.4f);
    data::DrawFilledCircle(&small, 8, 8, 5, {1.0f, 0.3f, 0.2f});
    for (int i = 0; i < 6; ++i) {
      input << R"({"op":"label","image":)" << ImageToJson(PatternImage(40 + i))
            << "}\n";
      if (i == 2) {
        input << R"({"op":"label","image":)" << ImageToJson(dup) << "}\n"
              << R"({"op":"label","image":)" << ImageToJson(dup) << "}\n"
              << R"({"op":"label","image":)" << ImageToJson(small) << "}\n";
      }
    }
    input << R"({"op":"label_batch","images":[)" << ImageToJson(PatternImage(47))
          << "," << ImageToJson(PatternImage(48)) << "]}\n";
    input << "this is not json\n";
    input << R"({"op":"launder"})" << "\n";
    input << R"({"op":"label"})" << "\n";  // missing image
    const std::string image = ImageToJson(PatternImage(49));
    // A "task" on a service without a registry, and a non-string one.
    input << R"({"op":"label","task":"alpha","image":)" << image << "}\n";
    input << R"({"op":"label","task":7,"image":)" << image << "}\n";
    input << R"({"op":"label","image":5})" << "\n";  // non-object image
    const std::string dims = R"({"op":"label","image":{"channels":1,)";
    input << dims << R"("height":1,"width":2,"pixels":[0.5]}})" << "\n";
    input << dims << R"("height":1,"width":1,"pixels":["x"]}})" << "\n";
    input << dims << R"("height":1,"width":1,"pixels":[1e39]}})" << "\n";
    input << dims << R"("height":1.5,"width":1,"pixels":[0.5]}})" << "\n";
    return input.str();
  }

  static std::string RunWith(
      const serve::ServiceConfig& config,
      const std::shared_ptr<const serve::Session>& session = *session_) {
    serve::Service service(session, config);
    std::istringstream in(RequestStream());
    std::ostringstream out;
    Status status = service.Run(in, out);
    EXPECT_TRUE(status.ok()) << status;
    return out.str();
  }

  /// The serial oracle: every request line through HandleLine, one at a
  /// time, on a fresh service.
  static std::string SerialReference() {
    serve::Service service(*session_);
    std::istringstream in(RequestStream());
    std::string expected;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      expected += service.HandleLine(line) + "\n";
    }
    return expected;
  }

  static std::shared_ptr<const serve::Session>* session_;
  static serve::Session* other_;
};

std::shared_ptr<const serve::Session>* ServePipelineTest::session_ = nullptr;
serve::Session* ServePipelineTest::other_ = nullptr;

TEST_F(ServePipelineTest, PipelinedRunIsByteIdenticalToSerialAtAnyShape) {
  const std::string expected = SerialReference();
  ASSERT_FALSE(expected.empty());

  // Config 1: default stage shape (1/2/1 threads, batch 8).
  serve::ServiceConfig narrow;

  // Config 2: wide stages, small batches — maximal reordering pressure
  // and intra-stage concurrency.
  serve::ServiceConfig wide;
  wide.pipeline.decode_threads = 2;
  wide.pipeline.extract_threads = 3;
  wide.pipeline.infer_threads = 2;
  wide.pipeline.max_batch = 3;

  // Config 3: tight admission (blocking backpressure on the reader).
  serve::ServiceConfig tight;
  tight.pipeline.admission_capacity = 2;

  EXPECT_EQ(RunWith(narrow), expected)
      << "default pipeline diverged from the serial path";
  EXPECT_EQ(RunWith(wide), expected)
      << "wide pipeline diverged from the serial path";
  EXPECT_EQ(RunWith(tight), expected)
      << "admission-throttled pipeline diverged from the serial path";
}

TEST_F(ServePipelineTest, GroupedQueryRowsMatchSingletonRowsBitForBit) {
  // One crafted extract batch, so grouping happens every run without
  // waiting for arrivals: duplicates, two shapes, two fitted sessions
  // and an unfitted one. Every row must equal its singleton extraction
  // bit for bit; the unfitted session's one failing call must reach
  // every member of its group.
  const serve::Session& a = **session_;
  const serve::Session& b = *other_;
  const serve::Session unfitted{};
  const data::Image dup = PatternImage(41);
  const data::Image p50 = PatternImage(50);
  const data::Image p51 = PatternImage(51);
  data::Image small(3, 16, 16, 0.4f);
  data::DrawFilledCircle(&small, 8, 8, 5, {1.0f, 0.3f, 0.2f});
  const std::vector<serve::ExtractRequest> requests = {
      {&a, &dup},      {&b, &dup},   {&a, &small}, {&unfitted, &p50},
      {&a, &p50},      {&a, &dup},   {&b, &small}, {&unfitted, &dup},
      {&a, &small},    {&b, &p51},   {&b, &dup},   {&unfitted, &small},
      {&unfitted, &p50}};
  const std::vector<Result<Matrix>> rows =
      serve::BuildGroupedQueryRows(requests);
  ASSERT_EQ(rows.size(), requests.size());
  int failed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const Result<Matrix> single =
        requests[i].session->BuildQueryRows({*requests[i].image});
    if (requests[i].session == &unfitted) {
      ASSERT_FALSE(single.ok());
      ASSERT_FALSE(rows[i].ok());
      EXPECT_EQ(rows[i].status(), single.status());
      ++failed;
      continue;
    }
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_TRUE(rows[i].ok()) << rows[i].status();
    ASSERT_EQ(rows[i]->rows(), 1);
    ASSERT_EQ(rows[i]->cols(), single->cols());
    EXPECT_EQ(std::memcmp(rows[i]->data(), single->data(),
                          static_cast<size_t>(single->cols()) *
                              sizeof(double)),
              0);
  }
  EXPECT_EQ(failed, 4);
  EXPECT_TRUE(serve::BuildGroupedQueryRows({}).empty());
}

TEST_F(ServePipelineTest, UnfittedSessionErrorReachesEveryRequest) {
  // An unfitted session fails every extraction call; every request must
  // still get its own error line, in order, with nothing dropped.
  const std::string out = RunWith(serve::ServiceConfig(),
                                  std::make_shared<const serve::Session>());
  std::istringstream lines(out);
  std::string line;
  int total = 0;
  while (std::getline(lines, line)) {
    auto response = serve::JsonValue::Parse(line);
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_FALSE(response->Find("ok")->bool_value()) << line;
    EXPECT_TRUE(response->Find("error_code")->is_string()) << line;
    ++total;
  }
  std::istringstream requests(RequestStream());
  int expected_lines = 0;
  while (std::getline(requests, line)) expected_lines += line.empty() ? 0 : 1;
  EXPECT_EQ(total, expected_lines);
}

TEST_F(ServePipelineTest, RejectOnFullAnswersCleanlyInsteadOfHanging) {
  serve::ServiceConfig config;
  config.pipeline.admission_capacity = 1;
  config.pipeline.reject_on_full = true;
  serve::Service service(*session_, config);

  constexpr int kRequests = 8;
  std::ostringstream input;
  for (int i = 0; i < kRequests; ++i) {
    input << R"({"op":"label","image":)" << ImageToJson(PatternImage(60 + i))
          << "}\n";
  }
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_TRUE(service.Run(in, out).ok());

  // Every request gets exactly one response line, in input order; shed
  // requests answer with a clean error, never a hang or a dropped line.
  std::istringstream lines(out.str());
  std::string line;
  int total = 0;
  int rejected = 0;
  while (std::getline(lines, line)) {
    auto response = serve::JsonValue::Parse(line);
    ASSERT_TRUE(response.ok()) << line;
    if (!response->Find("ok")->bool_value()) {
      EXPECT_NE(response->Find("error")->str().find("overloaded"),
                std::string::npos)
          << line;
      ++rejected;
    }
    ++total;
  }
  EXPECT_EQ(total, kRequests);
  // The first request always admits (nothing in flight yet); with a cap
  // of one and a reader far faster than a labeling call, later arrivals
  // find the slot taken.
  EXPECT_GE(rejected, 1) << "admission control never engaged";
  EXPECT_LT(rejected, kRequests);
  EXPECT_EQ(service.requests_rejected(), static_cast<uint64_t>(rejected));
  EXPECT_EQ(service.requests_served(), static_cast<uint64_t>(kRequests));
}

TEST_F(ServePipelineTest, StatsOpReportsThePipelineSection) {
  serve::ServiceConfig config;
  config.pipeline.extract_threads = 2;
  serve::Service service(*session_, config);
  std::ostringstream input;
  input << R"({"op":"label","image":)" << ImageToJson(PatternImage(70))
        << "}\n"
        << R"({"op":"stats"})" << "\n";
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_TRUE(service.Run(in, out).ok());

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // label response
  ASSERT_TRUE(std::getline(lines, line));  // stats response
  auto stats = serve::JsonValue::Parse(line);
  ASSERT_TRUE(stats.ok()) << line;
  ASSERT_TRUE(stats->Find("ok")->bool_value());
  const serve::JsonValue* pipeline = stats->Find("pipeline");
  ASSERT_TRUE(pipeline != nullptr && pipeline->is_object())
      << "pipelined stats must carry a pipeline section: " << line;
  EXPECT_EQ(pipeline->Find("mode")->str(), "pipelined");
  const serve::JsonValue* admission = pipeline->Find("admission");
  ASSERT_TRUE(admission != nullptr && admission->is_object());
  EXPECT_DOUBLE_EQ(admission->Find("capacity")->number(), 64.0);
  EXPECT_EQ(admission->Find("policy")->str(), "block");
  EXPECT_DOUBLE_EQ(admission->Find("rejected")->number(), 0.0);
  const serve::JsonValue* stages = pipeline->Find("stages");
  ASSERT_TRUE(stages != nullptr && stages->is_array());
  ASSERT_EQ(stages->items().size(), 3u);
  const char* names[] = {"decode", "extract", "infer"};
  for (size_t s = 0; s < 3; ++s) {
    const serve::JsonValue& stage = stages->items()[s];
    EXPECT_EQ(stage.Find("name")->str(), names[s]);
    EXPECT_GE(stage.Find("threads")->number(), 1.0);
    EXPECT_GE(stage.Find("queue_capacity")->number(), 1.0);
    EXPECT_GE(stage.Find("items")->number(), 0.0);
  }
  // The decode stage has seen at least the label + this stats request.
  EXPECT_GE(stages->items()[0].Find("items")->number(), 2.0);

  // Outside a pipelined Run (direct dispatch), the section is absent —
  // the original response layout is preserved byte for byte.
  auto direct = serve::JsonValue::Parse(service.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->Find("pipeline"), nullptr);
}

}  // namespace
}  // namespace goggles
