#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "nn/vgg.h"
#include "serve/artifact.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/shutdown.h"
#include "util/clock.h"
#include "util/failpoint.h"
#include "util/pipeline.h"

/// Chaos suite: scripted fault scenarios driven end-to-end through the
/// NDJSON gateway. Fault injection uses the failpoint framework, so the
/// injection scenarios require a build configured with
/// -DGOGGLES_FAILPOINTS=ON (CI's chaos job) and GTEST_SKIP themselves in
/// a default build; the protocol-level scenarios (deadlines, admission
/// shedding, graceful drain, corrupt hot reload) run everywhere.
///
/// This binary has a custom main(): re-exec'ing itself with
/// `--publish-crash-child` / `--serve-child` provides the crash-mid-
/// publish and signal-drain child processes (fork+exec, never bare fork —
/// the gtest parent is multi-threaded).

namespace goggles {

const char* g_self_path = nullptr;  ///< argv[0]; set by main()

namespace {

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

std::shared_ptr<features::FeatureExtractor> MakeExtractor() {
  // Seeded build: every process (parent and re-exec'd children) gets the
  // identical backbone, so artifacts round-trip across processes.
  nn::VggMiniConfig config;
  config.stage_channels = {4, 8, 8, 8, 8};
  config.num_classes = 4;
  Result<nn::VggMini> model = nn::BuildVggMini(config);
  model.status().Abort("vgg");
  return std::make_shared<features::FeatureExtractor>(std::move(*model));
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

std::string LabelRequestLine(const data::Image& img,
                             const std::string& task = "") {
  std::ostringstream line;
  line << R"({"op":"label",)";
  if (!task.empty()) line << R"("task":")" << task << R"(",)";
  line << R"("image":)" << ImageToJson(img) << "}";
  return line.str();
}

/// Runs `lines` through Service::Run and returns one response per line.
std::vector<std::string> RunGateway(serve::Service& service,
                                    const std::vector<std::string>& lines) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  Status status = service.Run(in, out);
  EXPECT_TRUE(status.ok()) << status;
  std::vector<std::string> responses;
  std::istringstream split(out.str());
  std::string response;
  while (std::getline(split, response)) responses.push_back(response);
  return responses;
}

/// Parses a response line and returns its "error_code" ("" when absent).
std::string ErrorCodeOf(const std::string& response_line) {
  auto parsed = serve::JsonValue::Parse(response_line);
  if (!parsed.ok() || !parsed->is_object()) return "<unparseable>";
  const serve::JsonValue* code = parsed->Find("error_code");
  return code != nullptr && code->is_string() ? code->str() : "";
}

bool IsOkResponse(const std::string& response_line) {
  auto parsed = serve::JsonValue::Parse(response_line);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const serve::JsonValue* ok = parsed->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    extractor_ = new std::shared_ptr<features::FeatureExtractor>(
        MakeExtractor());
    std::vector<data::Image> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(PatternImage(i));
    GogglesConfig config;
    config.top_z = 3;
    auto session = serve::Session::Fit(*extractor_, pool, {0, 1, 2, 3},
                                       {0, 1, 0, 1}, 2, config);
    session.status().Abort("Session::Fit");
    session_ = new std::shared_ptr<const serve::Session>(
        std::make_shared<const serve::Session>(std::move(*session)));
    base_dir_ = new std::string(::testing::TempDir() + "/chaos_" +
                                std::to_string(::getpid()));
    std::filesystem::create_directories(*base_dir_);
    artifact_path_ = new std::string(*base_dir_ + "/alpha.ggsa");
    (*session_)->Save(*artifact_path_).Abort("Save");
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*base_dir_);
    delete artifact_path_;
    delete base_dir_;
    delete session_;
    delete extractor_;
  }

  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }

  /// A fresh artifact directory containing `tasks` copies of the fitted
  /// artifact — mutating scenarios corrupt their own copy, never the
  /// shared one.
  std::string MakeTaskDir(const std::string& label,
                          const std::vector<std::string>& tasks) {
    const std::string dir = *base_dir_ + "/" + label;
    std::filesystem::create_directories(dir);
    for (const std::string& task : tasks) {
      std::filesystem::copy_file(
          *artifact_path_, dir + "/" + task + ".ggsa",
          std::filesystem::copy_options::overwrite_existing);
    }
    return dir;
  }

  /// The fault-free response for one labeled image — the byte-identity
  /// reference every post-recovery response is checked against.
  std::string FaultFreeResponse(const data::Image& img,
                                const std::string& task = "") {
    serve::Service service(*session_, serve::ServiceConfig{});
    auto request = serve::JsonValue::Parse(LabelRequestLine(img, ""));
    EXPECT_TRUE(request.ok());
    std::string response = service.HandleRequest(*request).Dump();
    (void)task;
    return response;
  }

  static std::shared_ptr<features::FeatureExtractor>* extractor_;
  static std::shared_ptr<const serve::Session>* session_;
  static std::string* base_dir_;
  static std::string* artifact_path_;
};

std::shared_ptr<features::FeatureExtractor>* ServeChaosTest::extractor_ =
    nullptr;
std::shared_ptr<const serve::Session>* ServeChaosTest::session_ = nullptr;
std::string* ServeChaosTest::base_dir_ = nullptr;
std::string* ServeChaosTest::artifact_path_ = nullptr;

// ---- Scenario 1: failpoint op over the gateway ----------------------------

TEST_F(ServeChaosTest, FailpointOpArmListDisarmOverGateway) {
  serve::Service service(*session_, serve::ServiceConfig{});
  auto handle = [&](const std::string& line) {
    auto request = serve::JsonValue::Parse(line);
    EXPECT_TRUE(request.ok()) << line;
    return service.HandleRequest(*request);
  };

  // `list` answers in every build and reports whether injection works.
  serve::JsonValue listed = handle(R"({"op":"failpoint","action":"list"})");
  EXPECT_TRUE(listed.Find("ok")->bool_value());
  ASSERT_NE(listed.Find("compiled_in"), nullptr);
  EXPECT_EQ(listed.Find("compiled_in")->bool_value(), failpoint::CompiledIn());

  if (!failpoint::CompiledIn()) {
    serve::JsonValue armed = handle(
        R"({"op":"failpoint","action":"arm","name":"t.x","spec":"return-error"})");
    EXPECT_FALSE(armed.Find("ok")->bool_value());
    EXPECT_EQ(armed.Find("error_code")->str(), "unimplemented");
    return;
  }

  serve::JsonValue armed = handle(
      R"({"op":"failpoint","action":"arm","name":"t.gateway",)"
      R"("spec":"partial-write(9):0.5:3"})");
  EXPECT_TRUE(armed.Find("ok")->bool_value());
  serve::JsonValue after = handle(R"({"op":"failpoint","action":"list"})");
  bool found = false;
  for (const serve::JsonValue& entry : after.Find("failpoints")->items()) {
    if (entry.Find("name")->str() != "t.gateway") continue;
    found = true;
    EXPECT_EQ(entry.Find("action")->str(), "partial-write");
    EXPECT_EQ(entry.Find("arg")->number(), 9.0);
    EXPECT_EQ(entry.Find("probability")->number(), 0.5);
    EXPECT_EQ(entry.Find("count")->number(), 3.0);
  }
  EXPECT_TRUE(found);

  serve::JsonValue bad = handle(
      R"({"op":"failpoint","action":"arm","name":"t.bad","spec":"noise"})");
  EXPECT_FALSE(bad.Find("ok")->bool_value());
  EXPECT_EQ(bad.Find("error_code")->str(), "invalid_argument");

  EXPECT_TRUE(
      handle(R"({"op":"failpoint","action":"disarm_all"})").Find("ok")->bool_value());
  EXPECT_EQ(failpoint::internal::Evaluate("t.gateway").action,
            failpoint::Action::kOff);
}

// ---- Scenario 2: transient load failure -> backoff retry -> recovery ------

TEST_F(ServeChaosTest, TransientLoadFailureRetriesAndRecoversByteIdentical) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  serve::RegistryConfig rconfig;
  rconfig.artifact_dir = MakeTaskDir("transient", {"alpha"});
  rconfig.load_retry.initial_delay_micros = 500;
  rconfig.load_retry.max_delay_micros = 2000;
  auto registry =
      std::make_shared<serve::SessionRegistry>(*extractor_, rconfig);
  serve::Service service(registry, nullptr, serve::ServiceConfig{});

  // Two injected failures, then clean: the default policy's 4 attempts
  // ride over both and the request never sees the fault.
  ASSERT_TRUE(
      failpoint::ArmFromString("registry.load.transient", "return-error:1:2")
          .ok());
  const data::Image img = PatternImage(40);
  std::vector<std::string> responses =
      RunGateway(service, {LabelRequestLine(img, "alpha")});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(IsOkResponse(responses[0])) << responses[0];
  EXPECT_GE(registry->stats().load_retries, 2u);
  EXPECT_EQ(registry->stats().resident_tasks, 1u);

  // Post-recovery responses are byte-identical to a never-faulted serve.
  EXPECT_EQ(responses[0], FaultFreeResponse(img));
}

// ---- Scenario 3: persistent load failure -> clean io_error, then heal -----

TEST_F(ServeChaosTest, ExhaustedRetriesSurfaceIoErrorThenHeal) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  serve::RegistryConfig rconfig;
  rconfig.artifact_dir = MakeTaskDir("exhausted", {"alpha"});
  rconfig.load_retry.max_attempts = 2;
  rconfig.load_retry.initial_delay_micros = 500;
  auto registry =
      std::make_shared<serve::SessionRegistry>(*extractor_, rconfig);
  serve::Service service(registry, nullptr, serve::ServiceConfig{});

  ASSERT_TRUE(
      failpoint::ArmFromString("registry.load.transient", "return-error")
          .ok());
  const data::Image img = PatternImage(41);
  std::vector<std::string> faulted =
      RunGateway(service, {LabelRequestLine(img, "alpha")});
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_FALSE(IsOkResponse(faulted[0]));
  EXPECT_EQ(ErrorCodeOf(faulted[0]), "io_error") << faulted[0];

  // Disarm == the disk recovered: the very next request serves, and its
  // response is byte-identical to the fault-free reference.
  failpoint::DisarmAll();
  std::vector<std::string> healed =
      RunGateway(service, {LabelRequestLine(img, "alpha")});
  ASSERT_EQ(healed.size(), 1u);
  EXPECT_EQ(healed[0], FaultFreeResponse(img));
}

// ---- Scenario 4: corrupt hot reload keeps serving the stale session -------

TEST_F(ServeChaosTest, CorruptHotReloadKeepsServingStaleSession) {
  serve::RegistryConfig rconfig;
  rconfig.artifact_dir = MakeTaskDir("torn", {"alpha"});
  auto registry =
      std::make_shared<serve::SessionRegistry>(*extractor_, rconfig);
  serve::Service service(registry, nullptr, serve::ServiceConfig{});

  const data::Image img = PatternImage(42);
  std::vector<std::string> before =
      RunGateway(service, {LabelRequestLine(img, "alpha")});
  ASSERT_EQ(before.size(), 1u);
  ASSERT_TRUE(IsOkResponse(before[0]));

  // Replace the artifact with a torn prefix (size change guarantees a
  // hot-reload signature mismatch). The resident session must keep
  // serving, byte-identically, while the reload keeps failing.
  const std::string path = rconfig.artifact_dir + "/alpha.ggsa";
  const std::string good = ReadFileBytes(path);
  WriteFileBytes(path, good.substr(0, good.size() / 3));
  std::vector<std::string> after =
      RunGateway(service, {LabelRequestLine(img, "alpha")});
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], before[0]) << "stale session must keep serving";
  EXPECT_GE(registry->stats().load_failures, 1u);

  // Repairing the file heals the reload on the next acquire.
  WriteFileBytes(path, good);
  std::vector<std::string> healed =
      RunGateway(service, {LabelRequestLine(img, "alpha")});
  ASSERT_EQ(healed.size(), 1u);
  EXPECT_EQ(healed[0], before[0]);
}

// ---- Scenario 5: crash mid-publish (child process) ------------------------

TEST_F(ServeChaosTest, CrashMidPublishLeavesOldArtifactLoadableAndTempReaped) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  ASSERT_NE(g_self_path, nullptr);
  const std::string dir = MakeTaskDir("crashpub", {"alpha"});
  const std::string path = dir + "/alpha.ggsa";
  const std::string before = ReadFileBytes(path);

  // Re-exec ourselves: the child loads the artifact, arms the crash
  // failpoint, and aborts inside Save after staging the temp but
  // before the rename.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(g_self_path, g_self_path, "--publish-crash-child", path.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "child must die by SIGABRT, status " << wait_status;
  EXPECT_EQ(WTERMSIG(wait_status), SIGABRT);

  // The previous artifact is untouched and loadable; the orphan temp is
  // the only debris.
  EXPECT_EQ(ReadFileBytes(path), before);
  EXPECT_TRUE(serve::Session::Load(path, *extractor_).ok());
  int temps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (serve::IsArtifactTempFilename(entry.path().filename().string())) {
      ++temps;
    }
  }
  ASSERT_EQ(temps, 1) << "expected exactly the crashed publish's temp";

  // A registry pointed at the directory reaps the orphan on its next
  // scan (age threshold 0: any orphan is fair game immediately).
  serve::RegistryConfig rconfig;
  rconfig.artifact_dir = dir;
  rconfig.temp_reap_age_micros = 0;
  serve::SessionRegistry registry(*extractor_, rconfig);
  EXPECT_GE(registry.stats().temps_reaped, 1u);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_FALSE(
        serve::IsArtifactTempFilename(entry.path().filename().string()))
        << "temp not reaped: " << entry.path();
  }
  // And the artifact still serves.
  EXPECT_TRUE(registry.Acquire("alpha").ok());
}

// ---- Scenario 6: partial write detected on load ---------------------------

TEST_F(ServeChaosTest, PartialWriteIsDetectedOnLoad) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  const std::string path = *base_dir_ + "/partial.ggsa";
  ASSERT_TRUE(
      failpoint::ArmFromString("artifact.save.partial", "partial-write(64):1:1")
          .ok());
  // The clamped write itself reports success — a silent short write, the
  // worst case — but the CRC-framed format catches it on load.
  ASSERT_TRUE((*session_)->Save(path).ok());
  auto loaded = serve::Artifact::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// ---- Scenario 7: slow disk delays but does not fail -----------------------

TEST_F(ServeChaosTest, SlowDiskLoadDelaysButSucceeds) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  ASSERT_TRUE(
      failpoint::ArmFromString("artifact.load.slow", "delay-ms(30):1:1").ok());
  const int64_t start = MonotonicMicros();
  auto loaded = serve::Session::Load(*artifact_path_, *extractor_);
  EXPECT_GE(MonotonicMicros() - start, 25'000);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // And an injected open failure is a clean io_error, healed on disarm.
  ASSERT_TRUE(
      failpoint::ArmFromString("artifact.load.open", "return-error:1:1").ok());
  auto failed = serve::Session::Load(*artifact_path_, *extractor_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(serve::Session::Load(*artifact_path_, *extractor_).ok());
}

// ---- Scenario 8: memory pressure -> LRU eviction with in-flight drain -----

TEST_F(ServeChaosTest, MemoryPressureEvictsLruWhileInFlightRequestsDrain) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  serve::RegistryConfig rconfig;
  rconfig.artifact_dir = MakeTaskDir("pressure", {"alpha", "beta"});
  rconfig.memory_budget_bytes = 1 << 20;  // 1 MiB
  auto registry =
      std::make_shared<serve::SessionRegistry>(*extractor_, rconfig);

  // Every session now reports 2 MiB — any two resident tasks bust the
  // budget, forcing LRU eviction on the second load.
  ASSERT_TRUE(failpoint::ArmFromString("session.memory.pressure",
                                       "return-error(2097152)")
                  .ok());
  auto alpha = registry->Acquire("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status();
  std::shared_ptr<const serve::Session> held = *alpha;  // in-flight holder
  auto beta = registry->Acquire("beta");
  ASSERT_TRUE(beta.ok()) << beta.status();
  EXPECT_GE(registry->stats().evictions, 1u);
  EXPECT_EQ(registry->stats().resident_tasks, 1u);

  // The evicted session drains gracefully: the held reference still
  // labels, bit-identically to the fault-free service.
  auto label = held->LabelOne(PatternImage(43));
  ASSERT_TRUE(label.ok()) << label.status();
  auto reference = (*session_)->LabelOne(PatternImage(43));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(label->hard, reference->hard);
  EXPECT_EQ(label->soft, reference->soft);

  // Releasing the pressure lets alpha re-load on demand.
  failpoint::DisarmAll();
  EXPECT_TRUE(registry->Acquire("alpha").ok());
}

// ---- Scenario 9: stage stall -> deadline shedding + watchdog --------------

TEST_F(ServeChaosTest, StageStallShedsQueuedRequestsOnDeadline) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "needs GOGGLES_FAILPOINTS=ON";
  serve::ServiceConfig config;
  config.request_deadline_micros = 30'000;  // 30 ms
  config.pipeline.extract_threads = 1;      // one worker -> stall blocks all
  config.pipeline.watchdog_budget_micros = 5'000;
  serve::Service service(*session_, config);

  // The first extract batch stalls 300 ms; every label request queued
  // behind it ages past the 30 ms deadline and must be shed with
  // `deadline_exceeded` instead of being served stale.
  ASSERT_TRUE(
      failpoint::ArmFromString("serve.stage.extract", "delay-ms(300):1:1")
          .ok());
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(LabelRequestLine(PatternImage(50 + i)));
  }
  std::vector<std::string> responses = RunGateway(service, lines);
  ASSERT_EQ(responses.size(), lines.size());
  int shed = 0;
  for (const std::string& response : responses) {
    if (ErrorCodeOf(response) == "deadline_exceeded") ++shed;
  }
  EXPECT_GE(shed, 1) << "the stalled batch must shed overdue requests";

  // After the stall clears (count 1), the service heals: a fresh request
  // serves byte-identically to the fault-free reference. The heal run
  // drops the deadline — under ASan/TSan a legitimate extraction can
  // take longer than the tight 30 ms this scenario needs for shedding.
  serve::ServiceConfig healed_config = config;
  healed_config.request_deadline_micros = 0;
  serve::Service healed_service(*session_, healed_config);
  const data::Image img = PatternImage(58);
  std::vector<std::string> healed =
      RunGateway(healed_service, {LabelRequestLine(img)});
  ASSERT_EQ(healed.size(), 1u);
  EXPECT_EQ(healed[0], FaultFreeResponse(img));
}

TEST_F(ServeChaosTest, WatchdogFlagsStalledStage) {
  // Pure pipeline-level check (no failpoints needed): a stage call that
  // overruns the budget is counted in its stalls stat and the pipeline
  // still drains normally.
  Pipeline<int> pipe;
  pipe.AddStage({"stall", 1, 4, 1}, [](std::vector<int>& batch) {
    for (int& v : batch) {
      if (v == 0) SleepForMicros(40'000);
      v += 1;
    }
  });
  pipe.SetWatchdogBudgetMicros(5'000);
  int drained = 0;
  pipe.Start([&](int&&) { ++drained; });
  for (int i = 0; i < 3; ++i) pipe.Submit(int(i));
  pipe.Drain();
  EXPECT_EQ(drained, 3);
  std::vector<PipelineStageStats> stats = pipe.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GE(stats[0].stalls, 1u) << "40ms call vs 5ms budget must be flagged";
}

// ---- Scenario 10: per-request deadlines at every stage shape ---------------

TEST_F(ServeChaosTest, ExpiredDeadlineAnswersDeadlineExceededAtAnyShape) {
  // Default stages, and one extract consumer: the deadline check must
  // shed the request either way.
  for (const int extract_threads : {2, 1}) {
    serve::ServiceConfig config;
    config.pipeline.extract_threads = extract_threads;
    config.request_deadline_micros = 1;  // everything is overdue on arrival
    serve::Service service(*session_, config);
    std::vector<std::string> responses =
        RunGateway(service, {LabelRequestLine(PatternImage(44))});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(IsOkResponse(responses[0]));
    EXPECT_EQ(ErrorCodeOf(responses[0]), "deadline_exceeded")
        << "extract_threads " << extract_threads << ": " << responses[0];
  }
}

// ---- Scenario 11: admission overload sheds with `unavailable` -------------

TEST_F(ServeChaosTest, AdmissionOverloadShedsWithUnavailable) {
  serve::ServiceConfig config;
  config.pipeline.reject_on_full = true;
  config.pipeline.admission_capacity = 1;
  serve::Service service(*session_, config);
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    lines.push_back(LabelRequestLine(PatternImage(60 + i)));
  }
  std::vector<std::string> responses = RunGateway(service, lines);
  ASSERT_EQ(responses.size(), lines.size()) << "every request gets a line";
  int ok = 0, shed = 0;
  for (const std::string& response : responses) {
    if (IsOkResponse(response)) {
      ++ok;
    } else {
      EXPECT_EQ(ErrorCodeOf(response), "unavailable") << response;
      EXPECT_NE(response.find("overloaded"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "40 requests against a 1-deep admission gate";
  EXPECT_EQ(service.requests_rejected(), static_cast<uint64_t>(shed));
}

// ---- Scenario 12: SIGTERM drains gracefully (child process) ---------------

TEST_F(ServeChaosTest, SigtermDrainsInFlightAndExitsZero) {
  ASSERT_NE(g_self_path, nullptr);
  int to_child[2], from_child[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(g_self_path, g_self_path, "--serve-child",
            artifact_path_->c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  // A few requests, answered while the stream stays open...
  const int kRequests = 3;
  {
    std::string batch;
    for (int i = 0; i < kRequests; ++i) {
      batch += LabelRequestLine(PatternImage(70 + i)) + "\n";
    }
    ASSERT_EQ(::write(to_child[1], batch.data(), batch.size()),
              static_cast<ssize_t>(batch.size()));
  }
  std::FILE* from = ::fdopen(from_child[0], "r");
  ASSERT_NE(from, nullptr);
  std::vector<std::string> responses;
  std::string current;
  int ch;
  while (responses.size() < static_cast<size_t>(kRequests) && (ch = std::fgetc(from)) != EOF) {
    if (ch == '\n') {
      responses.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(ch));
    }
  }
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (const std::string& response : responses) {
    EXPECT_TRUE(IsOkResponse(response)) << response;
  }

  // ...then SIGTERM with the input stream STILL OPEN: the child must
  // unblock its reader, drain, and exit 0 — not die on the signal.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  EXPECT_TRUE(WIFEXITED(wait_status))
      << "child must exit, not die on SIGTERM; status " << wait_status;
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  while ((ch = std::fgetc(from)) != EOF) {
  }  // child closed stdout on exit
  std::fclose(from);
  ::close(to_child[1]);
}

}  // namespace

// ---- child-process entry points -------------------------------------------

/// `--publish-crash-child <artifact>`: stages an atomic publish over the
/// artifact and crashes between the temp fsync and the rename.
int PublishCrashChildMain(const std::string& artifact_path) {
  auto extractor = MakeExtractor();
  auto session = serve::Session::Load(artifact_path, extractor);
  if (!session.ok()) {
    std::fprintf(stderr, "child: load failed: %s\n",
                 session.status().ToString().c_str());
    return 3;
  }
  if (!failpoint::ArmFromString("artifact.publish.rename", "crash-here")
           .ok()) {
    return 4;
  }
  Status status = session->Save(artifact_path);  // must not return
  std::fprintf(stderr, "child: Save returned: %s\n",
               status.ToString().c_str());
  return 42;  // failpoints compiled out — the parent skips this test
}

/// `--serve-child <artifact>`: a miniature goggles_serve — tiny backbone,
/// one artifact, graceful SIGTERM/SIGINT drain — for signal tests.
int ServeChildMain(const std::string& artifact_path) {
  auto extractor = MakeExtractor();
  auto session = serve::Session::Load(artifact_path, extractor);
  if (!session.ok()) {
    std::fprintf(stderr, "child: load failed: %s\n",
                 session.status().ToString().c_str());
    return 3;
  }
  serve::ServiceConfig config;
  serve::Service service(
      std::make_shared<const serve::Session>(std::move(*session)), config);
  serve::GracefulShutdown drain([&service] { service.RequestStop(); });
  Status status = service.Run(std::cin, std::cout);
  if (!status.ok()) {
    std::fprintf(stderr, "child: run failed: %s\n",
                 status.ToString().c_str());
    return 5;
  }
  return 0;
}

}  // namespace goggles

int main(int argc, char** argv) {
  goggles::g_self_path = argv[0];
  if (argc == 3 && std::strcmp(argv[1], "--publish-crash-child") == 0) {
    return goggles::PublishCrashChildMain(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--serve-child") == 0) {
    return goggles::ServeChildMain(argv[2]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
