/// \file main.cc
/// \brief Entry point of the repository benchmark (see README.md).
///
///   goggles_perfbench --prepare --work-dir DIR
///   goggles_perfbench --workload fit|serve_unique|serve_hot --seed N
///       --seconds S --trace 0|1 --work-dir DIR [--artifact-dir DIR]
///       [--make-artifacts] [--scale full|tiny] [--corrupt-response K]
///
/// Prints human-readable lines (host fingerprint, per-dataset accuracy,
/// rate points), then one JSON record as the last line of stdout.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "tensor/isa.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports all of these with --trace 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_img.low", "ms"},
    {"cpu_ms_per_img.high", "ms"},
    {"label_accuracy", "fraction"},
    {"success_rate", "fraction"},
    {"peak_rss_mb", "MB"},
};

/// Every workload reports all of these with --trace 1; a layer the
/// workload never calls reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"json.parse_us", "us"},
    {"json.request_kb", "KB"},
    {"json.encode_us", "us"},
    {"registry.acquire_us", "us"},
    {"registry.loads", "count"},
    {"registry.evictions", "count"},
    {"artifact.load_s", "s"},
    {"features.extract_us", "us"},
    {"features.mflop_per_img", "MFLOP"},
    {"affinity.score_us", "us"},
    {"affinity.mflop_per_req", "MFLOP"},
    {"affinity.gflop_s", "GFLOP/s"},
    {"hierarchical.infer_us", "us"},
    {"executor.extract_batch_mean.low", "items/batch"},
    {"executor.extract_batch_mean.high", "items/batch"},
    {"executor.backpressured.low", "count"},
    {"executor.backpressured.high", "count"},
    {"executor.rejected", "count"},
    {"executor.overhead_ms.low", "ms"},
    {"workload.dup_share", "fraction"},
    {"gen.late_p99_ms", "ms"},
    {"features.prepare_s", "s"},
    {"affinity.pool_score_s", "s"},
    {"affinity.pool_gflop", "GFLOP"},
    {"hierarchical.fit_s", "s"},
    {"fit.untraced_s", "s"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: goggles_perfbench --workload "
               "fit|serve_unique|serve_hot --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--artifact-dir DIR] [--make-artifacts] "
               "[--scale full|tiny] [--corrupt-response K] | --prepare "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

/// Prints every metric of `specs` as a table and as the JSON record. A
/// missing metric is an error when `required`, and reads 0 otherwise.
template <size_t N>
void PrintRecord(const Outcome& out, const MetricSpec (&specs)[N],
                 bool required) {
  std::string json = goggles::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      out.failed == 0 ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed));
  std::string idle;
  for (size_t i = 0; i < N; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : out.metrics) {
      if (m.name == specs[i].name) found = &m;
    }
    if (found != nullptr && found->unit != specs[i].unit) {
      Fail("metric " + found->name + " reported in " + found->unit);
    }
    if (found == nullptr && required) {
      Fail(std::string("workload did not report ") + specs[i].name);
    }
    if (found == nullptr) idle += std::string(" ") + specs[i].name;
    const double value = found ? found->value : 0.0;
    std::printf("  %-34s %16.6f %s\n", specs[i].name, value, specs[i].unit);
    json += goggles::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                               i == 0 ? "" : ", ", specs[i].name, value,
                               specs[i].unit);
  }
  if (!idle.empty()) std::printf("layers idle on this workload:%s\n", idle.c_str());
  std::printf("%s}}\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool prepare = false;
  bool make_artifacts = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--artifact-dir") {
      options.artifact_dir = value();
    } else if (arg == "--scale") {
      options.scale = value();
    } else if (arg == "--corrupt-response") {
      options.corrupt_response = std::atoi(value().c_str());
    } else if (arg == "--prepare") {
      prepare = true;
    } else if (arg == "--make-artifacts") {
      make_artifacts = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.work_dir.empty()) Usage("--work-dir is required");

  // Timings from anything but an optimized build are not recorded.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    Fail(std::string("refusing to run a non-Release build (") +
         PERFBENCH_BUILD_TYPE + ")");
  }
  if (prepare) {
    PrepareCorpora(options.work_dir);
    LoadBackbone();
    return 0;
  }

  const bool hot = options.workload == "serve_hot";
  if (!hot && options.workload != "serve_unique" && options.workload != "fit") {
    Usage("unknown workload");
  }
  if (options.workload != "fit" && options.artifact_dir.empty()) {
    Usage("serve workloads need --artifact-dir");
  }
  if (make_artifacts) {
    MakeServeArtifacts(options, hot);
    return 0;
  }

  std::printf("host: nproc=%u isa=%s build_type=%s\n",
              std::thread::hardware_concurrency(),
              goggles::IsaTierName(goggles::ActiveIsaTier()),
              PERFBENCH_BUILD_TYPE);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale.c_str());
  const auto start = Clock::now();
  Outcome out = options.workload == "fit" ? RunFitWorkload(options)
                                          : RunServeWorkload(options, hot);
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  std::printf("operations: %lld attempted, %lld failed (error_rate %.6f); "
              "run %.1f s\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              out.attempted ? static_cast<double>(out.failed) / out.attempted
                            : 0.0,
              SecondsSince(start));
  if (out.attempted < 1) Fail("no operations attempted");
  if (options.trace) {
    PrintRecord(out, kPerLayer, /*required=*/false);
  } else {
    out.Add("success_rate",
            1.0 - static_cast<double>(out.failed) / out.attempted, "fraction");
    out.Add("peak_rss_mb", PeakRssMb() - out.rss_baseline_mb, "MB");
    PrintRecord(out, kEndToEnd, /*required=*/true);
  }
  return 0;
}
