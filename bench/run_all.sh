#!/usr/bin/env bash
# Runs every experiment bench and collects the JSON perf trajectory.
#
# Usage: bench/run_all.sh [BUILD_DIR] [BENCH...]
#   BUILD_DIR  directory with the built bench binaries (default: build)
#   BENCH      subset of bench names to run (default: all of them)
#
# Knobs (environment):
#   GOGGLES_BENCH_SCALE     small|paper workload scale (default: small)
#   GOGGLES_NUM_THREADS     worker threads for the parallel kernels
#   GOGGLES_BENCH_JSON_DIR  where BENCH_<name>.json records accumulate
#                           (default: the repo root, next to this script's
#                           parent directory)
#   GOGGLES_BENCH_ALLOW_NONRELEASE=1
#                           run against a non-Release build dir anyway
#                           (loudly warned; records are tagged with the
#                           offending build type). By default the script
#                           REFUSES non-Release builds: debug-build perf
#                           records poison the BENCH_*.json trajectory.
#   GOGGLES_BENCH_ALLOW_DEBUG_BENCHLIB=1
#                           accept a google-benchmark LIBRARY that
#                           self-reports a debug build (see the library
#                           gate below). Needed with Debian's libbenchmark
#                           packages, which are compiled -O2 but without
#                           NDEBUG and therefore mis-report "debug".
#
# Each bench appends one JSON line per run to BENCH_<name>.json via the
# Banner() hook in bench_common.h; bench_micro_kernels (pure
# google-benchmark) writes its JSON report through --benchmark_out.

set -u -o pipefail

script_dir="$(cd "$(dirname "$0")" && pwd)"
repo_root="$(dirname "$script_dir")"
build_dir="${1:-build}"
shift 2>/dev/null || true

if [[ ! -d "$build_dir" ]]; then
  if [[ -d "$repo_root/$build_dir" ]]; then
    build_dir="$repo_root/$build_dir"
  else
    echo "error: build dir '$build_dir' not found; run cmake first" >&2
    exit 2
  fi
fi

# Build-type gate: perf records only mean something from an optimized
# build. Read the authoritative CMAKE_BUILD_TYPE from the build dir's
# cache; refuse anything but Release unless explicitly overridden, and
# tag every record with the build type either way.
build_type="unknown"
if [[ -f "$build_dir/CMakeCache.txt" ]]; then
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
      "$build_dir/CMakeCache.txt" | head -n 1)"
  build_type="${build_type:-unknown}"
fi
if [[ "$build_type" != "Release" ]]; then
  if [[ "${GOGGLES_BENCH_ALLOW_NONRELEASE:-0}" != "1" ]]; then
    echo "error: build dir '$build_dir' is CMAKE_BUILD_TYPE='$build_type'," >&2
    echo "       not Release — its timings would poison the BENCH_*.json" >&2
    echo "       perf trajectory. Rebuild with -DCMAKE_BUILD_TYPE=Release" >&2
    echo "       (cmake --preset release), or set" >&2
    echo "       GOGGLES_BENCH_ALLOW_NONRELEASE=1 to run anyway with" >&2
    echo "       records tagged \"build_type\":\"$(echo "$build_type" \
        | tr '[:upper:]' '[:lower:]')\"." >&2
    exit 2
  fi
  echo "WARNING: benching a '$build_type' build; records are tagged and" >&2
  echo "         must not be compared against Release records." >&2
fi
# Exact CMake build type (lowercased) for the JSON build_type tag.
export GOGGLES_BENCH_BUILD_TYPE="$(echo "$build_type" \
    | tr '[:upper:]' '[:lower:]')"

# google-benchmark LIBRARY build-type gate. The micro-kernel bench links
# the installed benchmark library, whose own NDEBUG state is what the
# JSON context's "library_build_type" field reports — it says nothing
# about the goggles build (that is the goggles_build_type context entry).
# A library without NDEBUG keeps its internal assertions live inside the
# measurement machinery, so a "debug" self-report is refused by default,
# the same way non-Release build dirs are. CAVEAT: Debian's libbenchmark
# packages are compiled -O2 but without NDEBUG and therefore self-report
# "debug"; set GOGGLES_BENCH_ALLOW_DEBUG_BENCHLIB=1 to accept such a
# library. Every micro-kernel record is tagged with the probed value
# (goggles_benchmark_lib_build_type) either way.
probe_bench_lib_build_type() {
  local bin="$1" tmp out=""
  tmp="$(mktemp)"
  # Quick real run (the DP micro-bench takes microseconds): an empty
  # filter would produce no JSON at all.
  if "$bin" --benchmark_filter='BM_TheoryDp' --benchmark_min_time=0.001 \
      --benchmark_out="$tmp" --benchmark_out_format=json >/dev/null 2>&1; then
    out="$(sed -n 's/.*"library_build_type": *"\([a-z]*\)".*/\1/p' "$tmp" \
        | head -n 1)"
  fi
  rm -f "$tmp"
  echo "${out:-unknown}"
}

# No colon: an explicitly empty GOGGLES_BENCH_JSON_DIR disables records
# (matching the bench_common.h contract); only an unset one defaults.
json_dir="${GOGGLES_BENCH_JSON_DIR-$repo_root}"
if [[ -n "$json_dir" ]]; then
  mkdir -p "$json_dir"
fi

all_benches=(
  bench_table1_labeling
  bench_table2_endmodel
  bench_fig2_affinity_dists
  bench_fig5_affinity_heatmap
  bench_fig7_devset_theory
  bench_fig8_devset_size
  bench_fig9_num_affinities
  bench_ablation_inference
  bench_serve_latency
  bench_serve_pipeline
  bench_micro_kernels
)
if [[ $# -gt 0 ]]; then
  benches=("$@")
else
  benches=("${all_benches[@]}")
fi

echo "scale=${GOGGLES_BENCH_SCALE:-small}  json_dir=${json_dir:-<records disabled>}"
failed=0
for bench in "${benches[@]}"; do
  bin="$build_dir/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build_dir)" >&2
    failed=1
    continue
  fi
  name="${bench#bench_}"
  echo
  echo ">>> $bench"
  if [[ "$bench" == bench_micro_kernels ]]; then
    lib_build_type="$(probe_bench_lib_build_type "$bin")"
    if [[ "$lib_build_type" != "release" \
          && "${GOGGLES_BENCH_ALLOW_DEBUG_BENCHLIB:-0}" != "1" \
          && "${GOGGLES_BENCH_ALLOW_NONRELEASE:-0}" != "1" ]]; then
      echo "error: the google-benchmark library linked into $bench" >&2
      echo "       self-reports build type '$lib_build_type' (its own" >&2
      echo "       NDEBUG state) — its live assertions sit inside the" >&2
      echo "       measurement machinery. Link a Release benchmark" >&2
      echo "       library, or set GOGGLES_BENCH_ALLOW_DEBUG_BENCHLIB=1" >&2
      echo "       if the library is actually optimized (Debian's" >&2
      echo "       libbenchmark is -O2 but compiled without NDEBUG, so" >&2
      echo "       it mis-reports \"debug\")." >&2
      failed=1
      continue
    fi
  fi
  if [[ "$bench" == bench_micro_kernels && -z "$json_dir" ]]; then
    "$bin" "--benchmark_context=goggles_build_type=$GOGGLES_BENCH_BUILD_TYPE" \
        "--benchmark_context=goggles_benchmark_lib_build_type=$lib_build_type" \
        || failed=1
  elif [[ "$bench" == bench_micro_kernels ]]; then
    # --benchmark_out truncates its file; stage to a temp file and append
    # one compact line so this trajectory accumulates like the others.
    tmp_json="$(mktemp)"
    if "$bin" --benchmark_out="$tmp_json" --benchmark_out_format=json \
        "--benchmark_context=goggles_build_type=$GOGGLES_BENCH_BUILD_TYPE" \
        "--benchmark_context=goggles_benchmark_lib_build_type=$lib_build_type"; then
      if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1])), separators=(",",":")))' \
            "$tmp_json" >> "$json_dir/BENCH_${name}.json" || failed=1
      else
        tr -d '\n' < "$tmp_json" >> "$json_dir/BENCH_${name}.json"
        echo >> "$json_dir/BENCH_${name}.json"
      fi
    else
      failed=1
    fi
    rm -f "$tmp_json"
  else
    GOGGLES_BENCH_NAME="$name" GOGGLES_BENCH_JSON_DIR="$json_dir" \
        "$bin" || failed=1
  fi
done

echo
if [[ "$failed" -ne 0 ]]; then
  echo "bench run finished with failures" >&2
  exit 1
fi
if [[ -n "$json_dir" ]]; then
  echo "all benches done; trajectory records in $json_dir/BENCH_*.json"
else
  echo "all benches done (JSON records disabled)"
fi
