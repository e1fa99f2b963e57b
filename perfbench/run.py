#!/usr/bin/env python3
"""Repository benchmark for the GOGGLES reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all          # every workload, one record each
    python3 perfbench/run.py --self-test    # tiny-scale check of the harness

It builds the libraries and the benchmark binary from source into
.bench_build/ (Release, default options) and runs one workload. What the
program itself produces ahead of the timed work (the pretrained backbone
weights, the corpora, the serve workloads' fitted tasks and their oracle
responses) lives in .bench_build/work/<hash of the binary>/: it is made
once per build of the code and made afresh whenever the code changes, so
no figure or check ever comes from another build. The served tasks are
fitted in a process of their own, so fitting never counts towards the
serving process's time or memory. The last line of stdout is the JSON
record. See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "goggles_perfbench")
WORKLOADS = ("fit", "serve_unique", "serve_hot")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def work_dir():
    """The build's own scratch directory, named after a hash of the
    benchmark binary (which links the GOGGLES libraries statically)."""
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return os.path.join(BUILD_ROOT, "work", digest.hexdigest()[:16])


def bench_env(work):
    """The inherited environment minus every GOGGLES_* knob, plus the
    build's own weight cache (when there is a work dir yet)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GOGGLES_")}
    if work is not None:
        env["GOGGLES_CACHE_DIR"] = os.path.join(work, "goggles_cache")
    return env


def call(args, timeout, work=None, capture=False):
    """Runs a child to completion (killed and reaped on timeout)."""
    try:
        done = subprocess.run(args, env=bench_env(work), timeout=timeout,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    if done.returncode != 0:
        fail("exit code %d: %s" % (done.returncode, " ".join(args)))
    return done.stdout


def build():
    """Builds the binary and prepares its work dir; returns the work dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.h")):
        fail("GOGGLES sources not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    call(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
         timeout=800)
    work = work_dir()
    call([BINARY, "--prepare", "--work-dir", work], timeout=300, work=work)
    return work


def run_workload(work, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns its stdout (last line = JSON record)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", work] + list(extra)
    if workload != "fit":
        # The served tasks and their oracle do not depend on the seed:
        # fit them once per build, in a process of their own.
        name = workload + ("-tiny" if "tiny" in extra else "")
        artifacts = os.path.join(work, "artifacts", name)
        args += ["--artifact-dir", artifacts]
        if not os.path.isfile(os.path.join(artifacts, "oracle.txt")):
            staging = artifacts + ".tmp-%d" % os.getpid()
            shutil.rmtree(staging, ignore_errors=True)
            call([BINARY, "--make-artifacts"] + args[:-1] + [staging],
                 timeout=RUN_TIMEOUT_S, work=work)
            shutil.rmtree(artifacts, ignore_errors=True)
            os.rename(staging, artifacts)
    return call([BINARY] + args, timeout=RUN_TIMEOUT_S, work=work,
                capture=True)


def parse_record(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    record = json.loads(lines[-1])
    if sorted(record) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed record: " + lines[-1])
    return record


def self_test(work):
    """Tiny-scale check: every metric of BENCHMARK.json is printed with its
    unit on every workload, and a corrupted response counts as failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    tiny = ["--scale", "tiny"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = parse_record(run_workload(work, workload, 1, 1, trace,
                                               tiny))
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != expected[trace]:
                fail("%s trace=%d metrics differ from BENCHMARK.json: %s"
                     % (workload, trace, sorted(set(got) ^ set(expected[trace]))))
            if not record["correct"] or record["failed"] != 0:
                fail("%s trace=%d reported failures" % (workload, trace))
            print("self-test: %s trace=%d ok (%d metrics)"
                  % (workload, trace, len(got)))
    record = parse_record(run_workload(work, "serve_unique", 1, 1, 0,
                                       tiny + ["--corrupt-response", "3"]))
    if record["correct"] or record["failed"] != 1:
        fail("a corrupted response was not counted: %s" % record)
    print("self-test: corrupted response counted as failed ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print each record")
    args = parser.parse_args()
    if not (args.self_test or args.all) and args.workload is None:
        parser.error("--workload is required")

    work = build()
    if args.self_test:
        self_test(work)
        return
    if args.all:
        for workload in WORKLOADS:
            sys.stdout.write(run_workload(work, workload, args.seed,
                                          args.seconds, args.trace))
        return
    stdout = run_workload(work, args.workload, args.seed, args.seconds,
                          args.trace)
    parse_record(stdout)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
