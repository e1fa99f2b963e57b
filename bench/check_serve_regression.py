#!/usr/bin/env python3
"""Gate serve-bench metrics from a bench_common.h JSON trajectory.

Usage:
  check_serve_regression.py TRAJECTORY \
      --metric NAME [--min X] [--metric NAME [--min X]]... \
      [--max-regress FACTOR]

TRAJECTORY is a BENCH_<name>.json written by the Banner() hook in
bench_common.h: one compact JSON object per line with "bench", "scale",
"build_type" and a flat "metrics" map (the serve benches record
throughput in img/s and latency percentiles in ms; higher-is-better
metrics like `batch_speedup` are the ones worth gating).

Only records tagged "build_type":"release" participate — debug timings
are not comparable (bench/run_all.sh refuses to produce them by
default). The LAST release record carrying the metric is the fresh
measurement under test; the release record before it (if any) is the
baseline.

Two checks per --metric, both higher-is-better:
  --min X             absolute floor: fail when fresh < X. This is the
                      primary gate (e.g. batch_speedup >= 1.0): a
                      ratio of two numbers measured on the SAME machine
                      in the SAME run, so it carries no hardware delta.
  --max-regress F     relative: fail when fresh < baseline / F
                      (skipped without a baseline record). Absolute
                      cross-run comparison — when the measuring machine
                      differs from the recording machine the factor also
                      absorbs the hardware delta, so keep it loose
                      (default 3.0) for raw img/s metrics.

Exit codes: 0 ok, 1 regression, 2 usage/data error.
"""

import argparse
import json
import sys


def load_release_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"warning: {path}:{line_no}: {err}", file=sys.stderr)
                continue
            if record.get("build_type") != "release":
                continue
            records.append(record)
    return records


def metric_history(records, name):
    """All values of `name` across release records, in trajectory order."""
    values = []
    for record in records:
        value = record.get("metrics", {}).get(name)
        if isinstance(value, (int, float)):
            values.append(float(value))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trajectory")
    parser.add_argument("--metric", action="append", default=[],
                        required=True,
                        help="metric name to gate (repeatable)")
    parser.add_argument("--min", action="append", type=float, default=[],
                        dest="mins",
                        help="absolute floor for the matching --metric "
                             "(positional pairing)")
    parser.add_argument("--max-regress", type=float, default=3.0,
                        help="fail when fresh < baseline / FACTOR")
    args = parser.parse_args()
    metrics = args.metric
    mins = args.mins
    if len(mins) not in (0, len(metrics)):
        print("error: give one --min per --metric, or none", file=sys.stderr)
        return 2

    records = load_release_records(args.trajectory)
    if not records:
        print(f"error: no release-tagged records in {args.trajectory}",
              file=sys.stderr)
        return 2

    failed = False
    for i, name in enumerate(metrics):
        history = metric_history(records, name)
        if not history:
            print(f"error: metric {name!r} missing from every release "
                  f"record in {args.trajectory}", file=sys.stderr)
            return 2
        fresh = history[-1]
        verdicts = []
        if mins:
            floor = mins[i]
            ok = fresh >= floor
            verdicts.append(f"floor {floor:g}: "
                            f"{'OK' if ok else 'REGRESSION'}")
            failed |= not ok
        if len(history) >= 2:
            baseline = history[-2]
            limit = baseline / args.max_regress
            ok = fresh >= limit
            verdicts.append(
                f"baseline {baseline:.3f} (limit {limit:.3f}, "
                f"/{args.max_regress:g}): {'OK' if ok else 'REGRESSION'}")
            failed |= not ok
        else:
            verdicts.append("no prior record; relative check skipped")
        print(f"{name}: fresh {fresh:.3f} | " + " | ".join(verdicts))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
