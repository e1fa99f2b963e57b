#!/usr/bin/env python3
"""Gate bench metrics from a bench_common.h JSON trajectory.

Usage:
  check_serve_regression.py TRAJECTORY \
      --metric NAME [--min X] [--metric NAME [--min X]]... \
      [--max-regress FACTOR] [--baseline TRAJECTORY] [--max-drop D]

TRAJECTORY is a BENCH_<name>.json written by the Banner() hook in
bench_common.h: one compact JSON object per line with "bench", "scale",
"build_type" and a flat "metrics" map (the serve benches record
throughput in img/s and latency percentiles in ms, Table 1 its labeling
accuracies in %; higher-is-better metrics like `batch_speedup` or
`goggles_pct_average` are the ones worth gating).

Only records tagged "build_type":"release" participate — debug timings
are not comparable (bench/run_all.sh refuses to produce them by
default). The LAST release record carrying the metric is the fresh
measurement under test; the baseline is the release record before it
(if any), or, with --baseline, the last release record carrying the
metric in that other trajectory (a fresh run written to a temp dir,
gated against the repo's recorded trajectory).

Checks per --metric, all higher-is-better:
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
  --max-drop D        absolute: fail when fresh < baseline - D (skipped
                      without a baseline record). For metrics that are
                      bit-reproducible across hosts, such as labeling
                      accuracy, where any drop is a behaviour change.

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
    parser.add_argument("--baseline",
                        help="take each baseline from the last release "
                             "record of this trajectory instead")
    parser.add_argument("--max-drop", type=float,
                        help="fail when fresh < baseline - D")
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
    baseline_records = None
    if args.baseline is not None:
        baseline_records = load_release_records(args.baseline)

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
        if baseline_records is not None:
            prior = metric_history(baseline_records, name)[-1:]
        else:
            prior = history[-2:-1]
        if prior:
            baseline = prior[0]
            limit = baseline / args.max_regress
            ok = fresh >= limit
            verdicts.append(
                f"baseline {baseline:.3f} (limit {limit:.3f}, "
                f"/{args.max_regress:g}): {'OK' if ok else 'REGRESSION'}")
            failed |= not ok
            if args.max_drop is not None:
                limit = baseline - args.max_drop
                ok = fresh >= limit
                verdicts.append(
                    f"drop limit {limit:.3f} (-{args.max_drop:g}): "
                    f"{'OK' if ok else 'REGRESSION'}")
                failed |= not ok
        else:
            verdicts.append("no prior record; relative checks skipped")
        print(f"{name}: fresh {fresh:.3f} | " + " | ".join(verdicts))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
