#!/usr/bin/env python3
"""Gate benchmark results against a committed baseline and/or absolute floors.

Usage:
    check_bench_regression.py --baseline BENCH_transport.json \
        bench_agent.json bench_scalability.json
    check_bench_regression.py --baseline BENCH_transport.json \
        --write-baseline bench_agent.json bench_scalability.json
    check_bench_regression.py --prefix bench.fault.e4g. \
        --min bench.fault.e4g.ckpt_compression_ratio=3.0 BENCH_fault.json
    check_bench_regression.py --prefix bench.transfer. \
        --min bench.transfer.wan_10mbit.65536.MBps=1.0 \
        --max bench.transfer.wan_10mbit.65536.MBps=1.25 BENCH_transfer.json

The bench binaries (`bench_agent --quick --json out.json`, ...) dump every
metric gauge; --prefix selects which ones this invocation gates (default:
the transport-relevant `bench.transport.` family). Two gating modes, usable
together or alone:

  * baseline-relative (--baseline): a throughput gauge (qps/rps/jps) must
    not drop more than --max-throughput-drop (default 15%) below baseline,
    and a latency gauge (name contains `p99`/`_ms`) must not rise more than
    --max-p99-rise (default 25%) above it. Gauges present in the baseline
    but missing from the current run fail too (a silently skipped benchmark
    is not a pass). New gauges absent from the baseline are reported but do
    not fail — commit a refreshed baseline (--write-baseline) to start
    gating them.

  * absolute bounds (--min / --max NAME=VALUE, repeatable): the named
    gauge must be present and >= (or <=) VALUE. Used for acceptance-shaped
    results that have a hard meaning rather than a drifting baseline —
    e.g. the E4g checkpoint replication wire-compression ratio must stay
    >= 3x raw, and a shaped link's effective bandwidth must stay at or
    below its configured rate.
"""

import argparse
import json
import sys


def load_gauges(path, prefix):
    with open(path) as f:
        doc = json.load(f)
    gauges = doc.get("metrics", {}).get("gauges", {})
    return {k: float(v) for k, v in gauges.items() if k.startswith(prefix)}


def is_latency(name):
    return "p99" in name or "_ms" in name


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="+", help="bench --json output files")
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--prefix", default="bench.transport.",
                        help="gauge-name prefix this invocation gates")
    parser.add_argument("--min", action="append", default=[], metavar="NAME=VALUE",
                        help="absolute floor: gauge NAME must be >= VALUE")
    parser.add_argument("--max", action="append", default=[], metavar="NAME=VALUE",
                        help="absolute ceiling: gauge NAME must be <= VALUE")
    parser.add_argument("--max-throughput-drop", type=float, default=0.15,
                        help="fail if throughput < (1 - this) * baseline")
    parser.add_argument("--max-p99-rise", type=float, default=0.25,
                        help="fail if p99 > (1 + this) * baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from these results instead of gating")
    args = parser.parse_args()
    if not args.baseline and not args.min and not args.max:
        parser.error("nothing to gate: pass --baseline, --min and/or --max")
    if args.write_baseline and not args.baseline:
        parser.error("--write-baseline needs --baseline")

    current = {}
    for path in args.results:
        current.update(load_gauges(path, args.prefix))
    if not current:
        print(f"error: no {args.prefix}* gauges found in {args.results}", file=sys.stderr)
        return 1

    if args.write_baseline:
        doc = {
            "comment": "Transport benchmark baseline. Regenerate with "
                       "scripts/check_bench_regression.py --write-baseline after "
                       "an intentional perf change; CI gates against these values.",
            "source": "bench_agent --quick --json / bench_scalability --quick --json",
            "metrics": {k: round(v, 3) for k, v in sorted(current.items())},
        }
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {len(current)} gauges to {args.baseline}")
        return 0

    failures = []
    gated = 0

    bounds = [(spec, "floor", lambda cur, bound: cur < bound, "<") for spec in args.min]
    bounds += [(spec, "ceiling", lambda cur, bound: cur > bound, ">") for spec in args.max]
    for spec, kind, violates, op in bounds:
        name, _, bound_s = spec.partition("=")
        bound = float(bound_s)
        gated += 1
        if name not in current:
            failures.append(f"{name}: missing from current run ({kind} {bound:g})")
            print(f"  [FAIL] {name}: missing ({kind} {bound:g})")
            continue
        cur = current[name]
        verdict = "FAIL" if violates(cur, bound) else "ok"
        if violates(cur, bound):
            failures.append(f"{name}: {cur:g} {op} {kind} {bound:g}")
        print(f"  [{verdict:>4}] {name}: {cur:g} vs {kind} {bound:g}")

    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["metrics"]
        gated += len(baseline)

        for name in sorted(baseline):
            base = float(baseline[name])
            if name not in current:
                failures.append(f"{name}: missing from current run (baseline {base:g})")
                continue
            cur = current[name]
            if is_latency(name):
                limit = base * (1.0 + args.max_p99_rise)
                verdict = "FAIL" if cur > limit else "ok"
                if cur > limit:
                    failures.append(
                        f"{name}: p99 {cur:g} > {limit:g} "
                        f"(baseline {base:g} +{args.max_p99_rise:.0%})")
            else:
                limit = base * (1.0 - args.max_throughput_drop)
                verdict = "FAIL" if cur < limit else "ok"
                if cur < limit:
                    failures.append(
                        f"{name}: throughput {cur:g} < {limit:g} "
                        f"(baseline {base:g} -{args.max_throughput_drop:.0%})")
            delta = (cur / base - 1.0) * 100.0 if base else 0.0
            print(f"  [{verdict:>4}] {name}: {cur:g} vs baseline {base:g} ({delta:+.1f}%)")

        for name in sorted(set(current) - set(baseline)):
            print(f"  [ new] {name}: {current[name]:g} (not in baseline, not gated)")

    if failures:
        print(f"\n{len(failures)} bench gate failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {gated} gated gauges within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
