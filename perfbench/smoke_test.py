#!/usr/bin/env python3
"""Smoke test of the NetSolve benchmark: a short run of every workload.

    python3 perfbench/smoke_test.py [--seconds 1]

Run from the repository root. For every workload in BENCHMARK.json, with
--trace 0 and --trace 1, it asserts that the run exits 0, that error_rate is 0
and every output was verified, that every metric BENCHMARK.json names for that
mode is printed exactly once as a "metric" line and once in the final JSON
line, with the unit BENCHMARK.json gives it, and that every name matches
[A-Za-z0-9_.-]+. Runs every workload and exits non-zero if any failed.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec, workload, trace, seconds):
    """Returns a list of problems with one run (empty = passed)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        return ["exit status %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    problems = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        return ["last line is not JSON (%s)" % err]
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append("attempted/failed = %s/%s"
                        % (result.get("attempted"), result.get("failed")))
    if not any(re.match(r"^info\s+error_rate 0 ", l) for l in lines):
        problems.append("error_rate is not 0")
    if not any(re.match(r"^check\s+ok\s+every output verified", l) for l in lines):
        problems.append("outputs were not all verified")
    problems += ["failed check: " + l for l in lines if re.match(r"^check\s+FAIL", l)]

    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 4 and fields[0] == "metric":
            printed.setdefault(fields[1], []).append(fields[3])
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if len(printed.get(name, [])) != 1:
            problems.append("%s printed %d times" % (name, len(printed.get(name, []))))
        elif printed[name][0] != unit:
            problems.append("%s printed with unit %s, not %s" % (name, printed[name][0], unit))
        entry = metrics.get(name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append("%s missing from the JSON result" % name)
        elif entry["unit"] != unit or not isinstance(entry["value"], (int, float)) \
                or not math.isfinite(entry["value"]):
            problems.append("%s has JSON entry %s" % (name, entry))
    for name in list(printed) + list(metrics):
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if name not in expected:
            problems.append("%s is printed but not named in BENCHMARK.json" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad_names = [n for n in names if not NAME_RE.match(n)]
    if bad_names:
        sys.exit("bad names in BENCHMARK.json: %s" % bad_names)

    failed = False
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, workload["name"], trace, args.seconds)
            status = "ok" if not problems else "FAIL"
            print("%-4s %s --trace %d" % (status, workload["name"], trace), flush=True)
            for p in problems:
                print("     " + p)
            failed = failed or bool(problems)
    if failed:
        sys.exit(1)
    print("SMOKE OK")


if __name__ == "__main__":
    main()
