#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at a one-second budget:
  1. an untraced run passes its checks and emits every end-to-end
     metric with the unit BENCHMARK.json gives it;
  2. a run with every reference digest corrupted counts the
     mismatches as failures (failed > 0, correct false);
  3. a traced run emits every per-layer metric with its unit, and its
     trace file parses as Chrome trace-event JSON.
Finally, the benchmark must fail without a result line in a directory
that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, catalog, what):
    got = result["metrics"]
    for m in catalog:
        if m["name"] not in got:
            raise AssertionError(f"{what}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{what}: {m['name']} has unit "
                                 f"{got[m['name']]['unit']}, want {m['unit']}")
    extra = set(got) - {m["name"] for m in catalog}
    if extra:
        raise AssertionError(f"{what}: unexpected metrics {sorted(extra)}")


def check_trace_file(path, what):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        raise AssertionError(f"{what}: empty trace")
    for ev in events:
        if ev["ph"] != "X" or not ev["name"] or ev["dur"] < 0 or "ts" not in ev:
            raise AssertionError(f"{what}: bad trace event {ev}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    failures = []
    for wl in (w["name"] for w in bench["workloads"]):
        try:
            res = result_of(run(wl, 0), f"{wl} untraced")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise AssertionError(f"{wl}: untraced run failed its checks: {res}")
            expect_metrics(res, bench["end_to_end"], f"{wl} untraced")

            bad = result_of(run(wl, 0, "--corrupt-reference"), f"{wl} corrupted")
            if bad["correct"] or bad["failed"] < 1:
                raise AssertionError(f"{wl}: corrupted reference not counted: "
                                     f"attempted={bad['attempted']} failed={bad['failed']}")

            traced = result_of(run(wl, 1), f"{wl} traced")
            if not traced["correct"]:
                raise AssertionError(f"{wl}: traced run failed its checks")
            expect_metrics(traced, bench["per_layer"], f"{wl} traced")
            check_trace_file(os.path.join(ROOT, build_dir, f"trace-{wl}-{SEED}.json"),
                             f"{wl} trace file")
            print(f"ok   {wl}")
        except (AssertionError, KeyError, ValueError, IndexError,
                subprocess.TimeoutExpired) as e:
            failures.append(str(e))
            print(f"FAIL {wl}: {e}")

    bare = os.path.join(ROOT, build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare directory: benchmark did not fail cleanly")
        print("FAIL bare directory")
    else:
        print("ok   bare directory fails without a result")

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
