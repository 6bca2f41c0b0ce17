#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Builds the perfbench driver (perfbench/CMakeLists.txt, which compiles
the repository's sources from the parent directory) into
.bench_build/perfbench, runs one workload and passes its output
through. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload design_space --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

--seconds defaults to BENCHMARK.json's run_seconds. --trace 0 prints
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
metrics, whose names and units the driver reads from BENCHMARK.json
(and writes the run's spans to
.bench_build/perfbench-out/spans-<workload>-<seed>.json). --smoke runs
every workload at a tiny size, both ways, and checks that every
metric BENCHMARK.json names is printed with its unit and that the
correctness gate passes.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
SPEC = ROOT / "BENCHMARK.json"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no mbbp sources beside perfbench/ (expected ../src)")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)] + generator)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace, tiny=False, echo=True):
    """Run the driver once; returns (exit code, parsed result or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT), "--benchmark", str(SPEC)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(OUT / ("work-%d" % proc.pid), ignore_errors=True)
    lines = stdout.splitlines()
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        result = None
    return proc.returncode, result


def smoke(spec):
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_driver(name, 1, 1, trace, tiny=True,
                                      echo=False)
            where = "%s --trace %d" % (name, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result" % (where, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness gate failed" % where)
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if not isinstance(got, dict) or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s missing" % (where, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %r, want %r" % (
                        where, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (
                    where, sorted(extra)))
            print("smoke: %s: %d metrics, correct=%s" % (
                where, len(metrics), result["correct"]))
    ledger = json.loads((HERE / "ledger.json").read_text())
    mapped = {m["name"] for m in ledger["per_layer"]}
    for m in spec["per_layer"]:
        if m["name"] not in mapped:
            problems.append("ledger.json: no entry for %s" % m["name"])
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (SPEC, e))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        parser.error("--workload is required")
    code, result = run_driver(args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        print("perfbench: the driver printed no result", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
