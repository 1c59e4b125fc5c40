#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload analyze|campaign|serve \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-expected]

The first run configures and builds the library and the benchmark
(Release) into .bench_build/perfbench; later runs only rebuild what
changed. --trace 0 prints the end-to-end metrics; --trace 1 runs every
phase once untraced and once traced, keeps the Chrome trace at
.bench_build/trace-<workload>.json and prints the per-layer metrics (span
self times from summarize.py plus the counts the binary reports). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Exits 1 when any output check failed (after printing that line) or on an
error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # Leave nothing behind in the checkout.
sys.path.insert(0, HERE)
import summarize  # noqa: E402

# Span name -> per-layer metric: mean self microseconds per call.
MEAN_US = [
    "ir.parse", "ir.verify", "analysis.bitvalues", "analysis.liveness",
    "analysis.usedef", "core.bec", "core.counts", "core.vuln", "sim.golden",
    "sched.schedule", "fi.plan", "api.serialize", "serve.protocol",
]
# Span name -> per-layer metric: total self seconds of the traced pass.
TOTAL_S = {"fi.engine.1t": "fi.engine_s_1t", "fi.engine.nt": "fi.engine_s_nt"}


def fail(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc())])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def layer_metrics(trace_path, counts):
    """Span self times from the trace, merged with the binary's counts."""
    with open(trace_path) as f:
        rows = summarize.self_times(json.load(f))
    out = dict(counts)
    for span in MEAN_US:
        row = rows.get(span, {"calls": 0, "self_us": 0})
        value = row["self_us"] / row["calls"] if row["calls"] else 0.0
        out[span + "_us"] = {"value": value, "unit": "us"}
    for span, name in TOTAL_S.items():
        out[name] = {"value": rows.get(span, {"self_us": 0})["self_us"] / 1e6, "unit": "s"}
    golden_us = rows.get("sim.golden", {"self_us": 0})["self_us"]
    cycles = counts.get("sim.cycles", {"value": 0})["value"]
    out["sim.cycles_per_us"] = {"value": cycles / golden_us if golden_us else 0.0,
                                "unit": "cycles/us"}
    print("per-layer self time (%s):" % os.path.relpath(trace_path, ROOT))
    print(summarize.table(rows))
    return out


def declared(kind):
    """Metric name -> unit of BENCHMARK.json's `kind` list, if the file exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["analyze", "campaign", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="perturb the recorded expected values (negative control)")
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--git-sha", git_sha()]
    trace_path = os.path.join(ROOT, ".bench_build", "trace-%s.json" % args.workload)
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    # Exit code 3: the run finished but an output check failed; the result
    # is still printed, then this script exits 1.
    if p.returncode not in (0, 3) or not lines:
        sys.stdout.write(p.stdout)
        fail("perfbench exited with code %d" % p.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace:
        metrics = layer_metrics(trace_path, metrics)

    want = declared("per_layer" if args.trace else "end_to_end")
    if want is not None:
        missing = [n for n, unit in want.items()
                   if n not in metrics or metrics[n]["unit"] != unit]
        if missing:
            fail("metrics missing or with the wrong unit: %s" % ", ".join(missing))
        metrics = {n: metrics[n] for n in want}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    if not result["correct"] or p.returncode != 0:
        fail("%d of %d output checks failed" % (result["failed"], result["attempted"]))


if __name__ == "__main__":
    main()
