#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

Run from the root of the repository:

    python3 perfbench/smoke.py

For every workload, with --trace 0 and --trace 1, checks that run.py exits
0, that its last line reports no failed check, and that every metric
BENCHMARK.json declares appears with its unit. Then checks the negative
control: with every recorded expected value perturbed, run.py must exit 1
and its last line must report failed checks (ok_share below 1). Exits
non-zero on any problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, exit_code=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    if p.returncode != exit_code or not p.stdout.strip():
        raise SystemExit("FAIL: %s exited %d, expected %d\n%s%s"
                         % (" ".join(cmd), p.returncode, exit_code, p.stdout, p.stderr))
    return json.loads(p.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, trace)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s trace=%d: %d of %d checks failed"
                                % (w, trace, res["failed"], res["attempted"]))
            for m in bench[kind]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%d: metric %s missing or not in %s"
                                    % (w, trace, m["name"], m["unit"]))
            print("ok   %-8s trace=%d  %d checks, %d metrics"
                  % (w, trace, res["attempted"], len(res["metrics"])))
    res = run("analyze", 0, "--corrupt-expected", exit_code=1)
    share = res["metrics"]["ok_share"]["value"]
    if res["failed"] == 0 or share >= 1 or res["correct"]:
        problems.append("a corrupted expected value was not caught (failed=%d)" % res["failed"])
    else:
        print("ok   corrupted expectations caught: exit 1, %d of %d checks failed, "
              "lowest phase ok_share %.4f" % (res["failed"], res["attempted"], share))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
