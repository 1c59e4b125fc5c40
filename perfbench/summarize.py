#!/usr/bin/env python3
"""Per-layer self time from a Chrome trace written by the obs tracer.

A layer span is one whose name is in LAYER_SPANS ("ir.parse",
"fi.engine.1t", ...). Its self time is its duration minus the part of that
interval covered by layer spans nested inside it on the same thread. Spans
with other names (the library's own "query:...", "fi.shard", ...) are
transparent: their time stays with the nearest enclosing layer span.

    python3 perfbench/summarize.py TRACE.json

prints one row per layer span: calls, total and self microseconds.
"""

import json
import sys

# Span name -> the layer (module under src/) it measures.
LAYER_SPANS = {
    "analyze.program": "bench",
    "ir.parse": "ir",
    "ir.verify": "ir",
    "analysis.bitvalues": "analysis",
    "analysis.liveness": "analysis",
    "analysis.usedef": "analysis",
    "core.bec": "core",
    "core.counts": "core",
    "core.vuln": "core",
    "sim.golden": "sim",
    "sched.schedule": "sched",
    "fi.plan": "fi",
    "fi.engine.1t": "fi",
    "fi.engine.nt": "fi",
    "serve.request": "serve",
    "serve.protocol": "serve",
    "api.serialize": "api",
}


def self_times(trace):
    """Returns {span name: {"calls", "total_us", "self_us"}} for layer spans."""
    stacks = {}  # tid -> [[name, begin_ts, child_us], ...]
    out = {}
    # The tracer writes each thread's events in the order they happened.
    for e in trace.get("traceEvents", []):
        name = e.get("name", "")
        if e.get("ph") not in ("B", "E") or name not in LAYER_SPANS:
            continue
        stack = stacks.setdefault(e.get("tid", 0), [])
        if e["ph"] == "B":
            stack.append([name, e["ts"], 0])
            continue
        if not stack or stack[-1][0] != name:
            raise ValueError("unbalanced span '%s' on thread %s" % (name, e.get("tid")))
        _, begin, child = stack.pop()
        duration = e["ts"] - begin
        row = out.setdefault(name, {"calls": 0, "total_us": 0, "self_us": 0})
        row["calls"] += 1
        row["total_us"] += duration
        row["self_us"] += duration - child
        if stack:
            stack[-1][2] += duration
    for tid, stack in stacks.items():
        if stack:
            raise ValueError("span '%s' on thread %s never closed" % (stack[-1][0], tid))
    return out


def table(rows):
    """The rows of self_times() as text, largest self time first."""
    lines = ["%-20s %-9s %8s %14s %14s" % ("span", "layer", "calls", "total_us", "self_us")]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_us"]):
        lines.append("%-20s %-9s %8d %14d %14d" % (name, LAYER_SPANS[name], row["calls"],
                                                   row["total_us"], row["self_us"]))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: summarize.py TRACE.json\n")
        return 2
    with open(argv[1]) as f:
        print(table(self_times(json.load(f))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
