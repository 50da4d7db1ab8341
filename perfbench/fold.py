#!/usr/bin/env python3
"""Fold a traced benchmark run into the per-layer table.

Usage:
  python3 perfbench/fold.py .bench_run/traced-<workload>.json

The input is the raw document qsa_perfbench writes with --trace 1 (run.py
keeps the last one per workload under .bench_run/), next to the Chrome
trace it names. The table holds, per layer:

  - self time: each span's duration minus the part of it its child spans
    cover, summed over the layer's spans; a span's children are the
    spans it contains on the same thread;
  - the obs counter deltas of the traced pass;
  - derived ratios, each printed with its base;
  - the outside-timed replays of layers that have no span of their own;
  - the share of wall time no span covers.

The statistics helpers here (median, tail, geomean, ratio) are shared
with run.py.
"""

import json
import math
import os
import sys


# --- statistics ------------------------------------------------------------

def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail(values):
    """A latency tail with at least ten samples beyond it.

    Returns (value, percentile): p99 once 1000 samples put ten beyond
    it; below that the highest percentile with ten samples beyond it,
    the 11th-largest sample, at 100 * (n - 10) / n. Below 20 samples
    that percentile would sit under the median, which is no tail: the
    maximum is returned instead, with percentile 100.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    if n < 20:
        return values[-1], 100.0
    if n >= 1000:
        return percentile(values, 99.0), 99.0
    return values[n - 11], 100.0 * (n - 10) / n


def gated_tail(values):
    """The tail the benchmark gates: p95 once 200 samples put ten
    beyond it, else tail(). p99 swung twice as much as p95 between
    runs of the serve workload (ten-run quartile spread 0.11 vs 0.07),
    so the steadier percentile carries the bound; tail() still
    reports p99."""
    if len(values) >= 200:
        return percentile(sorted(values), 95.0)
    return tail(values)[0]


def percentile(values, q):
    """Linear-interpolated q-th percentile of sorted values."""
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator, base):
    """numerator / base, and 0 when the base is 0 (no work, no ratio)."""
    return numerator / base if base else 0.0


# --- spans -----------------------------------------------------------------

def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def spans_from_trace(trace):
    """Complete ("X") events as dicts with start/end in seconds."""
    spans = []
    for event in trace.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        start = event["ts"] / 1e6
        spans.append({
            "name": event["name"],
            "tid": event["tid"],
            "start": start,
            "end": start + event["dur"] / 1e6,
            "args": event.get("args", {}),
        })
    return spans


def nest(spans):
    """Set each span's "parent" index: the innermost span on the same
    thread that contains it (None at the top level)."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tid"], spans[i]["start"],
                                  -spans[i]["end"]))
    stack = []
    tid = None
    for i in order:
        span = spans[i]
        if span["tid"] != tid:
            stack, tid = [], span["tid"]
        while stack and spans[stack[-1]]["end"] < span["end"]:
            stack.pop()
        span["parent"] = stack[-1] if stack else None
        stack.append(i)
    return spans


def self_times(spans):
    """Each span's duration minus the union of its children's intervals
    clipped to it; children may nest further and may overlap each
    other."""
    children = {}
    for i, span in enumerate(spans):
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = [(max(spans[c]["start"], span["start"]),
                    min(spans[c]["end"], span["end"]))
                   for c in children.get(i, [])]
        covered = [(a, b) for a, b in covered if b > a]
        out.append(span["end"] - span["start"] - union_length(covered))
    return out


def layer_of(name):
    """"locate/Session::locate" and "locate.probe" are both "locate"."""
    return name.split("/")[0].split(".")[0]


def is_benchmark_span(name):
    """The benchmark's own spans are named "<module>/<function>"."""
    return "/" in name


# --- the per-layer table ---------------------------------------------------

LAYERS_WITH_SPANS = ["session", "locate", "runtime", "analyze", "serve"]

CLIENT_SPAN = "serve/Client::request"


def per_layer(raw, trace):
    """Every per-layer metric as name -> (value, unit)."""
    t = raw["traced"]
    c = t["counters"]
    replay = t["replay"]
    spans = nest(spans_from_trace(trace))
    selfs = self_times(spans)

    def count(name):
        return c.get(name, 0.0)

    def lookups(cache):
        return count(cache + ".hits") + count(cache + ".misses")

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # sim
    touches = count("sim.amp_touches")
    trials = count("runtime.ensemble.trials")
    put("sim.gate_applies", count("sim.gate_applies"), "count")
    put("sim.amp_touches", touches, "count")
    put("sim.measurements", count("sim.measurements"), "count")
    put("sim.fused_gates", count("sim.fused_gates"), "count")
    put("sim.amp_touches_per_trial", ratio(touches, trials), "count")
    put("sim.bytes_computed", 16 * touches, "B")
    put("sim.timed_amp_touches", replay["run_circuit_amp_touches"], "count")
    put("sim.ns_per_amp_touch",
        ratio(1e9 * replay["run_circuit_s"],
              replay["run_circuit_amp_touches"]), "ns")

    # circuit (outside-timed)
    put("circuit.fuse_s", replay["fuse_s"], "s")
    put("circuit.instrument_s", replay["instrument_s"], "s")
    put("circuit.qasm_s", replay["qasm_s"], "s")

    # runtime
    put("runtime.gather_s", count("runtime.ensemble.gather.ns") / 1e9, "s")
    put("runtime.gathers", count("runtime.ensemble.gather.count"), "count")
    put("runtime.ensemble.trials", trials, "count")
    for cache in ("prefix", "head", "state", "sampler"):
        name = "runtime.%s_cache" % cache
        put(name + ".hit_ratio", ratio(count(name + ".hits"), lookups(name)),
            "ratio")
        put(name + ".lookups", lookups(name), "count")
    put("runtime.tensor_stages.built", count("runtime.tensor_stages.built"),
        "count")
    put("runtime.pool.tasks", count("runtime.pool.tasks"), "count")
    put("runtime.pool.worker_idle_s",
        count("runtime.pool.worker_idle.ns") / 1e9, "s")
    put("runtime.pool.poster_wait_s",
        count("runtime.pool.poster_wait.ns") / 1e9, "s")
    t1 = sum(op["t1_s"] for op in t["ops"])
    tp = sum(op["tp_s"] for op in t["ops"])
    threads = t["pool_threads"]
    put("runtime.parallel_efficiency", ratio(t1, threads * tp), "ratio")
    put("runtime.t1_s", t1, "s")
    put("runtime.tp_s", tp, "s")
    put("runtime.pool_threads", threads, "count")

    # locate
    own = [(s, v) for s, v in zip(spans, selfs)
           if is_benchmark_span(s["name"])]
    put("locate.locate_s",
        sum(s["end"] - s["start"] for s, _ in own
            if s["name"].startswith("locate/")), "s")
    for name in ("probes", "measurements", "probe_failures",
                 "pruned_boundaries", "swap_escalations"):
        put("locate." + name, count("locate." + name), "count")
    put("locate.oracle_s", replay["oracle_s"], "s")
    put("locate.oracle.derive_s", count("locate.oracle.derive.ns") / 1e9,
        "s")
    put("locate.oracle.sampled_trials", count("locate.oracle.sampled_trials"),
        "count")

    # analyze
    put("analyze.equiv_s", replay["equiv_s"], "s")
    put("analyze.equiv.certified_boundaries",
        count("analyze.equiv.certified_boundaries"), "count")

    # assertions / stats / session
    checks = count("assertions.checks")
    put("assertions.checks", checks, "count")
    put("assertions.escalation_ratio",
        ratio(count("assertions.escalations"), checks), "ratio")
    put("stats.adjudicate_s", replay["adjudicate_s"], "s")
    put("session.run_s",
        sum(s["end"] - s["start"] for s, _ in own
            if s["name"].startswith("session/")), "s")

    # serve
    requests = [s for s in spans if s["name"] == CLIENT_SPAN]
    executed = [s for s in spans if s["name"] == "serve.request"]
    served = [s for s in raw["samples"] if s.get("exec_ms", -1) >= 0]
    exec_ms = [s["exec_ms"] for s in served]
    waits = [max(0.0, s["ms"] - s["exec_ms"]) for s in served]
    put("serve.exec_ms_p50", median(exec_ms), "ms")
    put("serve.queue_wait_ms_p50", median(waits), "ms")
    put("serve.queue_wait_ms_tail", tail(waits)[0], "ms")
    put("serve.requests", count("serve.requests"), "count")
    put("serve.queue.rejected", count("serve.queue.rejected"), "count")
    store = "serve.oracle_cache"
    put(store + ".hit_ratio", ratio(count(store + ".hits"), lookups(store)),
        "ratio")
    put(store + ".lookups", lookups(store), "count")
    put(store + ".writes", count(store + ".writes"), "count")
    put(store + ".evictions", count(store + ".evictions"), "count")

    # obs: tracing overhead and attribution
    untraced = median(t["untraced_pass_s"])
    put("obs.traced_pass_s", t["traced_pass_s"], "s")
    put("obs.untraced_pass_s", untraced, "s")
    put("obs.trace_overhead_frac",
        ratio(t["traced_pass_s"], untraced) - 1 if untraced else 0.0,
        "ratio")
    op_tids = sorted({s["tid"] for s, _ in own})
    wall = t["traced_pass_s"] * len(op_tids)
    covered = sum(union_length([(s["start"], s["end"]) for s in spans
                                if s["tid"] == tid])
                  for tid in op_tids)
    put("obs.wall_s", wall, "s")
    put("obs.unattributed_frac",
        max(0.0, 1 - ratio(covered, wall)) if wall else 0.0, "ratio")
    wrapped = sum(s["end"] - s["start"] for s, _ in own)
    if requests:
        inside = sum(s["end"] - s["start"] for s in executed)
    else:
        inside = sum(s["end"] - s["start"] - v for s, v in own)
    put("obs.wrapped_s", wrapped, "s")
    put("obs.library_unattributed_frac",
        max(0.0, 1 - ratio(inside, wrapped)) if wrapped else 0.0, "ratio")

    # A client round trip is the operation itself, not serve-layer work.
    for layer in LAYERS_WITH_SPANS:
        put(layer + ".self_s",
            sum(v for s, v in zip(spans, selfs)
                if layer_of(s["name"]) == layer
                and s["name"] != CLIENT_SPAN), "s")
    return m


def render(metrics):
    width = max(len(name) for name in metrics)
    lines = []
    for name in sorted(metrics):
        value, unit = metrics[name]
        lines.append("%-*s %16.6g %s" % (width, name, value, unit))
    return "\n".join(lines)


def load(raw_path):
    with open(raw_path) as f:
        raw = json.load(f)
    trace_path = os.path.join(os.path.dirname(raw_path),
                              raw["trace_file"])
    with open(trace_path) as f:
        trace = json.load(f)
    return raw, trace


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    raw, trace = load(argv[1])
    print(render(per_layer(raw, trace)))
    for op in raw["traced"]["ops"]:
        print("parallel efficiency %-32s T1 %.4f s  TP %.4f s  -> %.3f"
              % (op["config"], op["t1_s"], op["tp_s"],
                 ratio(op["t1_s"],
                       raw["traced"]["pool_threads"] * op["tp_s"])))


if __name__ == "__main__":
    main(sys.argv)
