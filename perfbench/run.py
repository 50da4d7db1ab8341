#!/usr/bin/env python3
"""End-to-end benchmark of qsa: one workload, one run.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <paper-session|serve-closed-loop>
                           --seed N --seconds S --trace 0|1

Builds libqsa, qsa_serve and the benchmark program qsa_perfbench from
the checkout's sources with CMake (Release, into
$CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs the workload for S seconds with inputs
drawn from seed N, checks every output, and prints a table of metrics.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run (see fold.py). Scratch files go to .bench_run/ in the checkout; a
traced run leaves its raw record and Chrome trace there for fold.py.

Exit status: 0 when every output was correct; 1 when any was wrong,
the build failed, or the run did not finish.
"""

import argparse
import collections
import json
import os
import shutil
import signal
import subprocess
import sys

import fold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-session", "serve-closed-loop")
RUN_TIMEOUT_S = 170


def die(message):
    sys.stderr.write("run.py: %s\n" % message)
    sys.exit(1)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "qsa", "qsa.hh"))):
        die("the qsa sources are not in this checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    steps = [["cmake", "--build", build_dir, "--target", "qsa_perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, cwd=ROOT) != 0:
            die("build step failed: %s" % " ".join(step))
    return os.path.join(build_dir, "bin")


def drive(bin_dir, args):
    """Run qsa_perfbench in its own process group; return its raw record."""
    run_dir = os.path.join(".bench_run", str(os.getpid()))
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    out = os.path.join(run_dir, "raw.json")
    cmd = [os.path.join(bin_dir, "qsa_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--out", out,
           "--serve-bin", os.path.join(bin_dir, "qsa_serve")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        status = None
    # Its process group holds any qsa_serve it started: nothing may
    # outlive the run.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if status is None:
        die("the workload did not finish within %d s" % RUN_TIMEOUT_S)
    if status != 0:
        die("qsa_perfbench exited with status %d" % status)
    with open(os.path.join(ROOT, out)) as f:
        raw = json.load(f)
    if args.trace:
        keep = os.path.join(ROOT, ".bench_run")
        trace_file = "trace-%s.json" % args.workload
        os.replace(os.path.join(ROOT, run_dir, "trace.json"),
                   os.path.join(keep, trace_file))
        raw["trace_file"] = trace_file
        with open(os.path.join(keep, "traced-%s.json" % args.workload),
                  "w") as f:
            json.dump(raw, f)
    shutil.rmtree(os.path.join(ROOT, run_dir))
    return raw


def by_config(samples):
    groups = collections.OrderedDict()
    for s in samples:
        groups.setdefault(s["config"], []).append(s["ms"])
    return groups


def ops_per_s(raw):
    """Closed-loop throughput: clients x completed operations over the
    time they spent waiting on them (each sample counts once, whatever
    its repetitions)."""
    samples = raw["samples"]
    busy_s = sum(s["ms"] for s in samples) / 1e3
    return fold.ratio(raw["clients"] * sum(s["ok"] for s in samples),
                      busy_s)


def is_plan(sample):
    """An assertion-plan check: a Session::run in process, a "check"
    request through the daemon."""
    return sample["kind"] in ("plan", "check")


def mean_of_medians(groups):
    medians = [fold.median(v) for v in groups.values()]
    return sum(medians) / len(medians) if medians else 0.0


def end_to_end(raw):
    """The end-to-end metrics: name -> (value, unit)."""
    samples = raw["samples"]
    latency = [s["ms"] for s in samples]
    locates = by_config(s for s in samples if s["ok"] and s["locate"])
    plans = by_config(s for s in samples if s["ok"] and is_plan(s))
    counted = raw["counted"]
    return {
        "setup_s": (fold.median(raw["setup_s"]), "s"),
        "ops_per_s": (ops_per_s(raw), "1/s"),
        "latency_ms_tail": (fold.gated_tail(latency), "ms"),
        "locate_mean_ms": (mean_of_medians(locates), "ms"),
        "plan_mean_ms": (mean_of_medians(plans), "ms"),
        "probes_per_locate": (fold.ratio(counted["probes"],
                                         counted["locates"]), "count"),
        "shots_per_locate": (fold.ratio(counted["shots"],
                                        counted["locates"]), "count"),
        "peak_rss_mb": (raw["rss_self_mb"] + raw["rss_daemon_mb"], "MB"),
    }


def workload_view(raw):
    """The workload's own headline numbers (table only, not gated)."""
    samples = raw["samples"]
    passes = collections.defaultdict(float)
    for s in samples:
        if s["kind"] == "plan":
            passes[s["pass"]] += s["ms"] / 1e3
    configs = by_config(samples)
    locates = by_config(s for s in samples if s["locate"])
    latency = [s["ms"] for s in samples]
    # Not gated. With a handful of operation kinds the median sample
    # can sit on the boundary between two kinds that differ twofold;
    # the geometric means weigh the few-millisecond localizations,
    # whose fixed costs swing up to 1.8x between runs on a shared host.
    rows = [("latency_ms_p50", fold.median(latency), "ms", len(latency)),
            ("op_geomean_ms", fold.geomean(
                [fold.median(v) for v in configs.values()]), "ms",
             len(configs)),
            ("locate_geomean_ms", fold.geomean(
                [fold.median(v) for v in locates.values()]), "ms",
             len(locates))]
    if raw["workload"] == "paper-session":
        rows.append(("check_plan_s", fold.median(list(passes.values())),
                     "s", len(passes)))
        for name, config in (("locate_shor_s", "shor-wrong-inverse"),
                             ("locate_semiclassical_s",
                              "semiclassical-wrong-inverse")):
            v = configs.get(config, [])
            rows.append((name, fold.median(v) / 1e3, "s", len(v)))
    else:
        value, pct = fold.tail(latency)
        rows.append(("request_ms_p50", fold.median(latency), "ms",
                     len(latency)))
        rows.append(("request_ms_p%.4g" % pct, value, "ms", len(latency)))
        rows.append(("requests_per_s",
                     fold.ratio(sum(s["ok"] for s in samples),
                                raw["window_s"]), "1/s", len(latency)))
        rows.append(("clients", raw["clients"], "count", len(latency)))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    raw = drive(build(), args)
    attempted = max(1, raw["attempted"])
    failed = len(raw["failures"])
    for failure in raw["failures"]:
        sys.stderr.write("run.py: FAILED %s\n" % failure)

    if args.trace:
        with open(os.path.join(ROOT, ".bench_run",
                               raw["trace_file"])) as f:
            metrics = fold.per_layer(raw, json.load(f))
        print(fold.render(metrics))
    else:
        metrics = end_to_end(raw)
        latency = [s["ms"] for s in raw["samples"]]
        n = len(latency)
        print("%s, seed %d: %d operations; latency_ms_tail = %s"
              % (args.workload, args.seed, n,
                 "p95" if n >= 200 else "p%.4g" % fold.tail(latency)[1]))
        for name in sorted(metrics):
            value, unit = metrics[name]
            print("  %-22s %14.6g %s" % (name, value, unit))
        for name, value, unit, n in workload_view(raw):
            print("  %-22s %14.6g %s (n=%d)" % (name, value, unit, n))
        print("  %-22s %14.6g ratio (%d of %d failed)"
              % ("error_rate", failed / attempted, failed, attempted))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
