#!/usr/bin/env python3
"""Bench-regression gate over the BENCH_*.json trajectory files.

Compares a freshly generated bench JSON document (see
bench/benchjson.hh for the shape) against a committed baseline
and fails when any gated counter regressed by more than the
tolerance. The default gated counters are the localization cost
headline numbers — probes and measurements — which are seeded and
deterministic, so drift means the search genuinely changed, not that
the runner was noisy. Wall-clock is deliberately NOT gated: CI
machines are too noisy for a 10% timing gate to stay green.

Alongside the per-benchmark counters, the gate can also compare the
document-level "metrics" object (the qsa::obs snapshot the bench
embeds from a deterministic replay of its fixtures): pass --metrics
with the metric names to gate. Gated metrics are costs — probe
totals, cache misses — so an increase beyond tolerance is a
regression exactly like a counter increase.

Records are matched by benchmark name, which must be unique in each
document. A record's label is informational: the kernel benches label
their runs with the SIMD level that ran, which depends on the host, so
a label that differs from the baseline's is printed as a note and
never makes a record count as missing.

Wins can be gated too: --require-positive names metrics that must be
strictly positive in the current run. The first user is the static
pruning pre-pass (metrics.locate.pruned_boundaries) — probes saved by
qsa::analyze prefix-equivalence certification. A zero there means the
pre-pass silently stopped certifying anything, which the probe-count
tolerance alone would mask as long as the search still converged.

Usage:
  check_bench_regression.py BASELINE CURRENT
      [--tolerance 0.10] [--counters probes,measurements]
      [--metrics locate.probes,runtime.head_cache.misses]
      [--require-positive locate.pruned_boundaries]

Exit status: 0 when every gated counter is within tolerance, 1 on any
regression or missing benchmark, 2 on malformed input.
"""

import argparse
import json
import sys


def load_records(path):
    """Map name -> (label, counters dict) from one BENCH_*.json."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    records = {}
    for result in doc.get("results", []):
        name = result.get("name", "")
        if name in records:
            sys.exit(f"error: {path}: benchmark {name} appears twice")
        records[name] = (result.get("label", ""),
                         result.get("counters", {}))
    if not records:
        sys.exit(f"error: {path} contains no benchmark results")
    return records, doc.get("metrics", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly generated JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional increase per counter (default 0.10)",
    )
    parser.add_argument(
        "--counters",
        default="probes,measurements",
        help="comma-separated counters to gate "
        "(default: probes,measurements)",
    )
    parser.add_argument(
        "--metrics",
        default="",
        help="comma-separated document-level qsa::obs metrics to "
        "gate (default: none)",
    )
    parser.add_argument(
        "--require-positive",
        default="",
        help="comma-separated document-level metrics that must be "
        "strictly positive in the current run (default: none)",
    )
    args = parser.parse_args()

    gated = [c for c in args.counters.split(",") if c]
    gated_metrics = [m for m in args.metrics.split(",") if m]
    required_positive = [
        m for m in args.require_positive.split(",") if m
    ]
    baseline, base_metrics = load_records(args.baseline)
    current, cur_metrics = load_records(args.current)

    failures = []
    checked = 0
    for name, (base_label, base_counters) in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from the current run")
            continue
        cur_label, cur_counters = current[name]
        if cur_label != base_label:
            print(f"note: {name}: label '{cur_label}' "
                  f"(baseline '{base_label}')")
        for counter in gated:
            if counter not in base_counters:
                continue
            base = float(base_counters[counter])
            if counter not in cur_counters:
                failures.append(f"{name}: counter '{counter}' "
                                "missing from the current run")
                continue
            cur = float(cur_counters[counter])
            checked += 1
            limit = base * (1.0 + args.tolerance)
            if cur > limit:
                pct = 100.0 * (cur - base) / base if base else 0.0
                failures.append(
                    f"{name}: {counter} regressed {base:g} -> {cur:g} "
                    f"(+{pct:.1f}%, tolerance "
                    f"{100.0 * args.tolerance:.0f}%)")
            elif base and cur < base / (1.0 + args.tolerance):
                pct = 100.0 * (base - cur) / base
                print(f"note: {name}: {counter} improved "
                      f"{base:g} -> {cur:g} (-{pct:.1f}%) — consider "
                      "refreshing the committed baseline")

    for name in sorted(set(current) - set(baseline)):
        print(f"note: {name}: new benchmark without a baseline")

    for metric in gated_metrics:
        if metric not in base_metrics:
            print(f"note: metrics.{metric}: no baseline value yet")
            continue
        base = float(base_metrics[metric])
        if metric not in cur_metrics:
            failures.append(f"metrics.{metric}: missing from the "
                            "current run")
            continue
        cur = float(cur_metrics[metric])
        checked += 1
        if cur > base * (1.0 + args.tolerance):
            pct = 100.0 * (cur - base) / base if base else 0.0
            failures.append(
                f"metrics.{metric}: regressed {base:g} -> {cur:g} "
                f"(+{pct:.1f}%, tolerance "
                f"{100.0 * args.tolerance:.0f}%)")
        elif base and cur < base / (1.0 + args.tolerance):
            pct = 100.0 * (base - cur) / base
            print(f"note: metrics.{metric}: improved {base:g} -> "
                  f"{cur:g} (-{pct:.1f}%) — consider refreshing the "
                  "committed baseline")

    for metric in required_positive:
        checked += 1
        if metric not in cur_metrics:
            failures.append(f"metrics.{metric}: missing from the "
                            "current run (required positive)")
        elif float(cur_metrics[metric]) <= 0:
            failures.append(
                f"metrics.{metric}: expected a strictly positive "
                f"value, got {cur_metrics[metric]}")
        else:
            base = float(base_metrics.get(metric, 0.0))
            print(f"note: metrics.{metric} = "
                  f"{cur_metrics[metric]:g} (baseline {base:g})")

    if checked == 0:
        sys.exit("error: no gated counters matched — wrong baseline "
                 "file or counter names?")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) over "
              f"{checked} gated counter(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1

    print(f"OK: {checked} gated counter(s) within "
          f"{100.0 * args.tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
