#!/usr/bin/env python
"""Diff fresh ``results/BENCH_*.json`` against committed baselines.

The benches publish machine-readable JSON next to their rendered text
(:func:`conftest.publish`).  This checker compares those payloads
against the snapshots committed under ``benchmarks/baselines/`` and
exits non-zero when a tracked metric regresses beyond its tolerance —
the CI tripwire for "this PR quietly made the simulator slower or the
reproduction less faithful".

Metric classes and their tolerances:

* **Ratio metrics** (warm-over-cold speedup, filter-plane speedup,
  tracing overhead) are machine-*independent* enough to compare across
  runners, but timing-derived, so they get generous tolerances —
  a drop must be large to trip.
* **Deterministic metrics** (figure series, table cells, calibration
  errors) depend only on (records, seed), so they are compared tightly;
  any visible drift means the simulation itself changed.

A baseline is only compared when its ``records``/``seed`` stamp matches
the fresh run — a quick local pass at different scale skips instead of
false-alarming.  A metric that only means something on like hardware
(the 4-vs-1-worker throughput ratio depends on the CPU count) is
compared only when both runs stamp the same value; otherwise it is
printed as skipped with both stamps.

Usage::

    python check_regression.py                # compare, exit 1 on regression
    python check_regression.py --update       # bless current results
    python check_regression.py --list         # show tracked metrics
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
BASELINES_DIR = HERE / "baselines"

#: Timing-derived ratios: allowed fractional drop (min_ratio) or rise
#: (max_ratio) before tripping.
RATIO_METRICS: Dict[str, List[Tuple[Tuple[str, ...], str, float]]] = {
    "service": [
        (("warm_over_cold_speedup",), "min_ratio", 0.70),
        (("trace_overhead_ratio",), "max_ratio", 0.50),
        (("sustained_warm_rps",), "min_ratio", 0.70),
        # Sharded tier: 4-vs-1-worker cache-miss throughput (cpu-count
        # sensitive, hence the generous floor) and the router's warm-hit
        # overhead vs the single-process service.
        (("scaling_throughput_ratio_4w",), "min_ratio", 0.60),
        (("sharded_warm_over_single_ratio",), "max_ratio", 0.50),
        # Supervisor crash recovery: time-to-ready after a shard kill
        # and the client-visible error window.  Dominated by process
        # fork + pool boot, so very runner-sensitive — the tolerance
        # only trips on a multiple, not a wobble.
        (("recovery_ready_s",), "max_ratio", 1.00),
        (("recovery_error_window_s",), "max_ratio", 1.00),
    ],
    "speed": [
        (("filter_plane_speedup", "none"), "min_ratio", 0.25),
        (("filter_plane_speedup", "ebcp"), "min_ratio", 0.25),
        (("kernel_speedup", "ebcp"), "min_ratio", 0.25),
    ],
}

#: Metrics comparable only when baseline and fresh run agree on a stamp:
#: with fewer CPUs than shards the shards time-share, so a ratio taken
#: on one CPU count says nothing about another.
SAME_STAMP: Dict[Tuple[str, Tuple[str, ...]], str] = {
    ("service", ("scaling_throughput_ratio_4w",)): "scaling_cpu_count",
}

#: Two-sided relative tolerance for deterministic payload kinds.
MATCH_TOLERANCE = {"figure": 0.02, "table": 0.02, "calibration": 0.01}


@dataclass
class Comparison:
    bench: str
    metric: str
    baseline: float
    current: float
    mode: str
    tolerance: float

    @property
    def ok(self) -> bool:
        if self.mode == "min_ratio":
            return self.current >= self.baseline * (1.0 - self.tolerance)
        if self.mode == "max_ratio":
            return self.current <= self.baseline * (1.0 + self.tolerance)
        # match: two-sided relative (with an absolute floor for values
        # near zero, e.g. a 0.0% improvement cell).
        slack = self.tolerance * max(abs(self.baseline), 0.05)
        return abs(self.current - self.baseline) <= slack

    def render(self) -> str:
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"  [{verdict:>10s}] {self.bench}:{self.metric}  "
            f"baseline {self.baseline:.4g}  current {self.current:.4g}  "
            f"({self.mode}, tol {self.tolerance:.0%})"
        )


def _dig(payload: dict, path: Tuple[str, ...]) -> Optional[float]:
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _as_number(cell: object) -> Optional[float]:
    """Numeric cell value; table renders store formatted strings."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell.rstrip("%x"))
        except ValueError:
            return None
    return None


def _deterministic_metrics(payload: dict) -> Iterator[Tuple[str, float]]:
    """Flatten a figure/table/calibration payload into named numbers."""
    kind = payload.get("kind")
    if kind == "figure":
        for workload, values in sorted(payload.get("series", {}).items()):
            for x, value in zip(payload.get("x_values", []), values):
                if isinstance(value, (int, float)):
                    yield f"{workload}[{x}]", float(value)
    elif kind == "table":
        headers = payload.get("headers", [])
        for row in payload.get("rows", []):
            label = row[0] if row else "?"
            for header, cell in zip(headers[1:], row[1:]):
                value = _as_number(cell)
                if value is not None:
                    yield f"{label}/{header}", value
    elif kind == "calibration":
        for entry in payload.get("errors", []):
            workload = entry.get("workload", "?")
            for field, value in sorted(entry.items()):
                if field != "workload" and isinstance(value, (int, float)):
                    yield f"{workload}/{field}", float(value)


def compare_bench(
    name: str, baseline: dict, current: dict
) -> Tuple[List[Comparison], Optional[str], List[str]]:
    """All tracked comparisons for one bench, or a reason to skip it,
    plus one line per metric skipped because a stamp differs."""
    for stamp in ("records", "seed"):
        if baseline.get(stamp) != current.get(stamp):
            return [], (
                f"{stamp} differs (baseline {baseline.get(stamp)}, "
                f"current {current.get(stamp)}) — not comparable"
            ), []
    comparisons: List[Comparison] = []
    skipped: List[str] = []
    for path, mode, tolerance in RATIO_METRICS.get(name, []):
        base_value = _dig(baseline, path)
        cur_value = _dig(current, path)
        if base_value is None or cur_value is None:
            continue
        stamp = SAME_STAMP.get((name, path))
        if stamp is not None and baseline.get(stamp) != current.get(stamp):
            skipped.append(
                f"  [   skipped] {name}:{'.'.join(path)}  {stamp} differs "
                f"(baseline {baseline.get(stamp)}, current {current.get(stamp)})"
            )
            continue
        comparisons.append(
            Comparison(name, ".".join(path), base_value, cur_value, mode, tolerance)
        )
    kind = current.get("kind")
    if kind in MATCH_TOLERANCE:
        tolerance = MATCH_TOLERANCE[kind]
        base_metrics = dict(_deterministic_metrics(baseline))
        for metric, cur_value in _deterministic_metrics(current):
            if metric in base_metrics:
                comparisons.append(
                    Comparison(name, metric, base_metrics[metric], cur_value,
                               "match", tolerance)
                )
    return comparisons, None, skipped


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=RESULTS_DIR,
                        help="directory holding fresh BENCH_*.json")
    parser.add_argument("--baselines", type=Path, default=BASELINES_DIR,
                        help="directory holding committed baselines")
    parser.add_argument("--update", action="store_true",
                        help="bless the fresh results as the new baselines")
    parser.add_argument("--list", action="store_true",
                        help="print tracked metrics and exit")
    args = parser.parse_args(argv)

    if args.list:
        for bench, metrics in sorted(RATIO_METRICS.items()):
            for path, mode, tolerance in metrics:
                print(f"{bench}: {'.'.join(path)}  ({mode}, tol {tolerance:.0%})")
        for kind, tolerance in sorted(MATCH_TOLERANCE.items()):
            print(f"<kind={kind}>: all numeric cells  (match, tol {tolerance:.0%})")
        return 0

    fresh = sorted(args.results.glob("BENCH_*.json"))
    if args.update:
        args.baselines.mkdir(parents=True, exist_ok=True)
        for path in fresh:
            shutil.copy2(path, args.baselines / path.name)
            print(f"blessed {path.name}")
        return 0

    failures = 0
    compared = 0
    for baseline_path in sorted(args.baselines.glob("BENCH_*.json")):
        name = baseline_path.stem[len("BENCH_"):]
        current_path = args.results / baseline_path.name
        if not current_path.exists():
            print(f"~ {name}: no fresh result, skipped")
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(current_path.read_text())
        comparisons, skip, skipped = compare_bench(name, baseline, current)
        if skip:
            print(f"~ {name}: {skip}, skipped")
            continue
        if not comparisons:
            print(f"~ {name}: no tracked metrics")
            for line in skipped:
                print(line)
            continue
        print(f"{name}:")
        for line in skipped:
            print(line)
        for comparison in comparisons:
            print(comparison.render())
            compared += 1
            if not comparison.ok:
                failures += 1

    if compared == 0:
        print("no baselines were comparable — run the benches first "
              "(or --update to create baselines)")
        return 2
    if failures:
        print(f"\n{failures} metric(s) regressed beyond tolerance")
        return 1
    print(f"\nall {compared} tracked metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
