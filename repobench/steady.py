"""Steadiness report: one workload, N runs, the spread of every metric.

    python3 repobench/steady.py --workload sweep-local --runs 10 --seconds 20

Runs ``run.py`` once per seed (``--first-seed`` onwards), then prints
for each end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
and the largest deviation, both as shares of the median — the figures
the bounds in BENCHMARK.json are set from.  Each run's
``host_probe_ms`` before and after is printed too, so host drift can be
told apart from program noise.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
PROBE = re.compile(r"host_probe_ms before=([\d.]+) after=([\d.]+)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed (rc={proc.returncode})")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        probe = PROBE.search(proc.stdout)
        print(
            f"seed {seed}: {wall:.1f} s wall, host_probe_ms {probe.group(1)} -> {probe.group(2)}; "
            + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'maxdev/med':>10s}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        worst = max(abs(v - med) for v in series) / med if med else 0.0
        print(f"{name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {worst:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
