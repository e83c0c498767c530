"""The repository benchmark: one workload, one seed, one result line.

    python3 repobench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Runs the named workload from the seed, checks every result against
``JobSpec.run`` (and the goldens where they apply), and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  A failed check exits non-zero without a result line.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from common import ROOT, BenchFailure, Context, check_tree, host_probe_ms, run_directory

WORKLOADS = ("serve-mix", "sweep-local", "sweep-sharded")


def _units(kind: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json order (``end_to_end`` or
    ``per_layer``): the one list both this script and its readers use."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _workload(name: str):
    if name == "serve-mix":
        import serve_mix

        return serve_mix.run
    import sweeps

    return sweeps.run_local if name == "sweep-local" else sweeps.run_sharded


def _layers(ctx: Context, outcome, probes) -> dict:
    import ledger

    ctx.ledger.dump(str(ctx.ledger_dir))
    spans, overhead_s = ledger.load(str(ctx.ledger_dir))
    spans = ledger.in_windows(spans, ctx.windows)
    wall_s = sum(hi - lo for lo, hi in ctx.windows)
    values = dict.fromkeys(_units("per_layer"), 0.0)
    values.update(ledger.layer_metrics(spans, wall_s, overhead_s))
    values.update(outcome.layer_extras)
    values["harness.host_probe_ms"] = sum(probes) / len(probes)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_tree()
        with run_directory() as run_dir:
            ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), run_dir=run_dir)
            for key in [k for k in os.environ if k.startswith("REPRO_")]:
                del os.environ[key]
            os.environ["REPRO_TRACE_CACHE"] = str(ctx.fresh_dir("traces"))
            if ctx.trace:
                import ledger

                ctx.ledger = ledger.Ledger()
                ctx.ledger.calibrate()
                ledger.install(ctx.ledger)
            before = host_probe_ms()
            outcome = _workload(args.workload)(ctx)
            after = host_probe_ms()
            if ctx.trace:
                values = _layers(ctx, outcome, (before, after))
                units = _units("per_layer")
            else:
                values = outcome.metrics
                units = _units("end_to_end")
    except BenchFailure as exc:
        print(f"repobench: {args.workload}: FAILED: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        print(f"repobench: {args.workload}: FAILED with an error", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(note)
    print(f"host_probe_ms before={before:.3f} after={after:.3f}")
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
