"""sweep-local and sweep-sharded: the benchmark spec, run two ways.

sweep-local runs the spec in this process through ``run_spec`` at
jobs=1, one (workload, seed) cell of five 40k-record jobs at a time,
in spec order.  Each visit runs the cell cold, from emptied trace,
plane and warm-up caches, and then warm, with those memos filled.
Every cell is visited once; visits go on, in the same order, while
another fits in the run's seconds.  A figure is the median over the eight cells
of each cell's median visit, so it never rests on one timed pass and
the extra visits a fast host makes refine cells without changing which
cells count.

sweep-sharded streams the same spec, at ``SHARDED_RECORDS`` records,
with ``iter_sweep`` to ``serve --workers 2``.  Each sample boots a
fresh fleet with empty caches (timed as set-up), streams the spec once
cold and then ``CACHED_PASSES`` times from the fleet's result cache.

Both compare every result against ``references.json``: digests of
``JobSpec.run`` on each job (see ``references.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

from common import (
    BENCH_DIR,
    GOLDENS,
    LAUNCHER,
    ROOT,
    BenchFailure,
    Context,
    Outcome,
    served,
    tree_hwm_mb,
)
from ledger import LEDGER_ENV

SPEC_PATH = BENCH_DIR / "spec.toml"
REFERENCES = BENCH_DIR / "references.json"
#: Interpreter boots timed for sweep-local's ``setup_s``: each is short,
#: so several keep the median off one slow boot.
SETUPS = 7
#: sweep-local unit limits for ``in_limit_frac`` (one cell of 5 jobs).
CELL_COLD_LIMIT_MS = 6000.0
CELL_WARM_LIMIT_MS = 5000.0
#: sweep-sharded: records per job, fleets at least, passes per fleet,
#: and the pass limits.
SHARDED_RECORDS = 5_000
MIN_FLEETS = 5
CACHED_PASSES = 5
COLD_PASS_LIMIT_MS = 20000.0
CACHED_PASS_LIMIT_MS = 1000.0


def load_spec():
    from repro.spec import load_spec as load

    return load(SPEC_PATH)


def sharded_spec():
    """The spec at ``SHARDED_RECORDS``.  Its jobs and their order are
    fixed: routing, and so shard balance, depends on them."""
    spec = load_spec()
    return dataclasses.replace(
        spec, grid=dataclasses.replace(spec.grid, records=SHARDED_RECORDS)
    )


def job_id(meta) -> str:
    return f"{meta.workload}/{meta.label}/seed{meta.seed}/{meta.records}"


def digest(snapshot: dict) -> str:
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Checker:
    """Every result against its ``JobSpec.run`` reference digest, and
    the (workload, 40k, seed 7) cells against the goldens."""

    def __init__(self) -> None:
        self.references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self.goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))

    def check(self, meta, snapshot: dict, what: str) -> None:
        want = self.references.get(job_id(meta))
        if want is None:
            raise BenchFailure(f"no reference for {job_id(meta)}; run repobench/references.py")
        if digest(snapshot) != want:
            raise BenchFailure(f"{what}: {job_id(meta)} differs from JobSpec.run")
        golden = self.goldens
        scheme = {"baseline": "none", "d8": "ebcp"}.get(meta.label)
        if scheme and meta.seed == golden["seed"] and meta.records == golden["records"]:
            if snapshot["stats"] != golden["workloads"][meta.workload][scheme]:
                raise BenchFailure(f"{what}: {job_id(meta)} differs from the goldens")


def _clear_caches(trace_dir) -> None:
    """Empty every cache a cold cell must not find warm."""
    from repro.parallel.jobs import reset_warm_registry
    from repro.workloads import registry

    registry._cached_commercial.cache_clear()
    reset_warm_registry()
    os.environ["REPRO_TRACE_CACHE"] = str(trace_dir)


def _room(started: float, done: int, seconds: float) -> bool:
    """Whether one more sample, as long as the average so far, still
    ends within the run's seconds."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def _setup_samples(ctx: Context) -> List[float]:
    """Boot an interpreter that imports the program, loads and expands
    the spec (``sweep validate``): the set-up a local sweep pays."""
    samples = []
    for _ in range(SETUPS):
        env = ctx.env(ctx.fresh_dir("traces"))
        env.pop(LEDGER_ENV, None)
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(LAUNCHER), "sweep", "validate", str(SPEC_PATH)],
            env=env, cwd=str(ROOT), check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        samples.append(time.perf_counter() - started)
    return samples


def run_local(ctx: Context) -> Outcome:
    from repro.spec import run_spec

    setups = _setup_samples(ctx)
    checker = Checker()
    spec = load_spec()
    cells = [(w, s) for s in spec.grid.seeds for w in spec.workloads]
    cold: Dict[tuple, List[float]] = {cell: [] for cell in cells}
    warm: Dict[tuple, List[float]] = {cell: [] for cell in cells}
    jobs = 0
    started = time.perf_counter()
    visit = 0
    while visit < len(cells) or _room(started, visit, ctx.seconds):
        cell = cells[visit % len(cells)]
        cell_spec = dataclasses.replace(
            spec, workloads=(cell[0],), grid=dataclasses.replace(spec.grid, seeds=(cell[1],))
        )
        _clear_caches(ctx.fresh_dir("traces"))
        for series, kind in ((cold, "cold"), (warm, "warm")):
            wall, t0 = time.time(), time.perf_counter()
            result = run_spec(cell_spec, jobs=1)
            series[cell].append((time.perf_counter() - t0) * 1000.0)
            ctx.windows.append((wall, time.time()))
            for meta, job_result in result.iter_points():
                checker.check(meta, job_result.snapshot(), f"{kind} cell")
            jobs += len(result)
        visit += 1
    peak_rss = tree_hwm_mb()

    cold_p50 = statistics.median(statistics.median(v) for v in cold.values())
    warm_p50 = statistics.median(statistics.median(v) for v in warm.values())
    samples = [x for v in cold.values() for x in v], [x for v in warm.values() for x in v]
    within = sum(x <= CELL_COLD_LIMIT_MS for x in samples[0]) + sum(
        x <= CELL_WARM_LIMIT_MS for x in samples[1]
    )
    records = spec.grid.records * (len(spec.prefetchers) + 1)
    return Outcome(
        attempted=jobs,
        failed=0,
        metrics={
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
            "warm_p50_ms": warm_p50,
            "cold_p50_ms": cold_p50,
            "in_limit_frac": within / (len(samples[0]) + len(samples[1])),
        },
        notes=[
            f"sweep-local: {visit} cell visits over {len(cells)} cells; "
            f"cold {records / cold_p50:.1f} krec/s, warm {records / warm_p50:.1f} krec/s "
            f"(median cell of {records} records); setups "
            + ", ".join(f"{x:.2f}" for x in setups) + " s",
        ],
    )


def _stream(client, spec) -> Tuple[float, float, Dict[int, object]]:
    """One streamed pass: client ms, server-reported ms, frames by index."""
    started = time.perf_counter()
    frames = {}
    server_ms = 0.0
    for frame in client.iter_sweep(spec):
        if frame.done:
            server_ms = frame.elapsed_ms
            break
        frames[frame.index] = frame
    return (time.perf_counter() - started) * 1000.0, server_ms, frames


def _busy_frac(ctx: Context, pids: Sequence[int], window: Tuple[float, float]) -> float:
    """Share of a cold pass each shard spent in batches (traced runs)."""
    if not ctx.trace:
        return 0.0
    import ledger

    spans, _ = ledger.load(str(ctx.ledger_dir))
    length = window[1] - window[0]
    busy = {pid: 0.0 for pid in pids}
    for span in ledger.in_windows(spans, [window]):
        if span[0] == "service.server.run_batch" and span[5] in busy:
            busy[span[5]] += span[2]
    return statistics.fmean(b / length for b in busy.values()) if busy else 0.0


def run_sharded(ctx: Context) -> Outcome:
    from repro.service import ServiceClient
    from repro.spec import expand

    checker = Checker()
    spec = sharded_spec()
    plan = expand(spec)
    setups: List[float] = []
    cold_ms: List[float] = []
    cached_ms: List[float] = []
    overhead_ms: List[float] = []
    skews: List[float] = []
    busy: List[float] = []
    peak_rss = 0.0
    passes = 0

    def check(frames: Dict[int, object], cached: bool, what: str) -> None:
        if sorted(frames) != list(range(len(plan.jobs))):
            raise BenchFailure(f"{what}: {len(frames)} of {len(plan.jobs)} jobs streamed")
        for index, frame in frames.items():
            if frame.cached != cached:
                raise BenchFailure(f"{what}: job {index} came back cached={frame.cached}")
            checker.check(plan.meta[index], frame.result.snapshot(), what)

    started = time.perf_counter()
    while len(setups) < MIN_FLEETS or _room(started, len(setups), ctx.seconds):
        base = ctx.fresh_dir("fleet")
        args = ["serve", "--port", "0", "--workers", "2", "--cache-dir", str(base / "results")]
        boot = time.perf_counter()
        with served(args, ctx.env(base / "traces")) as server:
            setups.append(time.perf_counter() - boot)
            with ServiceClient("127.0.0.1", server.port, timeout_s=120.0, retries=0) as client:
                wall = time.time()
                client_ms, server_ms, frames = _stream(client, spec)
                window = (wall, time.time())
                ctx.windows.append(window)
                cold_ms.append(client_ms)
                overhead_ms.append(client_ms - server_ms)
                per_shard: Dict[int, int] = {}
                for frame in frames.values():
                    per_shard[frame.shard["pid"]] = per_shard.get(frame.shard["pid"], 0) + 1
                skews.append(max(per_shard.values()) / min(per_shard.values())
                             if len(per_shard) > 1 else float(len(frames)))
                cached_frames = []
                for _ in range(CACHED_PASSES):
                    wall = time.time()
                    client_ms, server_ms, again = _stream(client, spec)
                    ctx.windows.append((wall, time.time()))
                    cached_ms.append(client_ms)
                    overhead_ms.append(client_ms - server_ms)
                    cached_frames.append(again)
            peak_rss = max(peak_rss, tree_hwm_mb())
        # Correctness, after the fleet's passes.
        check(frames, False, "cold pass")
        for again in cached_frames:
            check(again, True, "cached pass")
        passes += 1 + len(cached_frames)
        busy.append(_busy_frac(ctx, list(per_shard), window))

    records = sum(job.records for job in plan.jobs)
    within = sum(x <= COLD_PASS_LIMIT_MS for x in cold_ms) + sum(
        x <= CACHED_PASS_LIMIT_MS for x in cached_ms
    )
    cold_p50 = statistics.median(cold_ms)
    return Outcome(
        attempted=len(plan.jobs) * passes,
        failed=0,
        metrics={
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
            "warm_p50_ms": statistics.median(cached_ms),
            "cold_p50_ms": cold_p50,
            "in_limit_frac": within / (len(cold_ms) + len(cached_ms)),
        },
        layer_extras={
            "service.client.overhead_ms": statistics.fmean(overhead_ms),
            "service.router.shard_jobs_skew": statistics.fmean(skews),
            "service.router.shard_busy_frac": statistics.fmean(busy),
        },
        notes=[
            f"sweep-sharded: {len(cold_ms)} fleets, {len(cached_ms)} cached passes; "
            f"cold {records / cold_p50:.1f} krec/s over {len(plan.jobs)} jobs; "
            f"setups " + ", ".join(f"{x:.2f}" for x in setups) + " s",
        ],
    )
