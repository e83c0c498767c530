"""serve-mix: open-loop hits and planned misses against ``serve``.

The service runs out of process through the launcher.  Set-up boots it
with the hot set prewarmed and sends each hot-set request once, so the
result cache holds it; that is timed as ``setup_s``, three times, and
the third server takes the load.  The load is an open loop from this
one process: requests fall due at a fixed rate, two client threads with
one connection each send them in due order, and each is timed from when
it was due.  ``MISSES`` requests (one in about 57 at 30 s) are planned
misses on never-used seeds; the rest are hits on the hot set.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    BenchFailure,
    Context,
    Outcome,
    ensure_equal,
    median,
    percentile,
    served,
    tree_hwm_mb,
)

HOT_WORKLOADS = ("database", "tpcw", "specjbb2005", "jappserver2004")
HOT_PREFETCHERS = ("none", "ebcp")
HOT_RECORDS = 12_000
HOT_SEED = 7
#: Every planned miss is the same kind of work (tpcw with EBCP, the
#: reference cold miss) on a never-used seed: a mix of kinds would put
#: the miss median on the boundary between two cost clusters.  Trace
#: set-up dominates a miss at any length, so 2k records buys the most
#: misses for the least busy time: 21 misses, the fewest a median with
#: ten samples beyond it allows, keep the miss-busy share near 25%.
MISS_WORKLOAD = "tpcw"
MISS_PREFETCHER = "ebcp"
MISS_RECORDS = 2_000
#: Requests per second, and planned misses per run.
RATE = 40.0
MISSES = 21
CLIENT_THREADS = 2
SETUPS = 3
#: Latency limits for ``in_limit_frac``.
HIT_LIMIT_MS = 50.0
MISS_LIMIT_MS = 1500.0
#: A hit whose server-side time exceeds three batch windows waited
#: behind (or inside) a miss batch.
BLOCKED_HIT_MS = 15.0
#: The generator must send on time: p90 lateness above this fails the run.
GEN_LATE_LIMIT_MS = 10.0

HotKey = Tuple[str, str, int, int]


@dataclass
class Sent:
    index: int
    kind: str  # "hit" | "miss"
    key: HotKey
    latency_ms: float = 0.0
    roundtrip_ms: float = 0.0
    server_ms: float = 0.0
    cached: Optional[bool] = None
    snapshot: Optional[dict] = None
    error: Optional[str] = None


def _hot_set() -> List[HotKey]:
    return [(w, p, HOT_RECORDS, HOT_SEED) for w in HOT_WORKLOADS for p in HOT_PREFETCHERS]


def _schedule(seed: int, n: int) -> List[Tuple[str, HotKey]]:
    """``n`` requests: ``MISSES`` planned misses, one at a random slot of
    each equal block, and hits on a random hot-set entry otherwise."""
    rng = random.Random(seed)
    hot = _hot_set()
    plan: List[Tuple[str, HotKey]] = [("hit", rng.choice(hot)) for _ in range(n)]
    for k in range(MISSES):
        lo, hi = k * n // MISSES, (k + 1) * n // MISSES
        miss_seed = 100_000 + (seed % 100_000) * 1_000 + k
        plan[rng.randrange(lo, hi)] = (
            "miss", (MISS_WORKLOAD, MISS_PREFETCHER, MISS_RECORDS, miss_seed)
        )
    return plan


def _server_args(ctx: Context) -> Tuple[List[str], Dict[str, str]]:
    """A fresh result-cache and trace-cache directory per server."""
    base = ctx.fresh_dir("serve")
    (base / "results").mkdir()
    (base / "traces").mkdir()
    args = ["serve", "--port", "0", "--cache-dir", str(base / "results")]
    for workload in HOT_WORKLOADS:
        args += ["--prewarm", f"{workload}:{HOT_RECORDS}:{HOT_SEED}"]
    return args, ctx.env(base / "traces")


def _warm(port: int) -> Dict[HotKey, dict]:
    """Send each hot-set request once so the result cache holds it."""
    from repro.service import ServiceClient

    snapshots: Dict[HotKey, dict] = {}
    with ServiceClient("127.0.0.1", port, timeout_s=60.0, retries=0) as client:
        for key in _hot_set():
            answer = client.simulate(key[0], key[1], records=key[2], seed=key[3])
            if answer.cached:
                raise BenchFailure(f"hot-set warm-up {key} came back cached")
            snapshots[key] = answer.result.snapshot()
    return snapshots


def _drive(ctx: Context, port: int, plan: List[Tuple[str, HotKey]]):
    """Send ``plan`` open-loop; returns the records and generator lateness.

    ``CLIENT_THREADS`` threads, each with one persistent connection,
    take requests in due order.  A thread that is free sleeps until the
    next request is due (its oversleep is the generator's lateness); a
    request that falls due while both are busy waits, and that wait is
    part of its latency.
    """
    from repro.obs.tracing import SpanRecorder
    from repro.service import ServiceClient, ServiceError

    sent = [Sent(i, kind, key) for i, (kind, key) in enumerate(plan)]
    late_ms: List[float] = []
    lock = threading.Lock()
    cursor = iter(sent)
    start = time.perf_counter() + 0.05

    def worker() -> None:
        recorder = SpanRecorder("client") if ctx.trace else None
        with ServiceClient(
            "127.0.0.1", port, timeout_s=60.0, retries=0, recorder=recorder
        ) as client:
            while True:
                with lock:
                    record = next(cursor, None)
                if record is None:
                    return
                due = start + record.index / RATE
                if time.perf_counter() < due:
                    time.sleep(due - time.perf_counter())
                    with lock:
                        late_ms.append((time.perf_counter() - due) * 1000.0)
                workload, prefetcher, records, seed = record.key
                sent_at = time.perf_counter()
                try:
                    answer = client.simulate(workload, prefetcher, records=records, seed=seed)
                except (ServiceError, OSError) as exc:
                    record.error = f"{type(exc).__name__}: {exc}"
                    record.latency_ms = (time.perf_counter() - due) * 1000.0
                    continue
                done = time.perf_counter()
                record.latency_ms = (done - due) * 1000.0
                record.roundtrip_ms = (done - sent_at) * 1000.0
                record.server_ms = answer.elapsed_ms
                record.cached = answer.cached
                record.snapshot = answer.result.snapshot()

    threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent, late_ms


def _reference(key: HotKey) -> dict:
    from repro.engine.config import ProcessorConfig
    from repro.parallel.jobs import JobSpec
    from repro.prefetchers.registry import build_prefetcher

    workload, prefetcher, records, seed = key
    job = JobSpec(
        workload=workload,
        records=records,
        seed=seed,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher == "none" else build_prefetcher(prefetcher),
        label=prefetcher,
    )
    return job.run().snapshot()


def run(ctx: Context) -> Outcome:
    n = int(round(RATE * ctx.seconds))
    plan = _schedule(ctx.seed, n)
    setups: List[float] = []
    warmed: List[Dict[HotKey, dict]] = []
    for attempt in range(SETUPS):
        args, env = _server_args(ctx)
        started = time.perf_counter()
        with served(args, env) as server:
            warmed.append(_warm(server.port))
            setups.append(time.perf_counter() - started)
            if attempt == SETUPS - 1:
                window_start = time.time()
                sent, late_ms = _drive(ctx, server.port, plan)
                ctx.windows.append((window_start, time.time()))
                peak_rss = tree_hwm_mb()

    # Correctness, after the timed window: every answer equals a fresh
    # JobSpec.run on the same parameters, hits come from the cache and
    # planned misses never do.
    ok = [s for s in sent if s.error is None]
    references: Dict[HotKey, dict] = {}
    for key in _hot_set():
        references[key] = _reference(key)
        for hot in warmed:
            ensure_equal(hot[key], references[key], f"hot-set warm-up {key}")
    for s in ok:
        if s.key not in references:
            references[s.key] = _reference(s.key)
        ensure_equal(s.snapshot, references[s.key], f"request {s.index} {s.key}")
        if s.cached != (s.kind == "hit"):
            raise BenchFailure(f"{s.kind} request {s.index} {s.key} came back cached={s.cached}")

    hits = [s.latency_ms for s in ok if s.kind == "hit"]
    misses = [s.latency_ms for s in ok if s.kind == "miss"]
    within = sum(
        1 for s in ok
        if s.latency_ms <= (HIT_LIMIT_MS if s.kind == "hit" else MISS_LIMIT_MS)
    )
    gen_late_p90 = percentile(late_ms, 0.9) if late_ms else 0.0
    if gen_late_p90 > GEN_LATE_LIMIT_MS:
        raise BenchFailure(
            f"generator ran late: p90 {gen_late_p90:.2f} ms > {GEN_LATE_LIMIT_MS} ms"
        )
    hit_server = [s.server_ms for s in ok if s.kind == "hit"]
    notes = [
        f"serve-mix: {len(hits)} hits, {len(misses)} misses, {len(sent) - len(ok)} failed; "
        f"hit p99 {percentile(hits, 0.99):.1f} ms ({len(hits) - int(0.99 * len(hits))} beyond); "
        f"miss-busy share ~{sum(s.server_ms for s in ok if s.kind == 'miss') / 1000.0 / ctx.seconds:.2f}; "
        f"setups {', '.join(f'{x:.2f}' for x in setups)} s",
    ]
    return Outcome(
        attempted=len(sent),
        failed=len(sent) - len(ok),
        metrics={
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
            "warm_p50_ms": median(hits, what="hit latencies"),
            "cold_p50_ms": median(misses, what="miss latencies"),
            "in_limit_frac": within / len(sent),
        },
        layer_extras={
            "service.server.blocked_hit_frac": (
                sum(1 for x in hit_server if x > BLOCKED_HIT_MS) / len(hit_server)
            ),
            "service.client.overhead_ms": statistics.fmean(
                s.roundtrip_ms - s.server_ms for s in ok
            ),
            "harness.gen_late_p90_ms": gen_late_p90,
        },
        notes=notes,
    )
