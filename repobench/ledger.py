"""The per-layer ledger: spans timed around calls into each layer.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces a fixed set of public layer functions with timing wrappers —
in the defining module *and* in every ``repro`` module that imported the
name — and taps :meth:`SpanRecorder.record` so the spans the service
already exports (``admission``) land in the same ledger.  Each process
keeps its spans in memory and writes them to ``$REPOBENCH_LEDGER_DIR``
when it ends; :func:`layer_metrics` folds the files of all processes
into the per-layer metrics the traced run prints.

A span is ``[name, start_wall_s, dur_s, self_s, attrs]``.  Self time is
the duration minus the time of the wrapped calls made beneath it on the
same thread, so each layer's self time is counted once.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import pickle
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LEDGER_ENV = "REPOBENCH_LEDGER_DIR"

#: Modules loaded before patching, so every ``from x import f`` binding
#: exists by the time the rebinding scan runs.
_MODULES = (
    "repro.workloads.commercial",
    "repro.workloads.registry",
    "repro.engine.filter_plane",
    "repro.engine.simulator",
    "repro.engine.ebcp_kernel",
    "repro.prefetchers.registry",
    "repro.parallel.jobs",
    "repro.resilience.executor",
    "repro.spec.expand",
    "repro.spec.runner",
    "repro.spec.schema",
    "repro.spec.wire",
    "repro.spec.submit",
    "repro.service.protocol",
    "repro.service.cache",
    "repro.service.client",
    "repro.service.server",
    "repro.service.router",
    "repro.service.supervisor",
    "repro.obs.tracing",
    "repro.cli",
)


class Ledger:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Seconds the ledger itself spent outside any timed span
        #: (pickle-size probes); counted as tracing overhead.
        self.harness_s = 0.0
        self.calls = 0
        self.per_call_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span plumbing --------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        # frame: [start_wall, start_perf, child_s]
        frame = [time.time(), time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list, name: str, attrs: Optional[dict]) -> None:
        dur = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += dur
        with self._lock:
            self.calls += 1
            self.spans.append([name, frame[0], dur, dur - frame[2], attrs])

    def add_hidden(self, seconds: float) -> None:
        """Charge ledger-side work to the parent span's children, so it
        never inflates a layer's self time."""
        stack = self._stack()
        if stack:
            stack[-1][2] += seconds
        self.harness_s += seconds

    def record(self, name: str, start_wall: float, dur: float, attrs: Optional[dict] = None) -> None:
        """A span measured elsewhere (exported spans, async calls)."""
        with self._lock:
            self.calls += 1
            self.spans.append([name, start_wall, dur, dur, attrs])

    # -- wrappers -------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Optional[dict]]] = None,
    ) -> Callable:
        """Time ``fn``; ``before(*args)`` runs untimed and its value is
        handed to ``after(value, result, *args)``, which returns attrs."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            pre = before(*args, **kwargs) if before is not None else None
            frame = self._enter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                attrs = (
                    after(pre, None if failed else result, *args, **kwargs)
                    if after is not None
                    else None
                )
                if failed:
                    attrs = dict(attrs or {}, error=True)
                self._exit(frame, name, attrs)

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutines interleave on one thread, so they get no self time."""

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start_wall, start = time.time(), time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.record(name, start_wall, time.perf_counter() - start)

        return wrapper

    def calibrate(self) -> None:
        """Cost of one wrapped call over a bare one, for the overhead share."""

        def noop() -> None:
            return None

        wrapped = self.wrap("harness.calibrate", noop)
        n = 20000
        bare = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - bare
        timed = time.perf_counter()
        for _ in range(n):
            wrapped()
        timed = time.perf_counter() - timed
        self.per_call_s = max(0.0, (timed - bare) / n)
        self.spans.clear()
        self.calls = 0

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.calls = 0
            self.harness_s = 0.0

    def dump(self, directory: str) -> None:
        path = Path(directory) / f"ledger-{os.getpid()}-{time.time_ns()}.json"
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "spans": self.spans,
                "overhead_s": self.calls * self.per_call_s + self.harness_s,
            }
            path.write_text(json.dumps(payload), encoding="utf-8")
        self.reset()


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper`` (covers ``from module import name`` copies)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    for name in _MODULES:
        importlib.import_module(name)
    from repro.engine import filter_plane
    from repro.engine.simulator import EpochSimulator
    from repro.obs.tracing import SpanRecorder
    from repro.parallel.jobs import JobSpec
    from repro.prefetchers import registry as prefetchers
    from repro.resilience import executor
    from repro.service import protocol, supervisor
    from repro.service.cache import ResultCache
    from repro.service.router import ShardedService
    from repro.service.server import SimulationService
    from repro.spec import runner
    from repro.workloads import commercial, registry

    def patch_function(module: Any, attr: str, name: str, **hooks: Any) -> None:
        original = getattr(module, attr)
        wrapper = ledger.wrap(name, original, **hooks)
        setattr(module, attr, wrapper)
        _rebind(original, wrapper)

    def patch_method(cls: type, attr: str, name: str, **hooks: Any) -> None:
        setattr(cls, attr, ledger.wrap(name, getattr(cls, attr), **hooks))

    patch_function(commercial, "build_commercial_trace", "workloads.generate")
    patch_function(registry, "make_workload", "workloads.make_workload")

    def plane_before(trace: Any, l1i_key: Any, l1d_key: Any, *a: Any, **k: Any) -> bool:
        return (l1i_key, l1d_key) in getattr(trace, "_plane_cache", {})

    def segments_before(trace: Any, plane: Any, l2_key: Any, rob: Any, *a: Any, **k: Any) -> bool:
        return (l2_key, rob) in getattr(plane, "_segment_cache", {})

    def memo_after(hit: bool, _result: Any, *a: Any, **k: Any) -> dict:
        return {"memo": hit}

    patch_function(
        filter_plane, "get_filter_plane", "engine.filter_plane.plane",
        before=plane_before, after=memo_after,
    )
    patch_function(
        filter_plane, "get_epoch_segments", "engine.filter_plane.segments",
        before=segments_before, after=memo_after,
    )

    def sim_after(_pre: Any, _result: Any, sim: Any, trace: Any, *a: Any, **k: Any) -> dict:
        return {
            "path": sim.last_run_path,
            "records": len(trace),
            "ebcp": bool(getattr(sim.prefetcher, "supports_epoch_batch", False)),
        }

    patch_method(EpochSimulator, "run", "engine.simulator.run", after=sim_after)
    patch_function(prefetchers, "build_prefetcher", "prefetchers.build")

    def job_before(spec: Any, *a: Any, **k: Any) -> float:
        start = time.perf_counter()
        size = len(pickle.dumps(spec))
        ledger.add_hidden(time.perf_counter() - start)
        return size / 1024.0

    def job_after(kb: float, *a: Any, **k: Any) -> dict:
        return {"pickle_kb": kb}

    patch_method(JobSpec, "run", "parallel.jobs.run", before=job_before, after=job_after)
    patch_function(executor, "execute", "resilience.execute")
    patch_function(executor, "_attempt", "resilience.attempt")
    # ``repro.spec.expand`` the function shadows the module of that name.
    patch_function(sys.modules["repro.spec.expand"], "expand", "spec.expand")
    patch_function(runner, "run_spec", "spec.run_spec")

    def get_after(_pre: Any, result: Any, *a: Any, **k: Any) -> dict:
        return {"hit": result is not None}

    patch_method(ResultCache, "get", "service.cache.get", after=get_after)
    patch_method(ResultCache, "put", "service.cache.put")
    patch_function(protocol, "encode_frame", "service.protocol.encode")
    patch_function(protocol, "decode_frame", "service.protocol.decode")

    def batch_after(_pre: Any, _result: Any, _self: Any, batch: Any, *a: Any, **k: Any) -> dict:
        return {"size": len(batch)}

    patch_method(SimulationService, "_run_batch", "service.server.run_batch", after=batch_after)
    ShardedService._shard_roundtrip = ledger.wrap_async(  # type: ignore[method-assign]
        "service.router.roundtrip", ShardedService._shard_roundtrip
    )

    # The service's own exported spans: the admission wait is measured
    # across two coroutines, so only the exported span carries it.
    original_record = SpanRecorder.record

    def record(self: Any, span: dict) -> None:
        original_record(self, span)
        if span.get("name") == "admission":
            ledger.record(
                "service.server.admission",
                span["ts_us"] / 1e6,
                span["dur_us"] / 1e6,
            )

    SpanRecorder.record = record  # type: ignore[method-assign]

    # Forked shards leave through os._exit, which skips atexit: dump on
    # the way out of the shard entry point instead.
    shard_main = supervisor._shard_main

    def traced_shard_main(*args: Any, **kwargs: Any) -> None:
        ledger.reset()  # the forked copy holds the front-end's spans
        try:
            shard_main(*args, **kwargs)
        finally:
            directory = os.environ.get(LEDGER_ENV)
            if directory:
                ledger.dump(directory)

    supervisor._shard_main = traced_shard_main


_PROCESS_LEDGER: Optional[Ledger] = None


def install_process() -> Ledger:
    """Install once in this process and dump at interpreter exit."""
    global _PROCESS_LEDGER
    if _PROCESS_LEDGER is None:
        ledger = Ledger()
        ledger.calibrate()
        install(ledger)
        directory = os.environ[LEDGER_ENV]
        atexit.register(lambda: ledger.dump(directory))
        _PROCESS_LEDGER = ledger
    return _PROCESS_LEDGER


# ----------------------------------------------------------------------
# Folding the ledger into per-layer metrics
# ----------------------------------------------------------------------
def load(directory: str) -> Tuple[List[list], float]:
    """Every span dumped under ``directory`` (with its process id
    appended) plus the summed overhead."""
    spans: List[list] = []
    overhead = 0.0
    for path in sorted(Path(directory).glob("ledger-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(span + [payload["pid"]] for span in payload["spans"])
        overhead += payload["overhead_s"]
    return spans, overhead


def in_windows(spans: Iterable[list], windows: Sequence[Tuple[float, float]]) -> List[list]:
    return [s for s in spans if any(lo <= s[1] <= hi for lo, hi in windows)]


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: Sequence[list], wall_s: float, overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of the measured windows.

    Times are means per call in milliseconds unless the name says
    otherwise; a layer the workload never reached reports 0.
    """
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def durs(name: str, *, self_time: bool = False, where: Callable[[dict], bool] = lambda a: True) -> List[float]:
        col = 3 if self_time else 2
        return [s[col] for s in by_name.get(name, []) if where(s[4] or {})]

    generated = by_name.get("workloads.generate", [])
    made = by_name.get("workloads.make_workload", [])
    sims = by_name.get("engine.simulator.run", [])

    def ms_per_krec(path: str) -> float:
        chosen = [s for s in sims if s[4]["path"] == path]
        krec = sum(s[4]["records"] for s in chosen) / 1000.0
        return 1000.0 * sum(s[3] for s in chosen) / krec if krec else 0.0

    ebcp_runs = [s for s in sims if s[4]["ebcp"]]
    gets = by_name.get("service.cache.get", [])
    attempts = by_name.get("resilience.attempt", [])
    roots = by_name.get("service.server.run_batch", []) + by_name.get("spec.run_spec", [])
    root_s = sum(s[2] for s in roots)
    return {
        "workloads.generate_ms": 1000.0 * _mean(durs("workloads.generate", self_time=True)),
        "workloads.traces_generated": float(len(generated)),
        "workloads.trace_reuse_frac": (1.0 - len(generated) / len(made)) if made else 0.0,
        "engine.filter_plane.plane_ms": 1000.0 * _mean(
            durs("engine.filter_plane.plane", self_time=True, where=lambda a: not a["memo"])
        ),
        "engine.filter_plane.segments_ms": 1000.0 * _mean(
            durs("engine.filter_plane.segments", self_time=True, where=lambda a: not a["memo"])
        ),
        "engine.simulator.kernel_ms_per_krec": ms_per_krec("epoch_kernel"),
        "engine.simulator.scalar_ms_per_krec": ms_per_krec("compressed"),
        "engine.simulator.kernel_frac": (
            sum(s[4]["path"] == "epoch_kernel" for s in ebcp_runs) / len(ebcp_runs)
            if ebcp_runs else 0.0
        ),
        "prefetchers.build_ms": 1000.0 * _mean(durs("prefetchers.build")),
        "parallel.jobs.run_self_ms": 1000.0 * _mean(durs("parallel.jobs.run", self_time=True)),
        "parallel.jobs.spec_pickle_kb": _mean(
            [s[4]["pickle_kb"] for s in by_name.get("parallel.jobs.run", [])]
        ),
        "resilience.execute_self_ms": 1000.0 * _mean(durs("resilience.execute", self_time=True)),
        "resilience.retries": float(sum(1 for s in attempts if (s[4] or {}).get("error"))),
        "spec.expand_ms": 1000.0 * _mean(durs("spec.expand")),
        "service.server.admission_ms": 1000.0 * _mean(durs("service.server.admission")),
        "service.server.batch_ms": 1000.0 * _mean(durs("service.server.run_batch")),
        "service.server.batch_size_mean": _mean(
            [s[4]["size"] for s in by_name.get("service.server.run_batch", [])]
        ),
        "service.cache.lookup_ms": 1000.0 * _mean(durs("service.cache.get")),
        "service.cache.hit_frac": (
            sum(1 for s in gets if s[4]["hit"]) / len(gets) if gets else 0.0
        ),
        "service.cache.spill_ms": 1000.0 * _mean(durs("service.cache.put")),
        "service.protocol.encode_ms": 1000.0 * _mean(durs("service.protocol.encode")),
        "service.protocol.decode_ms": 1000.0 * _mean(durs("service.protocol.decode")),
        "service.router.proxy_ms": 1000.0 * _mean(durs("service.router.roundtrip")),
        "harness.trace_overhead_frac": overhead_s / wall_s if wall_s > 0 else 0.0,
        "harness.layer_coverage_frac": (
            sum(s[2] - s[3] for s in roots) / root_s if root_s > 0 else 0.0
        ),
    }
