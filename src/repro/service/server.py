"""The asyncio simulation service.

One resident process that serves simulation requests over TCP, keeping
everything a cold CLI invocation pays for — interpreter startup, trace
generation, filter-plane warming, process-pool spin-up — warm across
requests:

* **bounded admission**: simulate requests enter an ``asyncio.Queue``
  with a hard capacity; when it is full the client gets an immediate
  ``queue_full`` error with a ``retry_after_s`` hint (explicit
  backpressure) instead of the server buffering without bound;
* **micro-batching**: the dispatcher drains up to
  ``ServiceConfig.max_batch`` queued requests within
  ``ServiceConfig.batch_window_s`` and ships them as *one*
  :class:`~repro.parallel.jobs.JobSpec` batch through
  :func:`repro.resilience.executor.execute` — so concurrent requests
  share the executor's trace warming and fan out over the pool together;
* **persistent pool**: the executor leases a
  :class:`~repro.resilience.executor.PersistentPool` owned by the
  service, so pool workers (and their inherited trace/filter-plane
  memos) survive across batches;
* **result cache**: completed runs are cached by content fingerprint
  (:mod:`repro.service.cache`).  A repeat whose result sits in the
  memory tier is answered on the event loop at admission, before the
  queue: it never waits out the batch window or a miss batch already
  running, and it is answered even when the queue is full, because
  backpressure bounds execution and a hit executes nothing.  Admission
  never builds a trace or reads a file to find the key: a plain-shape
  request needs its trace fingerprint, which it finds in a bounded memo
  the batch path fills whenever it builds a trace, and an extended (v4)
  request is keyed by its generation parameters.  Everything else —
  first sight of a trace, disk-tier hits, ``use_cache=False`` — takes
  the queue and the batch path as before;
* **graceful drain**: SIGTERM/SIGINT (or a ``shutdown`` request) stops
  admission, finishes every queued and in-flight request, delivers the
  responses, then exits.

Identity guarantee
------------------
A served simulate request runs the *same* :class:`JobSpec` path as
``repro-ebcp simulate`` and the sweep runners, so its
:class:`~repro.engine.stats.SimulationStats` are bit-identical to a
fresh CLI invocation with equal parameters (asserted in
``tests/test_service.py``).
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..engine.config import ProcessorConfig
from ..engine.stats import SimulationResult
from ..obs.bus import EventBus
from ..obs.events import QueueSaturated, RequestCompleted, RequestReceived
from ..obs.metrics import MetricsRegistry, ServiceMetrics
from ..obs.prometheus import render_prometheus
from ..obs.tracing import SpanRecorder, TelemetrySink, TraceContext, wall_us
from ..parallel.jobs import JobSpec
from ..prefetchers.registry import PREFETCHERS, build_prefetcher
from ..resilience.executor import PersistentPool, execute
from ..resilience.policy import ExecutionPolicy
from ..workloads.registry import WORKLOADS, make_workload
from . import protocol
from .cache import ResultCache
from .protocol import ErrorCode, ProtocolError, Request, SimulateParams

__all__ = ["ServiceConfig", "SimulationService", "BackgroundService", "serve"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    ``port=0`` binds an ephemeral port; the bound address is available as
    :attr:`SimulationService.address` after :meth:`~SimulationService.start`.
    """

    host: str = "127.0.0.1"
    port: int = 7421
    #: Hard capacity of the request queue; the backpressure threshold.
    queue_size: int = 64
    #: Most simulate requests dispatched as one executor batch.
    max_batch: int = 8
    #: How long the dispatcher waits for the batch to fill before
    #: dispatching what it has.
    batch_window_s: float = 0.005
    #: Result-cache capacity (entries); 0 disables caching.
    cache_entries: int = 256
    #: Grace period for handlers to flush responses during shutdown.
    drain_timeout_s: float = 30.0
    #: Collect worker-side :class:`SimulationMetrics` per job and merge
    #: them into the service-global registry (per-prefetcher prefixed).
    worker_metrics: bool = True
    #: Disk tier of the result cache: spill lossless snapshots under
    #: this directory (sha256 sidecars, quarantine-on-corruption) so
    #: warm hits survive crashes and restarts.  ``None`` = memory only.
    #: Safe to share across shard processes (content-addressed entries,
    #: atomic writes).
    cache_dir: Optional[str] = None
    #: Disk-tier entry bound (oldest pruned beyond it).
    max_disk_entries: int = 4096
    #: ``(workload, records, seed)`` triples to pre-warm (trace + filter
    #: planes generated, pool workers pre-spawned) before reporting
    #: ready.  A sharded front-end partitions these per shard.
    prewarm: Tuple[Tuple[str, int, int], ...] = ()
    #: Position of this instance behind a sharded front-end; ``None``
    #: for a standalone service.  Surfaces in ping/stats/telemetry.
    shard_index: Optional[int] = None
    #: Load the newest ``cache_dir`` entries into the memory tier before
    #: binding.  Off by default; a live resize sets it on newcomers so
    #: a shard joining the ring serves warm from its first request.
    preload_disk: bool = False


@dataclass
class _PendingRequest:
    """One admitted simulate request waiting for its batch."""

    request_id: str
    params: SimulateParams
    received_at: float
    future: "asyncio.Future[Tuple[SimulationResult, bool]]"
    cache_key: Optional[tuple] = None
    #: The server-side span context this request's downstream spans
    #: (admission, batch, cache, worker jobs) parent to; None = untraced.
    trace: Optional[TraceContext] = None
    #: ``wall_us()`` at admission — start of the admission-wait span.
    received_us: int = 0


@dataclass
class _BatchOutcome:
    """What one dispatched micro-batch produced, per pending request."""

    results: List[Optional[SimulationResult]] = field(default_factory=list)
    cached: List[bool] = field(default_factory=list)
    error: Optional[BaseException] = None


class SimulationService:
    """Asyncio TCP server speaking :mod:`repro.service.protocol`."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        bus: Optional[EventBus] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.policy = policy or ExecutionPolicy()
        self.bus = bus if bus is not None else EventBus()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = ServiceMetrics(self.bus, self.registry)
        self.cache = ResultCache(
            self.config.cache_entries,
            spill_dir=self.config.cache_dir,
            max_disk_entries=self.config.max_disk_entries,
        )
        self.pool = PersistentPool(self.policy.resolved_jobs())
        #: Server-side span collector; worker spans are absorbed here too,
        #: so after a traced request it holds the whole cross-process tree.
        self.recorder = SpanRecorder("server")
        #: Worker simulation metrics, merged across jobs under a
        #: per-prefetcher prefix (``ebcp.epoch_mlp``, ...).
        self.sim_registry = MetricsRegistry()
        self.sink = TelemetrySink(
            registry=self.sim_registry if self.config.worker_metrics else None,
            recorder=self.recorder,
        )
        self.address: Optional[Tuple[str, int]] = None
        #: ``(workload, records, seed)`` -> trace fingerprint, filled where
        #: the batch path builds a trace, so admission can key a repeat of
        #: a plain-shape request without building one.  Bounded by
        #: ``cache_entries``: more traces than results is never useful.
        self._fingerprints: "OrderedDict[Tuple[str, int, int], str]" = OrderedDict()
        self._fingerprints_lock = threading.Lock()
        self._config_fp = ProcessorConfig.scaled().fingerprint()

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: "Optional[asyncio.Queue[_PendingRequest]]" = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._dispatch_gate: Optional[asyncio.Event] = None
        self._draining = False
        self._busy_handlers = 0
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start serving, and return the bound ``(host, port)``.

        With :attr:`ServiceConfig.prewarm` set, the expected working
        set (traces, filter planes, pool workers) is warmed *before*
        binding, so a ready service is a warm service.
        """
        if self.config.prewarm:
            await asyncio.get_running_loop().run_in_executor(None, self.prewarm)
        if self.config.preload_disk and self.config.cache_dir:
            loaded = await asyncio.get_running_loop().run_in_executor(
                None, self.cache.preload
            )
            if loaded:
                log.info("preloaded %d result(s) from the disk cache tier", loaded)
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._dispatch_gate = asyncio.Event()
        self._dispatch_gate.set()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._started_at = time.monotonic()
        self._batcher_task = asyncio.create_task(self._batch_loop())
        log.info("simulation service listening on %s:%d", *self.address)
        return self.address

    async def run(self, install_signal_handlers: bool = False) -> None:
        """Serve until drained (SIGTERM/SIGINT or a ``shutdown`` request)."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_drain)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-main thread / platform without signal support
        assert self._batcher_task is not None
        await self._batcher_task
        # The batcher resolved every admitted future; give the connection
        # handlers a bounded grace period to write those responses out.
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._busy_handlers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        self.pool.shutdown()
        log.info("simulation service drained and stopped")

    def prewarm(self) -> None:
        """Warm the configured working set (blocking; called off-loop).

        Generates each prewarm triple's trace and filter planes through
        the shared on-disk caches and pre-spawns the persistent pool's
        workers, so the first real request hits warm state.
        """
        from ..parallel.jobs import warm_trace_cache

        config = ProcessorConfig.scaled()
        specs = [
            JobSpec(workload=w, records=r, seed=s, config=config)
            for (w, r, s) in self.config.prewarm
        ]
        try:
            warm_trace_cache(specs)
        except Exception as exc:  # warming is best-effort, never fatal
            log.warning("prewarm failed (%s); serving cold", exc)
        if self.pool.max_workers > 1 and (
            (os.cpu_count() or 1) > 1 or os.environ.get("REPRO_FORCE_POOL") == "1"
        ):
            self.pool.warm()
        log.info("prewarmed %d working-set entr(ies)", len(specs))

    def begin_drain(self) -> None:
        """Stop admission; queued and in-flight requests still complete.

        Callable from the event loop (signal handlers, the ``shutdown``
        request); thread-safe via :meth:`begin_drain_threadsafe`.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        log.info("simulation service draining (no new requests admitted)")

    def begin_drain_threadsafe(self) -> None:
        self._call_threadsafe(self.begin_drain)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Test seam: hold the dispatcher to observe queue/backpressure states
    # deterministically (queue saturation, drain with work pending).
    # ------------------------------------------------------------------
    def hold_dispatch(self) -> None:
        assert self._dispatch_gate is not None
        self._dispatch_gate.clear()

    def release_dispatch(self) -> None:
        assert self._dispatch_gate is not None
        self._dispatch_gate.set()

    def release_dispatch_threadsafe(self) -> None:
        self._call_threadsafe(self.release_dispatch)

    def _call_threadsafe(self, callback) -> None:
        """Schedule on the service loop; a no-op once the loop is gone
        (an already-drained service needs no further nudging)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(callback)
        except RuntimeError:
            pass  # loop closed between the check and the call

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Frame exceeded the stream limit: answer and hang up
                    # (the stream is no longer line-synchronised).
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_response(
                                "",
                                ErrorCode.MALFORMED_FRAME,
                                f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF: client hung up
                self._busy_handlers += 1
                try:
                    response = await self._handle_frame(line, writer)
                finally:
                    self._busy_handlers -= 1
                writer.write(protocol.encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-conversation; nothing to answer
        except asyncio.CancelledError:
            # An idle persistent client is still parked in readline when
            # the drained loop shuts down and cancels this task.  That is
            # normal shutdown: end the task instead of leaving a cancelled
            # one for asyncio's connection callback to log.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                pass

    async def _handle_frame(
        self, line: bytes, writer: Optional[asyncio.StreamWriter] = None
    ) -> Dict[str, Any]:
        started = time.monotonic()
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            request_id = str(exc.details.get("request_id", ""))
            details = {k: v for k, v in exc.details.items() if k != "request_id"}
            self._emit_completed("invalid", request_id, started, ok=False)
            return protocol.error_response(request_id, exc.code, exc.message, **details)

        if self.bus.wants(RequestReceived):
            self.bus.emit(RequestReceived(request_type=request.type, request_id=request.id))

        if request.type == "ping":
            response = protocol.ok_response(request.id, self._ping_payload())
        elif request.type == "stats":
            response = protocol.ok_response(request.id, self._stats_payload())
        elif request.type == "metrics":
            response = protocol.ok_response(request.id, self._metrics_payload())
        elif request.type == "telemetry":
            response = protocol.ok_response(
                request.id, self._telemetry_payload(request.params)
            )
        elif request.type == "admin":
            response = protocol.error_response(
                request.id,
                ErrorCode.INVALID_REQUEST,
                "admin commands require a sharded front-end (serve --workers N)",
            )
            self._emit_completed(request.type, request.id, started, ok=False)
            return response
        elif request.type == "shutdown":
            self.begin_drain()
            response = protocol.ok_response(request.id, {"draining": True})
        elif request.type == "sweep":
            # Streams one frame per job through ``writer``; the returned
            # frame is the terminal done marker.  Emits its own completion.
            return await self._handle_sweep(request, writer, started)
        else:  # simulate
            response = await self._handle_simulate(request, started)
            return response  # _handle_simulate emits its own completion
        self._emit_completed(request.type, request.id, started, ok=True)
        return response

    async def _handle_simulate(self, request: Request, started: float) -> Dict[str, Any]:
        """Serve one simulate, continuing the client's trace when present."""
        ctx = TraceContext.from_wire(request.trace)
        if ctx is None:
            return await self._simulate_body(request, started, span=None)
        with self.recorder.span(
            "server:simulate", parent=ctx, request_id=request.id
        ) as span:
            response = await self._simulate_body(request, started, span=span)
            span.set(ok=bool(response.get("ok")))
            return response

    async def _simulate_body(
        self, request: Request, started: float, span: Optional[Any]
    ) -> Dict[str, Any]:
        if self._draining:
            self._emit_completed("simulate", request.id, started, ok=False)
            return protocol.error_response(
                request.id, ErrorCode.SHUTTING_DOWN, "service is draining; not admitting"
            )
        try:
            params = SimulateParams.from_dict(request.params)
            self._validate_names(params)
        except ProtocolError as exc:
            self._emit_completed("simulate", request.id, started, ok=False)
            return protocol.error_response(request.id, exc.code, exc.message, **exc.details)

        trace = span.context if span is not None else None
        hit = self._admission_hit(params, trace)
        if hit is not None:
            return self._simulate_answer(request, started, span, hit, cached=True)

        assert self._queue is not None and self._loop is not None
        pending = _PendingRequest(
            request_id=request.id,
            params=params,
            received_at=started,
            future=self._loop.create_future(),
            trace=trace,
            received_us=wall_us(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            retry_after = max(2.0 * self.config.batch_window_s, 0.05)
            if self.bus.wants(QueueSaturated):
                self.bus.emit(
                    QueueSaturated(
                        depth=self._queue.qsize(),
                        limit=self.config.queue_size,
                        request_id=request.id,
                    )
                )
            self._emit_completed("simulate", request.id, started, ok=False)
            return protocol.error_response(
                request.id,
                ErrorCode.QUEUE_FULL,
                f"request queue full ({self.config.queue_size} waiting)",
                retry_after_s=retry_after,
            )
        self.metrics.queue_depth.set(float(self._queue.qsize()))

        try:
            result, cached = await pending.future
        except Exception as exc:
            log.exception("simulate request %s failed", request.id or "<anon>")
            self._emit_completed("simulate", request.id, started, ok=False)
            return protocol.error_response(
                request.id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return self._simulate_answer(request, started, span, result, cached)

    def _simulate_answer(
        self,
        request: Request,
        started: float,
        span: Optional[Any],
        result: SimulationResult,
        cached: bool,
    ) -> Dict[str, Any]:
        """The ok frame of one served simulate (admission or batch)."""
        elapsed_ms = (time.monotonic() - started) * 1000.0
        if span is not None:
            span.set(cached=cached)
        self._emit_completed("simulate", request.id, started, ok=True, cached=cached)
        return protocol.ok_response(
            request.id,
            result.snapshot(),
            cached=cached,
            elapsed_ms=elapsed_ms,
        )

    # ------------------------------------------------------------------
    # Admission-time result-cache hits
    # ------------------------------------------------------------------
    def _admission_key(self, params: SimulateParams) -> Optional[tuple]:
        """``params``' result-cache key when admission can build it
        without a trace; None sends the request down the batch path."""
        if params.is_extended():
            from ..spec.wire import config_from_wire, extended_cache_key

            try:
                config_fp = config_from_wire(params.config).fingerprint()
            except Exception:
                return None  # the batch path reports the bad payload
            return extended_cache_key(params, config_fp)
        fingerprint = self._fingerprints.get(
            (params.workload, params.records, params.seed)
        )
        if fingerprint is None:
            return None
        return ResultCache.key(
            fingerprint, self._config_fp, params.prefetcher, params.warmup_records
        )

    def _admission_hit(
        self, params: SimulateParams, trace: Optional[TraceContext]
    ) -> Optional[SimulationResult]:
        """The memory-tier result for ``params``, looked up on the event
        loop before the request is queued; None when it must queue."""
        if not params.use_cache:
            return None
        key = self._admission_key(params)
        if key is None:
            return None
        started_us = wall_us()
        hit = self.cache.get(key, disk=False)
        if hit is None:
            return None
        self.metrics.admission_hits.inc()
        if trace is not None:
            self.recorder.record_manual(
                "cache:lookup", trace, started_us, wall_us() - started_us,
                hit=True, at="admission",
            )
        return hit

    def _remember_fingerprint(self, triple: Tuple[str, int, int], fingerprint: str) -> None:
        """Memoise a built trace's fingerprint for admission (batch thread)."""
        if self.config.cache_entries == 0:
            return
        with self._fingerprints_lock:
            self._fingerprints[triple] = fingerprint
            self._fingerprints.move_to_end(triple)
            while len(self._fingerprints) > self.config.cache_entries:
                self._fingerprints.popitem(last=False)

    # ------------------------------------------------------------------
    # Sweep streaming (v4)
    # ------------------------------------------------------------------
    @staticmethod
    def _job_payload(meta: Any) -> Dict[str, Any]:
        """The per-job identity block carried on every sweep frame."""
        return {
            "index": meta.index,
            "kind": meta.kind,
            "workload": meta.workload,
            "seed": meta.seed,
            "records": meta.records,
            "n_threads": meta.n_threads,
            "label": meta.label,
            "config": meta.config_label,
        }

    async def _handle_sweep(
        self,
        request: Request,
        writer: Optional[asyncio.StreamWriter],
        started: float,
    ) -> Dict[str, Any]:
        """Expand a sweep spec and stream per-job frames as they settle.

        Every job is admitted like a plain simulate: a memory-tier hit
        is answered at admission, and the rest enter the same queue and
        micro-batching dispatcher (so results are bit-identical to
        individual requests).  Queueing *blocks* instead of answering
        ``queue_full`` — a sweep is one request and its backpressure is
        the stream itself.
        """
        from ..spec import SpecError, SweepSpec, expand
        from ..spec.wire import simulate_params_for

        if writer is None:  # pragma: no cover - defensive
            return protocol.error_response(
                request.id, ErrorCode.INVALID_REQUEST, "sweep requires a streaming connection"
            )
        if self._draining:
            self._emit_completed("sweep", request.id, started, ok=False)
            return protocol.error_response(
                request.id, ErrorCode.SHUTTING_DOWN, "service is draining; not admitting"
            )
        use_cache = request.params.get("use_cache", True)
        try:
            spec_payload = request.params.get("spec")
            if not isinstance(spec_payload, dict):
                raise ProtocolError(ErrorCode.INVALID_REQUEST, "sweep requires a 'spec' object")
            spec = SweepSpec.from_dict(spec_payload)
        except SpecError as exc:
            self._emit_completed("sweep", request.id, started, ok=False)
            return protocol.error_response(
                request.id, ErrorCode.INVALID_REQUEST, str(exc), path=getattr(exc, "path", "")
            )
        except ProtocolError as exc:
            self._emit_completed("sweep", request.id, started, ok=False)
            return protocol.error_response(request.id, exc.code, exc.message, **exc.details)

        plan = expand(spec)
        ctx = TraceContext.from_wire(request.trace)
        assert self._queue is not None and self._loop is not None
        pendings: List[_PendingRequest] = []
        aborted = False
        for meta in plan.meta:
            if self._draining:
                aborted = True
                break
            params = SimulateParams.from_dict(
                {**simulate_params_for(meta), "use_cache": bool(use_cache)}
            )
            pending = _PendingRequest(
                request_id=f"{request.id}#{meta.index}",
                params=params,
                received_at=time.monotonic(),
                future=self._loop.create_future(),
                trace=ctx,
                received_us=wall_us(),
            )
            hit = self._admission_hit(params, ctx)
            if hit is not None:
                pending.future.set_result((hit, True))
            else:
                await self._queue.put(pending)
            pendings.append(pending)
        self.metrics.queue_depth.set(float(self._queue.qsize()))

        async def settle(pending: _PendingRequest, meta: Any):
            try:
                result, cached = await pending.future
                return meta, result, cached, None
            except Exception as exc:
                return meta, None, False, exc

        errors = 0
        tasks = [
            asyncio.ensure_future(settle(p, m)) for p, m in zip(pendings, plan.meta)
        ]
        for fut in asyncio.as_completed(tasks):
            meta, result, cached, exc = await fut
            if exc is not None:
                errors += 1
                frame = protocol.error_response(
                    request.id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            else:
                frame = protocol.ok_response(
                    request.id, result.snapshot(), cached=cached
                )
            frame["job"] = self._job_payload(meta)
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
        elapsed_ms = (time.monotonic() - started) * 1000.0
        ok = not errors and not aborted
        self._emit_completed("sweep", request.id, started, ok=ok)
        terminal = protocol.ok_response(
            request.id,
            {
                "name": spec.name,
                "fingerprint": spec.fingerprint(),
                "jobs": len(plan.meta),
                "streamed": len(pendings),
                "errors": errors,
                "aborted": aborted,
                "elapsed_ms": elapsed_ms,
            },
        )
        terminal["done"] = True
        return terminal

    # ------------------------------------------------------------------
    # Micro-batching dispatcher
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queue is not None and self._dispatch_gate is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._next_pending()
            if first is None:
                return  # draining and nothing left
            batch = [first]
            deadline = loop.time() + self.config.batch_window_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            self.metrics.queue_depth.set(float(self._queue.qsize()))
            await self._dispatch_gate.wait()
            self.metrics.batch_size.observe(len(batch))
            # Close each traced request's admission-wait span (receipt →
            # batch pickup, measured across two coroutines) and pick the
            # first traced request as the batch span's parent — a batch
            # has one span but possibly many traces.
            picked_up_us = wall_us()
            batch_ctx: Optional[TraceContext] = None
            for pending in batch:
                if pending.trace is None:
                    continue
                self.recorder.record_manual(
                    "admission",
                    pending.trace,
                    pending.received_us,
                    picked_up_us - pending.received_us,
                    request_id=pending.request_id,
                )
                if batch_ctx is None:
                    batch_ctx = pending.trace
            if batch_ctx is not None:
                with self.recorder.span(
                    "batch", parent=batch_ctx, size=len(batch)
                ) as batch_span:
                    outcome = await asyncio.to_thread(
                        self._run_batch, batch, batch_span.context
                    )
            else:
                outcome = await asyncio.to_thread(self._run_batch, batch, None)
            for i, pending in enumerate(batch):
                if pending.future.cancelled():  # pragma: no cover - defensive
                    continue
                if outcome.error is not None:
                    pending.future.set_exception(outcome.error)
                else:
                    pending.future.set_result((outcome.results[i], outcome.cached[i]))

    async def _next_pending(self) -> Optional[_PendingRequest]:
        """The next queued request; None once draining with an empty queue."""
        assert self._queue is not None
        while True:
            if self._draining:
                try:
                    return self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    return None
            try:
                return await asyncio.wait_for(self._queue.get(), timeout=0.1)
            except asyncio.TimeoutError:
                continue

    def _run_batch(
        self,
        batch: List[_PendingRequest],
        batch_ctx: Optional[TraceContext] = None,
    ) -> _BatchOutcome:
        """Resolve one micro-batch (worker thread; blocking is fine here).

        Requests that hit the result cache are answered without a job;
        the rest — deduplicated, so identical concurrent requests share
        one simulation — go through :func:`repro.resilience.execute`
        over the persistent pool.  ``batch_ctx`` is the batch span's
        context; it propagates through the executor into worker jobs.
        """
        outcome = _BatchOutcome(
            results=[None] * len(batch), cached=[False] * len(batch)
        )
        try:
            from ..spec.wire import config_from_wire, extended_cache_key, jobspec_from_simulate

            config = ProcessorConfig.scaled()
            specs: List[JobSpec] = []
            spec_slots: Dict[tuple, List[int]] = {}
            spec_order: List[tuple] = []
            jobs_by_key: Dict[tuple, JobSpec] = {}
            for i, pending in enumerate(batch):
                params = pending.params
                if params.is_extended():
                    # Spec-expanded job (v4): content-address from the
                    # generation parameters themselves — no trace build
                    # at admission (interleaved traces are expensive).
                    job_config = config_from_wire(params.config)
                    key = extended_cache_key(params, job_config.fingerprint())
                    jobs_by_key[key] = jobspec_from_simulate(params, config=job_config)
                else:
                    # The registry memoises traces in-process, and Trace
                    # caches its fingerprint, so a warm repeat costs a dict
                    # lookup — this is what keys the result cache.
                    trace = make_workload(
                        params.workload, records=params.records, seed=params.seed
                    )
                    fingerprint = trace.fingerprint()
                    self._remember_fingerprint(
                        (params.workload, params.records, params.seed), fingerprint
                    )
                    key = ResultCache.key(
                        fingerprint,
                        config.fingerprint(),
                        params.prefetcher,
                        params.warmup_records,
                    )
                pending.cache_key = key
                if params.use_cache:
                    if pending.trace is not None:
                        with self.recorder.span(
                            "cache:lookup", parent=pending.trace, at="batch"
                        ) as cache_span:
                            hit = self.cache.get(key)
                            cache_span.set(hit=hit is not None)
                    else:
                        hit = self.cache.get(key)
                    if hit is not None:
                        outcome.results[i] = hit
                        outcome.cached[i] = True
                        continue
                if key in spec_slots:
                    spec_slots[key].append(i)
                    continue
                spec_slots[key] = [i]
                spec_order.append(key)
                if key in jobs_by_key:
                    specs.append(jobs_by_key[key])
                else:
                    specs.append(
                        JobSpec(
                            workload=params.workload,
                            records=params.records,
                            seed=params.seed,
                            config=config,
                            prefetcher=(
                                None
                                if params.prefetcher == "none"
                                else build_prefetcher(params.prefetcher)
                            ),
                            label=params.prefetcher,
                            warmup_records=params.warmup_records,
                        )
                    )
            if specs:
                job_results = execute(
                    specs, self.policy, bus=self.bus, pool=self.pool,
                    trace=batch_ctx, telemetry=self.sink,
                )
                for key, result in zip(spec_order, job_results):
                    self.cache.put(key, result)
                    for slot in spec_slots[key]:
                        outcome.results[slot] = result
        except BaseException as exc:  # delivered per-request as INTERNAL
            outcome.error = exc
        return outcome

    # ------------------------------------------------------------------
    # Payloads and plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_names(params: SimulateParams) -> None:
        if params.workload not in WORKLOADS:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown workload '{params.workload}'",
                known=sorted(WORKLOADS),
            )
        if params.prefetcher not in PREFETCHERS:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unknown prefetcher '{params.prefetcher}'",
                known=sorted(PREFETCHERS),
            )

    def _ping_payload(self) -> Dict[str, Any]:
        payload = {
            "pong": True,
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "supported_versions": list(protocol.SUPPORTED_VERSIONS),
            "pid": os.getpid(),
            # The health frame a supervising front-end probes (v5).
            "uptime_s": time.monotonic() - self._started_at,
            "state": "draining" if self._draining else "ready",
        }
        if self.config.shard_index is not None:
            payload["shard_index"] = self.config.shard_index
        return payload

    def _stats_payload(self) -> Dict[str, Any]:
        assert self._queue is not None
        latency = self.metrics.latency_ms
        return {
            "pid": os.getpid(),
            "shard_index": self.config.shard_index,
            "uptime_s": time.monotonic() - self._started_at,
            "queue": {"depth": self._queue.qsize(), "limit": self.config.queue_size},
            "cache": {
                **self.cache.info(),
                "admission_hits": self.metrics.admission_hits.value,
            },
            "pool": {
                "workers": self.pool.max_workers,
                "generation": self.pool.generation,
            },
            "draining": self._draining,
            "latency_ms": {
                "p50": latency.quantile(0.5),
                "p90": latency.quantile(0.9),
                "p99": latency.quantile(0.99),
                "count": latency.total,
            },
            "metrics": self.registry.to_dict(),
            "simulation": self.sim_registry.to_dict(),
        }

    def merged_metrics(self) -> Dict[str, Any]:
        """Service + aggregated worker instruments as one snapshot.

        Names cannot collide: worker instruments arrive prefixed with
        their job label (``ebcp.``, ``pointer_chase.``, ...), while the
        service's own instruments are unprefixed.
        """
        snapshot = dict(self.registry.to_dict())
        snapshot.update(self.sim_registry.to_dict())
        return snapshot

    def _metrics_payload(self) -> Dict[str, Any]:
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": render_prometheus(self.merged_metrics()),
        }

    #: Span ceiling per telemetry response; keeps the frame under
    #: ``protocol.MAX_FRAME_BYTES`` for long-lived shards.
    TELEMETRY_SPAN_CAP = 2000

    def _telemetry_payload(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Spans + registries for cross-process aggregation (v3).

        ``params["drain"]`` removes the spans on read — what a sharded
        front-end sends right before shutdown, so each span is shipped
        exactly once.  The newest :data:`TELEMETRY_SPAN_CAP` spans are
        kept when the backlog would overflow one frame; the count of
        dropped older spans is reported instead of silently truncating.
        """
        drain = bool(params.get("drain")) if isinstance(params, dict) else False
        spans = self.recorder.drain() if drain else self.recorder.snapshot()
        dropped = max(0, len(spans) - self.TELEMETRY_SPAN_CAP)
        if dropped:
            spans = spans[-self.TELEMETRY_SPAN_CAP:]
        return {
            "pid": os.getpid(),
            "shard_index": self.config.shard_index,
            "spans": spans,
            "dropped_spans": dropped,
            "metrics": self.registry.to_dict(),
            "simulation": self.sim_registry.to_dict(),
        }

    def _emit_completed(
        self,
        request_type: str,
        request_id: str,
        started: float,
        ok: bool,
        cached: bool = False,
    ) -> None:
        if self.bus.wants(RequestCompleted):
            self.bus.emit(
                RequestCompleted(
                    request_type=request_type,
                    request_id=request_id,
                    ok=ok,
                    cached=cached,
                    latency_ms=(time.monotonic() - started) * 1000.0,
                )
            )


async def serve(
    config: Optional[ServiceConfig] = None,
    policy: Optional[ExecutionPolicy] = None,
    ready_message: bool = True,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    workers: int = 1,
    heartbeat_s: float = 2.0,
    max_restarts: int = 5,
) -> int:
    """Run one service until it drains (the ``repro-ebcp serve`` body).

    ``workers > 1`` runs the sharded tier instead: a consistent-hash
    front-end over that many single-shard worker processes
    (:class:`~repro.service.router.ShardedService`), supervised every
    ``heartbeat_s`` (``<= 0`` disables supervision) with at most
    ``max_restarts`` respawns per shard.  ``metrics_out`` dumps the
    merged registry (service + aggregated worker metrics) as JSON on
    shutdown; ``trace_out`` writes every span the service recorded (its
    own and the worker spans it absorbed) as a Chrome trace.
    """
    import json as _json

    from ..obs.tracing import write_chrome_trace

    if workers > 1:
        from .router import ShardedService

        service: Any = ShardedService(
            config=config,
            policy=policy,
            workers=workers,
            heartbeat_s=heartbeat_s,
            max_restarts=max_restarts,
        )
    else:
        service = SimulationService(config=config, policy=policy)
    host, port = await service.start()
    if ready_message:
        # The sentinel line CI and scripts wait for before sending traffic.
        print(f"repro-ebcp service listening on {host}:{port}", flush=True)
    await service.run(install_signal_handlers=True)
    if metrics_out:
        from pathlib import Path

        Path(metrics_out).write_text(
            _json.dumps(service.merged_metrics(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        log.info("merged metrics written to %s", metrics_out)
    if trace_out:
        write_chrome_trace(service.recorder.spans, trace_out)
        log.info("service trace written to %s", trace_out)
    return 0


class BackgroundService:
    """A service on a daemon thread — the harness tests and benches use.

    Runs ``asyncio.run(service.run())`` off-thread and blocks until the
    ephemeral port is bound, so callers can connect immediately:

    >>> with BackgroundService() as svc:        # doctest: +SKIP
    ...     client = ServiceClient(*svc.address)

    ``service`` hosts a prebuilt instance instead — any object with the
    service lifecycle (``start``/``run``/``begin_drain_threadsafe``/
    ``address``), which is how the sharded front-end
    (:class:`~repro.service.router.ShardedService`) reuses this harness.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        start_timeout_s: float = 10.0,
        service: Optional[Any] = None,
    ) -> None:
        if service is not None and (config is not None or policy is not None):
            raise ValueError("pass either a prebuilt service or config/policy, not both")
        self.service = service if service is not None else SimulationService(
            config=config or ServiceConfig(port=0), policy=policy
        )
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._start_timeout_s = start_timeout_s

    def _main(self) -> None:
        async def body() -> None:
            await self.service.start()
            self._ready.set()
            await self.service.run()

        try:
            asyncio.run(body())
        except BaseException as exc:  # surfaced to the starting thread
            self._error = exc
            self._ready.set()

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundService":
        self._thread.start()
        if not self._ready.wait(self._start_timeout_s):
            raise TimeoutError("service failed to start within the timeout")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    def stop(self, timeout_s: float = 30.0) -> None:
        self.service.begin_drain_threadsafe()
        self._thread.join(timeout_s)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise TimeoutError("service did not drain within the timeout")

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
