"""The sharded service tier: consistent-hash front-end over N shards.

One :class:`ShardedService` is a front-end acceptor plus ``workers``
single-shard worker processes, each running an unmodified
:class:`~repro.service.server.SimulationService` on an ephemeral
localhost port — its own admission queue, micro-batcher,
:class:`~repro.resilience.executor.PersistentPool` and
:class:`~repro.service.cache.ResultCache`.  The front-end:

* **routes** every simulate frame over a consistent-hash ring
  (:mod:`repro.service.sharding`) keyed by the request's generation
  parameters + processor-config fingerprint, so every run of one trace
  lands on the same shard and that shard's trace memo, filter planes
  and result cache stay hot (locality-preserving request routing);
* **answers repeats itself** from a front-end memory tier (a
  :class:`~repro.service.cache.ResultCache` with no disk tier), filled
  from shard replies that were themselves cache hits and keyed by the
  request's generation parameters (``extended_cache_key``), since the
  front-end never holds a trace fingerprint.  A hit skips the second socket hop, which costs
  about as much as a whole shard-side hit, and is stamped with the key's
  current owning shard.  The supervisor empties the tier whenever it
  respawns or retires a shard or resizes the fleet, so the next repeat
  of every key reaches, and exercises, its current owner;
* **proxies** the rest at the byte level: an untraced frame is forwarded
  verbatim over a pooled shard connection and the shard's response is
  returned with ``"shard": {"index", "pid"}`` metadata attached;
  a traced frame is re-parented under a ``router:route`` span first,
  so the client's trace shows the routing hop;
* **answers control requests itself**: ``ping`` describes the fleet,
  ``stats``/``metrics`` fan out to every shard and merge the registries
  (:meth:`MetricsRegistry.merge`) into one aggregate *plus* per-shard
  breakdowns, ``telemetry`` combines every process's spans;
* **drains gracefully**: stop accepting, finish in-flight proxied
  requests, pull each shard's spans and metrics (``telemetry`` with
  ``drain=true``), forward ``shutdown``, and join the processes — so
  ``--trace-out``/``--metrics-out`` on the front-end cover the whole
  fleet;
* **is supervised**: a :class:`~repro.service.supervisor.ShardSupervisor`
  probes the fleet every ``heartbeat_s``, replaces dead shards in place
  (the ring untouched, so the replacement owns the same key range) and
  executes live resizes requested over the protocol v5 ``admin``
  request — see :mod:`repro.service.supervisor`.

Shards share one ``cache_dir`` when configured: the disk tier is
content-addressed and written atomically, so warm results survive not
just restarts but ring resizes (a key that moves shards is re-served
from disk, not re-simulated).
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import os
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..engine.config import ProcessorConfig
from ..engine.stats import SimulationResult
from ..obs.bus import EventBus
from ..obs.events import Event
from ..obs.metrics import MetricsRegistry, RouterMetrics
from ..obs.prometheus import render_prometheus
from ..obs.tracing import SpanRecorder, TraceContext, wall_us
from ..prefetchers.registry import PREFETCHERS
from ..resilience.policy import ExecutionPolicy
from ..workloads.registry import WORKLOADS
from . import protocol
from .cache import ResultCache
from .protocol import ErrorCode, ProtocolError, Request, SimulateParams
from .server import ServiceConfig, SimulationService
from .sharding import HashRing, routing_key
from .supervisor import (
    ShardInfo,
    ShardState,
    ShardSupervisor,
    drop_idle_links,
)

__all__ = ["ShardedService", "ShardInfo", "ShardState"]

log = logging.getLogger(__name__)


class ShardedService:
    """Front-end acceptor routing requests over shard worker processes.

    Speaks the same wire protocol as :class:`SimulationService` on the
    same lifecycle surface (``start``/``run``/``begin_drain``/
    ``address``/``recorder``/``merged_metrics``), so ``serve``,
    :class:`~repro.service.server.BackgroundService` and the CLI host
    either interchangeably.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        workers: int = 2,
        shard_start_timeout_s: float = 120.0,
        heartbeat_s: float = 2.0,
        max_restarts: int = 5,
        bus: Optional[EventBus] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.config = config or ServiceConfig()
        self.policy = policy or ExecutionPolicy()
        self.workers = workers
        self.shard_start_timeout_s = shard_start_timeout_s
        self.bus = bus
        self.registry = MetricsRegistry()
        self.metrics = RouterMetrics(self.registry)
        #: Router spans; at drain every shard's spans are absorbed here,
        #: so ``serve --trace-out`` covers the whole fleet.
        self.recorder = SpanRecorder("router")
        self.ring = HashRing(f"shard-{i}" for i in range(workers))
        self.shards: List[ShardInfo] = []
        self.address: Optional[Tuple[str, int]] = None
        #: Shard lifecycle owner (probes, respawns, live resize).
        self.supervisor = ShardSupervisor(
            self, heartbeat_s=heartbeat_s, max_restarts=max_restarts
        )

        self._by_name: Dict[str, ShardInfo] = {}
        self._config_fp: Optional[tuple] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._draining = False
        self._busy_handlers = 0
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._started_at = time.monotonic()
        #: Final telemetry payloads of shards removed by a live resize —
        #: their request counts keep counting in fleet aggregates.
        self._retired: List[Tuple[int, Dict[str, Any]]] = []
        #: Fleet-wide metric snapshot frozen at drain (``merged_metrics``).
        self._final_metrics: Optional[Dict[str, Any]] = None
        #: Front-end memory tier: shard cache-hit replies, keyed by
        #: generation parameters, answered here without a shard hop.
        self.front_cache = ResultCache(self.config.cache_entries)
        #: Bumped by :meth:`forget_front_cache`; a reply fills the tier
        #: only if no fleet change happened while it was in flight.
        self._front_generation = 0

    def emit(self, event: Event) -> None:
        """Publish an obs event when a bus is attached and listening."""
        bus = self.bus
        if bus is not None and bus.wants(type(event)):
            bus.emit(event)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Spawn the shards, bind the front-end, return ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        self._config_fp = ProcessorConfig.scaled().fingerprint()

        # Partition the prewarm working set the same way requests will
        # route, so each shard warms exactly the traces it will serve.
        prewarm_by_shard: Dict[str, List[Tuple[str, int, int]]] = {
            name: [] for name in self.ring.shards()
        }
        for workload, records, seed in self.config.prewarm:
            key = routing_key(workload, records, seed, self._config_fp)
            prewarm_by_shard[self.ring.route(key)].append((workload, records, seed))

        shard_configs = {
            index: dataclasses.replace(
                self.config,
                host="127.0.0.1",
                port=0,
                shard_index=index,
                prewarm=tuple(prewarm_by_shard[f"shard-{index}"]),
            )
            for index in range(self.workers)
        }
        results = await asyncio.gather(
            *(
                self.supervisor.spawn_shard(index, shard_config)
                for index, shard_config in shard_configs.items()
            ),
            return_exceptions=True,
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            for r in results:
                if isinstance(r, ShardInfo) and r.process.is_alive():
                    r.process.terminate()
            raise failures[0]
        for shard in results:
            assert isinstance(shard, ShardInfo)
            self.shards.append(shard)
            self._by_name[shard.name] = shard
        self.shards.sort(key=lambda s: s.index)

        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._started_at = time.monotonic()
        self.metrics.shards.set(float(len(self.shards)))
        self.supervisor.start()
        log.info(
            "sharded service listening on %s:%d over %d shard(s): %s",
            self.address[0],
            self.address[1],
            len(self.shards),
            ", ".join(f"{s.name}=pid{s.pid}:{s.port}" for s in self.shards),
        )
        return self.address

    async def run(self, install_signal_handlers: bool = False) -> None:
        """Serve until drained, then wind the whole fleet down."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.begin_drain)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        assert self._drain_requested is not None
        await self._drain_requested.wait()

        # In-flight proxied requests finish within the grace period.
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._busy_handlers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

        # Stop the supervisor first: no probe, respawn or resize may
        # race the fleet teardown below.
        await self.supervisor.stop()
        await self._collect_final_telemetry()
        await self._shutdown_shards()
        for writer in list(self._writers):
            writer.close()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        self._join_shards()
        log.info("sharded service drained and stopped")

    def begin_drain(self) -> None:
        """Stop admission; in-flight requests and the fleet still drain."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._drain_requested is not None:
            self._drain_requested.set()
        log.info("sharded service draining (no new requests admitted)")

    def begin_drain_threadsafe(self) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self.begin_drain)
        except RuntimeError:
            pass

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Front-end memory tier
    # ------------------------------------------------------------------
    def forget_front_cache(self) -> None:
        """Empty the front-end tier after a fleet change (respawn, retire,
        resize): the next repeat of every key reaches its current owner."""
        self.front_cache.clear()
        self._front_generation += 1

    def _front_hit(
        self, key: tuple, owner: ShardInfo, ctx: Optional[TraceContext]
    ) -> Optional[SimulationResult]:
        """The front-end tier's result for ``key``, answered on behalf of
        its ``owner`` shard, or None; a traced hit records
        ``cache:lookup`` (``at=front``) under ``ctx``.

        A dead owner gets no answers on its behalf, even before the
        supervisor has noticed the death: the request takes the proxied
        path, which reports the failure and answers a retryable
        ``queue_full`` until the replacement is up.
        """
        if not owner.process.is_alive():
            return None
        started_us = wall_us()
        hit = self.front_cache.get(key)
        if hit is None:
            return None
        self.metrics.front_hits.inc()
        if ctx is not None:
            self.recorder.record_manual(
                "cache:lookup", ctx, started_us, wall_us() - started_us,
                hit=True, at="front",
            )
        return hit

    def _front_fill(self, key: tuple, frame: Dict[str, Any], generation: int) -> None:
        """Remember a shard's cache-hit reply, unless the fleet changed
        while it was in flight.

        Only a reply the owner answered from its own cache fills the
        tier: a key asked for a second time is proven hot, so a one-off
        miss never takes a slot in the bounded tier (a sweep's cold pass
        would otherwise flush it), and the front-end's first answer for
        a key always comes after its owner has served that key itself.
        """
        if not frame.get("cached") or generation != self._front_generation:
            return
        self.front_cache.put(key, SimulationResult.from_snapshot(frame["result"]))

    # ------------------------------------------------------------------
    # Shard links
    # ------------------------------------------------------------------
    async def _shard_roundtrip(self, shard: ShardInfo, payload: bytes) -> bytes:
        """One framed request/response against ``shard``.

        Pooled connections are reused.  *Any* write/read failure — a
        stale idle socket, the shard mid-restart, even a fresh connect
        refused — invalidates the whole pool for that shard and is
        retried once on a brand-new connection, re-reading
        ``shard.port`` (a respawned shard listens on a new ephemeral
        port).  ``inflight`` brackets the round-trip so a drain-aware
        rebalance knows when a departing shard has gone quiet.
        """
        shard.inflight += 1
        last_error: Optional[BaseException] = None
        try:
            for attempt in (0, 1):
                if attempt == 0 and shard.idle:
                    reader, writer = shard.idle.pop()
                else:
                    try:
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", shard.port, limit=protocol.MAX_FRAME_BYTES
                        )
                    except (OSError, ConnectionError) as exc:
                        last_error = exc
                        drop_idle_links(shard)
                        continue
                try:
                    writer.write(payload)
                    await writer.drain()
                    line = await reader.readline()
                    if not line:
                        raise ConnectionError(f"{shard.name} closed the connection")
                except (OSError, ConnectionError) as exc:
                    last_error = exc
                    writer.close()
                    # The pool points at the same (possibly dead)
                    # process; a retry must start from clean sockets.
                    drop_idle_links(shard)
                    continue
                shard.idle.append((reader, writer))
                return line
            assert last_error is not None
            raise last_error
        finally:
            shard.inflight -= 1

    async def _close_links(self) -> None:
        for shard in self.shards:
            while shard.idle:
                _reader, writer = shard.idle.pop()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    def _control_frame(self, request_type: str, **params: Any) -> bytes:
        frame: Dict[str, Any] = {
            "v": protocol.PROTOCOL_VERSION,
            "id": f"router-{request_type}",
            "type": request_type,
        }
        if params:
            frame["params"] = params
        return protocol.encode_frame(frame)

    async def _shard_control(
        self, shard: ShardInfo, request_type: str, **params: Any
    ) -> Optional[Dict[str, Any]]:
        """A control request's result payload, or None when unreachable."""
        try:
            line = await self._shard_roundtrip(
                shard, self._control_frame(request_type, **params)
            )
            frame = protocol.decode_frame(line)
        except (OSError, ConnectionError, ProtocolError) as exc:
            log.warning("%s %s failed: %s", shard.name, request_type, exc)
            return None
        if not frame.get("ok"):
            log.warning("%s %s answered %s", shard.name, request_type, frame.get("error"))
            return None
        return frame.get("result", {})

    async def _fan_out(
        self, request_type: str, **params: Any
    ) -> List[Optional[Dict[str, Any]]]:
        """One control request against every shard, concurrently."""
        return list(
            await asyncio.gather(
                *(self._shard_control(s, request_type, **params) for s in self.shards)
            )
        )

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
                    break
                self._busy_handlers += 1
                try:
                    response = await self._handle_frame(line, writer)
                finally:
                    self._busy_handlers -= 1
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Drain closes connections out from under blocked readlines;
            # a cancelled handler is normal shutdown, not an error.
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
    ) -> bytes:
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            request_id = str(exc.details.get("request_id", ""))
            details = {k: v for k, v in exc.details.items() if k != "request_id"}
            return protocol.encode_frame(
                protocol.error_response(request_id, exc.code, exc.message, **details)
            )
        if request.type == "simulate":
            return await self._proxy_simulate(request, line)
        if request.type == "sweep":
            return await self._proxy_sweep(request, writer)
        if request.type == "ping":
            payload: Dict[str, Any] = self._ping_payload()
        elif request.type == "stats":
            payload = await self._stats_payload()
        elif request.type == "metrics":
            payload = await self._metrics_payload()
        elif request.type == "telemetry":
            payload = await self._telemetry_payload(request.params)
        elif request.type == "admin":
            return await self._handle_admin(request)
        else:  # shutdown
            self.begin_drain()
            payload = {"draining": True}
        return protocol.encode_frame(protocol.ok_response(request.id, payload))

    async def _handle_admin(self, request: Request) -> bytes:
        """Fleet control (protocol v5): currently ``resize``."""
        if self._draining:
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.SHUTTING_DOWN, "service is draining"
                )
            )
        command = request.params.get("command")
        if command != "resize":
            return protocol.encode_frame(
                protocol.error_response(
                    request.id,
                    ErrorCode.INVALID_REQUEST,
                    f"unknown admin command {command!r}",
                    known=["resize"],
                )
            )
        workers = request.params.get("workers")
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            return protocol.encode_frame(
                protocol.error_response(
                    request.id,
                    ErrorCode.INVALID_REQUEST,
                    "resize requires a positive integer 'workers'",
                )
            )
        try:
            result = await self.supervisor.resize(workers)
        except Exception as exc:  # pragma: no cover - spawn failure
            log.exception("resize to %d workers failed", workers)
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.INTERNAL, f"resize failed: {exc}"
                )
            )
        return protocol.encode_frame(protocol.ok_response(request.id, result))

    async def _proxy_simulate(self, request: Request, line: bytes) -> bytes:
        """Answer one simulate from the front-end tier, or route it to its
        shard and relay the answer."""
        received = time.monotonic()
        if self._draining:
            return protocol.encode_frame(
                protocol.error_response(
                    request.id,
                    ErrorCode.SHUTTING_DOWN,
                    "service is draining; not admitting",
                )
            )
        try:
            params = SimulateParams.from_dict(request.params)
            self._validate_names(params)
        except ProtocolError as exc:
            return protocol.encode_frame(
                protocol.error_response(request.id, exc.code, exc.message, **exc.details)
            )
        from ..spec.wire import config_from_wire, extended_cache_key

        config_fp = self._config_fp
        if params.config is not None:
            # v4 extended simulate: route by the job's *built* config, so
            # every run of one (trace, config) cell lands on one shard.
            try:
                config_fp = config_from_wire(params.config).fingerprint()
            except Exception as exc:
                return protocol.encode_frame(
                    protocol.error_response(
                        request.id, ErrorCode.INVALID_REQUEST, f"bad config payload: {exc}"
                    )
                )
        key = routing_key(params.workload, params.records, params.seed, config_fp)
        try:
            shard = self._by_name[self.ring.route(key)]
        except (KeyError, LookupError):
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.INTERNAL, "no live shards behind the ring"
                )
            )
        if shard.state in (ShardState.RESPAWNING, ShardState.DEAD):
            # Fail fast and retryable: the shard is being replaced, and
            # its key range will be served again within a heartbeat or
            # two — the SDK's queue_full retry absorbs the window.
            return protocol.encode_frame(
                protocol.error_response(
                    request.id,
                    ErrorCode.QUEUE_FULL,
                    f"{shard.name} is being replaced; retry shortly",
                    retry_after_s=self.supervisor.retry_after_s(),
                )
            )
        front_key = extended_cache_key(params, config_fp)
        ctx = TraceContext.from_wire(request.trace)
        span = None
        payload = line
        if ctx is not None:
            # Re-parent the shard's spans under a routing span, so the
            # client's trace shows front-end → shard → pool worker.
            span = self.recorder.span(
                "router:route",
                parent=ctx,
                shard=shard.index,
                shard_pid=shard.pid,
                request_id=request.id,
            )
            span.__enter__()
        try:
            return await self._route_simulate(
                request, params, payload, shard, front_key, span, received
            )
        finally:
            if span is not None:
                span.__exit__(None)

    async def _route_simulate(
        self,
        request: Request,
        params: SimulateParams,
        payload: bytes,
        shard: ShardInfo,
        front_key: tuple,
        span: Optional[Any],
        received: float,
    ) -> bytes:
        """The front-end tier's answer, else one shard round-trip."""
        if params.use_cache:
            hit = self._front_hit(
                front_key, shard, span.context if span is not None else None
            )
            if hit is not None:
                frame = protocol.ok_response(
                    request.id,
                    hit.snapshot(),
                    cached=True,
                    elapsed_ms=(time.monotonic() - received) * 1000.0,
                )
                frame["shard"] = {"index": shard.index, "pid": shard.pid}
                return protocol.encode_frame(frame)
        self.metrics.count_route(shard.name)
        if span is not None:
            forwarded = request.to_dict()
            forwarded["trace"] = span.context.to_wire()
            payload = protocol.encode_frame(forwarded)
        generation = self._front_generation
        started = time.monotonic()
        try:
            answer = await self._shard_roundtrip(shard, payload)
        except (OSError, ConnectionError) as exc:
            self.metrics.errors.inc()
            if span is not None:
                span.set(error=type(exc).__name__)
            self.supervisor.note_failure(shard, str(exc))
            if self.supervisor.enabled:
                # Transport failure on a supervised fleet is transient
                # by construction (the supervisor replaces the shard);
                # surface it as retryable backpressure, not a hard 500.
                return protocol.encode_frame(
                    protocol.error_response(
                        request.id,
                        ErrorCode.QUEUE_FULL,
                        f"{shard.name} (pid {shard.pid}) unreachable: {exc}; "
                        "being replaced",
                        retry_after_s=self.supervisor.retry_after_s(),
                    )
                )
            return protocol.encode_frame(
                protocol.error_response(
                    request.id,
                    ErrorCode.INTERNAL,
                    f"{shard.name} (pid {shard.pid}) unreachable: {exc}",
                )
            )
        self.metrics.forward_ms.observe((time.monotonic() - started) * 1000.0)
        try:
            frame = protocol.decode_frame(answer)
        except ProtocolError:
            self.metrics.errors.inc()
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.INTERNAL, f"{shard.name} answered garbage"
                )
            )
        self._front_fill(front_key, frame, generation)
        frame["shard"] = {"index": shard.index, "pid": shard.pid}
        return protocol.encode_frame(frame)

    #: Per-shard in-flight bound for sweep fan-out; keeps a big sweep
    #: from monopolising a shard's admission queue (plain simulates keep
    #: getting through) while still saturating its micro-batcher.
    SWEEP_SHARD_INFLIGHT = 16
    #: Bounded retries when a shard answers ``queue_full`` for a sweep
    #: job (each waits the shard's ``retry_after_s`` hint first).
    SWEEP_RETRIES = 50

    async def _proxy_sweep(
        self, request: Request, writer: Optional[asyncio.StreamWriter]
    ) -> bytes:
        """Expand a sweep spec and fan its jobs out across the shards.

        The router — not the shards — expands the spec: each shard only
        ever sees plain (extended) simulate frames, routed by
        ``routing_key(workload, records, seed, built-config
        fingerprint)`` so a sweep enjoys the same cache/trace locality
        as individual requests.  A job whose result the front-end tier
        holds is answered here, stamped with its owning shard.  Per-job
        result frames are streamed back to the client as they settle,
        then a terminal done frame.
        """
        from ..spec import SpecError, SweepSpec, expand
        from ..spec.wire import extended_cache_key, simulate_params_for

        if writer is None:  # pragma: no cover - defensive
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.INVALID_REQUEST, "sweep requires a streaming connection"
                )
            )
        if self._draining:
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.SHUTTING_DOWN, "service is draining; not admitting"
                )
            )
        use_cache = request.params.get("use_cache", True)
        try:
            spec_payload = request.params.get("spec")
            if not isinstance(spec_payload, dict):
                raise ProtocolError(ErrorCode.INVALID_REQUEST, "sweep requires a 'spec' object")
            spec = SweepSpec.from_dict(spec_payload)
        except SpecError as exc:
            return protocol.encode_frame(
                protocol.error_response(
                    request.id, ErrorCode.INVALID_REQUEST, str(exc),
                    path=getattr(exc, "path", ""),
                )
            )
        except ProtocolError as exc:
            return protocol.encode_frame(
                protocol.error_response(request.id, exc.code, exc.message, **exc.details)
            )

        started = time.monotonic()
        plan = expand(spec)
        fp_by_label = {cfg.label: cfg.build().fingerprint() for cfg in spec.configs}
        write_lock = asyncio.Lock()

        def shard_limit() -> asyncio.Semaphore:
            return asyncio.Semaphore(
                max(1, min(self.SWEEP_SHARD_INFLIGHT, self.config.queue_size // 2))
            )

        limits = {shard.name: shard_limit() for shard in self.shards}
        errors = 0
        ctx = TraceContext.from_wire(request.trace)

        async def run_job(meta: Any) -> None:
            nonlocal errors
            params = dict(simulate_params_for(meta))
            params["use_cache"] = bool(use_cache)
            config_fp = fp_by_label[meta.config_label]
            key = routing_key(meta.workload, meta.records, meta.seed, config_fp)
            front_key = extended_cache_key(SimulateParams.from_dict(params), config_fp)
            job_frame: Dict[str, Any] = {
                "v": protocol.PROTOCOL_VERSION,
                "id": f"{request.id}#{meta.index}",
                "type": "simulate",
                "params": params,
            }
            if request.trace:
                job_frame["trace"] = request.trace
            payload = protocol.encode_frame(job_frame)
            frame: Optional[Dict[str, Any]] = None
            shard: Optional[ShardInfo] = None
            routed_to: Optional[str] = None
            for _attempt in range(self.SWEEP_RETRIES):
                # Re-route every attempt: a mid-sweep respawn keeps the
                # owner but changes its port, and a mid-sweep resize may
                # hand the key to a different shard entirely.
                try:
                    shard = self._by_name.get(self.ring.route(key))
                except LookupError:
                    shard = None
                if shard is None or shard.state in (
                    ShardState.RESPAWNING, ShardState.DEAD
                ):
                    await asyncio.sleep(self.supervisor.retry_after_s())
                    continue
                if use_cache:
                    hit = self._front_hit(front_key, shard, ctx)
                    if hit is not None:
                        frame = protocol.ok_response(request.id, hit.snapshot(), cached=True)
                        break
                if routed_to != shard.name:
                    self.metrics.count_route(shard.name)
                    routed_to = shard.name
                retry_sleep: Optional[float] = None
                generation = self._front_generation
                async with limits.setdefault(shard.name, shard_limit()):
                    try:
                        answer = await self._shard_roundtrip(shard, payload)
                        frame = protocol.decode_frame(answer)
                        self._front_fill(front_key, frame, generation)
                    except ProtocolError as exc:
                        self.metrics.errors.inc()
                        frame = protocol.error_response(
                            request.id,
                            ErrorCode.INTERNAL,
                            f"{shard.name} (pid {shard.pid}): {exc}",
                        )
                        break
                    except (OSError, ConnectionError) as exc:
                        self.metrics.errors.inc()
                        self.supervisor.note_failure(shard, str(exc))
                        if self.supervisor.enabled:
                            # Transient: the supervisor will replace the
                            # shard; hold the job and try again.
                            frame = None
                            retry_sleep = self.supervisor.retry_after_s()
                        else:
                            frame = protocol.error_response(
                                request.id,
                                ErrorCode.INTERNAL,
                                f"{shard.name} (pid {shard.pid}): {exc}",
                            )
                            break
                if retry_sleep is not None:
                    await asyncio.sleep(retry_sleep)
                    continue
                assert frame is not None
                error = frame.get("error") or {}
                if not frame.get("ok") and error.get("code") == ErrorCode.QUEUE_FULL.value:
                    frame = None
                    await asyncio.sleep(
                        max(0.01, float(error.get("retry_after_s", 0.05)))
                    )
                    continue
                break
            if frame is None:
                frame = protocol.error_response(
                    request.id,
                    ErrorCode.INTERNAL,
                    f"sweep job {meta.index} still unroutable after "
                    f"{self.SWEEP_RETRIES} attempts",
                )
            frame["id"] = request.id
            if shard is not None:
                frame["shard"] = {"index": shard.index, "pid": shard.pid}
            frame["job"] = {
                "index": meta.index,
                "kind": meta.kind,
                "workload": meta.workload,
                "seed": meta.seed,
                "records": meta.records,
                "n_threads": meta.n_threads,
                "label": meta.label,
                "config": meta.config_label,
            }
            if not frame.get("ok"):
                errors += 1
            async with write_lock:
                writer.write(protocol.encode_frame(frame))
                await writer.drain()

        await asyncio.gather(*(run_job(meta) for meta in plan.meta))
        terminal = protocol.ok_response(
            request.id,
            {
                "name": spec.name,
                "fingerprint": spec.fingerprint(),
                "jobs": len(plan.meta),
                "streamed": len(plan.meta),
                "errors": errors,
                "aborted": False,
                "elapsed_ms": (time.monotonic() - started) * 1000.0,
            },
        )
        terminal["done"] = True
        return protocol.encode_frame(terminal)

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

    # ------------------------------------------------------------------
    # Control payloads (fleet views)
    # ------------------------------------------------------------------
    def _ping_payload(self) -> Dict[str, Any]:
        return {
            "pong": True,
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "supported_versions": list(protocol.SUPPORTED_VERSIONS),
            "pid": os.getpid(),
            "sharded": True,
            "workers": len(self.shards),
            "supervised": self.supervisor.enabled,
            "heartbeat_s": self.supervisor.heartbeat_s,
            "shards": [
                {
                    "index": s.index,
                    "pid": s.pid,
                    "port": s.port,
                    "state": s.state.value,
                    "restarts": s.restarts,
                    "uptime_s": s.uptime_s,
                }
                for s in self.shards
            ],
        }

    async def _stats_payload(self) -> Dict[str, Any]:
        """The fleet aggregate plus a per-shard breakdown."""
        shard_stats = await self._fan_out("stats")
        agg = MetricsRegistry()
        sim = MetricsRegistry()
        cache = {
            "entries": 0, "hits": 0, "misses": 0, "max_entries": 0, "admission_hits": 0,
        }
        disk = {"entries": 0, "hits": 0, "spilled": 0, "quarantined": 0}
        has_disk = False
        queue = {"depth": 0, "limit": 0}
        pool = {"workers": 0, "generation": 0}
        shards: List[Dict[str, Any]] = []
        for shard, stats in zip(self.shards, shard_stats):
            if stats is None:
                shards.append(
                    {
                        "index": shard.index,
                        "pid": shard.pid,
                        "state": shard.state.value,
                        "restarts": shard.restarts,
                        "unreachable": True,
                    }
                )
                continue
            agg.merge(stats.get("metrics", {}))
            sim.merge(stats.get("simulation", {}))
            shard_cache = stats.get("cache", {})
            for field_name in ("entries", "hits", "misses", "max_entries", "admission_hits"):
                cache[field_name] += shard_cache.get(field_name, 0)
            shard_disk = shard_cache.get("disk")
            if shard_disk:
                has_disk = True
                for field_name in ("hits", "spilled", "quarantined"):
                    disk[field_name] += shard_disk.get(field_name, 0)
                # Shards share one spill directory; entries is the
                # directory's population, not a per-shard sum.
                disk["entries"] = max(disk["entries"], shard_disk.get("entries", 0))
            queue["depth"] += stats.get("queue", {}).get("depth", 0)
            queue["limit"] += stats.get("queue", {}).get("limit", 0)
            pool["workers"] += stats.get("pool", {}).get("workers", 0)
            pool["generation"] = max(
                pool["generation"], stats.get("pool", {}).get("generation", 0)
            )
            shard_metrics = stats.get("metrics", {})
            shards.append(
                {
                    "index": shard.index,
                    "pid": shard.pid,
                    "state": shard.state.value,
                    "restarts": shard.restarts,
                    "uptime_s": stats.get("uptime_s", 0.0),
                    "requests": shard_metrics.get("requests_received", {}).get(
                        "value", 0
                    ),
                    "routed": self.registry.to_dict()
                    .get(f"routed.{shard.name}", {})
                    .get("value", 0),
                    "cache": shard_cache,
                    "queue": stats.get("queue", {}),
                    "latency_ms": stats.get("latency_ms", {}),
                }
            )
        for _index, payload in self._retired:
            # Shards removed by a live resize keep counting in the
            # fleet aggregate; their processes are gone but their work
            # happened.
            agg.merge(payload.get("metrics", {}))
            sim.merge(payload.get("simulation", {}))
        if has_disk:
            cache["disk"] = disk
        # Front-end hits never reach a shard; they count as fleet hits.
        front_hits = self.metrics.front_hits.value
        cache["hits"] += front_hits
        cache["front"] = {
            "entries": len(self.front_cache),
            "max_entries": self.front_cache.max_entries,
            "hits": front_hits,
        }
        latency = {"p50": 0.0, "p90": 0.0, "p99": 0.0, "count": 0}
        if "request_latency_ms" in agg:
            merged = agg["request_latency_ms"]
            latency = {
                "p50": merged.quantile(0.5),
                "p90": merged.quantile(0.9),
                "p99": merged.quantile(0.99),
                "count": merged.total,
            }
        return {
            "pid": os.getpid(),
            "sharded": True,
            "workers": len(self.shards),
            "uptime_s": time.monotonic() - self._started_at,
            "draining": self._draining,
            "queue": queue,
            "cache": cache,
            "pool": pool,
            "latency_ms": latency,
            "metrics": agg.to_dict(),
            "simulation": sim.to_dict(),
            "router": self.registry.to_dict(),
            "shards": shards,
        }

    async def _live_merged_metrics(self) -> Dict[str, Any]:
        """Aggregate + per-shard-prefixed snapshot of the whole fleet."""
        shard_stats = await self._fan_out("stats")
        agg = MetricsRegistry()
        for shard, stats in zip(self.shards, shard_stats):
            if stats is None:
                continue
            agg.merge(stats.get("metrics", {}))
            agg.merge(stats.get("simulation", {}))
            agg.merge(stats.get("metrics", {}), prefix=f"shard{shard.index}.")
        for index, payload in self._retired:
            agg.merge(payload.get("metrics", {}))
            agg.merge(payload.get("simulation", {}))
            agg.merge(payload.get("metrics", {}), prefix=f"shard{index}.")
        snapshot = agg.to_dict()
        snapshot.update(self.registry.to_dict())
        return snapshot

    async def _metrics_payload(self) -> Dict[str, Any]:
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": render_prometheus(await self._live_merged_metrics()),
        }

    async def _telemetry_payload(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Every process's spans plus the aggregated registries."""
        drain = bool(params.get("drain")) if isinstance(params, dict) else False
        shard_payloads = await self._fan_out("telemetry", drain=drain)
        spans = self.recorder.drain() if drain else self.recorder.snapshot()
        dropped = 0
        agg = MetricsRegistry()
        sim = MetricsRegistry()
        for shard, payload in zip(self.shards, shard_payloads):
            if payload is None:
                continue
            spans.extend(payload.get("spans", ()))
            dropped += int(payload.get("dropped_spans", 0))
            agg.merge(payload.get("metrics", {}))
            agg.merge(payload.get("metrics", {}), prefix=f"shard{shard.index}.")
            sim.merge(payload.get("simulation", {}))
        for index, payload in self._retired:
            agg.merge(payload.get("metrics", {}))
            agg.merge(payload.get("metrics", {}), prefix=f"shard{index}.")
            sim.merge(payload.get("simulation", {}))
        cap = SimulationService.TELEMETRY_SPAN_CAP
        if len(spans) > cap:
            dropped += len(spans) - cap
            spans = spans[-cap:]
        snapshot = agg.to_dict()
        snapshot.update(self.registry.to_dict())
        return {
            "pid": os.getpid(),
            "sharded": True,
            "shard_index": None,
            "spans": spans,
            "dropped_spans": dropped,
            "metrics": snapshot,
            "simulation": sim.to_dict(),
        }

    # ------------------------------------------------------------------
    # Drain plumbing
    # ------------------------------------------------------------------
    async def _collect_final_telemetry(self) -> None:
        """Pull every shard's spans/metrics before shutting the fleet down."""
        shard_payloads = await self._fan_out("telemetry", drain=True)
        agg = MetricsRegistry()
        sim = MetricsRegistry()
        for shard, payload in zip(self.shards, shard_payloads):
            if payload is None:
                continue
            self.recorder.extend(payload.get("spans", ()))
            agg.merge(payload.get("metrics", {}))
            agg.merge(payload.get("metrics", {}), prefix=f"shard{shard.index}.")
            sim.merge(payload.get("simulation", {}))
        for index, payload in self._retired:
            # Spans were absorbed at retirement; only the registries
            # still need to fold into the final fleet snapshot.
            agg.merge(payload.get("metrics", {}))
            agg.merge(payload.get("metrics", {}), prefix=f"shard{index}.")
            sim.merge(payload.get("simulation", {}))
        snapshot = agg.to_dict()
        snapshot.update(sim.to_dict())
        snapshot.update(self.registry.to_dict())
        self._final_metrics = snapshot

    async def _shutdown_shards(self) -> None:
        await self._fan_out("shutdown")
        await self._close_links()

    def _join_shards(self) -> None:
        deadline = time.monotonic() + self.config.drain_timeout_s
        for shard in self.shards:
            shard.process.join(max(0.1, deadline - time.monotonic()))
            if shard.process.is_alive():  # pragma: no cover - drain wedged
                log.warning("%s did not drain; terminating", shard.name)
                shard.process.terminate()
                shard.process.join(5.0)

    def merged_metrics(self) -> Dict[str, Any]:
        """The fleet-wide registry snapshot (frozen at drain).

        Before the drain has run (or if every shard was unreachable)
        this is the router's own instruments only.
        """
        if self._final_metrics is not None:
            return dict(self._final_metrics)
        return self.registry.to_dict()
