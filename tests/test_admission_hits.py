"""Result-cache hits answered at admission, and a clean drain.

A memory-tier hit is answered on the event loop before the request
enters the batch queue (single server), or by the front-end's own
memory tier before the shard hop (sharded tier).  Everything here is
deterministic: the ``hold_dispatch`` seam freezes the batch loop, so
"answered without the batch path" is an observable state — a hit comes
back while the dispatcher is parked — rather than a timing claim.
Every answer is checked bit for bit against ``JobSpec.run``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time

import pytest

from repro.engine.config import ProcessorConfig
from repro.parallel.jobs import JobSpec
from repro.prefetchers.registry import build_prefetcher
from repro.resilience.policy import ExecutionPolicy
from repro.service import (
    BackgroundService,
    ServiceBusyError,
    ServiceClient,
    ServiceConfig,
    ShardedService,
    protocol,
)
from repro.service.cache import ResultCache
from repro.spec import SPEC_VERSION, SweepSpec, run_spec

RECORDS = 3_000
WORKLOAD = "pointer_chase"
POLICY = ExecutionPolicy(jobs=1)


def local_snapshot(prefetcher: str = "none", seed: int = 7, records: int = RECORDS) -> dict:
    return JobSpec(
        workload=WORKLOAD,
        records=records,
        seed=seed,
        config=ProcessorConfig.scaled(),
        prefetcher=None if prefetcher == "none" else build_prefetcher(prefetcher),
        label=prefetcher,
    ).run().snapshot()


def hold_dispatch(svc: BackgroundService) -> None:
    """Freeze the batch loop from the test thread; settle before returning."""
    svc.service._loop.call_soon_threadsafe(svc.service.hold_dispatch)
    time.sleep(0.05)


def send_simulate(address, request_id: str, seed: int, **over) -> socket.socket:
    params = {"workload": WORKLOAD, "prefetcher": "none", "records": RECORDS, "seed": seed}
    params.update(over)
    sock = socket.create_connection(address, timeout=60.0)
    sock.sendall(
        protocol.encode_frame(
            {"v": 1, "id": request_id, "type": "simulate", "params": params}
        )
    )
    return sock


def read_frame(sock: socket.socket) -> dict:
    with sock.makefile("rb") as rfile:
        return json.loads(rfile.readline())


def sweep_spec(name: str = "admission") -> SweepSpec:
    return SweepSpec.from_dict(
        {
            "version": SPEC_VERSION,
            "name": name,
            "workloads": [WORKLOAD],
            "grid": {"records": RECORDS, "seeds": [1, 2]},
            "prefetchers": [
                # Overrides make the job extended (v4): keyed without a trace.
                {"name": "ebcp", "label": "d4", "overrides": {"prefetch_degree": 4}},
                # Plain shape: keyed through the trace-fingerprint memo.
                {"name": "stream", "label": "stream"},
            ],
        }
    )


class LoopErrors:
    """Collects every context the service loop's exception handler sees."""

    def __init__(self, loop) -> None:
        self.seen: list = []
        loop.set_exception_handler(lambda _loop, context: self.seen.append(context))

    def messages(self) -> list:
        return [
            f"{c.get('message')}: {c.get('exception')!r}" for c in self.seen
        ]


# ----------------------------------------------------------------------
# The memory-only probe
# ----------------------------------------------------------------------
class TestMemoryOnlyGet:
    def test_memory_miss_counts_nothing_and_skips_disk(self, tmp_path):
        result = JobSpec(
            WORKLOAD, 1_000, 7, ProcessorConfig.scaled(), None, "none"
        ).run()
        key = ResultCache.key("trace-fp", (1,), "none", None)
        ResultCache(max_entries=4, spill_dir=tmp_path).put(key, result)

        reborn = ResultCache(max_entries=4, spill_dir=tmp_path)
        assert reborn.get(key, disk=False) is None
        assert (reborn.hits, reborn.misses, reborn.disk_hits) == (0, 0, 0)
        assert len(reborn) == 0  # nothing was promoted from disk

        promoted = reborn.get(key)  # the batch path's full lookup
        assert promoted is not None and reborn.disk_hits == 1
        hit = reborn.get(key, disk=False)
        assert hit is not None and hit is not promoted
        assert hit.snapshot() == result.snapshot()
        assert reborn.hits == 1 and reborn.misses == 0


# ----------------------------------------------------------------------
# Single server
# ----------------------------------------------------------------------
class TestAdmissionHits:
    def test_hit_bypasses_a_held_and_full_queue(self):
        config = ServiceConfig(port=0, queue_size=1, max_batch=1, batch_window_s=0.001)
        with BackgroundService(config, policy=POLICY) as svc:
            with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as client:
                first = client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
                assert first.cached is False
                hold_dispatch(svc)

                hit = client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
                assert hit.cached is True
                assert client.stats()["queue"]["depth"] == 0

                # Two misses: one parks in the held batch, one fills the queue.
                sock1 = send_simulate(svc.address, "m1", seed=8)
                time.sleep(0.3)
                sock2 = send_simulate(svc.address, "m2", seed=9)
                time.sleep(0.2)
                try:
                    assert client.stats()["queue"]["depth"] == 1
                    # The queue is full, yet a hit is still answered...
                    again = client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
                    assert again.cached is True
                    assert client.stats()["queue"]["depth"] == 1
                    # ...while use_cache=False and a new miss still meet
                    # backpressure: neither takes the fast path.
                    with pytest.raises(ServiceBusyError):
                        client.simulate(
                            WORKLOAD, "none", records=RECORDS, seed=7, use_cache=False
                        )
                    with pytest.raises(ServiceBusyError):
                        client.simulate(WORKLOAD, "none", records=RECORDS, seed=10)

                    svc.service.release_dispatch_threadsafe()
                    for sock, rid, seed in ((sock1, "m1", 8), (sock2, "m2", 9)):
                        frame = read_frame(sock)
                        assert frame["ok"] is True and frame["id"] == rid
                        assert frame["cached"] is False
                        assert frame["result"] == local_snapshot(seed=seed)
                finally:
                    sock1.close()
                    sock2.close()
                stats = client.stats()
        assert stats["cache"]["admission_hits"] == 2
        assert stats["metrics"]["result_cache_admission_hits"]["value"] == 2
        for served in (first, hit, again):
            assert served.result.snapshot() == local_snapshot(seed=7)

    def test_disk_hit_takes_the_batch_path_then_admission(self, tmp_path):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "tier"))
        with BackgroundService(config, policy=POLICY) as svc:
            with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as client:
                cold = client.simulate(WORKLOAD, "ebcp", records=RECORDS, seed=7)
                assert cold.cached is False

        with BackgroundService(config, policy=POLICY) as svc:
            cache = svc.service.cache
            with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as client:
                disk = client.simulate(WORKLOAD, "ebcp", records=RECORDS, seed=7)
                assert disk.cached is True
                assert cache.disk_hits == 1
                assert svc.service.metrics.admission_hits.value == 0

                memory = client.simulate(WORKLOAD, "ebcp", records=RECORDS, seed=7)
                assert memory.cached is True
                assert cache.disk_hits == 1
                assert svc.service.metrics.admission_hits.value == 1
        expected = local_snapshot("ebcp")
        for served in (cold, disk, memory):
            assert served.result.snapshot() == expected

    def test_sweep_resubmit_completes_while_dispatch_is_held(self):
        spec = sweep_spec()
        local = run_spec(spec, policy=POLICY)
        with BackgroundService(ServiceConfig(port=0), policy=POLICY) as svc:
            with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as client:
                cold = client.sweep(spec)
                assert all(frame.cached is False for frame in cold)
                hold_dispatch(svc)
                warm = client.sweep(spec)
                svc.service.release_dispatch_threadsafe()
        assert len(warm) == len(local.results) == 6  # 2 seeds x (2 + baseline)
        assert all(frame.cached is True for frame in warm)
        assert svc.service.metrics.admission_hits.value == len(warm)
        for frames in (cold, warm):
            for frame, ours in zip(frames, local.results):
                assert frame.result.snapshot() == ours.snapshot()

    def test_traced_hit_records_admission_lookup_only(self):
        from repro.obs.tracing import SpanRecorder

        with BackgroundService(ServiceConfig(port=0), policy=POLICY) as svc:
            recorder = SpanRecorder("client")
            with ServiceClient(
                *svc.address, timeout_s=60.0, retries=0, recorder=recorder
            ) as client:
                client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
                hit = client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
            spans = svc.service.recorder.snapshot()
        assert hit.cached is True
        by_trace: dict = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], []).append(span)
        miss_spans = by_trace[recorder.spans[0]["trace_id"]]
        hit_spans = by_trace[recorder.spans[-1]["trace_id"]]

        lookups = [s for s in miss_spans if s["name"] == "cache:lookup"]
        assert [s["args"]["at"] for s in lookups] == ["batch"]
        assert {"admission", "batch"} <= {s["name"] for s in miss_spans}

        names = [s["name"] for s in hit_spans]
        assert "admission" not in names and "batch" not in names
        (lookup,) = [s for s in hit_spans if s["name"] == "cache:lookup"]
        assert lookup["args"] == {"hit": True, "at": "admission"}
        (server_span,) = [s for s in hit_spans if s["name"] == "server:simulate"]
        assert lookup["parent_id"] == server_span["span_id"]
        assert server_span["args"]["cached"] is True

    def test_fingerprint_memo_is_bounded_by_cache_entries(self):
        config = ServiceConfig(port=0, cache_entries=2)
        with BackgroundService(config, policy=POLICY) as svc:
            with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as client:
                for seed in (1, 2, 3):
                    client.simulate(WORKLOAD, "none", records=RECORDS, seed=seed)
            memo = dict(svc.service._fingerprints)
        assert list(memo) == [(WORKLOAD, RECORDS, 2), (WORKLOAD, RECORDS, 3)]

    def test_idle_persistent_client_does_not_trip_drain(self):
        svc = BackgroundService(ServiceConfig(port=0), policy=POLICY).start()
        errors = LoopErrors(svc.service._loop)
        client = ServiceClient(*svc.address, timeout_s=60.0, retries=0)
        try:
            client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
            client.simulate(WORKLOAD, "none", records=RECORDS, seed=7)
            svc.stop()  # the client stays connected and idle throughout
        finally:
            client.close()
        assert errors.messages() == []


# ----------------------------------------------------------------------
# Sharded front-end
# ----------------------------------------------------------------------
class TestFrontEndTier:
    def test_front_end_answers_repeats_until_the_fleet_changes(self, tmp_path):
        config = ServiceConfig(port=0, cache_entries=64, cache_dir=str(tmp_path / "tier"))
        service = ShardedService(config=config, policy=POLICY, workers=2, heartbeat_s=0.25)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            errors = LoopErrors(service._loop)
            idle = ServiceClient(*svc.address, timeout_s=60.0, retries=0)
            idle.ping()  # stays connected and idle until after the drain
            routed = service.metrics.routed
            with ServiceClient(*svc.address, timeout_s=60.0, retries=4) as client:
                seeds = range(4)

                def ask_all() -> dict:
                    return {
                        seed: client.simulate(WORKLOAD, "none", records=RECORDS, seed=seed)
                        for seed in seeds
                    }

                first = ask_all()
                assert all(s.cached is False for s in first.values())
                assert routed.value == 4
                # A miss does not fill the front-end tier; the owner's
                # cache hit on the first repeat does.
                assert all(s.cached is True for s in ask_all().values())
                assert routed.value == 8 and service.metrics.front_hits.value == 0

                for seed, again in ask_all().items():
                    assert again.cached is True
                    # Answered by the front-end, stamped with the owner.
                    assert again.shard == first[seed].shard
                    assert again.result.snapshot() == first[seed].result.snapshot()
                assert routed.value == 8
                assert service.metrics.front_hits.value == 4
                stats = client.stats()
                assert stats["cache"]["front"]["hits"] == 4
                assert stats["cache"]["hits"] >= 8

                client.resize(3)
                # The first repeat after a resize reaches a shard — a
                # newcomer answers from its disk-tier preload — and the
                # next is the front-end's again.
                for seed, after in ask_all().items():
                    assert after.cached is True
                    assert after.result.snapshot() == first[seed].result.snapshot()
                assert routed.value == 12
                owners = {seed: repeat.shard for seed, repeat in ask_all().items()}
                assert routed.value == 12
                assert service.metrics.front_hits.value == 8

                # Crash-respawn empties the tier too: the reborn owner
                # answers its key from the shared disk tier.
                victim = owners[0]
                (victim_process,) = [
                    s.process for s in service.shards if s.pid == victim["pid"]
                ]
                os.kill(victim["pid"], signal.SIGKILL)
                victim_process.join(30.0)
                # Dead, perhaps not yet noticed by the supervisor: the
                # front-end no longer answers on the victim's behalf.
                with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as probe:
                    try:
                        early = probe.simulate(WORKLOAD, "none", records=RECORDS, seed=0)
                    except ServiceBusyError:
                        pass  # the retryable replacement window
                    else:
                        assert early.shard["pid"] != victim["pid"]
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    rows = {r["index"]: r for r in client.ping()["shards"]}
                    row = rows[victim["index"]]
                    if row["state"] == "ready" and row["pid"] != victim["pid"]:
                        break
                    time.sleep(0.1)
                reborn = client.simulate(WORKLOAD, "none", records=RECORDS, seed=0)
                assert reborn.shard["index"] == victim["index"]
                assert reborn.shard["pid"] != victim["pid"]
                assert reborn.cached is True
        idle.close()
        assert errors.messages() == []
        for seed in seeds:
            assert first[seed].result.snapshot() == local_snapshot(seed=seed)

    def test_traced_front_hit_and_sweep_resubmit(self):
        from repro.obs.tracing import SpanRecorder

        spec = sweep_spec("front_sweep")
        local = run_spec(spec, policy=POLICY)
        config = ServiceConfig(port=0, cache_entries=64)
        service = ShardedService(config=config, policy=POLICY, workers=2)
        with BackgroundService(service=service, start_timeout_s=120.0) as svc:
            with ServiceClient(*svc.address, timeout_s=60.0, retries=0) as client:
                cold = client.sweep(spec)
                routed = service.metrics.routed.value
                shard_hits = client.sweep(spec)  # fills the front-end tier
                assert service.metrics.routed.value == 2 * routed
                warm = client.sweep(spec)
                assert service.metrics.routed.value == 2 * routed
                recorder = SpanRecorder("client")
                with ServiceClient(
                    *svc.address, timeout_s=60.0, retries=0, recorder=recorder
                ) as traced:
                    hit = traced.simulate(WORKLOAD, "stream", records=RECORDS, seed=1)
            spans = service.recorder.snapshot()
        assert all(f.cached is False for f in cold)
        assert all(f.cached is True for f in shard_hits + warm)
        assert [f.shard for f in warm] == [f.shard for f in cold]
        for frames in (cold, shard_hits, warm):
            for frame, ours in zip(frames, local.results):
                assert frame.result.snapshot() == ours.snapshot()

        # The plain-shape sweep job and a plain simulate share a key.
        assert hit.cached is True
        trace_id = recorder.spans[-1]["trace_id"]
        ours = [s for s in spans if s["trace_id"] == trace_id]
        (route,) = [s for s in ours if s["name"] == "router:route"]
        (lookup,) = [s for s in ours if s["name"] == "cache:lookup"]
        assert lookup["args"] == {"hit": True, "at": "front"}
        assert lookup["parent_id"] == route["span_id"]
        assert route["args"]["shard"] == hit.shard["index"]


# ----------------------------------------------------------------------
# The top view
# ----------------------------------------------------------------------
def test_top_shows_admission_and_front_end_hits():
    from repro.cli import _render_top

    frame = _render_top(
        {
            "cache": {
                "entries": 3, "hits": 9, "misses": 3, "admission_hits": 5,
                "front": {"entries": 2, "max_entries": 8, "hits": 4},
            },
        },
        0.0,
    )
    assert "at admission 5" in frame and "front-end 4" in frame
    assert "front-end" not in _render_top({"cache": {"admission_hits": 1}}, 0.0)

