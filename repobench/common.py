"""Helpers shared by the benchmark's workloads.

Paths are resolved from this file, so the benchmark runs from any copy
of the repository: ``<root>/repobench`` holds the benchmark and
``<root>/src`` the program it builds on.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ledger import LEDGER_ENV

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launcher.py"
GOLDENS = ROOT / "tests" / "data" / "goldens.json"

#: How long a server may take to print its listening line.
BOOT_TIMEOUT_S = 90.0
#: How long a server may take to drain after SIGTERM.
STOP_TIMEOUT_S = 30.0


class BenchFailure(Exception):
    """A run that must end without a result line (non-zero exit)."""


@dataclass
class Context:
    """What every workload receives from ``run.py``."""

    seed: int
    seconds: float
    trace: bool
    run_dir: Path
    ledger: Optional[object] = None
    #: Wall-clock intervals whose spans count toward per-layer metrics.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    _dirs: int = 0

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory inside the run directory."""
        self._dirs += 1
        path = self.run_dir / f"{self._dirs:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def env(self, trace_cache: Path) -> Dict[str, str]:
        """Environment for a child process: no inherited ``REPRO_*``,
        a private trace cache, the source tree on the path."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_TRACE_CACHE"] = str(trace_cache)
        env["PYTHONPATH"] = str(SRC)
        env.pop(LEDGER_ENV, None)
        if self.trace:
            env[LEDGER_ENV] = str(self.ledger_dir)
        return env

    @property
    def ledger_dir(self) -> Path:
        path = self.run_dir / "ledger"
        path.mkdir(exist_ok=True)
        return path


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Per-layer figures only the workload can compute (client-side).
    layer_extras: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def check_tree() -> None:
    """Refuse to run without the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchFailure(f"no program sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def run_directory() -> Iterator[Path]:
    """A private run directory inside the checkout, removed afterwards."""
    path = ROOT / ".repobench" / f"run-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def host_probe_ms() -> float:
    """A fixed pure-Python loop, timed: host speed apart from the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000.0


def median(values: Sequence[float], *, beyond: int = 10, what: str = "") -> float:
    """The median, refusing a sample with fewer than ``beyond`` values
    on either side of it."""
    if len(values) < 2 * beyond + 1:
        raise BenchFailure(
            f"{what or 'sample'}: {len(values)} values, need {2 * beyond + 1} "
            f"for a median with {beyond} beyond it"
        )
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _children(pid: int) -> List[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # ppid is the second field after the parenthesised command name
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def _descendants(pid: int) -> List[int]:
    out: List[int] = []
    todo = _children(pid)
    while todo:
        child = todo.pop()
        out.append(child)
        todo.extend(_children(child))
    return out


def _alive(pid: int) -> bool:
    """Running and not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def tree_hwm_mb() -> float:
    """Peak resident set (VmHWM) summed over this process and every
    process under it: the servers, front-ends and shards it started."""
    total_kb = 0
    for pid in [os.getpid(), *_descendants(os.getpid())]:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``serve`` process started through the benchmark's launcher."""

    def __init__(self, args: Sequence[str], env: Dict[str, str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args],
            env=env,
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port = self._wait_listening()

    def _pump(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise BenchFailure("server did not report listening in time") from None
            if line is None:
                self.process.wait()
                raise BenchFailure(f"server exited during boot (rc={self.process.returncode})")
            if "listening on" in line:
                return int(line.strip().rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Drain through SIGTERM, as an operator would, and wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            rc = self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchFailure("server did not drain after SIGTERM") from None
        self._reader.join(timeout=5.0)
        if rc != 0:
            raise BenchFailure(f"server exited with rc={rc}")

    def kill(self) -> None:
        """SIGKILL the server and every process under it (a front-end's
        shards would outlive it otherwise), and wait for them to end."""
        orphans = _descendants(self.pid)
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pid in orphans:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in orphans) and time.monotonic() < deadline:
            time.sleep(0.05)
        self._reader.join(timeout=5.0)


@contextlib.contextmanager
def served(args: Sequence[str], env: Dict[str, str]) -> Iterator[Server]:
    """A server that is stopped cleanly on success and killed on error."""
    server = Server(args, env)
    try:
        yield server
    except BaseException:
        server.kill()
        raise
    server.stop()


def ensure_equal(got: dict, want: dict, what: str) -> None:
    if got != want:
        diff = sorted(
            k for k in set(got) | set(want) if got.get(k) != want.get(k)
        )
        raise BenchFailure(f"{what}: result differs from the reference in {diff}")
