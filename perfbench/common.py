"""Shared pieces of the benchmark: statistics, host facts, server processes, HTTP.

Nothing here imports the program under test, so a checkout without
``src/repro`` still gets as far as the import check in ``run.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# -- results -------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run produced: counts, metrics and report lines."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked request; keep the first few failures for the report."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def answer_ok(status: int, response, request_id, expected: list[float]) -> bool:
    """A 200 answer that echoes *request_id* and equals *expected* bit for bit."""
    return (
        status == 200
        and isinstance(response, dict)
        and response.get("ok") is True
        and response.get("id") == request_id
        and response.get("results") == expected
    )


# -- statistics ---------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def closed_loop(ask, seconds: float) -> tuple[list[float], float]:
    """Call *ask* back to back for *seconds*; its latencies and the elapsed time."""
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        latencies.append(ask())
    return latencies, time.perf_counter() - start


# -- host facts ------------------------------------------------------------------------


def calibration_slice(cpu: int | None = None) -> float:
    """Milliseconds for a fixed pure-Python loop: how fast the host runs now.

    With *cpu*, the loop runs pinned to that CPU (the one the measured
    server is pinned to); otherwise wherever this thread runs.
    """
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += (i * i) % 7
        return (time.perf_counter() - start) * 1000.0
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)


def calibrate() -> float:
    """Median of five calibration slices: host drift between runs."""
    return statistics.median(calibration_slice() for _ in range(5))


#: The calibration slice's milliseconds on the reference host: timed
#: metrics are reported at this host speed (see :class:`Timer`).
REFERENCE_SLICE_MS = 30.0


class Timer:
    """Wall time reported at the reference host speed.

    The host's speed drifts by a quarter and more within minutes, while a
    single calibration slice jitters by a fifth.  Time is cut into
    segments (a setup step, one request, or one round of requests) and a
    calibration slice runs before the first segment and after each one,
    while no request is in flight.  A segment's latencies and duration are
    scaled by ``REFERENCE_SLICE_MS`` over the median of the slices around
    it: its two bracketing slices and up to two more on each side.  The
    slices themselves are not counted.
    """

    def __init__(self, cpu: int | None = None):
        self._cpu = cpu
        self.slices: list[float] = []
        self.segments: list[tuple[list[float], float]] = []
        self._calibrate()

    def _calibrate(self) -> None:
        self.slices.append(calibration_slice(self._cpu))
        self._mark = time.perf_counter()

    def segment(self, latencies: list[float] | None = None) -> None:
        """Close the segment that began after the last slice."""
        self.segments.append((latencies or [], time.perf_counter() - self._mark))
        self._calibrate()

    @property
    def raw(self) -> list[float]:
        return [latency for latencies, _ in self.segments for latency in latencies]

    def _scaled(self) -> tuple[list[float], float]:
        """Scaled latencies and scaled busy time of every segment."""
        latencies: list[float] = []
        busy = 0.0
        for index, (raw, duration) in enumerate(self.segments):
            # Segment i lies between slices i and i + 1.
            factor = REFERENCE_SLICE_MS / median(self.slices[max(0, index - 2) : index + 4])
            latencies += [latency * factor for latency in raw]
            busy += duration * factor
        return latencies, busy

    def _slices_line(self) -> str:
        return f"calibration slices: median {median(self.slices):.2f} ms of {len(self.slices)}"

    def put_setup(self, out: Outcome) -> None:
        out.put("setup_s", self._scaled()[1], "s")
        durations = [duration for _, duration in self.segments]
        steps = ", ".join(f"{duration:.2f}" for duration in durations[:3])
        out.report.append(
            f"setup: raw {sum(durations):.2f} s in {len(durations)} steps "
            f"({steps}, ...); {self._slices_line()}"
        )

    def put_requests(self, out: Outcome) -> None:
        """``p50_ms`` and ``rps`` at the reference speed, the raw ones in the report."""
        latencies, scaled_busy = self._scaled()
        raw = self.raw
        busy = sum(duration for _, duration in self.segments)
        out.put("p50_ms", median(latencies) * 1000.0, "ms")
        out.put("rps", len(latencies) / scaled_busy, "1/s")
        out.report.append(
            f"timed: {len(raw)} requests in {busy:.2f} s; raw p50 {median(raw) * 1000.0:.2f} "
            f"ms, raw rps {len(raw) / busy:.3f}; {self._slices_line()}"
        )


def host_line() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"host: python {platform.python_version()}, numpy {numpy_version}, "
        f"nproc {os.cpu_count()}"
    )


def self_peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``) in MiB."""
    return vm_hwm_mb(os.getpid())


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _proc_stats() -> list[tuple[int, int, int]]:
    """``(pid, ppid, pgrp)`` of every live (not zombie) process in ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                text = stat.read()
        except OSError:
            continue
        fields = text[text.rindex(")") + 2 :].split()
        if fields[0] not in ("Z", "X"):
            found.append((int(entry), int(fields[1]), int(fields[2])))
    return found


def children_of(pid: int) -> list[int]:
    return [child for child, parent, _ in _proc_stats() if parent == pid]


def group_members(pgid: int) -> list[int]:
    return [pid for pid, _, group in _proc_stats() if group == pgid]


def child_env(seed: int) -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed(seed)
    return env


def hash_seed(seed: int) -> str:
    return str(seed % 4294967296)


# -- the server under test ----------------------------------------------------------------


class ServerProcess:
    """``gdatalog serve --http`` in its own process group, torn down on every path.

    With *cpu*, the server and its workers are pinned to that CPU.
    """

    def __init__(self, args: list[str], seed: int, workdir: Path, cpu: int | None = None):
        self.log_path = workdir / "server.log"
        self._log = open(self.log_path, "wb")
        allowed = os.sched_getaffinity(0)
        if cpu is not None:
            # The child inherits the affinity at fork; ours is restored below.
            os.sched_setaffinity(0, {cpu})
        try:
            self.process = self._start(args, seed)
        finally:
            os.sched_setaffinity(0, allowed)
        self.pgid = self.process.pid
        self.port = 0

    def _start(self, args: list[str], seed: int) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0", *args],
            cwd=str(ROOT),
            env=child_env(seed),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            start_new_session=True,
        )

    def wait_port(self, timeout: float = 60.0) -> int:
        """The port announced on the server's stderr (``serving on http://host:port``)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                if line.startswith("serving on http://"):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    return self.port
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited during boot:\n{text}")
            time.sleep(0.02)
        raise TimeoutError("server did not announce its port")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the front end plus its shard worker(s)."""
        pids = [self.process.pid, *children_of(self.process.pid)]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> list[int]:
        """SIGTERM the group (graceful drain), then SIGKILL; returns survivors' pids."""
        try:
            if self.process.poll() is None:
                os.killpg(self.pgid, signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
            survivors = self._wait_group_empty(10.0)
            if survivors:
                for pid in survivors:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self._wait_group_empty(10.0)
            if self.process.poll() is None:
                os.killpg(self.pgid, signal.SIGKILL)
            self.process.wait(timeout=10)
            return survivors
        finally:
            self._log.close()

    def _wait_group_empty(self, timeout: float) -> list[int]:
        deadline = time.monotonic() + timeout
        while True:
            members = group_members(self.pgid)
            if not members or time.monotonic() >= deadline:
                return members
            time.sleep(0.05)


# -- a minimal keep-alive HTTP/1.1 client ------------------------------------------------


class Connection:
    """One keep-alive connection; requests on it are serial."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 23)
        return cls(reader, writer)

    async def request(
        self, method: str, path: str, body: bytes = b"", headers: dict[str, str] | None = None
    ) -> tuple[int, bytes]:
        head = [f"{method} {path} HTTP/1.1", "Host: localhost", f"Content-Length: {len(body)}"]
        head += [f"{name}: {value}" for name, value in (headers or {}).items()]
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, (await self._reader.readexactly(length) if length else b"")

    async def post_json(self, path: str, payload: bytes, client: str) -> tuple[int, object]:
        status, body = await self.request(
            "POST", path, payload, {"Content-Type": "application/json", "X-Client-Id": client}
        )
        return status, json.loads(body) if body else None

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            connection = await Connection.open(port)
            try:
                status, _ = await connection.request("GET", "/healthz")
            finally:
                await connection.close()
            if status == 200:
                return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        await asyncio.sleep(0.05)
    raise TimeoutError("server never became healthy")


async def scrape(port: int) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """``GET /metrics`` parsed into ``{(name, sorted labels): value}``."""
    connection = await Connection.open(port)
    try:
        status, body = await connection.request("GET", "/metrics")
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples = {}
    for line in body.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, label_text = series.partition("{")
        labels = []
        for part in label_text.rstrip("}").split(","):
            if "=" in part:
                key, _, raw = part.partition("=")
                labels.append((key, raw.strip('"')))
        samples[(name, tuple(sorted(labels)))] = float(value)
    return samples


def metric_sum(samples: dict, name: str, **match: str) -> float:
    """Sum of every series of *name* whose labels include *match*."""
    total = 0.0
    for (series, labels), value in samples.items():
        if series == name and all((key, val) in labels for key, val in match.items()):
            total += value
    return total


def put_server_counters(out: Outcome, before: dict, after: dict, requests_done: int) -> None:
    """Micro-batching, admission and worker-cache counters from two ``/metrics`` scrapes."""

    def delta(name: str, **labels: str) -> float:
        return metric_sum(after, name, **labels) - metric_sum(before, name, **labels)

    batches = delta("gdatalog_microbatch_batches_total")
    batched = delta("gdatalog_microbatch_requests_total")
    out.put("server.batching.batch_size", batched / batches if batches else 0.0, "1/batch")
    out.put("server.admission.rejected", delta("gdatalog_rejected_total"), "count")
    for counter in ("hits", "misses", "evictions"):
        out.put(
            f"runtime.service.{counter}",
            delta("gdatalog_service_cache", counter=counter) / max(requests_done, 1),
            "1/req",
        )
