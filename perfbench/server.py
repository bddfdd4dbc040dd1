"""``repro serve`` as a child process: launch, readiness, memory, teardown."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceClient

#: Seconds to wait for a server to answer its first ping.
READY_TIMEOUT = 120.0
#: The CPUs this run may use, read before anything is pinned.
HOST_CPUS = frozenset(os.sched_getaffinity(0))
#: Units of the CPU times in ``/proc/<pid>/stat``.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def split_cpus() -> tuple[set[int], set[int]] | None:
    """Disjoint CPU sets for the load generator and the server, if possible.

    Keeping the two processes on their own CPUs stops the scheduler from
    moving them between "same CPU" and "different CPUs" placements, which
    otherwise flips sub-millisecond round trips between two latency modes.
    """
    cpus = sorted(HOST_CPUS)
    if len(cpus) < 2:
        return None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


def _server_cpus() -> set[int]:
    split = split_cpus()
    return set(HOST_CPUS) if split is None else split[1]


#: The CPUs ``repro serve`` processes run on.
SERVER_CPUS = _server_cpus()


class LaunchError(RuntimeError):
    """The server exited or never answered a ping."""


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


class ServerProcess:
    """One ``repro serve`` process: 2 thread shards, WAL, ``fsync=interval``.

    Metrics, 1% tracing and auditing stay at their defaults, as operators
    run the service.

    ``launch`` returns once the first ``ping`` is acked and records the
    time from spawn to that ack in :attr:`ready_seconds`.  ``kill``
    records the CPU time the process used over its life in
    :attr:`cpu_total`.  Logs go to a file beside the WAL so a full pipe
    can never stall the server.
    """

    def __init__(
        self,
        src: Path,
        wal_dir: Path,
        snapshot_interval: float = 0.0,
    ) -> None:
        self.src = src
        self.wal_dir = wal_dir
        self.port = free_port()
        self.argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(self.port),
            "--shards",
            "2",
            "--shard-backend",
            "thread",
            "--wal-dir",
            str(wal_dir),
            "--fsync",
            "interval",
        ]
        if snapshot_interval > 0:
            self.argv += ["--snapshot-interval", str(snapshot_interval)]
        self.proc: subprocess.Popen | None = None
        self.ready_seconds = float("nan")
        self.cpu_total = float("nan")

    def launch(self) -> ServerProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env.pop("REPRO_SHARD_BACKEND", None)
        log = open(self.wal_dir.with_suffix(".log"), "ab")  # noqa: SIM115
        try:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                env=env,
                preexec_fn=self._pin,
            )
        finally:
            log.close()
        deadline = started + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise LaunchError(
                    f"repro serve exited with {self.proc.returncode}; "
                    f"see {self.wal_dir.with_suffix('.log')}"
                )
            try:
                with ServiceClient(port=self.port, timeout=READY_TIMEOUT) as client:
                    client.ping()
            except OSError:
                if time.perf_counter() > deadline:
                    self.kill()
                    raise LaunchError("repro serve never answered a ping") from None
                time.sleep(0.002)
                continue
            self.ready_seconds = time.perf_counter() - started
            return self

    @staticmethod
    def _pin() -> None:
        os.sched_setaffinity(0, SERVER_CPUS)

    def client(self, binary: bool = True) -> ServiceClient:
        return ServiceClient(
            port=self.port, timeout=READY_TIMEOUT, binary="always" if binary else "never"
        )

    def cpu_seconds(self) -> float:
        """CPU time (user + system, every thread) the server has used so far."""
        assert self.proc is not None
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server and its child processes."""
        assert self.proc is not None
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def shutdown_ms(self) -> float:
        """Send ``shutdown`` and time until the process has exited."""
        assert self.proc is not None
        with self.client() as client:
            started = time.perf_counter()
            client.shutdown()
        self.proc.wait(timeout=READY_TIMEOUT)
        return (time.perf_counter() - started) * 1000.0

    def kill(self) -> None:
        """SIGKILL (a crash) and reap; idempotent.

        Reaps with ``wait4`` so that :attr:`cpu_total` gets the process's
        own account of its CPU time, to the microsecond.
        """
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            os.kill(self.proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(self.proc.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            self.proc.wait()  # already reaped elsewhere
            return
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_total = usage.ru_utime + usage.ru_stime


def _children(pid: int) -> list[int]:
    children = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            children += [int(child) for child in task.read_text().split()]
        except OSError:
            continue
    return children


def _vm_hwm_kb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0
