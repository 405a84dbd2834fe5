"""Shared plumbing: server subprocesses, timing statistics, sizes, envelope.

Everything here runs in the load-generator process. Servers are real
``python -m repro.server`` / ``python -m repro.sharding`` programs,
started through :mod:`launch` so a traced run can install its shims
before the module's ``main`` runs.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Everything a run writes; the run removes its own directory when it ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKDIR = os.path.join(WORK_ROOT, str(os.getpid()))

#: Seed of the fixtures: the generated datasets and read-binding pools.
#: It is the foundry's default seed, and it is fixed, so that every run
#: serves the same data and draws from the same distribution of
#: requests; the run's ``--seed`` drives the request streams drawn
#: from it. (With 60-odd rows per relation, a dataset drawn per seed
#: moves scan sizes, and with them every timing, by a third.)
DATA_SEED = 7

#: How long a server may take to print its ``listening on`` line.
START_TIMEOUT = 30.0
#: How long a stopped server may take to exit before it is killed.
STOP_TIMEOUT = 15.0
#: How long a traced server may take to write its span file.
DUMP_TIMEOUT = 15.0


class BenchError(Exception):
    """The run could not be made: a server did not start, a connection
    hung, a trace file never came. No result is printed for it."""


class CheckFailed(Exception):
    """A correctness check of the program's outputs failed: the run's
    result is printed with ``"correct": false``."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    # Servers load cached bytecode, as an installed server does; without
    # a cache (PYTHONDONTWRITEBYTECODE) every start would compile all of
    # repro from source, and that would be most of setup_s. The first
    # start of a run fills the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORKDIR, "pycache")
    return env


class Server:
    """One server subprocess, started through the benchmark's launcher.

    *argv* is the module's own command line (``["server", PATH, ...]``
    or ``["sharding", "worker", PATH, ...]``). Its standard error goes
    to *log_path*, a file rather than a pipe nobody drains. With
    *trace_file* set the launcher installs the tracing shims;
    :meth:`trace_on` and :meth:`trace_dump` switch them on and collect
    the spans.
    """

    def __init__(self, argv: Sequence[str], log_path: str, *,
                 trace_file: Optional[str] = None,
                 constraints_of: Sequence[str] = ()):
        cmd = [sys.executable, os.path.join(HERE, "launch.py")]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        if constraints_of:
            cmd += ["--constraints-of", ",".join(constraints_of)]
        cmd += ["--", *argv]
        self.trace_file = trace_file
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log,
                env=child_env(), cwd=ROOT, text=True)
        self.address = self._await_listening()

    def _await_listening(self):
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                host, _, port = line.strip().rsplit(" ", 1)[-1].rpartition(":")
                return host, int(port)
        self.kill()
        with open(self.log_path) as log:
            raise BenchError(f"server did not start: {log.read()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """VmHWM of the live process, in MiB."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def trace_on(self) -> None:
        marker = self.trace_file + ".on"
        self.proc.send_signal(signal.SIGUSR1)
        _await_file(marker)

    def trace_dump(self) -> dict:
        self.proc.send_signal(signal.SIGUSR2)
        _await_file(self.trace_file)
        with open(self.trace_file) as fh:
            return json.load(fh)

    def stop(self) -> None:
        """Graceful shutdown (SIGTERM), escalating to SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def kill(self) -> None:
        """Crash the server: SIGKILL, no shutdown path runs."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait(STOP_TIMEOUT)
        self.proc.stdout.close()


def _await_file(path: str) -> None:
    deadline = time.monotonic() + DUMP_TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise BenchError(f"traced server never wrote {path}")
        time.sleep(0.01)


class Fleet:
    """Every server a round started, so one ``finally`` stops them all.

    Each server's standard error is kept in *log_dir*.
    """

    def __init__(self, log_dir: str) -> None:
        self.log_dir = log_dir
        self.servers: List[Server] = []

    def start(self, argv, **kwargs) -> Server:
        log = os.path.join(self.log_dir, f"server{len(self.servers)}.stderr")
        server = Server(argv, log, **kwargs)
        self.servers.append(server)
        return server

    def peak_rss_mb(self) -> float:
        return sum(s.peak_rss_mb() for s in self.servers)

    def trace_on(self) -> None:
        for s in self.servers:
            if s.trace_file:
                s.trace_on()

    def trace_dump(self) -> List[dict]:
        return [s.trace_dump() for s in self.servers if s.trace_file]

    def stop(self) -> None:
        for s in reversed(self.servers):
            s.stop()


# -- statistics --------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def latency_summary(samples_s: Sequence[float]) -> dict:
    ms = [s * 1000.0 for s in samples_s]
    return {"p50_ms": percentile(ms, 50), "p95_ms": percentile(ms, 95),
            "n": len(ms)}


# -- sizes -------------------------------------------------------------------

def dir_bytes(*paths: str) -> int:
    total = 0
    for path in paths:
        for base, _, files in os.walk(path):
            for name in files:
                total += os.path.getsize(os.path.join(base, name))
    return total


def live_tuple_bytes(relations) -> int:
    """``encode_tuple`` bytes of every tuple of the given relations."""
    from repro.storage.engine import encode_tuple

    return sum(len(encode_tuple(t)) for rel in relations for t in rel)


# -- envelope ----------------------------------------------------------------

def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_envelope() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_revision": git_revision()}
