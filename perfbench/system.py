"""The system under test as processes: pinned environment, server, memory.

Every measured process gets the same environment: the checkout's
``src`` on ``PYTHONPATH`` and the two switches that would silently swap
the program (``REPRO_KERNEL_BACKEND``, ``REPRO_PRECISION``) removed, so
a developer's shell cannot change what is measured.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Environment switches that select a different program; cleared for
#: every measured process.
PINNED_OUT = ("REPRO_KERNEL_BACKEND", "REPRO_PRECISION")

#: Seconds a server may take from launch to its first ``ping``.
START_TIMEOUT = 120.0


def pin_environment(root: str) -> None:
    """Pin this process's environment, which every child inherits."""
    for name in PINNED_OUT:
        os.environ.pop(name, None)
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = src
    if src not in sys.path:
        sys.path.insert(0, src)


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``, found through ``/proc``."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Largest peak resident set (``VmHWM``) among ``pids``, in MB."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS of ``pid`` and everything it started."""
    return peak_rss_mb([pid] + descendants(pid))


def dir_mb(path: str) -> float:
    """Bytes of the regular files directly in ``path``, in MB."""
    total = 0
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if os.path.isfile(full) and not name.startswith("."):
            total += os.path.getsize(full)
    return total / 1e6


class Server:
    """``repro serve --port`` in its own process, with its shipped defaults.

    ``extra`` appends CLI flags (``--sharded``, ``--metrics-json``, ...).
    :meth:`start` returns once a ``ping`` is answered; :meth:`stop`
    sends SIGTERM (graceful drain, which also writes any metrics or
    trace artefacts) and waits for the process to end.
    """

    def __init__(
        self,
        index_path: str,
        workdir: str,
        extra: Sequence[str] = (),
    ) -> None:
        self.index_path = index_path
        self.workdir = workdir
        self.snapshot_dir = os.path.join(workdir, "snapshots")
        self.port_file = os.path.join(workdir, "port")
        self.log_path = os.path.join(workdir, "server.log")
        self.extra = list(extra)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> "Server":
        os.makedirs(self.workdir, exist_ok=True)
        args = [
            sys.executable, "-m", "repro.cli", "serve",
            "--index", self.index_path,
            "--port", "0",
            "--port-file", self.port_file,
            "--snapshot-dir", self.snapshot_dir,
            "--workers", "2",
        ] + self.extra
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                args, stdout=log, stderr=subprocess.STDOUT, env=dict(os.environ)
            )
        try:
            self._await_ping()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_ping(self) -> None:
        from repro.serving.frontdoor import FrontDoorClient

        deadline = time.perf_counter() + START_TIMEOUT
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {self.log()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start in time")
            try:
                with open(self.port_file) as handle:
                    text = handle.read().strip()
                self.port = int(text) if text else None
            except (OSError, ValueError):
                pass
            if self.port is None:
                time.sleep(0.005)
        with FrontDoorClient("127.0.0.1", self.port, timeout=60.0) as client:
            if client.ping().get("status") != "ok":
                raise RuntimeError("server did not answer ping")

    def log(self) -> str:
        try:
            with open(self.log_path) as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Drain and end the server; kill whatever of it outlives that."""
        if self.proc is None or self.proc.poll() is not None:
            return
        # Taken first: a server killed before it closed its pool leaves
        # workers that no longer show up under its pid.
        workers = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        for pid in workers:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    # Only a leftover worker; the pid may have been reused.
                    if b"multiprocessing" in handle.read():
                        os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone, as after a clean drain
