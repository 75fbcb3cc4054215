"""Simulation-server subprocesses, driven from outside.

Every server is a fresh ``python -m benchmarks.e2e.serverboot`` process,
which calls ``repro.server.httpd.main(["--port", "0", "--quiet"])``
(span-recording first when traced).  Set-up time is spawn -> first
successful ``/health``; peak memory is the process's ``VmHWM``.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro.server.client import SimClient

_BANNER = re.compile(rb"listening on http://([^:\s]+):(\d+)")

#: how long a server may take to print its banner / to exit after SIGINT
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerProcess:
    """One server subprocess; ``start`` returns its set-up seconds."""

    def __init__(self, env: "Env", spans_path: Optional[str] = None):
        self.env = env
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        argv = [sys.executable, "-m", "benchmarks.e2e.serverboot"]
        if self.spans_path:
            argv += ["--spans", self.spans_path]
        argv += ["--", "--port", "0", "--quiet"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=self.env.root,
                                     env=self.env.child_env(),
                                     stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL)
        try:
            self._await_banner(started + START_TIMEOUT_S)
            client = self.client()
            try:
                if client.health().get("status") != "ok":
                    raise RuntimeError("server /health is not ok")
            finally:
                client.close()
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - started

    def _await_banner(self, deadline: float) -> None:
        """Read the server's stdout until it names its bound port."""
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                raise RuntimeError("server printed no banner within "
                                   f"{START_TIMEOUT_S:.0f} s")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.wait()} before listening")
            match = _BANNER.search(line)
            if match:
                self.host, self.port = match.group(1).decode(), \
                    int(match.group(2))
                return

    def client(self) -> SimClient:
        return SimClient(self.host, self.port, use_gzip=True, timeout=60.0)

    def peak_rss_mb(self) -> float:
        """High-water resident set size of the server (``VmHWM``)."""
        return proc_hwm_mb(self.proc.pid)

    def stop(self) -> List[dict]:
        """SIGINT, wait, and return the span records (traced servers)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return []
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        if not self.spans_path or not os.path.exists(self.spans_path):
            return []
        with open(self.spans_path, encoding="utf-8") as handle:
            return json.load(handle)


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids() -> List[int]:
    """Live child processes of this process (every thread's children)."""
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children",
                      encoding="ascii") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            continue
    return pids


class Env:
    """Where a run lives: the checkout root and a work directory in it.

    Child processes get ``src`` and the root on ``PYTHONPATH``, and their
    temporary files and artifact cache inside the work directory, so a
    run writes nothing outside the checkout."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        os.makedirs(work, exist_ok=True)

    def child_env(self) -> dict:
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src"), self.root]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = self.work
        env["REPRO_ARTIFACT_DIR"] = os.path.join(self.work, "artifacts")
        return env

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)
