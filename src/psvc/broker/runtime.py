"""Launch-on-demand for local services, liveness probes for remote ones.

Local services run as child processes.  The broker picks a free
loopback port, releases it, and appends it to the descriptor's argument
vector; the child is expected to bind it on a loopback address.  A dead
child is only discovered at the next resolve, which relaunches it,
possibly on a different port.
"""

from __future__ import annotations

import logging
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPSConnection
from typing import Callable
from urllib.parse import urlsplit

from ..registry import ServiceDescriptor

log = logging.getLogger(__name__)

LAUNCH_TIMEOUT_S = 5.0
REMOTE_PROBE_TIMEOUT_S = 3.0
STOP_TIMEOUT_S = 5.0
_POLL_INTERVAL_S = 0.02

LOOPBACK = "127.0.0.1"


class SpawnFailure(RuntimeError):
    """The service could not be started or reached."""


def allocate_port(host: str = LOOPBACK) -> int:
    """Reserve a currently-free loopback port and release it.

    Best effort: the child must bind it before anything else does.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def wait_connectable(host: str, port: int, deadline: float, proc: subprocess.Popen | None = None) -> None:
    """Poll until a TCP connect succeeds; SpawnFailure on timeout or child death."""
    while True:
        if proc is not None and proc.poll() is not None:
            raise SpawnFailure(f"service exited with status {proc.returncode} before listening")
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise SpawnFailure(f"service not listening on {host}:{port}") from None
            time.sleep(_POLL_INTERVAL_S)


def stop_process(proc: subprocess.Popen) -> None:
    """Terminate a child politely, kill it if it lingers, and reap it."""
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@dataclass
class RuntimeRecord:
    """Live state the broker keeps for one descriptor."""

    descriptor_id: str
    proc: subprocess.Popen | None = None
    port: int | None = None
    launch_count: int = 0


class ServiceLauncher:
    """Keeps at most one live process per descriptor.

    on_spawn(descriptor_id, port, pid, launch_count) fires after each
    successful launch.
    """

    def __init__(
        self,
        *,
        launch_timeout_s: float = LAUNCH_TIMEOUT_S,
        probe_timeout_s: float = REMOTE_PROBE_TIMEOUT_S,
        on_spawn: Callable[[str, int, int, int], None] | None = None,
    ):
        self.launch_timeout_s = launch_timeout_s
        self.probe_timeout_s = probe_timeout_s
        self.on_spawn = on_spawn
        self._records: dict[str, RuntimeRecord] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._table_lock = threading.Lock()

    def _lock_for(self, descriptor_id: str) -> threading.Lock:
        with self._table_lock:
            return self._locks.setdefault(descriptor_id, threading.Lock())

    def record(self, descriptor_id: str) -> RuntimeRecord | None:
        return self._records.get(descriptor_id)

    def ensure_live(self, desc: ServiceDescriptor) -> str:
        """Return a live endpoint for the descriptor, launching if needed.

        Local services yield "host:port"; remote ones yield their URL.
        Raises SpawnFailure when the service cannot be brought up or
        reached.
        """
        if desc.is_remote:
            self._probe_remote(desc.url)
            return desc.url

        with self._lock_for(desc.descriptor_id):
            with self._table_lock:
                rec = self._records.setdefault(
                    desc.descriptor_id, RuntimeRecord(desc.descriptor_id)
                )
            if rec.proc is not None and rec.proc.poll() is None:
                return f"{LOOPBACK}:{rec.port}"
            return self._spawn(desc, rec)

    def _spawn(self, desc: ServiceDescriptor, rec: RuntimeRecord) -> str:
        if not desc.workdir.is_dir():
            raise SpawnFailure(f"working directory {desc.workdir} does not exist")
        port = allocate_port()
        argv = list(desc.cmd) + [str(port)]
        log.info("launching %s on port %d: %s", desc.descriptor_id, port, argv)
        try:
            proc = subprocess.Popen(
                argv,
                cwd=desc.workdir,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise SpawnFailure(f"cannot launch {desc.descriptor_id}: {exc}") from None
        try:
            wait_connectable(LOOPBACK, port, time.monotonic() + self.launch_timeout_s, proc)
        except SpawnFailure:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            raise
        rec.proc, rec.port = proc, port
        rec.launch_count += 1
        if self.on_spawn is not None:
            self.on_spawn(desc.descriptor_id, port, proc.pid, rec.launch_count)
        return f"{LOOPBACK}:{port}"

    def _probe_remote(self, url: str) -> None:
        """HEAD the remote service; any HTTP response means it is reachable."""
        parts = urlsplit(url)
        conn_cls = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        conn = conn_cls(parts.hostname, parts.port, timeout=self.probe_timeout_s)
        try:
            conn.request("HEAD", parts.path or "/")
            conn.getresponse()
        except OSError as exc:
            raise SpawnFailure(f"remote service {url} unreachable: {exc}") from None
        finally:
            conn.close()

    def shutdown(self) -> None:
        """Terminate every child this launcher started."""
        for rec in self._records.values():
            if rec.proc is not None:
                stop_process(rec.proc)
