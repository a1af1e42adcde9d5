"""Launch-on-demand for local services.

Local services run as child processes.  The broker picks a free
loopback port, releases it, and appends it to the descriptor's argument
vector; the child is expected to bind it on a loopback address.  A dead
child is only discovered at the next resolve, which relaunches it,
possibly on a different port.  Remote services are never contacted
here: their URL is handed out as is, and an invocation that cannot
reach one fails at the proxy, which reports ``service`` to the SP.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import TYPE_CHECKING, Callable

from ..kit import Log, allocate_port, launch, stop_process, wait_until
from ..registry import ServiceDescriptor

if TYPE_CHECKING:
    import subprocess

log = Log(__name__)

LAUNCH_TIMEOUT_S = 5.0

LOOPBACK = "127.0.0.1"


def wait_connectable(host: str, port: int, deadline: float, proc: subprocess.Popen) -> None:
    """Poll until a TCP connect succeeds; a Refusal if `proc` exits or `deadline` passes first."""

    def listening() -> bool:
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return True
        except OSError:
            return False

    exited = "service exited with status %d before listening"
    wait_until(proc, listening, deadline, exited, f"service not listening on {host}:{port}")


class RuntimeRecord:
    """Live state the broker keeps for one descriptor; `lock` serializes its launches."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.launch_count = 0


class ServiceLauncher:
    """Keeps at most one live process per descriptor.

    on_spawn(descriptor_id, port, pid, launch_count) fires after each
    successful launch.
    """

    def __init__(self, *, on_spawn: Callable[[str, int, int, int], None] | None = None):
        self.on_spawn = on_spawn
        self._records: dict[str, RuntimeRecord] = {}
        self._table_lock = threading.Lock()

    def record(self, descriptor_id: str) -> RuntimeRecord | None:
        return self._records.get(descriptor_id)

    def ensure_live(self, desc: ServiceDescriptor) -> str:
        """Return a live endpoint for the descriptor, launching if needed.

        Local services yield "host:port"; remote ones yield their URL,
        unchecked.  Raises a Refusal when a local service cannot be
        brought up.
        """
        if desc.is_remote:
            return desc.url

        with self._table_lock:
            rec = self._records.setdefault(desc.descriptor_id, RuntimeRecord())
        with rec.lock:
            if rec.proc is not None and rec.proc.poll() is None:
                return f"{LOOPBACK}:{rec.port}"
            return self._spawn(desc, rec)

    def _spawn(self, desc: ServiceDescriptor, rec: RuntimeRecord) -> str:
        port = allocate_port()
        argv = list(desc.cmd) + [str(port)]
        log.info("launching %s on port %d: %s", desc.descriptor_id, port, argv)
        proc = launch(argv, desc.workdir, desc.descriptor_id)
        wait_connectable(LOOPBACK, port, time.monotonic() + LAUNCH_TIMEOUT_S, proc)
        rec.proc, rec.port = proc, port
        rec.launch_count += 1
        if self.on_spawn is not None:
            self.on_spawn(desc.descriptor_id, port, proc.pid, rec.launch_count)
        return f"{LOOPBACK}:{port}"

    def shutdown(self) -> None:
        """Terminate every child this launcher started, after any launch under way."""
        with self._table_lock:
            records = list(self._records.values())
        for rec in records:
            with rec.lock:
                if rec.proc is not None:
                    stop_process(rec.proc)
