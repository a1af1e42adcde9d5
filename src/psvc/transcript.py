"""Shared event log for multi-process demo runs.

Every party (broker, proxy, SP, personal service) appends one JSON line
per salient step to the file named by the PSVC_TRANSCRIPT environment
variable.  The file is opened once, with O_APPEND, and each line is one
small write, so concurrent writers do not interleave.  Ordering uses the
system-wide monotonic clock, which all local processes share.

Event directions:

    >   sent a request            (method, url)
    <   received a response       (status, origin)
    =   served a request          (method, path -> status)
    +   spawned a child process

The detail mapping holds salient header fields only: loc= Location,
svc= a short tag for PSvc-Service, err=/in_err= PSvc-Error on the
response/request, setcookie=1, spawn fields, and the like.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

ENV_VAR = "PSVC_TRANSCRIPT"

SEND = ">"
RECV = "<"
SERVE = "="
SPAWN = "+"


class Event(NamedTuple):
    ts: int
    actor: str
    direction: str
    method: str
    path: str
    status: int | None = None
    detail: Mapping[str, Any] = MappingProxyType({})  # shared, so read-only

    def render(self) -> str:
        """One readable line, stable given stable inputs."""
        parts = [f"{self.actor:<7} {self.direction} {self.method} {self.path}".rstrip()]
        if self.status is not None:
            parts.append(f"-> {self.status}")
        for key in sorted(self.detail):
            parts.append(f"{key}={self.detail[key]}")
        return " ".join(parts)


class Transcript:
    """Appends events to one JSONL file, opened once; a None path opens nothing and
    makes it a no-op, and so does close()."""

    def __init__(self, path: str | os.PathLike | None, actor: str):
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT  # not inherited by a child (PEP 446)
        self._fd = os.open(path, flags, 0o666) if path else None
        self._lock = threading.Lock()  # close() never frees a descriptor a write still uses
        self.actor = actor

    @classmethod
    def from_env(cls, actor: str) -> "Transcript":
        return cls(os.environ.get(ENV_VAR), actor)

    def emit(
        self,
        direction: str,
        method: str,
        path: str,
        status: int | None = None,
        **detail: Any,
    ) -> None:
        if self._fd is None:
            return
        import json  # loaded by the first event, not by every party that might emit one

        kept = {k: v for k, v in detail.items() if v is not None}
        event = Event(time.monotonic_ns(), self.actor, direction, method, path, status, kept)
        line = json.dumps(event._asdict(), ensure_ascii=True) + "\n"
        with self._lock:
            if self._fd is not None:  # one small append per event keeps concurrent writers whole
                os.write(self._fd, line.encode("ascii"))

    def close(self) -> None:
        """Close the file; an event emitted after this is dropped."""
        with self._lock:
            fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)


def read_events(path: str | os.PathLike) -> list[Event]:
    """Load a transcript file ordered by the shared monotonic clock."""
    import json

    text = Path(path).read_text("ascii") if Path(path).exists() else ""
    events = [Event(**json.loads(line)) for line in text.splitlines() if line.strip()]
    return sorted(events, key=lambda e: e.ts)
