"""Shared event log for multi-process demo runs.

Every party (broker, proxy, SP, personal service) appends one JSON line
per salient step to the file named by the PSVC_TRANSCRIPT environment
variable.  Lines are small and written with a single append, so
concurrent writers do not interleave.  Ordering uses the system-wide
monotonic clock, which all local processes share.

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
    """Appends events to one JSONL file; a None path makes it a no-op."""

    def __init__(self, path: str | os.PathLike | None, actor: str):
        self.path = Path(path) if path else None
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
        if self.path is None:
            return
        import json  # loaded by the first event, not by every party that might emit one

        kept = {k: v for k, v in detail.items() if v is not None}
        event = Event(time.monotonic_ns(), self.actor, direction, method, path, status, kept)
        line = json.dumps(event._asdict(), ensure_ascii=True) + "\n"
        # One small append per event keeps concurrent writers whole.
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(line)


def read_events(path: str | os.PathLike) -> list[Event]:
    """Load a transcript file ordered by the shared monotonic clock."""
    import json

    text = Path(path).read_text("ascii") if Path(path).exists() else ""
    events = [Event(**json.loads(line)) for line in text.splitlines() if line.strip()]
    return sorted(events, key=lambda e: e.ts)
