"""Opaque service handles, held by reference.

A handle is 128 random bits as hex text, naming an entry in this broker
run's own table: {requester host, descriptor id, mint time}.  The text
carries nothing, so SPs and browsers can neither read one nor forge
one: any other text is simply not in the table.  The table lives in
memory only, so handles die with the broker process, and sooner once
HANDLE_MAX_AGE_S old: age runs on CLOCK_BOOTTIME, which no wall-clock
step moves and which counts time spent suspended.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from functools import partial
from typing import NamedTuple

from ..kit import put_bounded

MAX_LIVE_HANDLES = 4096  # past this many, minting forgets the oldest handle
HANDLE_MAX_AGE_S = 300.0  # a handle older than this no longer opens
_now = partial(time.clock_gettime, time.CLOCK_BOOTTIME)


class HandleError(ValueError):
    """Handle text that this broker run will not honor."""


class HandlePlaintext(NamedTuple):
    """What a handle means once opened."""

    requester_host: str
    descriptor_id: str
    mint_time: float  # CLOCK_BOOTTIME seconds


class HandleCodec:
    """Mints and opens handles for one broker run.

    At most MAX_LIVE_HANDLES stay open, oldest evicted first, and each
    opens for HANDLE_MAX_AGE_S after it was minted.
    """

    def __init__(self) -> None:
        self._live: dict[str, HandlePlaintext] = {}  # oldest first
        self._lock = threading.Lock()

    def mint(self, requester_host: str, descriptor_id: str) -> str:
        """Issue handle text binding a descriptor to the requesting SP."""
        text = os.urandom(16).hex()
        # One copy of each SP's host, however many of its handles are live.
        entry = HandlePlaintext(sys.intern(requester_host), descriptor_id, _now())
        with self._lock:
            put_bounded(self._live, text, entry, MAX_LIVE_HANDLES)
        return text

    def open(self, handle_text: str) -> HandlePlaintext:
        """Look handle text up; HandleError if this run holds no such handle."""
        with self._lock:
            opened = self._live.get(handle_text)
        if opened is None:
            raise HandleError("no such handle")
        if _now() - opened.mint_time > HANDLE_MAX_AGE_S:
            raise HandleError("handle expired")
        return opened
