"""Opaque service handles, held by reference.

A handle is 128 random bits as hex text, naming an entry in this broker
run's own table: {requester host, descriptor id, mint time}.  The text
carries nothing, so SPs and browsers can neither read one nor forge
one: any other text is simply not in the table.  The table lives in
memory only, so handles die with the broker process, and sooner once
HANDLE_MAX_AGE_S old.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import NamedTuple

MAX_LIVE_HANDLES = 4096  # past this many, minting forgets the oldest handle
HANDLE_MAX_AGE_S = 300.0  # a handle older than this no longer opens


class HandleError(ValueError):
    """Handle text that this broker run will not honor."""


class HandlePlaintext(NamedTuple):
    """What a handle means once opened."""

    requester_host: str
    descriptor_id: str
    mint_time: float


class HandleCodec:
    """Mints and opens handles for one broker run.

    At most MAX_LIVE_HANDLES stay open, oldest evicted first, and each
    opens for HANDLE_MAX_AGE_S after it was minted.
    """

    def __init__(self) -> None:
        self._live: OrderedDict[str, HandlePlaintext] = OrderedDict()
        self._lock = threading.Lock()

    def mint(self, requester_host: str, descriptor_id: str) -> str:
        """Issue handle text binding a descriptor to the requesting SP."""
        text = os.urandom(16).hex()
        entry = HandlePlaintext(requester_host, descriptor_id, time.time())
        with self._lock:
            self._live[text] = entry
            if len(self._live) > MAX_LIVE_HANDLES:
                self._live.popitem(last=False)
        return text

    def open(self, handle_text: str) -> HandlePlaintext:
        """Look handle text up; HandleError if this run holds no such handle."""
        with self._lock:
            opened = self._live.get(handle_text)
        if opened is None:
            raise HandleError("no such handle")
        if time.time() - opened.mint_time > HANDLE_MAX_AGE_S:
            raise HandleError("handle expired")
        return opened
