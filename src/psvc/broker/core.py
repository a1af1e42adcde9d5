"""Broker operations: list, resolve, and activate personal services.

Every reply is a 313 redirection.  For listings the Location is the
SP's callback URL and PSvc-Service carries a result envelope; for
handle resolution the Location is ``:<ref>`` (the caller's internal
reference) and PSvc-Service carries the service endpoint.  Failures
set PSvc-Error instead.

The broker publishes its own TCP port in ``broker.ept`` inside the
descriptor directory; the IP is implicitly 127.0.0.1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..kit import write_port_file
from ..protocol import (
    BROKER_RESULT,
    BrokerResult,
    ERR_AMBIGUOUS,
    ERR_HANDLE,
    ERR_SERVICE,
    OP_WHITE,
    OP_YELLOW,
    YellowQuery,
    encode_broker_result,
)
from ..registry import Catalog, list_matching, list_matching_white, load_catalog
from .handles import HandleCodec, HandleError
from .policy import AccessPolicy, load_policy
from .runtime import ServiceLauncher, SpawnFailure

log = logging.getLogger(__name__)

ENDPOINT_FILE = "broker.ept"
ENDPOINT_HOST = "127.0.0.1"


class EndpointFileError(ValueError):
    """broker.ept missing or not a decimal port."""


def write_endpoint_file(ps_dir: Path | str, port: int) -> Path:
    """Atomically publish the broker port for proxies to find."""
    return write_port_file(Path(ps_dir) / ENDPOINT_FILE, port)


def read_endpoint_file(ps_dir: Path | str) -> tuple[str, int]:
    """Read the published broker endpoint: (host, port)."""
    path = Path(ps_dir) / ENDPOINT_FILE
    try:
        text = path.read_text("ascii").strip()
    except OSError as exc:
        raise EndpointFileError(f"cannot read {path}: {exc}") from None
    if not text.isdigit():
        raise EndpointFileError(f"{path} does not hold a decimal port")
    port = int(text)
    if not 0 < port < 65536:
        raise EndpointFileError(f"{path} holds an out-of-range port {port}")
    return ENDPOINT_HOST, port


@dataclass(frozen=True)
class BrokerOptions:
    """Knobs for handle checking.

    bind_handles_to_sp: a handle minted for one SP fails when presented
    on behalf of another.  handle_max_age_s: handles expire after this
    many seconds (None = never within the broker's lifetime).
    """

    bind_handles_to_sp: bool = True
    handle_max_age_s: float | None = None


@dataclass(frozen=True)
class BrokerReply:
    """One 313 reply: where to go next and what to carry there."""

    location: str
    service: str | None = None
    error: str | None = None
    status: int = BROKER_RESULT


class Broker:
    """Catalog lookups, handle minting/opening, and service activation."""

    def __init__(
        self,
        ps_dir: Path | str,
        *,
        policy: AccessPolicy | None = None,
        options: BrokerOptions | None = None,
        launcher: ServiceLauncher | None = None,
    ):
        self.ps_dir = Path(ps_dir)
        self.options = options or BrokerOptions()
        self.policy = policy if policy is not None else load_policy(self.ps_dir)
        self.launcher = launcher or ServiceLauncher()
        self.codec = HandleCodec(max_age_s=self.options.handle_max_age_s)
        self.catalog: Catalog = load_catalog(self.ps_dir)

    def reload_catalog(self) -> Catalog:
        """Re-read the descriptor directory and swap the snapshot in."""
        self.catalog = load_catalog(self.ps_dir)
        return self.catalog

    def _visible(self, sp_host: str, descriptor_id: str) -> bool:
        return self.policy.allows(sp_host, descriptor_id)

    def serve_yellow(self, query: YellowQuery, sp_host: str, callback: str) -> BrokerReply:
        """List the names of policy-permitted services matching the query."""
        names = [
            d.presentation
            for d in list_matching(self.catalog, query)
            if self._visible(sp_host, d.descriptor_id)
        ]
        envelope = BrokerResult(OP_YELLOW, query.as_object(), names)
        return BrokerReply(location=callback, service=encode_broker_result(envelope))

    def serve_white(self, query: dict[str, Any], sp_host: str, callback: str) -> BrokerReply:
        """Resolve a white query to exactly one service and mint its handle."""
        hits = [
            d
            for d in list_matching_white(self.catalog, query)
            if self._visible(sp_host, d.descriptor_id)
        ]
        if not hits:
            return BrokerReply(location=callback, error=ERR_SERVICE)
        if len(hits) > 1:
            return BrokerReply(location=callback, error=ERR_AMBIGUOUS)
        found = hits[0]
        handle = self.codec.mint(sp_host, found.descriptor_id)
        envelope = BrokerResult(
            OP_WHITE, dict(query), {"service": found.presentation, "handle": handle}
        )
        return BrokerReply(location=callback, service=encode_broker_result(envelope))

    def resolve_handle(self, handle_text: str, sp_host: str, ref: str) -> BrokerReply:
        """Open a handle and return a live endpoint for its service."""
        location = f":{ref}"
        try:
            opened = self.codec.open(handle_text)
        except HandleError as exc:
            log.info("rejected handle from %s: %s", sp_host, exc)
            return BrokerReply(location=location, error=ERR_HANDLE)
        if self.options.bind_handles_to_sp and opened.requester_host != sp_host:
            log.info(
                "handle minted for %s presented for %s", opened.requester_host, sp_host
            )
            return BrokerReply(location=location, error=ERR_HANDLE)
        desc = self.catalog.entries.get(opened.descriptor_id)
        if desc is None or not self._visible(sp_host, desc.descriptor_id):
            return BrokerReply(location=location, error=ERR_HANDLE)
        try:
            endpoint = self.launcher.ensure_live(desc)
        except SpawnFailure as exc:
            log.warning("cannot activate %s: %s", desc.descriptor_id, exc)
            return BrokerReply(location=location, error=ERR_SERVICE)
        return BrokerReply(location=location, service=endpoint)

    def shutdown(self) -> None:
        self.launcher.shutdown()
