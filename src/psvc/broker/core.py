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

from pathlib import Path
from typing import Any

from ..kit import ENDPOINT_FILE, KitResponse, Log, Refusal, write_port_file
from ..protocol import (
    BROKER_RESULT,
    BrokerResult,
    ERR_AMBIGUOUS,
    ERR_HANDLE,
    ERR_SERVICE,
    H_ERROR,
    H_SERVICE,
    OP_WHITE,
    OP_YELLOW,
    YellowQuery,
    encode_broker_result,
    encode_envelope,
)
from ..registry import Catalog, list_matching, list_matching_white, load_catalog
from .handles import HandleCodec, HandleError
from .policy import load_policy
from .runtime import ServiceLauncher

log = Log(__name__)


def write_endpoint_file(ps_dir: Path | str, port: int) -> Path:
    """Atomically publish the broker port for proxies to find."""
    return write_port_file(Path(ps_dir) / ENDPOINT_FILE, port)


def broker_reply(
    location: str, service: str | None = None, tag: str | None = None, error: str | None = None
) -> KitResponse:
    """A 313 carrying `service` or `error`; `tag` names on its SERVE event what it carried."""
    headers = [("Location", location)]
    if service is not None:
        headers.append((H_SERVICE, service))
    if error is not None:
        headers.append((H_ERROR, error))
    note = {"loc": location, "svc": tag, "err": error}
    return KitResponse(BROKER_RESULT, tuple(headers), note=note)


class Broker:
    """Catalog lookups, handle minting/opening, and service activation.

    A handle opens only for the SP it was minted for, and only for
    ``handles.HANDLE_MAX_AGE_S`` seconds.
    """

    def __init__(self, ps_dir: Path | str, *, launcher: ServiceLauncher | None = None):
        self.policy = load_policy(ps_dir)
        self.launcher = launcher or ServiceLauncher()
        self.codec = HandleCodec()
        self.catalog: Catalog = load_catalog(ps_dir)

    def serve_yellow(self, query: YellowQuery, sp_host: str, callback: str) -> KitResponse:
        """List policy-permitted services matching the query, joined from their wire forms."""
        hits = self.policy.visible(sp_host, list_matching(self.catalog, query))
        names = "[" + ", ".join(self.catalog.wire[d.descriptor_id] for d in hits) + "]"
        envelope = encode_envelope(OP_YELLOW, query.as_object(), names)
        return broker_reply(callback, envelope, f"names[{len(hits)}]")

    def serve_white(self, query: dict[str, Any], sp_host: str, callback: str) -> KitResponse:
        """Resolve a white query to exactly one service and mint its handle."""
        hits = self.policy.visible(sp_host, list_matching_white(self.catalog, query))
        if not hits:
            return broker_reply(callback, error=ERR_SERVICE)
        if len(hits) > 1:
            return broker_reply(callback, error=ERR_AMBIGUOUS)
        found = hits[0]
        handle = self.codec.mint(sp_host, found.descriptor_id)
        envelope = BrokerResult(
            OP_WHITE, dict(query), {"service": found.presentation, "handle": handle}
        )
        return broker_reply(callback, encode_broker_result(envelope), "handle")

    def resolve_handle(self, handle_text: str, sp_host: str, ref: str) -> KitResponse:
        """Open a handle and return a live endpoint for its service."""
        location = f":{ref}"
        try:
            opened = self.codec.open(handle_text)
        except HandleError as exc:
            log.info("rejected handle from %s: %s", sp_host, exc)
            return broker_reply(location, error=ERR_HANDLE)
        if opened.requester_host != sp_host:
            log.info(
                "handle minted for %s presented for %s", opened.requester_host, sp_host
            )
            return broker_reply(location, error=ERR_HANDLE)
        desc = self.catalog.entries.get(opened.descriptor_id)
        if desc is None or not self.policy.allows(sp_host, desc.descriptor_id):
            return broker_reply(location, error=ERR_HANDLE)
        try:
            endpoint = self.launcher.ensure_live(desc)
        except Refusal as exc:
            log.warning("cannot activate %s: %s", desc.descriptor_id, exc)
            return broker_reply(location, error=ERR_SERVICE)
        return broker_reply(location, endpoint, "endpoint")

    def shutdown(self) -> None:
        self.launcher.shutdown()
