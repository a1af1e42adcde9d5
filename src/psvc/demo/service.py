"""Demo personal service: a mock national-eID authenticator.

Launched by the broker with its port as the last argument, it accepts
the proxy-built invocation on /auth, runs one dialog round with the
user (a consent page: a confirmation form the demo browser
auto-submits, to the service's own absolute /confirm URL), and returns
the authentication result to the SP with an auto-POST page.  Open
dialogs are capped at kit.MAX_TABLE_ENTRIES, oldest dropped first.  The
"signature" is a nonce echo: good enough to prove the plumbing,
nothing more.

When PSVC_DUMP_DIR is set, each invocation request is dumped as JSON
(headers in arrival order, body digest) so tests can check that the
proxy carried everything faithfully.
"""

from __future__ import annotations

import base64
import os
import signal
import threading
import time
from pathlib import Path

from ..kit import (
    BootstrapError,
    KitRequest,
    KitResponse,
    ServiceServer,
    bootstrap,
    detect_psvc_invocation,
    header_value,
    put_bounded,
    sp_return_page,
)

USER = "demo-user"
DEVICE = "Portuguese eID"

DUMP_ENV = "PSVC_DUMP_DIR"


def _new_sid() -> str:
    """Eight random URL-safe characters, as secrets.token_urlsafe(6) makes."""
    return base64.urlsafe_b64encode(os.urandom(6)).decode("ascii")


class MockAuthService:
    def __init__(self, port: int) -> None:
        self.port = port
        self._dialogs: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    def _dump_invocation(self, request: KitRequest) -> None:
        dump_dir = os.environ.get(DUMP_ENV)
        if not dump_dir:
            return
        import hashlib  # only dumps need these; a service starts without them
        import json

        record = {
            "method": request.method,
            "path": request.path,
            "query": request.query,
            "headers": [[k, v] for k, v in request.headers],
            "body_sha256": hashlib.sha256(request.body).hexdigest(),
            "body_len": len(request.body),
            "referer": header_value(request.headers, "Referer"),
            "invocation_marker": header_value(request.headers, "PSvc-Invocation"),
        }
        path = Path(dump_dir) / f"invocation-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(record, indent=1), "utf-8")

    def handle(self, request: KitRequest) -> KitResponse:
        if request.method == "GET" and request.path == "/auth":
            return self._auth(request)
        if request.method == "POST" and request.path == "/confirm":
            return self._confirm(request)
        return KitResponse.text("no such page\n", status=404)

    def _auth(self, request: KitRequest) -> KitResponse:
        if not detect_psvc_invocation(request.headers):
            return KitResponse.text("only proxy-built invocations are served here\n", 403)
        self._dump_invocation(request)
        query = request.query
        sid = query["sid"] if "sid" in query else _new_sid()
        dialog = {"nonce": query.get("nonce", ""), "return": query.get("return", "")}
        with self._lock:
            put_bounded(self._dialogs, sid, dialog)
        page = sp_return_page(
            {"sid": sid, "confirm": "yes"},
            f"http://127.0.0.1:{self.port}/confirm",
            title="eID authentication",
            message="The service provider asks you to sign a challenge.",
        )
        return KitResponse.html(page)

    def _confirm(self, request: KitRequest) -> KitResponse:
        form = request.form()
        sid = form.get("sid", "")
        with self._lock:
            dialog = self._dialogs.pop(sid, None)
        if dialog is None or form.get("confirm") != "yes":
            return KitResponse.text("no such dialog\n", 403)
        fields = {"sid": sid, "nonce": dialog["nonce"], "user": USER, "device": DEVICE}
        return KitResponse.html(
            sp_return_page(fields, dialog["return"], title="Signed", message="Signed; returning...")
        )


def main(argv: list[str]) -> int:
    """Entry point honoring the port-as-last-argument launch convention."""
    try:
        port = bootstrap(argv)
    except BootstrapError as exc:
        print(f"cannot start: {exc}", flush=True)
        return 2
    server = ServiceServer(("127.0.0.1", port), MockAuthService(port).handle, "Service")
    # Until SIGINT; SIGTERM keeps its default action, and a launched service ends at once.
    return server.run(signals=(signal.SIGINT,))
