"""Demo personal service: a mock national-eID authenticator.

Launched by the broker with its port as the last argument, it accepts
the proxy-built invocation on /auth, runs one dialog round with the
user (a confirmation form the demo browser auto-submits), and returns
the authentication result to the SP with an auto-POST page.  The
"signature" is a nonce echo: good enough to prove the plumbing,
nothing more.

When PSVC_DUMP_DIR is set, each invocation request is dumped as JSON
(headers in arrival order, body digest) so tests can check that the
proxy carried everything faithfully.
"""

from __future__ import annotations

import base64
import json
import os
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
    sp_return_page,
)

USER = "demo-user"
DEVICE = "Portuguese eID"

DUMP_ENV = "PSVC_DUMP_DIR"

# The form action must be absolute: the page reaches the browser as the
# response to an SP URL, so relative paths would resolve wrongly.
_CHALLENGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>eID authentication</title></head>
<body onload="document.forms[0].submit()">
<h1>Mock citizen-card authentication</h1>
<p>The service provider asks you to sign a challenge.</p>
<form method="POST" action="http://127.0.0.1:{port}/confirm" data-autosubmit="1">
<input type="hidden" name="sid" value="{sid}">
<input type="hidden" name="confirm" value="yes">
<noscript><button type="submit">Sign with my eID</button></noscript>
</form>
</body></html>
"""


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
        import hashlib  # only dumps need it; a service starts without it

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
        if not detect_psvc_invocation(dict(request.headers)):
            return KitResponse.text("only proxy-built invocations are served here\n", 403)
        self._dump_invocation(request)
        sid = request.query["sid"] if "sid" in request.query else _new_sid()
        with self._lock:
            self._dialogs[sid] = {
                "nonce": request.query.get("nonce", ""),
                "return": request.query.get("return", ""),
            }
        return KitResponse.html(_CHALLENGE.format(sid=sid, port=self.port))

    def _confirm(self, request: KitRequest) -> KitResponse:
        form = request.form()
        sid = form.get("sid", "")
        with self._lock:
            dialog = self._dialogs.pop(sid, None)
        if dialog is None or form.get("confirm") != "yes":
            return KitResponse.text("no such dialog\n", 403)
        fields = {
            "sid": sid,
            "nonce": dialog["nonce"],
            "user": USER,
            "device": DEVICE,
        }
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
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0
