"""Demo service provider: a site that authenticates via a personal service.

Without a valid session cookie, the front page redirects to /login.
When the client announces redirection support (PSvc-Version), /login
answers 311 asking for an authentication service; the resolved handle
comes back on /wp-callback, which answers 312 to invoke the service.
The service runs its dialog with the user and finally auto-POSTs the
result to /result, where a nonce echo is checked, the session cookie is
set, and the browser is sent back to the original page.

Fault switches let scenarios exercise the error paths: a 311 with no
query, a tampered handle, or a forged broker-result redirection.
"""

from __future__ import annotations

import json
import logging
import secrets
import threading
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import quote

from ..kit import KitRequest, KitResponse, ServiceServer, header_value
from ..protocol import (
    BROKER_RESULT,
    H_CALLBACK,
    H_ERROR,
    H_METHOD,
    H_PARAMETERS,
    H_SERVICE,
    H_VERSION,
    SERVICE_CALL,
    WHITE_PAGES,
    YELLOW_PAGES,
    decode_broker_result,
    speaks_version,
)
from ..transcript import SERVE, Transcript

log = logging.getLogger(__name__)

COOKIE_NAME = "psvc_auth"

DEFAULT_WP_QUERY: dict[str, Any] = {
    "Purpose": "authentication",
    "Device": "Portuguese eID",
}

DEFAULT_YP_QUERY: dict[str, Any] = {"Purpose": "authentication"}

FAULT_MALFORMED_311 = "malformed-311"
FAULT_TAMPER_HANDLE = "tamper-handle"
FAULTS = (FAULT_MALFORMED_311, FAULT_TAMPER_HANDLE)


@dataclass
class SPConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    wp_query: dict[str, Any] = field(default_factory=lambda: dict(DEFAULT_WP_QUERY))
    yp_query: dict[str, Any] = field(default_factory=lambda: dict(DEFAULT_YP_QUERY))
    fault: str | None = None
    evil_location: str | None = None
    # Extra headers/body attached to the 312, carried to the service.
    invoke_extra_headers: tuple[tuple[str, str], ...] = ()
    invoke_extra_body: bytes = b""


@dataclass
class _Session:
    sid: str
    nonce: str
    next_url: str
    error: str | None = None


def _tamper(handle: str) -> str:
    """Flip one character in the middle, staying in the transport alphabet."""
    mid = len(handle) // 2
    swapped = "B" if handle[mid] != "B" else "C"
    return handle[:mid] + swapped + handle[mid + 1 :]


def _page(title: str, body: str) -> bytes:
    return (
        f"<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{title}</title></head>\n<body>{body}</body></html>\n"
    ).encode("utf-8")


class DemoSP(ServiceServer):
    """Session state plus one route handler per page."""

    def __init__(self, config: SPConfig):
        self.config = config
        self.transcript = Transcript.from_env("SP")
        self.sessions: dict[str, _Session] = {}
        self.cookies: dict[str, str] = {}  # token -> user
        self.lock = threading.Lock()
        self._routes = {
            ("GET", "/"): self._front,
            ("GET", "/login"): self._login,
            ("GET", "/discover"): self._discover,
            ("GET", "/evil313"): self._evil313,
            ("POST", "/wp-callback"): self._wp_callback,
            ("POST", "/yp-callback"): self._yp_callback,
            ("POST", "/invoke-error"): self._invoke_error,
            ("POST", "/result"): self._result,
        }
        super().__init__((config.host, config.port), self._handle)

    @property
    def netloc(self) -> str:
        return f"{self.config.host}:{self.port}"

    def absolute(self, path: str) -> str:
        return f"http://{self.netloc}{path}"

    # -- session helpers ---------------------------------------------------

    def new_session(self, next_url: str) -> _Session:
        session = _Session(
            sid=secrets.token_urlsafe(8),
            nonce=secrets.token_urlsafe(12),
            next_url=next_url,
        )
        with self.lock:
            self.sessions[session.sid] = session
        return session

    def session(self, sid: str | None) -> _Session | None:
        with self.lock:
            return self.sessions.get(sid or "")

    def issue_cookie(self, user: str) -> str:
        token = secrets.token_urlsafe(16)
        with self.lock:
            self.cookies[token] = user
        return token

    def user_for_cookie(self, header: str | None) -> str | None:
        if not header:
            return None
        for part in header.split(";"):
            name, _, value = part.strip().partition("=")
            if name == COOKIE_NAME:
                with self.lock:
                    return self.cookies.get(value)
        return None

    # -- plumbing ---------------------------------------------------------

    def _handle(self, request: KitRequest) -> KitResponse:
        if request.method not in ("GET", "POST"):
            return KitResponse.text(f"unsupported method {request.method}\n", 501)
        route = self._routes.get((request.method, request.path))
        if route is None:
            return self._html(request, 404, "Not found", "<p>no such page</p>")
        return route(request)

    def _finish(
        self,
        request: KitRequest,
        status: int,
        headers: list[tuple[str, str]],
        body: bytes = b"",
        **detail,
    ) -> KitResponse:
        # Log before the bytes leave so transcript order follows causality.
        self.transcript.emit(
            SERVE,
            request.method,
            request.target,
            status,
            in_err=header_value(request.headers, H_ERROR),
            **detail,
        )
        return KitResponse(status, tuple(headers), body)

    def _html(
        self, request: KitRequest, status: int, title: str, markup: str, **detail
    ) -> KitResponse:
        return self._finish(
            request,
            status,
            [("Content-Type", "text/html; charset=utf-8")],
            _page(title, markup),
            **detail,
        )

    def _redirect(self, request: KitRequest, to: str) -> KitResponse:
        return self._finish(request, 302, [("Location", to)], loc=to)

    # -- routes -------------------------------------------------------------

    def _front(self, request: KitRequest) -> KitResponse:
        user = self.user_for_cookie(header_value(request.headers, "Cookie"))
        if user is None:
            return self._redirect(request, self.absolute("/login?next=/"))
        return self._html(
            request,
            200,
            "Members area",
            f"<h1>Members area</h1><p>authenticated as {user}</p>",
        )

    def _login(self, request: KitRequest) -> KitResponse:
        next_url = request.query.get("next", "/")
        if self.user_for_cookie(header_value(request.headers, "Cookie")) is not None:
            return self._redirect(request, self.absolute(next_url))
        if not speaks_version(header_value(request.headers, H_VERSION)):
            return self._html(
                request,
                200,
                "Sign in",
                "<p>this site signs users in through a personal service, "
                "which your client does not announce</p>",
            )
        session = self.new_session(next_url)
        headers = [(H_CALLBACK, self.absolute(f"/wp-callback?sid={session.sid}"))]
        if self.config.fault != FAULT_MALFORMED_311:
            headers.insert(0, (H_SERVICE, json.dumps(self.config.wp_query)))
        return self._finish(request, WHITE_PAGES, headers, svc="query")

    def _discover(self, request: KitRequest) -> KitResponse:
        if not speaks_version(header_value(request.headers, H_VERSION)):
            return self._html(
                request, 200, "Discovery", "<p>client announces no redirection support</p>"
            )
        headers = [
            (H_SERVICE, json.dumps(self.config.yp_query)),
            (H_CALLBACK, self.absolute("/yp-callback")),
        ]
        return self._finish(request, YELLOW_PAGES, headers, svc="query")

    def _evil313(self, request: KitRequest) -> KitResponse:
        target = request.query.get("to") or self.config.evil_location or "http://127.0.0.1:9/"
        return self._finish(
            request, BROKER_RESULT, [("Location", target), (H_SERVICE, "forged")], loc=target
        )

    def _wp_callback(self, request: KitRequest) -> KitResponse:
        session = self.session(request.query.get("sid"))
        if session is None:
            return self._html(request, 403, "Unknown session", "<p>no such sign-in attempt</p>")
        error = header_value(request.headers, H_ERROR)
        if error:
            session.error = error
            return self._html(
                request,
                200,
                "Sign-in unavailable",
                f"<p>authentication unavailable: {error}</p>",
            )
        raw = header_value(request.headers, H_SERVICE)
        envelope = None
        if raw:
            try:
                envelope = decode_broker_result(raw)
            except ValueError as exc:
                log.warning("unusable broker result: %s", exc)
        if envelope is None or not isinstance(envelope.response, dict):
            session.error = "empty"
            return self._html(
                request,
                200,
                "Sign-in unavailable",
                "<p>authentication unavailable: no personal service found</p>",
            )

        handle = envelope.response["handle"]
        if self.config.fault == FAULT_TAMPER_HANDLE:
            handle = _tamper(handle)
        return_url = quote(self.absolute("/result"), safe="")
        headers = [
            (H_SERVICE, json.dumps({"handle": handle})),
            (H_METHOD, "GET"),
            (
                H_PARAMETERS,
                f"/auth?return={return_url}&sid={session.sid}&nonce={session.nonce}",
            ),
            (H_CALLBACK, self.absolute(f"/invoke-error?sid={session.sid}")),
        ]
        headers.extend(self.config.invoke_extra_headers)
        return self._finish(
            request, SERVICE_CALL, headers, self.config.invoke_extra_body, svc="handle"
        )

    def _yp_callback(self, request: KitRequest) -> KitResponse:
        raw = header_value(request.headers, H_SERVICE)
        error = header_value(request.headers, H_ERROR)
        if error or not raw:
            return self._html(
                request, 200, "Discovery", f"<p>listing failed: {error or 'no result'}</p>"
            )
        try:
            envelope = decode_broker_result(raw)
            names = envelope.response if isinstance(envelope.response, list) else []
        except ValueError:
            names = []
        items = "".join(
            f"<li>{json.dumps(name, ensure_ascii=False)}</li>" for name in names
        )
        return self._html(
            request,
            200,
            "Discovery",
            f"<p>{len(names)} service(s) available</p><ul>{items}</ul>",
            svc=f"names[{len(names)}]",
        )

    def _invoke_error(self, request: KitRequest) -> KitResponse:
        session = self.session(request.query.get("sid"))
        error = header_value(request.headers, H_ERROR) or "unknown"
        if session is not None:
            session.error = error
        return self._html(
            request,
            200,
            "Sign-in failed",
            f"<p>authentication failed: {error}</p>",
        )

    def _result(self, request: KitRequest) -> KitResponse:
        form = request.form()
        session = self.session(form.get("sid"))
        if session is None or form.get("nonce") != session.nonce:
            return self._html(
                request, 403, "Rejected", "<p>result does not match any sign-in attempt</p>"
            )
        token = self.issue_cookie(form.get("user", "someone"))
        return self._finish(
            request,
            302,
            [
                ("Set-Cookie", f"{COOKIE_NAME}={token}; Path=/"),
                ("Location", self.absolute(session.next_url)),
            ],
            loc=self.absolute(session.next_url),
            setcookie=1,
        )
