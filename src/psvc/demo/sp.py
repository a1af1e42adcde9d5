"""Demo service provider: a site that authenticates via a personal service.

Without a valid session cookie, the front page redirects to /login.
When the client announces redirection support (PSvc-Version), /login
answers 311 asking for an authentication service; the resolved handle
comes back on /wp-callback, which answers 312 to invoke the service.
The service runs its dialog with the user and finally auto-POSTs the
result to /result, where a nonce echo is checked, the session cookie is
set, and the browser is sent back to the original page.  A sid+nonce
pair is accepted once: a replayed result gets 403.  Open sign-in
attempts and issued cookies are each capped at kit.MAX_TABLE_ENTRIES,
oldest dropped first, and an attempt expires after SESSION_MAX_AGE_S.
The misbehaviour the error scenarios need lives in the runner's subclass.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from typing import Any, NamedTuple
from urllib.parse import quote

from ..kit import (
    KitRequest,
    KitResponse,
    Log,
    ServiceServer,
    drop_stale,
    escape,
    field_tokens,
    header_value,
    html_page,
    put_bounded,
)
from ..protocol import (
    H_CALLBACK,
    H_ERROR,
    H_METHOD,
    H_PARAMETERS,
    H_SERVICE,
    H_VERSION,
    PROTOCOL_VERSION,
    SERVICE_CALL,
    WHITE_PAGES,
    YELLOW_PAGES,
    decode_broker_result,
)

log = Log(__name__)

COOKIE_NAME = "psvc_auth"
# A sign-in attempt outlives no handle minted for it (the broker's HANDLE_MAX_AGE_S).
SESSION_MAX_AGE_S = 300.0

DEFAULT_WP_QUERY: dict[str, Any] = {
    "Purpose": "authentication",
    "Device": "Portuguese eID",
}

DEFAULT_YP_QUERY: dict[str, Any] = {"Purpose": "authentication"}


class _Session(NamedTuple):
    sid: str
    nonce: str
    next_url: str
    born: float  # time.monotonic() when the attempt began


def _html(status: int, title: str, body: str, **note) -> KitResponse:
    """A page; `note` goes on the response's SERVE event."""
    return KitResponse.html(html_page(title, body), status, **note)


def _redirect(to: str) -> KitResponse:
    return KitResponse(302, (("Location", to),), note={"loc": to})


class DemoSP(ServiceServer):
    """Session state plus one route handler per page."""

    def __init__(self, address: tuple[str, int], *, yp_query: dict[str, Any] | None = None):
        # None: the default, shared and never mutated.
        self.yp_query = DEFAULT_YP_QUERY if yp_query is None else yp_query
        self.sessions: dict[str, _Session] = {}
        self.cookies: dict[str, str] = {}  # token -> user
        self.lock = threading.Lock()
        self._routes = {
            ("GET", "/"): self._front,
            ("GET", "/login"): self._login,
            ("GET", "/discover"): self._discover,
            ("POST", "/wp-callback"): self._wp_callback,
            ("POST", "/yp-callback"): self._yp_callback,
            ("POST", "/invoke-error"): self._invoke_error,
            ("POST", "/result"): self._result,
        }
        super().__init__(address, self._handle, "SP")

    def absolute(self, path: str) -> str:
        return f"http://{self.netloc}{path}"

    # -- session helpers ---------------------------------------------------

    def new_session(self, next_url: str) -> _Session:
        sid, nonce = secrets.token_urlsafe(8), secrets.token_urlsafe(12)
        with self.lock:
            now = time.monotonic()
            drop_stale(self.sessions, lambda old: now - old.born > SESSION_MAX_AGE_S)
            session = _Session(sid, nonce, next_url, now)
            put_bounded(self.sessions, sid, session)
        return session

    def _live_session(self, sid: str | None) -> _Session | None:  # the lock is held
        session = self.sessions.get(sid or "")
        if session is None or time.monotonic() - session.born > SESSION_MAX_AGE_S:
            return None
        return session

    def session(self, sid: str | None) -> _Session | None:
        with self.lock:
            return self._live_session(sid)

    def take_session(self, sid: str | None, nonce: str | None) -> _Session | None:
        """End the sign-in attempt `sid` names, but only when `nonce` is its nonce."""
        with self.lock:
            session = self._live_session(sid)
            if session is None or session.nonce != nonce:
                return None
            return self.sessions.pop(session.sid)

    def issue_cookie(self, user: str) -> str:
        token = secrets.token_urlsafe(16)
        with self.lock:
            put_bounded(self.cookies, token, user)
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
            return _html(404, "Not found", "<p>no such page</p>")
        return route(request)

    # -- routes -------------------------------------------------------------

    def _front(self, request: KitRequest) -> KitResponse:
        user = self.user_for_cookie(header_value(request.headers, "Cookie"))
        if user is None:
            return _redirect(self.absolute("/login?next=/"))
        members = f"<h1>Members area</h1><p>authenticated as {escape(user)}</p>"
        return _html(200, "Members area", members)

    def _login(self, request: KitRequest) -> KitResponse:
        next_url = request.query.get("next", "")
        next_url = next_url if next_url.startswith("/") else "/"  # `@evil/` would leave this host
        if self.user_for_cookie(header_value(request.headers, "Cookie")) is not None:
            return _redirect(self.absolute(next_url))
        if PROTOCOL_VERSION not in field_tokens(request.headers, H_VERSION):
            return _html(
                200,
                "Sign in",
                "<p>this site signs users in through a personal service, "
                "which your client does not announce</p>",
            )
        session = self.new_session(next_url)
        callback = self.absolute(f"/wp-callback?sid={session.sid}")
        headers = ((H_SERVICE, json.dumps(DEFAULT_WP_QUERY)), (H_CALLBACK, callback))
        return KitResponse(WHITE_PAGES, headers, note={"svc": "query"})

    def _discover(self, request: KitRequest) -> KitResponse:
        if PROTOCOL_VERSION not in field_tokens(request.headers, H_VERSION):
            return _html(200, "Discovery", "<p>client announces no redirection support</p>")
        headers = [
            (H_SERVICE, json.dumps(self.yp_query)),
            (H_CALLBACK, self.absolute("/yp-callback")),
        ]
        return KitResponse(YELLOW_PAGES, tuple(headers), note={"svc": "query"})

    def _wp_callback(self, request: KitRequest) -> KitResponse:
        session = self.session(request.query.get("sid"))
        if session is None:
            return _html(403, "Unknown session", "<p>no such sign-in attempt</p>")
        error = header_value(request.headers, H_ERROR)
        if error:
            message = f"<p>authentication unavailable: {escape(error)}</p>"
            return _html(200, "Sign-in unavailable", message)
        raw = header_value(request.headers, H_SERVICE)
        envelope = None
        if raw:
            try:
                envelope = decode_broker_result(raw)
            except ValueError as exc:
                log.warning("unusable broker result: %s", exc)
        if envelope is None or not isinstance(envelope.response, dict):
            return _html(
                200,
                "Sign-in unavailable",
                "<p>authentication unavailable: no personal service found</p>",
            )

        handle = envelope.response["handle"]
        return_url = quote(self.absolute("/result"), safe="")
        headers = (
            (H_SERVICE, json.dumps({"handle": handle})),
            (H_METHOD, "GET"),
            (
                H_PARAMETERS,
                f"/auth?return={return_url}&sid={session.sid}&nonce={session.nonce}",
            ),
            (H_CALLBACK, self.absolute(f"/invoke-error?sid={session.sid}")),
        )
        return KitResponse(SERVICE_CALL, headers, note={"svc": "handle"})

    def _yp_callback(self, request: KitRequest) -> KitResponse:
        raw = header_value(request.headers, H_SERVICE)
        error = header_value(request.headers, H_ERROR)
        if error or not raw:
            return _html(200, "Discovery", f"<p>listing failed: {escape(error or 'no result')}</p>")
        try:
            envelope = decode_broker_result(raw)
            names = envelope.response if isinstance(envelope.response, list) else []
        except ValueError:
            names = []
        items = "".join(
            f"<li>{escape(json.dumps(name, ensure_ascii=False))}</li>" for name in names
        )
        return _html(
            200,
            "Discovery",
            f"<p>{len(names)} service(s) available</p><ul>{items}</ul>",
            svc=f"names[{len(names)}]",
        )

    def _invoke_error(self, request: KitRequest) -> KitResponse:
        error = header_value(request.headers, H_ERROR) or "unknown"
        return _html(200, "Sign-in failed", f"<p>authentication failed: {escape(error)}</p>")

    def _result(self, request: KitRequest) -> KitResponse:
        form = request.form()
        session = self.take_session(form.get("sid"), form.get("nonce"))
        if session is None:
            return _html(403, "Rejected", "<p>result does not match any sign-in attempt</p>")
        token = self.issue_cookie(form.get("user", "someone"))
        to = self.absolute(session.next_url)
        headers = (("Set-Cookie", f"{COOKIE_NAME}={token}; Path=/"), ("Location", to))
        return KitResponse(302, headers, note={"loc": to, "setcookie": 1})
