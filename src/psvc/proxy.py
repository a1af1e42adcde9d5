"""Forwarding HTTP proxy that speaks the personal-service redirections.

The proxy announces capability by adding ``PSvc-Version: 1`` to every
GET/POST it forwards upstream, then intercepts 310/311/312 responses
and runs the broker conversation the browser cannot:

    310/311  query the broker (HEAD /yellow or /white), then POST the
             result envelope to the SP's callback URL
    312      resolve the handle (HEAD /resolve?ref=...), accept only a
             result naming that same ref, then send the service request:
             the directive's method, the endpoint plus PSvc-Parameters,
             every carried header, the body byte for byte, plus
             ``Referer`` naming the SP and ``PSvc-Invocation: 1``
    313      honored only when the sending connection is the configured
             broker endpoint; anyone else gets refused

Responses chain (a callback POST may yield a 312, an invocation may
yield another redirection) up to a bounded depth.  A broker that cannot
be reached for a listing turns into an empty-result POST to the
callback so the SP can carry on.  Plain responses relay to the browser
untouched apart from hop-by-hop headers.  HTTPS is not intercepted.
"""

from __future__ import annotations

import json
import logging
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from secrets import token_urlsafe
from urllib.parse import urlsplit

from .broker.core import EndpointFileError, read_endpoint_file
from .broker.runtime import stop_process
from .kit import KitRequest, KitResponse, ServiceServer, header_value
from .protocol import (
    BROKER_RESULT,
    BrokerResult,
    ERR_PARAMETERS,
    ERR_SERVICE,
    ERROR_CODES,
    H_CALLBACK,
    H_ERROR,
    H_INVOCATION,
    H_SERVICE,
    H_VERSION,
    MalformedDirective,
    OP_WHITE,
    OP_YELLOW,
    PROTOCOL_VERSION,
    PsvcDirective,
    SERVICE_CALL,
    WHITE_PAGES,
    YELLOW_PAGES,
    encode_broker_result,
    parse_directive,
)
from .registry import BROKER_DESCRIPTOR, DESCRIPTOR_SUFFIX, DescriptorError, validate_descriptor
from .transcript import RECV, SEND, SERVE, Transcript

log = logging.getLogger(__name__)

DEFAULT_LISTEN = ("127.0.0.1", 3128)
DEFAULT_MAX_CHAIN = 8

UPSTREAM_TIMEOUT_S = 15.0
BROKER_CALL_TIMEOUT_S = 5.0
BROKER_PROBE_TIMEOUT_S = 0.4
BROKER_LAUNCH_TIMEOUT_S = 10.0

# End at this proxy; never forwarded (RFC 7230 hop-by-hop set).
HOP_BY_HOP = frozenset(
    {
        "connection",
        "keep-alive",
        "proxy-authenticate",
        "proxy-authorization",
        "proxy-connection",
        "te",
        "trailer",
        "trailers",
        "transfer-encoding",
        "upgrade",
    }
)


class Diagnostic(Exception):
    """Transaction failure surfaced to the browser as a plain response."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


class BrokerUnreachable(Exception):
    """No live broker endpoint could be found or launched."""


@dataclass(frozen=True)
class UpstreamResponse:
    """A fully-read upstream response plus where it came from."""

    status: int
    reason: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    origin: str  # host:port that produced it


def strip_hop_by_hop(headers: list[tuple[str, str]] | tuple[tuple[str, str], ...]) -> list[tuple[str, str]]:
    """Drop hop-by-hop headers, including those named by Connection."""
    named = set()
    for key, value in headers:
        if key.lower() == "connection":
            named.update(tok.strip().lower() for tok in value.split(",") if tok.strip())
    return [
        (k, v)
        for k, v in headers
        if k.lower() not in HOP_BY_HOP and k.lower() not in named
    ]


def send_request(
    method: str,
    url: str,
    headers: list[tuple[str, str]],
    body: bytes,
    *,
    timeout: float = UPSTREAM_TIMEOUT_S,
) -> UpstreamResponse:
    """One plain HTTP exchange; headers go out exactly as given."""
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise Diagnostic(400, f"cannot forward to {url!r}: only plain http URLs")
    origin = parts.netloc
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    conn = HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)
    try:
        conn.putrequest(method, target, skip_host=True, skip_accept_encoding=True)
        if not any(k.lower() == "host" for k, _ in headers):
            conn.putheader("Host", origin)
        have_length = any(k.lower() == "content-length" for k, _ in headers)
        for key, value in headers:
            conn.putheader(key, value)
        if not have_length and (body or method not in ("GET", "HEAD")):
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        payload = b"" if method == "HEAD" else resp.read()
        return UpstreamResponse(
            status=resp.status,
            reason=resp.reason or "",
            headers=tuple((k, v) for k, v in resp.getheaders()),
            body=payload,
            origin=origin,
        )
    except OSError as exc:
        raise Diagnostic(502, f"upstream {origin} unreachable: {exc}") from None
    finally:
        conn.close()


class BrokerLink:
    """Finds the user's broker, launching it from broker.psd when needed."""

    def __init__(self, ps_dir: Path | str, *, autolaunch: bool = True):
        self.ps_dir = Path(ps_dir)
        self.autolaunch = autolaunch
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None

    @staticmethod
    def _connectable(host: str, port: int) -> bool:
        try:
            with socket.create_connection((host, port), timeout=BROKER_PROBE_TIMEOUT_S):
                return True
        except OSError:
            return False

    def _published(self) -> tuple[str, int] | None:
        try:
            host, port = read_endpoint_file(self.ps_dir)
        except EndpointFileError:
            return None
        return (host, port) if self._connectable(host, port) else None

    def endpoint(self) -> tuple[str, int]:
        """A live broker endpoint; may launch one from broker.psd."""
        live = self._published()
        if live:
            return live
        if not self.autolaunch:
            raise BrokerUnreachable("no live broker endpoint published")
        with self._lock:
            live = self._published()
            if live:
                return live
            self._launch()
            deadline = time.monotonic() + BROKER_LAUNCH_TIMEOUT_S
            while time.monotonic() < deadline:
                live = self._published()
                if live:
                    return live
                if self._proc is not None and self._proc.poll() is not None:
                    raise BrokerUnreachable(
                        f"broker exited with status {self._proc.returncode}"
                    )
                time.sleep(0.05)
        raise BrokerUnreachable("launched broker but it never published an endpoint")

    def _launch(self) -> None:
        path = self.ps_dir / (BROKER_DESCRIPTOR + DESCRIPTOR_SUFFIX)
        try:
            desc = validate_descriptor(
                path.read_bytes(), descriptor_id=BROKER_DESCRIPTOR, default_dir=self.ps_dir
            )
        except (OSError, DescriptorError) as exc:
            raise BrokerUnreachable(f"no usable {path.name}: {exc}") from None
        if desc.cmd is None:
            raise BrokerUnreachable(f"{path.name} does not define a launch command")
        log.info("launching broker: %s", list(desc.cmd))
        try:
            # Unlike services, the broker picks its own port and
            # publishes it, so the vector runs unchanged.
            self._proc = subprocess.Popen(
                list(desc.cmd),
                cwd=desc.workdir if desc.workdir.is_dir() else self.ps_dir,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise BrokerUnreachable(f"cannot launch broker: {exc}") from None

    def call(self, path_and_query: str, headers: list[tuple[str, str]]) -> UpstreamResponse:
        """HEAD the broker; raises BrokerUnreachable when it cannot answer."""
        host, port = self.endpoint()
        try:
            return send_request(
                "HEAD",
                f"http://{host}:{port}{path_and_query}",
                headers,
                b"",
                timeout=BROKER_CALL_TIMEOUT_S,
            )
        except Diagnostic as exc:
            raise BrokerUnreachable(exc.reason) from None

    def endpoint_or_none(self) -> tuple[str, int] | None:
        return self._published()

    def shutdown(self) -> None:
        if self._proc is not None:
            stop_process(self._proc)


@dataclass
class ProxyConfig:
    listen_host: str = DEFAULT_LISTEN[0]
    listen_port: int = DEFAULT_LISTEN[1]
    ps_dir: Path = Path(".")
    max_chain: int = DEFAULT_MAX_CHAIN
    broker_autolaunch: bool = True


class PersonalServiceProxy:
    """The proxy engine, independent of any particular HTTP frontend."""

    def __init__(self, config: ProxyConfig):
        self.config = config
        self.broker = BrokerLink(config.ps_dir, autolaunch=config.broker_autolaunch)
        self.transcript = Transcript.from_env("Proxy")

    def handle_transaction(
        self, method: str, url: str, headers: list[tuple[str, str]], body: bytes
    ) -> UpstreamResponse:
        """Run one browser request to completion, chaining redirections."""
        response = self._forward(method, url, headers, body)
        for _ in range(self.config.max_chain):
            if response.status in (YELLOW_PAGES, WHITE_PAGES):
                response = self._do_listing(response)
            elif response.status == SERVICE_CALL:
                response = self._do_invoke(response)
            elif response.status == BROKER_RESULT:
                response = self._follow_broker_result(response)
            else:
                return response
        raise Diagnostic(502, f"redirection chain exceeded {self.config.max_chain} steps")

    def _forward(
        self, method: str, url: str, headers: list[tuple[str, str]], body: bytes
    ) -> UpstreamResponse:
        """Relay the browser's request, announcing redirection capability."""
        out = [(k, v) for k, v in strip_hop_by_hop(headers) if k.lower() != H_VERSION.lower()]
        if method in ("GET", "POST"):
            out.append((H_VERSION, PROTOCOL_VERSION))
        self.transcript.emit(SEND, method, url)
        return send_request(method, url, out, body)

    def _post_to_sp(
        self,
        callback: str,
        *,
        service: str | None,
        error: str | None,
    ) -> UpstreamResponse:
        """Deliver a broker result (or failure) to the SP's callback URL."""
        headers: list[tuple[str, str]] = [(H_VERSION, PROTOCOL_VERSION)]
        svc_tag = None
        if service is not None:
            headers.append((H_SERVICE, service))
            svc_tag = "result"
        if error is not None:
            headers.append((H_ERROR, error))
        self.transcript.emit(SEND, "POST", callback, svc=svc_tag, err=error)
        return send_request("POST", callback, headers, b"")

    def _report_error(self, callback: str | None, code: str, reason: str) -> UpstreamResponse:
        if callback is None:
            raise Diagnostic(502, reason)
        log.warning("reporting %r to %s: %s", code, callback, reason)
        return self._post_to_sp(callback, service=None, error=code)

    def _do_listing(self, response: UpstreamResponse) -> UpstreamResponse:
        """Serve a 310/311 by asking the broker and POSTing its envelope back."""
        sp_host = response.origin
        try:
            directive = parse_directive(response.status, list(response.headers), response.body)
        except MalformedDirective as exc:
            return self._report_error(
                header_value(response.headers, H_CALLBACK), ERR_PARAMETERS, str(exc)
            )

        if directive.kind == YELLOW_PAGES:
            path, query_text = "/yellow", json.dumps(directive.yellow.as_object())
        else:
            path, query_text = "/white", json.dumps(directive.white)
        try:
            self.transcript.emit(SEND, "HEAD", path, svc="query")
            reply = self.broker.call(
                path,
                [
                    (H_SERVICE, query_text),
                    (H_CALLBACK, directive.callback),
                    ("Referer", sp_host),
                ],
            )
        except BrokerUnreachable as exc:
            # The SP still gets an answer: an empty result envelope.
            log.warning("broker unreachable for listing: %s", exc)
            if directive.kind == YELLOW_PAGES:
                empty = BrokerResult(OP_YELLOW, directive.yellow.as_object(), [])
            else:
                empty = BrokerResult(OP_WHITE, dict(directive.white), None)
            self.transcript.emit(RECV, "HEAD", path, None, err="unreachable")
            return self._post_to_sp(
                directive.callback, service=encode_broker_result(empty), error=None
            )

        location = header_value(reply.headers, "Location")
        error = header_value(reply.headers, H_ERROR)
        self.transcript.emit(
            RECV, "HEAD", path, reply.status, origin=reply.origin, loc=location, err=error
        )
        if reply.status != BROKER_RESULT:
            raise Diagnostic(502, f"broker answered {reply.status} instead of a result")
        return self._post_to_sp(
            location or directive.callback,
            service=header_value(reply.headers, H_SERVICE),
            error=error,
        )

    def _do_invoke(self, response: UpstreamResponse) -> UpstreamResponse:
        """Serve a 312: resolve the handle, then call the service itself."""
        sp_host = response.origin
        try:
            directive = parse_directive(response.status, list(response.headers), response.body)
        except MalformedDirective as exc:
            return self._report_error(
                header_value(response.headers, H_CALLBACK), ERR_PARAMETERS, str(exc)
            )

        # The resolution arrives within this request, so the ref only has
        # to be checked against the one just sent.
        ref = token_urlsafe(16)
        try:
            self.transcript.emit(SEND, "HEAD", f"/resolve?ref={ref}", svc="handle")
            reply = self.broker.call(
                f"/resolve?ref={ref}",
                [(H_SERVICE, directive.handle), ("Referer", sp_host)],
            )
        except BrokerUnreachable as exc:
            return self._report_error(
                directive.callback, ERR_SERVICE, f"broker unreachable: {exc}"
            )

        location = header_value(reply.headers, "Location")
        error = header_value(reply.headers, H_ERROR)
        self.transcript.emit(
            RECV, "HEAD", "/resolve", reply.status, origin=reply.origin, loc=location, err=error
        )
        if reply.status != BROKER_RESULT:
            raise Diagnostic(502, f"broker answered {reply.status} instead of a result")
        if error is not None:
            code = error if error in ERROR_CODES else ERR_SERVICE
            return self._report_error(
                directive.callback, code, f"broker refused the call: {error}"
            )
        if location != f":{ref}":
            raise Diagnostic(502, "broker resolution did not name this call's reference")
        endpoint = header_value(reply.headers, H_SERVICE)
        if not endpoint:
            raise Diagnostic(502, "broker resolution lacked a service endpoint")
        return self._call_service(directive, sp_host, endpoint)

    def _call_service(
        self, directive: PsvcDirective, sp_host: str, endpoint: str
    ) -> UpstreamResponse:
        """Issue the held request to the now-live personal service."""
        base = endpoint if "://" in endpoint else f"http://{endpoint}"
        url = base.rstrip("/") + (directive.parameters or "/")
        headers = [
            (k, v)
            for k, v in strip_hop_by_hop(directive.carried_headers)
            if k.lower() != "content-length"
        ]
        headers.append(("Referer", sp_host))
        headers.append((H_INVOCATION, "1"))
        if directive.method in ("GET", "POST"):
            headers.append((H_VERSION, PROTOCOL_VERSION))
        self.transcript.emit(
            SEND, directive.method, url, referer=sp_host, svc="invocation"
        )
        return send_request(directive.method, url, headers, directive.carried_body)

    def _follow_broker_result(self, response: UpstreamResponse) -> UpstreamResponse:
        """313s are only obeyed when the broker itself sent them."""
        broker_at = self.broker.endpoint_or_none()
        broker_netloc = f"{broker_at[0]}:{broker_at[1]}" if broker_at else None
        if broker_netloc is None or response.origin != broker_netloc:
            self.transcript.emit(
                RECV, "?", "313", response.status, origin=response.origin, action="rejected"
            )
            log.warning("refusing 313 from %s (broker is %s)", response.origin, broker_netloc)
            raise Diagnostic(502, "refused a broker-result redirection from a non-broker source")
        location = header_value(response.headers, "Location") or ""
        if location.startswith(":"):
            raise Diagnostic(502, "broker result referenced a call this proxy never made")
        return self._post_to_sp(
            location,
            service=header_value(response.headers, H_SERVICE),
            error=header_value(response.headers, H_ERROR),
        )

    def shutdown(self) -> None:
        self.broker.shutdown()


class ProxyServer(ServiceServer):
    """Binds the engine to a listening socket."""

    def __init__(self, config: ProxyConfig):
        self.engine = PersonalServiceProxy(config)
        super().__init__((config.listen_host, config.listen_port), self._handle)

    @property
    def address(self) -> str:
        return f"{self._httpd.server_address[0]}:{self.port}"

    def _handle(self, request: KitRequest) -> KitResponse:
        url = request.target
        if request.method == "CONNECT":
            return KitResponse.text("CONNECT tunneling is not provided\n", 501)
        if url.startswith("https://"):
            return KitResponse.text(
                "https is relayed by tunneling only, which this proxy does not do\n", 501
            )
        if not url.startswith("http://"):
            return KitResponse.text("expected an absolute http:// request target\n", 400)
        try:
            final = self.engine.handle_transaction(
                request.method, url, list(request.headers), request.body
            )
        except Diagnostic as diag:
            self.engine.transcript.emit(SERVE, request.method, url, diag.status, diag=diag.reason)
            return KitResponse.text(diag.reason + "\n", diag.status)
        headers = [
            (k, v)
            for k, v in strip_hop_by_hop(list(final.headers))
            if k.lower() != "content-length"
        ]
        self.engine.transcript.emit(SERVE, request.method, url, final.status)
        return KitResponse(final.status, tuple(headers), final.body, final.reason)

    def shutdown(self) -> None:
        super().shutdown()
        self.engine.shutdown()
