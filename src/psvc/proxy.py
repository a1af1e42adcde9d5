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
             ``Referer`` naming the SP and ``PSvc-Invocation: 1`` (the
             SP's own Referer, PSvc-Invocation and PSvc-Version are not
             carried)
    313      honored only as the broker's answer to the proxy's own
             HEAD; one in the response chain is refused, whoever sent it

Responses chain (a callback POST may yield a 312, an invocation may
yield another redirection) up to a bounded depth.  A broker that cannot
be reached for a listing turns into an empty-result POST to the
callback so the SP can carry on, and a failed service invocation is
reported there as ``service``.  Plain responses relay to the browser
untouched apart from hop-by-hop headers; one that cannot be read is a
502.  HTTPS is not intercepted.

Upstream, the proxy speaks HTTP/1.1 itself (``send_request``): one write
per request, replies read by the scaffold's own head reader, and idle
connections pooled by origin.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import SplitResult, urlsplit

from .kit import (
    KEEPALIVE_IDLE_S,
    MAX_BODY_BYTES,
    REQUEST_LINE,
    STATUS_LINE,
    KitRequest,
    KitResponse,
    Log,
    Refusal,
    ServiceServer,
    Stream,
    content_length,
    encode_head,
    field_tokens,
    header_value,
    read_endpoint_file,
    read_fields,
    read_head,
    stop_process,
)
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
from .registry import (
    BROKER_DESCRIPTOR,
    DESCRIPTOR_SUFFIX,
    DescriptorError,
    read_descriptor,
    validate_descriptor,
)
from .transcript import RECV, SEND

if TYPE_CHECKING:
    import subprocess

log = Log(__name__)

MAX_CHAIN = 8  # redirections one browser request may run through

UPSTREAM_TIMEOUT_S = 15.0
BROKER_CALL_TIMEOUT_S = 5.0
BROKER_PROBE_TIMEOUT_S = 0.4
BROKER_LAUNCH_TIMEOUT_S = 10.0

# Idle upstream connections kept for reuse, across all origins.  Half
# the scaffold's idle timeout leaves a margin before a server closes
# its end, so a reused connection is rarely one being closed.
POOL_MAX = 32
POOL_IDLE_S = KEEPALIVE_IDLE_S / 2

_OVER_CAP = f"body over {MAX_BODY_BYTES} bytes"
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[\t ]*(?:;[\t\x20-\x7e\x80-\xff]*)?\r\n")

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
_OWN_FIELDS = frozenset({H_VERSION.lower(), H_INVOCATION.lower()})  # only the proxy sets these
# Set by the proxy on a service call, never carried from the 312: only the
# proxy names the SP in Referer, and the request sets its own length.
_NOT_CARRIED = _OWN_FIELDS | {"referer", "content-length"}


class Unreachable(Refusal):
    """No reply: the connection was refused, timed out or broke, or no broker could be launched."""

    def __init__(self, reason: str, refused: bool = False):
        super().__init__(502, reason)
        self.refused = refused


class UpstreamResponse(NamedTuple):
    """A fully-read upstream response plus where it came from."""

    status: int
    reason: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    origin: str  # host:port that produced it


def strip_hop_by_hop(headers: list[tuple[str, str]] | tuple[tuple[str, str], ...]) -> list[tuple[str, str]]:
    """Drop hop-by-hop headers, including those named by Connection."""
    named = set(field_tokens(headers, "Connection"))
    return [
        (k, v)
        for k, v in headers
        if k.lower() not in HOP_BY_HOP and k.lower() not in named
    ]


def _port(parts: SplitResult) -> int | None:
    """The port a split http URL names, 80 by default; None when out of range."""
    try:
        return parts.port or 80
    except ValueError:
        return None


class _Pool:
    """Idle upstream connections by origin, shared by the proxy's threads.

    At most POOL_MAX wait, across all origins; past that the oldest goes.
    """

    def __init__(self) -> None:
        # origin: [(idle since, connection)], oldest first; no list is empty
        self._idle: dict[str, list[tuple[float, socket.socket]]] = {}
        self._lock = threading.Lock()

    def take(self, origin: str) -> socket.socket | None:
        """The newest idle connection to `origin` that is still open, if any."""
        with self._lock:
            idle = self._idle.get(origin)
            if not idle:
                return None
            since, sock = idle.pop()
            dropped = []
            if since < time.monotonic() - POOL_IDLE_S:  # then the older ones are stale too
                dropped = [sock, *(older for _, older in idle)]
                idle.clear()
            if not idle:
                del self._idle[origin]
        if not dropped and _alive(sock):
            return sock
        for conn in dropped or [sock]:
            conn.close()
        return None

    def give(self, origin: str, sock: socket.socket) -> None:
        with self._lock:
            self._idle.setdefault(origin, []).append((time.monotonic(), sock))
            if sum(map(len, self._idle.values())) <= POOL_MAX:
                return
            oldest = min(self._idle, key=lambda key: self._idle[key][0][0])
            evicted = self._idle[oldest].pop(0)[1]
            if not self._idle[oldest]:
                del self._idle[oldest]
        evicted.close()


def _alive(sock: socket.socket) -> bool:
    """True when nothing, not even EOF, waits to be read on an idle connection."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return not poller.poll(0)


_POOL = _Pool()


def _encode_request(
    method: str, target: str, origin: str, headers: list[tuple[str, str]], body: bytes
) -> bytes:
    """The request's bytes, or a Refusal for what would not reach the wire intact."""
    lines = [f"{method} {target} HTTP/1.1"]
    if header_value(headers, "Host") is None:
        lines.append(f"Host: {origin}")
    lines += [f"{key}: {value}" for key, value in headers]
    if header_value(headers, "Content-Length") is None and (body or method not in ("GET", "HEAD")):
        lines.append(f"Content-Length: {len(body)}")
    head = encode_head(lines)
    if head is None or not REQUEST_LINE.match(head):
        raise Refusal(502, f"cannot send {method} {target!r} to {origin}: not a valid head")
    return head + body


def _read_reply(stream: Stream, method: str) -> tuple[re.Match, tuple, bytes, bool]:
    """A final reply, body framed by RFC 9112 §6.3: (status line, fields, body, reusable).

    Reusable means an HTTP/1.1 reply without ``close`` whose body did not run to EOF.
    """
    head = read_head(stream, STATUS_LINE)
    if head is None and stream.idle:
        raise ConnectionResetError("closed without replying")
    while head is not None and head[0][2].startswith(b"1"):
        head = read_head(stream, STATUS_LINE)
    if head is None:
        raise Refusal(502, "closed mid-head")
    start, fields = head
    length, codings = content_length(fields), field_tokens(fields, "Transfer-Encoding")
    reusable = start[1] != b"0" and "close" not in field_tokens(fields, "Connection")
    if method == "HEAD" or start[2] in (b"204", b"304"):
        body = b""
    elif codings and codings[-1] == "chunked":
        body = _dechunk(stream)
        reusable = reusable and length is None  # both framings: a smuggling attempt, at best
    elif codings or length is None:  # the body runs to EOF
        body, reusable = stream.take(MAX_BODY_BYTES + 1), False
        if len(body) > MAX_BODY_BYTES:
            raise Refusal(502, _OVER_CAP)
    elif length > MAX_BODY_BYTES:
        raise Refusal(502, _OVER_CAP)
    elif len(body := stream.take(length)) < length:
        raise Refusal(502, "body shorter than its Content-Length")
    return start, fields, body, reusable and stream.idle


def _dechunk(stream: Stream) -> bytes:
    """A chunked body (RFC 9112 §7.1) decoded under the cap; its trailer fields are dropped."""
    body = bytearray()
    while (size := _CHUNK_SIZE.fullmatch(stream.line() or b"")) and (length := int(size[1], 16)):
        if len(body) + length > MAX_BODY_BYTES:
            raise Refusal(502, _OVER_CAP)
        chunk = stream.take(length + 2)
        if chunk[length:] != b"\r\n":
            raise Refusal(502, "malformed chunk")
        body += chunk[:length]
    if size is None or read_fields(stream) is None:
        raise Refusal(502, "malformed chunk size or trailer")
    return bytes(body)


def _exchange(sock: socket.socket, request: bytes, method: str, timeout: float):
    """Send `request` on `sock` and read the reply, the whole exchange within `timeout`."""
    stream = Stream(sock, timeout)
    sock.settimeout(timeout)
    sock.sendall(request)
    return _read_reply(stream, method)


def send_request(
    method: str,
    url: str,
    headers: list[tuple[str, str]],
    body: bytes,
    *,
    timeout: float = UPSTREAM_TIMEOUT_S,
) -> UpstreamResponse:
    """One plain HTTP/1.1 exchange; headers go out exactly as given.

    It runs on an idle pooled connection to the origin when there is
    one.  A HEAD or GET whose pooled connection breaks before the reply
    (the server closed it meanwhile) is sent once more on a fresh
    connection; any other method is never sent twice.  A request that
    would not reach the wire intact is a 502 before any byte is sent,
    and so is a reply that cannot be read or whose body is over
    MAX_BODY_BYTES; its connection is closed.
    """
    parts = urlsplit(url)
    port = _port(parts)
    if parts.scheme != "http" or not parts.hostname or port is None:
        raise Refusal(400, f"cannot forward to {url!r}: only plain http URLs with a valid port")
    origin = parts.netloc
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    request = _encode_request(method, target, origin, headers, body)
    sock, reply = _POOL.take(origin), None
    try:
        if sock is not None:
            try:
                reply = _exchange(sock, request, method, timeout)
            except (ConnectionResetError, BrokenPipeError):
                if method not in ("GET", "HEAD"):
                    raise
                sock.close()
        if reply is None:
            sock = socket.create_connection((parts.hostname, port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reply = _exchange(sock, request, method, timeout)
    except OSError as exc:
        refused = isinstance(exc, ConnectionRefusedError)
        raise Unreachable(f"upstream {origin} unreachable: {exc}", refused) from None
    except Refusal as exc:
        raise Refusal(502, f"upstream {origin} sent an unreadable reply: {exc.reason}") from None
    finally:
        if sock is not None and (reply is None or not reply[3]):
            sock.close()
    start, fields, payload, reusable = reply
    if reusable:
        _POOL.give(origin, sock)
    reason = start[3].decode("latin-1").strip()
    return UpstreamResponse(int(start[2]), reason, fields, payload, origin)


class BrokerLink:
    """Calls the user's broker where broker.ept says it is.

    Nothing is probed up front: each call reads broker.ept and sends its
    HEAD.  Only a refused connection (or no endpoint file) starts
    recovery, under one lock: re-read broker.ept and retry at a port it
    newly names, else launch a broker from broker.psd once, when that
    file exists, and retry once.  A timeout or a reset means a broker
    may be there, so it never launches a second one, whose empty handle
    table would void every handle the first one minted.
    """

    def __init__(self, ps_dir: Path | str):
        self.ps_dir = Path(ps_dir)
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None

    @staticmethod
    def _connectable(host: str, port: int) -> bool:
        try:
            with socket.create_connection((host, port), timeout=BROKER_PROBE_TIMEOUT_S):
                return True
        except OSError:
            return False

    def endpoint_or_none(self) -> tuple[str, int] | None:
        """The endpoint broker.ept names, unchecked; None without a usable file."""
        return read_endpoint_file(self.ps_dir)

    def endpoint(self) -> tuple[str, int]:
        """The published broker endpoint; launches a broker when none is published."""
        return self.endpoint_or_none() or self._recover(None)

    def _recover(self, refused: tuple[str, int] | None) -> tuple[str, int]:
        """An endpoint to retry after `refused` (None: no endpoint file) failed."""
        with self._lock:
            published = self.endpoint_or_none()
            if published is not None and published != refused:
                return published  # another thread or process got there first
            self._launch()
            deadline = time.monotonic() + BROKER_LAUNCH_TIMEOUT_S
            while time.monotonic() < deadline:
                published = self.endpoint_or_none()
                if published is not None and self._connectable(*published):
                    return published
                if self._proc.poll() is not None:
                    raise Unreachable(f"broker exited with status {self._proc.returncode}")
                time.sleep(0.05)
            stop_process(self._proc)  # else each failed call would leave one more broker
        raise Unreachable("launched broker but it never published an endpoint")

    def _launch(self) -> None:
        path = self.ps_dir / (BROKER_DESCRIPTOR + DESCRIPTOR_SUFFIX)
        try:
            desc = validate_descriptor(
                read_descriptor(path), descriptor_id=BROKER_DESCRIPTOR, default_dir=self.ps_dir
            )
        except (OSError, DescriptorError) as exc:
            raise Unreachable(f"no usable {path.name}: {exc}") from None
        if desc.cmd is None:
            raise Unreachable(f"{path.name} does not define a launch command")
        if not desc.workdir.is_dir():
            raise Unreachable(f"broker working directory {desc.workdir} does not exist")
        log.info("launching broker: %s", list(desc.cmd))
        import subprocess  # most runs find a broker already up

        try:
            # Unlike services, the broker picks its own port and
            # publishes it, so the vector runs unchanged.
            self._proc = subprocess.Popen(
                list(desc.cmd),
                cwd=desc.workdir,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise Unreachable(f"cannot launch broker: {exc}") from None

    def call(self, path_and_query: str, headers: list[tuple[str, str]]) -> UpstreamResponse:
        """HEAD the broker; Unreachable when no broker answers.

        A reply that arrives but cannot be read stays a plain 502 Refusal:
        the broker is there, so it must not pass for an absent one.
        """
        host, port = self.endpoint()
        for retry in (True, False):
            url = f"http://{host}:{port}{path_and_query}"
            try:
                return send_request("HEAD", url, headers, b"", timeout=BROKER_CALL_TIMEOUT_S)
            except Unreachable as exc:
                if not (retry and exc.refused):
                    raise
            host, port = self._recover((host, port))

    def shutdown(self) -> None:
        if self._proc is not None:
            stop_process(self._proc)


class PersonalServiceProxy(ServiceServer):
    """The proxy: relays each browser request and runs its redirection chain."""

    def __init__(self, ps_dir: Path | str, address: tuple[str, int]):
        self.broker = BrokerLink(ps_dir)
        super().__init__(address, self._handle, "Proxy")

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
        parts = urlsplit(url)
        if _port(parts) == self.port and parts.hostname in (self.host, "localhost"):
            # Forwarded, it would come back here and hold a second worker.
            return KitResponse.text("refusing to forward to this proxy itself\n", 508)
        try:
            final = self.handle_transaction(request.method, url, list(request.headers), request.body)
        except Refusal as exc:
            return KitResponse.text(exc.reason + "\n", exc.status, diag=exc.reason)
        headers = tuple(strip_hop_by_hop(final.headers))  # the scaffold sets Content-Length
        return KitResponse(final.status, headers, final.body, final.reason)

    def handle_transaction(
        self, method: str, url: str, headers: list[tuple[str, str]], body: bytes
    ) -> UpstreamResponse:
        """Run one browser request to completion, chaining redirections.

        The request is relayed announcing redirection capability; a client's
        own PSvc-Version and PSvc-Invocation are dropped.
        """
        out = [(k, v) for k, v in strip_hop_by_hop(headers) if k.lower() not in _OWN_FIELDS]
        if method in ("GET", "POST"):
            out.append((H_VERSION, PROTOCOL_VERSION))
        response = self._relay(method, url, out, body)
        for _ in range(MAX_CHAIN):
            if response.status == BROKER_RESULT:
                # The broker answers only the proxy's own HEADs, which
                # _ask_broker reads; a 313 in the response chain is forged.
                self.transcript.emit(
                    RECV, "?", "313", response.status, origin=response.origin, action="rejected"
                )
                log.warning("refusing 313 from %s", response.origin)
                raise Refusal(502, "refused a broker-result redirection from a non-broker source")
            if response.status not in (YELLOW_PAGES, WHITE_PAGES, SERVICE_CALL):
                return response
            try:
                directive = parse_directive(response.status, list(response.headers), response.body)
            except MalformedDirective as exc:
                callback = header_value(response.headers, H_CALLBACK)
                response = self._to_callback(callback, error=ERR_PARAMETERS, reason=str(exc))
                continue
            if directive.kind == SERVICE_CALL:
                response = self._do_invoke(directive, response.origin)
            else:
                response = self._do_listing(directive, response.origin)
        raise Refusal(502, f"redirection chain exceeded {MAX_CHAIN} steps")

    def _relay(
        self, method: str, url: str, headers: list[tuple[str, str]], body: bytes, **detail
    ) -> UpstreamResponse:
        """Emit the request's SEND event, with `detail`, and send it: every upstream request
        but the broker's goes out here."""
        self.transcript.emit(SEND, method, url, **detail)
        return send_request(method, url, headers, body)

    def _to_callback(
        self, callback: str | None, *, service: str | None = None, error: str | None = None,
        reason: str | None = None,
    ) -> UpstreamResponse:
        """POST a broker result, or an error code, to the SP's callback URL.  A failure
        (`reason` given) is logged, or is a 502 when there is no callback to report it to."""
        if reason is not None:
            if callback is None:
                raise Refusal(502, reason)
            log.warning("reporting %r to %s: %s", error, callback, reason)
        fields = [(H_VERSION, PROTOCOL_VERSION), (H_SERVICE, service), (H_ERROR, error)]
        headers = [(name, value) for name, value in fields if value is not None]
        svc = None if service is None else "result"
        return self._relay("POST", callback, headers, b"", svc=svc, err=error)

    def _ask_broker(
        self, path: str, headers: list[tuple[str, str]], tag: str
    ) -> tuple[str | None, str | None, str | None]:
        """HEAD the broker and read its 313: (Location, PSvc-Service, PSvc-Error).

        Unreachable passes through; any other status is a 502.
        """
        self.transcript.emit(SEND, "HEAD", path, svc=tag)
        reply = self.broker.call(path, headers)
        location, service, error = (
            header_value(reply.headers, name) for name in ("Location", H_SERVICE, H_ERROR)
        )
        self.transcript.emit(
            RECV, "HEAD", path.partition("?")[0], reply.status,
            origin=reply.origin, loc=location, err=error,
        )
        if reply.status != BROKER_RESULT:
            raise Refusal(502, f"broker answered {reply.status} instead of a result")
        return location, service, error

    def _do_listing(self, directive: PsvcDirective, sp_host: str) -> UpstreamResponse:
        """Serve a 310/311 by asking the broker and POSTing its envelope back."""
        if directive.kind == YELLOW_PAGES:
            path, query, operation, empty = "/yellow", directive.yellow.as_object(), OP_YELLOW, []
        else:
            path, query, operation, empty = "/white", dict(directive.white), OP_WHITE, None
        headers = [
            (H_SERVICE, json.dumps(query)),
            (H_CALLBACK, directive.callback),
            ("Referer", sp_host),
        ]
        try:
            location, service, error = self._ask_broker(path, headers, "query")
        except Unreachable as exc:
            # The SP still gets an answer: an empty result envelope.
            log.warning("broker unreachable for listing: %s", exc)
            self.transcript.emit(RECV, "HEAD", path, None, err="unreachable")
            location, error = None, None
            service = encode_broker_result(BrokerResult(operation, query, empty))
        return self._to_callback(location or directive.callback, service=service, error=error)

    def _do_invoke(self, directive: PsvcDirective, sp_host: str) -> UpstreamResponse:
        """Serve a 312: resolve the handle, then send the held request to the service."""
        # The resolution arrives within this request, so the ref only has
        # to be checked against the one just sent.
        ref = os.urandom(12).hex()
        try:
            location, endpoint, error = self._ask_broker(
                f"/resolve?ref={ref}",
                [(H_SERVICE, directive.handle), ("Referer", sp_host)],
                "handle",
            )
        except Unreachable as exc:
            return self._to_callback(
                directive.callback, error=ERR_SERVICE, reason=f"broker unreachable: {exc}"
            )
        if error is not None:
            code = error if error in ERROR_CODES else ERR_SERVICE
            return self._to_callback(
                directive.callback, error=code, reason=f"broker refused the call: {error}"
            )
        if location != f":{ref}":
            raise Refusal(502, "broker resolution did not name this call's reference")
        if not endpoint:
            raise Refusal(502, "broker resolution lacked a service endpoint")
        base = endpoint if "://" in endpoint else f"http://{endpoint}"
        url = base.rstrip("/") + (directive.parameters or "/")
        carried = strip_hop_by_hop(directive.carried_headers)
        headers = [(k, v) for k, v in carried if k.lower() not in _NOT_CARRIED]
        headers += [("Referer", sp_host), (H_INVOCATION, "1")]
        if directive.method in ("GET", "POST"):
            headers.append((H_VERSION, PROTOCOL_VERSION))
        try:
            return self._relay(
                directive.method, url, headers, directive.carried_body,
                referer=sp_host, svc="invocation",
            )
        except Refusal as exc:
            return self._to_callback(
                directive.callback, error=ERR_SERVICE, reason=f"invocation failed: {exc.reason}"
            )

    def shutdown(self) -> None:
        super().shutdown()
        self.broker.shutdown()
