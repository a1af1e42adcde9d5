"""The one head reader, differentially against http.server and http.client, and what it refuses.

The scaffold reads requests with it, and the proxy reads its upstream
replies with it.  http.server (for requests) and http.client (for
replies) are the oracles here and only here: psvc itself imports
neither.  Where both accept a request head, they agree on method,
target and fields, up to three known differences that the comparison
normalizes:

- Trailing whitespace of a field value: http.server keeps it, while
  ``kit.read_head`` drops it, since RFC 9110 §5.5 leaves it out of the
  value.  Leading whitespace both drop.  Criterion 7's carried headers
  (hex values) have none, and ``test_criterion_7_header_and_body_fidelity``
  passes unchanged; ``test_inner_whitespace_is_kept`` pins what is kept.
- A target starting with ``//``: http.server folds the leading slashes
  into one; ``read_head`` keeps the target as sent.
- The field bound: http.server counts the empty line that ends the head,
  so it refuses the 100th field line; ``read_head`` refuses the 101st.

Where both accept a reply, they agree on status, reason, fields (up to
the same trailing whitespace) and body, under every framing.
"""

from __future__ import annotations

import io
import re
import socket
import threading
from contextlib import suppress
from http.client import HTTPException, HTTPResponse
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import psvc.proxy
from psvc import kit
from psvc.kit import KitRequest, KitResponse, Refusal, ServiceServer, Stream, read_head

TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
VCHAR = "".join(map(chr, range(0x21, 0x7F)))
OBS_TEXT = "".join(map(chr, range(0x80, 0x100)))


class Bytes:
    """Just enough of a socket for kit.Stream, and for http.client, to read `data` from."""

    def __init__(self, data: bytes):
        self._data = data
        self.recv = io.BytesIO(data).read

    def settimeout(self, timeout: float) -> None:
        pass

    def makefile(self, mode: str) -> io.BytesIO:
        return io.BytesIO(self._data)


class _Oracle(BaseHTTPRequestHandler):
    def log_message(self, *args) -> None:
        pass


def oracle(data: bytes) -> tuple[str, str, tuple[tuple[str, str], ...]] | None:
    """What http.server makes of a request head, or None when it refuses it."""
    handler = _Oracle.__new__(_Oracle)
    handler.rfile, handler.wfile = io.BytesIO(data), io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.request_version = "HTTP/0.9"
    handler.command = None
    handler.raw_requestline = handler.rfile.readline(65537)
    if len(handler.raw_requestline) > 65536 or not handler.parse_request():
        return None
    fields = tuple((k, v.rstrip(" \t")) for k, v in handler.headers.items())
    return handler.command, handler.path, fields


def ours(data: bytes) -> tuple[str, str, tuple[tuple[str, str], ...]] | None:
    """What kit.read_head makes of a request head, or None when it refuses it."""
    try:
        head = read_head(Stream(Bytes(data), 10))
    except Refusal:
        return None
    if head is None:
        return None
    start, fields = head
    method, target = start[1].decode(), start[2].decode()
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    return method, target, fields


tokens = st.text(TCHAR, min_size=1, max_size=12)
methods = st.sampled_from(["GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS"]) | tokens
targets = st.one_of(
    st.text(VCHAR, max_size=40).map(lambda t: "/" + t),
    st.builds(lambda h, p: f"http://{h}:8080/{p}", st.text(TCHAR, min_size=1, max_size=10),
              st.text(VCHAR, max_size=20)),
    st.just("*"),
)
ows = st.text(" \t", max_size=3)
values = st.text(VCHAR + OBS_TEXT + " \t", max_size=30)
fields = st.lists(st.tuples(tokens, ows, values, ows), max_size=10)


def head_bytes(method: str, target: str, version: str, field_list) -> bytes:
    lines = [f"{method} {target} {version}"]
    lines += [f"{name}:{lead}{value}{trail}" for name, lead, value, trail in field_list]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


@settings(max_examples=400, deadline=None)
@given(methods, targets, st.sampled_from(["HTTP/1.1", "HTTP/1.0"]), fields)
def test_heads_both_accept_give_the_same_request(method, target, version, field_list):
    data = head_bytes(method, target, version, field_list)
    mine, theirs = ours(data), oracle(data)
    assert mine is not None  # every head drawn here is valid by RFC 9112
    if theirs is not None:
        assert mine == theirs


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=120))
def test_arbitrary_bytes_never_disagree_where_both_accept(noise):
    data = b"GET /x HTTP/1.1\r\nHost: h\r\n" + noise + b"\r\n\r\n"
    mine = ours(data)
    if mine is not None:
        assert mine == oracle(data)


def test_inner_whitespace_is_kept():
    head = read_head(Stream(Bytes(b"GET / HTTP/1.1\r\nX-A: \t a \t b \t \r\n\r\n"), 10))
    assert head[1] == (("X-A", "a \t b"),)


# The field-line rule as one regex: RFC 9110 §5.6.2's token, a colon, then
# HTAB, SP, VCHAR and obs-text up to the CRLF.  kit.parse_field checks the
# value by deleting the allowed bytes instead.
FIELD_LINE = re.compile(rb"(%s):([\t\x20-\x7e\x80-\xff]*)\r\n" % kit.TOKEN.pattern)
FIELD_PIECES = [b"X-a", b"~", b":", b" ", b"\t", b"v", b"\r", b"\n", b"\r\n", b"\0", b"\x7f",
                b"\x80", b"\xff", b"(", b"@"]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=40),
        st.lists(st.sampled_from(FIELD_PIECES)).map(b"".join),
        st.lists(st.sampled_from(FIELD_PIECES)).map(lambda p: b"X-A:" + b"".join(p) + b"\r\n"),
    )
)
@example(b"X-A: a\r\n")
@example(b"X-A:\r\n")
@example(b"X-A: a\n")
@example(b": a\r\n")
@example(b"X-A: a\r\r\n")
@example(b"X-A: \xff\x80\r\n")
@example(b"X-A: \x7f\r\n")
def test_a_field_line_is_read_as_the_regex_reads_it(line):
    field = FIELD_LINE.fullmatch(line)
    expected = field and (field[1].decode("ascii"), field[2].decode("latin-1").strip(" \t"))
    assert kit.parse_field(line) == expected


# -- over the wire: refusals never reach the handler --------------------------


@pytest.fixture(scope="module")
def wire():
    """A live server and the requests its handler saw; shared, so keep it clean."""
    seen: list[KitRequest] = []

    def handler(request: KitRequest) -> KitResponse:
        seen.append(request)
        return KitResponse.text("ok")

    server = ServiceServer(("127.0.0.1", 0), handler, "Test")
    server.start()
    yield server, seen
    server.shutdown()


def status_of(server: ServiceServer, data: bytes) -> int:
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return int(reply.split(b" ", 2)[1])


SMUGGLING = {
    "obs-fold": b"X-A: one\r\n  two\r\n",
    "obs-fold-tab": b"X-A: one\r\n\ttwo\r\n",
    "space-before-colon": b"X-A : one\r\n",
    "tab-before-colon": b"X-A\t: one\r\n",
    "bare-cr": b"X-A: one\rtwo\r\n",
    "bare-lf": b"X-A: one\n",
    "nul": b"X-A: one\x00two\r\n",
    "control": b"X-A: one\x01two\r\n",
    "duplicate-length": b"Content-Length: 0\r\nContent-Length: 0\r\n",
    "conflicting-lengths": b"Content-Length: 0\r\nContent-Length: 5\r\n",
    "listed-lengths": b"Content-Length: 0, 0\r\n",
    "signed-length": b"Content-Length: +0\r\n",
    "length-and-chunked": b"Content-Length: 0\r\nTransfer-Encoding: chunked\r\n",
    "chunked-and-length": b"Transfer-Encoding: chunked\r\nContent-Length: 0\r\n",
    "empty-name": b": one\r\n",
}


@pytest.mark.parametrize("defect", SMUGGLING.values(), ids=SMUGGLING.keys())
def test_smuggling_corpus_is_refused(wire, defect):
    server, seen = wire
    before = len(seen)
    status = status_of(server, b"POST /x HTTP/1.1\r\nHost: h\r\n" + defect + b"\r\n")
    assert status == (411 if b"chunked" in defect else 400)
    assert len(seen) == before


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fields, st.sampled_from(list(SMUGGLING.values())), st.data())
def test_a_planted_defect_is_refused_wherever_it_sits(wire, field_list, defect, data):
    server, seen = wire
    framing = ("content-length", "transfer-encoding")
    field_list = [f for f in field_list if f[0].lower() not in framing]
    lines = head_bytes("POST", "/x", "HTTP/1.1", field_list)[:-2].split(b"\r\n")[:-1]
    lines.insert(data.draw(st.integers(1, len(lines))), defect.removesuffix(b"\r\n"))
    before = len(seen)
    assert status_of(server, b"\r\n".join(lines) + b"\r\n\r\n") in (400, 411)
    assert len(seen) == before


# -- bounds: 64 KiB per line, 100 fields ---------------------------------------


def request_line(size: int) -> bytes:
    """A request line of `size` bytes, CRLF included."""
    return b"GET /" + b"a" * (size - len(b"GET / HTTP/1.1\r\n")) + b" HTTP/1.1\r\n"


def field_line(size: int) -> bytes:
    return b"X-A: " + b"a" * (size - len(b"X-A: \r\n")) + b"\r\n"


def test_line_bounds_match_http_server():
    for line in (request_line(kit.MAX_LINE), request_line(kit.MAX_LINE + 1)):
        data = line + b"\r\n"
        assert (ours(data) is None) == (oracle(data) is None) == (len(line) > kit.MAX_LINE)
    for line in (field_line(kit.MAX_LINE), field_line(kit.MAX_LINE + 1)):
        data = b"GET / HTTP/1.1\r\n" + line + b"\r\n"
        assert (ours(data) is None) == (oracle(data) is None) == (len(line) > kit.MAX_LINE)


@pytest.mark.parametrize(
    "head, status",
    [
        (request_line(kit.MAX_LINE + 1), 414),
        (b"GET / HTTP/1.1\r\n" + field_line(kit.MAX_LINE + 1), 431),
        (b"GET / HTTP/1.1\r\n" + b"X-A: a\r\n" * (kit.MAX_FIELDS + 1), 431),
        (b"GET / HTTP/1.1\r\n" + b"a" * (kit.MAX_LINE + 10), 431),  # no line end in sight
    ],
    ids=["request-line-414", "field-line-431", "fields-431", "unended-line-431"],
)
def test_over_the_bounds_is_refused(wire, head, status):
    server, seen = wire
    before = len(seen)
    assert status_of(server, head + b"\r\n") == status
    assert len(seen) == before


def test_a_hundred_fields_are_served(wire):
    server, seen = wire
    fields = b"".join(b"X-%d: a\r\n" % i for i in range(kit.MAX_FIELDS))
    assert status_of(server, b"GET /many HTTP/1.1\r\n" + fields + b"\r\n") == 200
    assert len(seen[-1].headers) == kit.MAX_FIELDS


# -- replies: the proxy's upstream reader, against http.client ------------------


def reply_oracle(data: bytes, method: str):
    """What http.client makes of a whole reply: (status, reason, fields, body), or None."""
    response = HTTPResponse(Bytes(data), method=method)
    try:
        response.begin()
        body = response.read()
    except (HTTPException, ValueError):
        return None
    fields = tuple((k, v.rstrip(" \t")) for k, v in response.getheaders())
    return response.status, response.reason, fields, body


def reply_ours(data: bytes, method: str):
    """What the proxy's reader makes of a whole reply, or None when it refuses it."""
    try:
        start, fields, body, _ = psvc.proxy._read_reply(Stream(Bytes(data), 10), method)
    except (Refusal, ConnectionResetError):
        return None
    return int(start[2]), start[3].decode("latin-1").strip(), fields, body


def chunked(body: bytes, cuts: list[int], extension: str, trailers: list[str], upper: bool):
    out = b""
    for start, end in zip([0, *cuts], [*cuts, len(body)]):
        if end > start:
            size = f"{end - start:X}" if upper else f"{end - start:x}"
            out += f"{size}{extension}\r\n".encode() + body[start:end] + b"\r\n"
    return out + b"0\r\n" + "".join(f"{t}\r\n" for t in trailers).encode("latin-1") + b"\r\n"


FRAMING_FIELDS = ("content-length", "transfer-encoding")


@st.composite
def replies(draw) -> tuple[str, bytes]:
    """A valid reply to a GET or a HEAD, under one of the framings, maybe after a 100."""
    method = draw(st.sampled_from(["GET", "HEAD"]))
    status = draw(st.sampled_from([200, 201, 204, 302, 304, 310, 311, 312, 404, 500]))
    reason = draw(st.text(VCHAR + OBS_TEXT + " \t", max_size=20))
    field_list = [f for f in draw(fields) if f[0].lower() not in FRAMING_FIELDS]
    body = draw(st.binary(max_size=300))
    framing = draw(st.sampled_from(["content-length", "chunked", "close"]))
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}:{lead}{value}{trail}" for name, lead, value, trail in field_list]
    payload = body
    if framing == "content-length":
        lines.append(f"Content-Length: {len(body)}")
    elif framing == "chunked":
        lines.append("Transfer-Encoding: chunked")
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
        extension = draw(st.sampled_from(["", ";a=b", ";a", ' ;name="quoted"']))
        trailers = [f"{n}: {v}" for n, _, v, _ in draw(fields)][:3]
        payload = chunked(body, cuts, extension, trailers, draw(st.booleans()))
    if method == "HEAD" or status in (204, 304):
        payload = b""
    interim = b"HTTP/1.1 100 Continue\r\n\r\n" if draw(st.booleans()) else b""
    return method, interim + ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


@settings(max_examples=400, deadline=None)
@given(replies())
def test_replies_both_accept_give_the_same_reply(reply):
    method, data = reply
    mine, theirs = reply_ours(data, method), reply_oracle(data, method)
    assert mine is not None  # every reply drawn here is valid by RFC 9112
    if theirs is not None:
        assert mine == theirs


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=120), st.sampled_from(["GET", "HEAD"]))
def test_arbitrary_reply_bytes_never_disagree_where_both_accept(noise, method):
    data = b"HTTP/1.1 200 OK\r\nX-A: b\r\n" + noise
    mine = reply_ours(data, method)
    if mine is not None:
        assert mine == reply_oracle(data, method)


def held_origin(reply: bytes) -> str:
    """A bare-socket origin that answers one request with `reply`, then waits for EOF."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener, listener.accept()[0] as sock:
            sock.recv(65536)  # the request head, sent in one write
            sock.sendall(reply)
            sock.settimeout(10)
            with suppress(OSError):
                while sock.recv(65536):
                    pass

    threading.Thread(target=serve, daemon=True).start()
    return f"127.0.0.1:{listener.getsockname()[1]}"


OK_HEAD = b"HTTP/1.1 200 OK\r\n"
MALFORMED_REPLIES = {
    "obs-fold": OK_HEAD + b"X-A: one\r\n two\r\nContent-Length: 2\r\n\r\nok",
    "space-before-colon": OK_HEAD + b"X-A : one\r\nContent-Length: 2\r\n\r\nok",
    "bare-cr": OK_HEAD + b"X-A: one\rtwo\r\nContent-Length: 2\r\n\r\nok",
    "bare-lf": OK_HEAD + b"X-A: one\nContent-Length: 2\r\n\r\nok",
    "nul": OK_HEAD + b"X-A: one\x00two\r\nContent-Length: 2\r\n\r\nok",
    "conflicting-lengths": OK_HEAD + b"Content-Length: 2\r\nContent-Length: 3\r\n\r\nok",
    "listed-lengths": OK_HEAD + b"Content-Length: 2, 2\r\n\r\nok",
    "signed-length": OK_HEAD + b"Content-Length: +2\r\n\r\nok",
    "bad-chunk-size": OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n0x2\r\nok\r\n0\r\n\r\n",
    "chunk-overrun": OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n1\r\nok\r\n0\r\n\r\n",
    "bad-trailer": OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n0\r\nX-A : b\r\n\r\n",
    "status-two-digits": b"HTTP/1.1 20 OK\r\nContent-Length: 2\r\n\r\nok",
    "status-http2": b"HTTP/2 200 OK\r\nContent-Length: 2\r\n\r\nok",
    "status-bare-lf": b"HTTP/1.1 200 OK\nContent-Length: 2\r\n\r\nok",
}


@pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES.keys())
def test_malformed_reply_is_a_502_and_never_pooled(reply):
    netloc = held_origin(reply)
    with pytest.raises(Refusal) as refused:
        psvc.proxy.send_request("GET", f"http://{netloc}/", [], b"", timeout=5)
    assert refused.value.status == 502
    assert "unreadable reply" in refused.value.reason
    assert psvc.proxy._POOL.take(netloc) is None


@pytest.mark.parametrize(
    "reply, pooled",
    [
        (OK_HEAD + b"Content-Length: 2\r\n\r\nok", True),
        (OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", True),
        (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
        (OK_HEAD + b"Connection: keep-alive, close\r\nContent-Length: 2\r\n\r\nok", False),
        (
            OK_HEAD + b"Transfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n2\r\nok\r\n0\r\n\r\n",
            False,
        ),
        (OK_HEAD + b"Content-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n", False),  # more bytes
    ],
    ids=["length", "chunked", "http-1.0", "close", "chunked-and-length", "trailing-bytes"],
)
def test_only_a_cleanly_ended_http_1_1_reply_is_pooled(reply, pooled):
    netloc = held_origin(reply)
    assert psvc.proxy.send_request("GET", f"http://{netloc}/", [], b"", timeout=5).body == b"ok"
    conn = psvc.proxy._POOL.take(netloc)
    assert (conn is not None) == pooled
    if conn is not None:
        conn.close()
