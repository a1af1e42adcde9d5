"""Service-kit behavior: bootstrap, invocation detection, return pages, serving."""

from __future__ import annotations

import html
import re
import select
import socket
import sys
import threading
import time
from html.parser import HTMLParser
from http.client import HTTPConnection

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from psvc import kit, transcript
from psvc.kit import (
    BootstrapError,
    KitRequest,
    KitResponse,
    ServiceServer,
    allocate_port,
    bootstrap,
    detect_psvc_invocation,
    sp_return_page,
    write_port_file,
)
from psvc.protocol import H_ERROR, H_INVOCATION
from psvc.transcript import SERVE, read_events

from conftest import chunked_post, count_accepts, header_value, http_exchange


class TestBootstrap:
    def test_port_is_last_argument(self):
        assert bootstrap(["service", "--flag", "9090"]) == 9090

    def test_port_alone(self):
        assert bootstrap(["8081"]) == 8081

    def test_no_arguments(self):
        with pytest.raises(BootstrapError, match="no arguments"):
            bootstrap([])

    def test_last_argument_not_numeric(self):
        with pytest.raises(BootstrapError, match="not a port"):
            bootstrap(["service", "start"])

    @pytest.mark.parametrize("port", [0, -1, 65536, 100000])
    def test_port_out_of_range(self, port):
        with pytest.raises(BootstrapError, match="out of range"):
            bootstrap(["service", str(port)])


def test_a_port_file_that_cannot_be_written_leaves_no_temp_file(tmp_path):
    target = tmp_path / "port"
    target.mkdir()  # the rename onto a directory fails
    with pytest.raises(IsADirectoryError):
        write_port_file(target, 8080)
    assert list(tmp_path.iterdir()) == [target]
    assert write_port_file(tmp_path / "ok", 8080).read_text() == "8080"


class TestDetectInvocation:
    def test_marker_plus_referer(self):
        assert detect_psvc_invocation((("Referer", "sp.test:8080"), (H_INVOCATION, "1")))

    def test_header_names_are_case_insensitive(self):
        assert detect_psvc_invocation((("REFERER", "sp.test:8080"), ("psvc-invocation", "1")))

    @pytest.mark.parametrize(
        "headers",
        [
            (),
            (("Referer", "sp.test:8080"),),
            ((H_INVOCATION, "1"),),
            (("Referer", ""), (H_INVOCATION, "1")),
            (("Referer", "sp.test:8080"), (H_INVOCATION, "2")),
        ],
    )
    def test_not_an_invocation(self, headers):
        assert not detect_psvc_invocation(headers)


class _PageScraper(HTMLParser):
    """Collects the first form's action/method and its hidden inputs."""

    def __init__(self) -> None:
        super().__init__()
        self.action: str | None = None
        self.method: str | None = None
        self.autosubmit = False
        self.fields: dict[str, str] = {}

    def handle_starttag(self, tag: str, attrs) -> None:
        got = dict(attrs)
        if tag == "form" and self.action is None:
            self.action = got.get("action")
            self.method = got.get("method")
            self.autosubmit = "data-autosubmit" in got
        elif tag == "input" and got.get("type") == "hidden":
            self.fields[got.get("name", "")] = got.get("value", "")


def scrape(page: bytes) -> _PageScraper:
    scraper = _PageScraper()
    scraper.feed(page.decode("utf-8"))
    return scraper


class TestReturnPage:
    def test_fields_round_trip_through_the_form(self):
        fields = {
            "user": "demo-user",
            "blob": '<script>alert("x")</script> & more',
            "count": 3,
        }
        page = sp_return_page(fields, "http://sp.test:8080/result?sid=1&n=2")
        form = scrape(page)
        assert form.method.upper() == "POST"
        assert form.action == "http://sp.test:8080/result?sid=1&n=2"
        assert form.autosubmit
        assert form.fields == {k: str(v) for k, v in fields.items()}

    def test_markup_is_escaped_at_the_source(self):
        page = sp_return_page({"v": "<script>"}, "http://sp.test/cb")
        assert b"<script>" not in page
        assert b"&lt;script&gt;" in page

    def test_message_and_title_appear(self):
        page = sp_return_page({}, "http://sp.test/cb", title="T<1>", message="All done")
        assert b"All done" in page
        assert b"T&lt;1&gt;" in page

    def test_empty_callback_means_terminal_page(self):
        page = sp_return_page({"user": "u"}, "")
        assert b"<form" not in page
        assert b"</html>" in page


class TestEscape:
    @given(st.text())
    @example("& < > \" '")
    def test_escapes_as_html_escape_does(self, text):
        assert kit.escape(text) == html.escape(text, quote=True)


class TestKitRequest:
    def make(self, body: bytes = b"") -> KitRequest:
        return KitRequest(
            method="POST",
            target="/auth?sid=1",
            path="/auth",
            query={"sid": "1"},
            headers=(("Content-Type", "application/x-www-form-urlencoded"),),
            body=body,
        )

    def test_form_decoding(self):
        request = self.make(b"user=demo+user&note=a%26b&empty=")
        assert request.form() == {"user": "demo user", "note": "a&b", "empty": ""}

    def test_form_of_empty_body(self):
        assert self.make().form() == {}

    def test_header_lookup_ignores_case(self):
        request = self.make()
        assert kit.header_value(request.headers, "content-type") == (
            "application/x-www-form-urlencoded"
        )
        assert kit.header_value(request.headers, "X-Missing") is None


class TestKitResponse:
    def test_built_by_position_or_keyword_and_compared_by_value(self):
        response = KitResponse(404, (("X-A", "1"),), b"gone")
        assert response == KitResponse(status=404, headers=(("X-A", "1"),), body=b"gone")
        assert response != KitResponse(404, (("X-A", "1"),), b"gone", "Gone")
        assert KitResponse() == KitResponse(200, (), b"", None)
        with pytest.raises(AttributeError):
            response.status = 200

    def test_html_accepts_text_or_bytes(self):
        a = KitResponse.html("<p>hi</p>")
        b = KitResponse.html(b"<p>hi</p>", status=404)
        assert a.body == b.body == b"<p>hi</p>"
        assert (a.status, b.status) == (200, 404)
        assert dict(a.headers)["Content-Type"].startswith("text/html")

    def test_text(self):
        response = KitResponse.text("plain words", status=503)
        assert response.status == 503
        assert response.body == b"plain words"
        assert dict(response.headers)["Content-Type"].startswith("text/plain")


def test_a_server_refuses_connections_until_it_starts():
    # Bound in the constructor, so the port is known, but not listening: serve() sets
    # its signal handlers before start(), and nothing may connect before that.
    server = ServiceServer(("127.0.0.1", 0), lambda request: KitResponse.text("ok\n"), "Test")
    try:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", server.port), timeout=5).close()
        server.start()
        assert http_exchange(server.netloc, "GET", "/")[0] == 200
    finally:
        server.shutdown()


class TestServiceServer:
    @pytest.fixture()
    def service(self):
        seen: list[KitRequest] = []

        def handler(request: KitRequest) -> KitResponse:
            seen.append(request)
            if request.path == "/boom":
                return KitResponse.text("no", status=500)
            return KitResponse.html(f"<p>{request.method} {request.path}</p>")

        server = ServiceServer(("127.0.0.1", allocate_port()), handler, "Test")
        server.start()
        try:
            yield server, seen
        finally:
            server.shutdown()

    def test_get_with_query(self, service):
        server, seen = service
        status, headers, body = http_exchange(
            server.netloc, "GET", "/auth?sid=7&mode=fast", [("X-Probe", "yes")]
        )
        assert status == 200
        assert header_value(headers, "Content-Type") == "text/html; charset=utf-8"
        assert body == b"<p>GET /auth</p>"
        request = seen[0]
        assert request.query == {"sid": "7", "mode": "fast"}
        assert kit.header_value(request.headers, "X-Probe") == "yes"
        assert request.body == b""

    @pytest.mark.parametrize(
        "target, path, query",
        [("//x/yellow?a=1", "//x/yellow", {"a": "1"}), ("//", "//", {}), ("//[", "//[", {})],
    )
    def test_an_origin_form_path_reaches_the_handler_verbatim(self, service, target, path, query):
        server, seen = service
        assert http_exchange(server.netloc, "GET", target)[0] == 200
        assert (seen[0].target, seen[0].path, seen[0].query) == (target, path, query)

    def test_post_body_reaches_handler(self, service):
        server, seen = service
        status, _, _ = http_exchange(
            server.netloc,
            "POST",
            "/submit",
            [("Content-Type", "application/x-www-form-urlencoded")],
            b"a=1&b=2",
        )
        assert status == 200
        assert seen[0].form() == {"a": "1", "b": "2"}

    def test_chunked_body_is_refused_with_411(self, service):
        server, seen = service
        status, body = chunked_post(server.netloc, "/submit", b"hello")
        assert (status, body) == (411, b"request body needs a Content-Length\n")
        assert seen == []

    def test_handler_chooses_the_status(self, service):
        server, _ = service
        status, _, body = http_exchange(server.netloc, "GET", "/boom")
        assert (status, body) == (500, b"no")

    def test_binding_looks_up_no_host_name(self, served, monkeypatch):
        def lookup(*args):
            raise AssertionError("server_bind resolved a host name")

        monkeypatch.setattr(socket, "getfqdn", lookup)
        server, _, _ = served()
        assert http_exchange(f"127.0.0.1:{server.port}", "GET", "/up")[0] == 200

    @pytest.mark.parametrize(
        "header",
        [("X-A", "1\r"), ("X-A", "1\n2"), ("X-A\n", "1"), ("X-A", "\0"), ("X-A", "\u20ac")],
    )
    def test_header_that_breaks_its_line_is_a_500(self, header):
        server = ServiceServer(("127.0.0.1", 0), lambda _: KitResponse(200, (header,)), "Test")
        server.start()
        try:
            status, headers, _ = http_exchange(server.netloc, "GET", "/")
        finally:
            server.shutdown()
        assert status == 500
        assert header_value(headers, "X-A") is None

    def test_head_gets_headers_only(self, service):
        server, _ = service
        status, headers, body = http_exchange(server.netloc, "HEAD", "/auth")
        assert status == 200
        assert body == b""
        assert int(header_value(headers, "Content-Length")) > 0

    @pytest.mark.parametrize(
        "method, status, given, sent",
        [
            ("GET", 200, None, "4"),
            ("GET", 200, "1234", "4"),  # a GET's length is the body's
            ("HEAD", 200, None, "4"),
            ("HEAD", 200, "1234", "1234"),  # what a GET would get
            ("GET", 204, None, None),
            ("GET", 204, "4", None),
            ("GET", 304, None, None),
            ("GET", 304, "1234", "1234"),
        ],
    )
    def test_content_length_follows_rfc_9110(self, method, status, given, sent):
        headers = (("Content-Length", given),) if given else ()
        server = ServiceServer(
            ("127.0.0.1", 0), lambda _: KitResponse(status, headers, b"body"), "Test"
        )
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(f"{method} / HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
                head, _, body = read_to_eof(sock).partition(b"\r\n\r\n")
        finally:
            server.shutdown()
        lengths = re.findall(rb"\r\nContent-Length: ([^\r]*)", head)
        assert lengths == ([sent.encode()] if sent else [])
        assert body == (b"body" if (method, status) == ("GET", 200) else b"")

    def test_head_reply_with_neither_body_nor_length_names_no_length(self):
        # Content-Length: 0 would say that a GET gets no bytes (RFC 9110 §8.6).
        server = ServiceServer(("127.0.0.1", 0), lambda _: KitResponse(200), "Test")
        server.start()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(b"HEAD / HTTP/1.1\r\nConnection: close\r\n\r\n")
                reply = read_to_eof(sock)
        finally:
            server.shutdown()
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length" not in reply


# What a head line may not hold: CR, LF and NUL break it, and the rest is past latin-1.
NAMED_UNSENDABLE = "[\r\n\0\u0100-\U0010ffff]"


class TestEncodeHead:
    def test_unsendable_matches_exactly_the_named_ranges(self):
        every = "".join(map(chr, range(0x110000)))
        kept = re.compile(NAMED_UNSENDABLE).sub("", every)
        assert len(kept) == 253  # latin-1 less CR, LF and NUL
        assert "".join(c for c in every if kit.encode_head([f"X-A: {c}"]) is not None) == kept

    @pytest.mark.parametrize(
        "bad", ["\r", "\n", "\0", "\u0100", "\u20ac", "\ud800", "\U0010ffff"]
    )
    def test_a_field_line_holding_an_unsendable_character_is_refused(self, bad):
        assert kit.encode_head(["HTTP/1.1 200 OK", f"X-A: a{bad}b"]) is None

    def test_tab_delete_and_latin_1_are_sent(self):
        line = "X-A: \t\x01\x7f\x80\xff"
        head = kit.encode_head(["HTTP/1.1 200 OK", line])
        assert head == b"HTTP/1.1 200 OK\r\n" + line.encode("latin-1") + b"\r\n\r\n"


def read_to_eof(sock, timeout: float = 5.0) -> bytes:
    sock.settimeout(timeout)
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def read_head(sock, timeout: float = 5.0) -> tuple[bytes, bytes]:
    """Read through the blank line that ends a response head: (head, what followed)."""
    sock.settimeout(timeout)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    return head, rest


def read_response(sock, timeout: float = 5.0) -> bytes:
    """One response, read by its Content-Length, without waiting for EOF."""
    head, body = read_head(sock, timeout)
    length = int(re.search(rb"\r\nContent-Length: (\d+)", head).group(1))
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-body: {head + body!r}"
        body += chunk
    return head + b"\r\n\r\n" + body


@pytest.fixture()
def served(monkeypatch):
    """Factory for started servers echoing method and path: (server, requests seen, accepts).

    Keyword arguments set kit constants (for example KEEPALIVE_IDLE_S=0.3)
    before the server is built.
    """
    made: list[ServiceServer] = []

    def make(**limits):
        for name, value in limits.items():
            monkeypatch.setattr(kit, name, value)
        seen: list[KitRequest] = []

        def handler(request: KitRequest) -> KitResponse:
            seen.append(request)
            return KitResponse.text(f"{request.method} {request.path}")

        server = ServiceServer(("127.0.0.1", 0), handler, "Test")
        accepts = count_accepts(server)
        server.start()
        made.append(server)
        return server, seen, accepts

    yield make
    for server in made:
        server.shutdown()


class TestKeepAlive:
    def test_two_requests_share_one_accepted_connection(self, served):
        server, seen, accepts = served()
        conn = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            for path in ("/one", "/two"):
                conn.request("GET", path)
                resp = conn.getresponse()
                assert (resp.status, resp.read()) == (200, f"GET {path}".encode())
                assert resp.getheader("Connection") is None
        finally:
            conn.close()
        assert [r.path for r in seen] == ["/one", "/two"]
        assert len(accepts) == 1

    def test_connection_close_is_echoed_and_ends_the_connection(self, served):
        server, seen, _ = served()
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"GET /only HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            reply = read_to_eof(sock)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"\r\nConnection: close" in head
        assert body == b"GET /only"

    def test_idle_connection_is_closed_after_the_timeout(self, served):
        server, _, _ = served(KEEPALIVE_IDLE_S=0.3)
        conn = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("GET", "/")
            conn.getresponse().read()
            started = time.monotonic()
            assert read_to_eof(conn.sock) == b""
            assert time.monotonic() - started < 3
        finally:
            conn.close()

    def test_past_the_cap_replies_close(self, served):
        server, _, _ = served(KEEPALIVE_MAX=1)
        first = HTTPConnection("127.0.0.1", server.port, timeout=5)
        second = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            first.request("GET", "/a")
            resp = first.getresponse()
            assert (resp.read(), resp.getheader("Connection")) == (b"GET /a", None)
            second.request("GET", "/b")
            resp = second.getresponse()
            assert (resp.read(), resp.getheader("Connection")) == (b"GET /b", "close")
        finally:
            first.close()
            second.close()

    @pytest.mark.parametrize(
        "refused, status",
        [
            (b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", b"411"),
            (b"Content-Length: 5x\r\n\r\nhello", b"400"),
            (b"Content-Length: 40\r\n\r\n", b"413"),
        ],
        ids=["chunked-411", "malformed-400", "oversized-413"],
    )
    def test_no_request_is_served_after_an_unread_body(self, served, refused, status):
        server, seen, _ = served(MAX_BODY_BYTES=16)
        pipelined = b"GET /second HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            # For the 413, the pipelined request is the 40-byte body itself.
            sock.sendall(b"POST /first HTTP/1.1\r\nHost: x\r\n" + refused + pipelined)
            reply = read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 " + status)
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close" in reply
        assert seen == []

    def test_body_over_the_cap_is_refused_with_413(self, served):
        server, seen, _ = served(MAX_BODY_BYTES=16)
        netloc = f"127.0.0.1:{server.port}"
        status, _, body = http_exchange(netloc, "POST", "/big", body=b"x" * 17)
        assert (status, body) == (413, b"request body over 16 bytes\n")
        status, _, body = http_exchange(netloc, "POST", "/fits", body=b"x" * 16)
        assert (status, body) == (200, b"POST /fits")
        assert [r.body for r in seen] == [b"x" * 16]

    def test_refused_client_can_finish_sending_its_body(self, served):
        server, _, _ = served(MAX_BODY_BYTES=16)
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n")
            sock.settimeout(5)
            reply = sock.recv(65536)  # the 413 comes before any body byte is sent
            for _ in range(10):
                time.sleep(0.01)  # time for a reset to come back, had the server closed
                sock.sendall(b"x" * 10_000)
            reply += read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 413")
        assert reply.endswith(b"request body over 16 bytes\n")

    def test_shutdown_closes_kept_connections(self, served):
        server, _, _ = served(KEEPALIVE_IDLE_S=60)  # only shutdown() can end it in time
        conn = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("GET", "/")
            conn.getresponse().read()
            server.shutdown()
            assert read_to_eof(conn.sock) == b""
        finally:
            conn.close()


class TestOneWritePerResponse:
    def test_each_response_reaches_the_socket_in_one_write(self, served, monkeypatch):
        server, _, _ = served()
        writes: list[int] = []
        sendall = socket.socket.sendall

        def counted(self, data, *flags):
            if self.getsockname()[1] == server.port:  # the server's end of a connection
                writes.append(len(data))
            return sendall(self, data, *flags)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            replies = []
            for request in (
                b"GET /one HTTP/1.1\r\nHost: x\r\n\r\n",
                b"POST /two HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc",
                b"HEAD /three HTTP/1.1\r\nHost: x\r\n\r\n",
            ):
                sock.sendall(request)
                if request.startswith(b"HEAD"):
                    replies.append(read_head(sock)[0] + b"\r\n\r\n")
                else:
                    replies.append(read_response(sock))
        assert [r.split(b"\r\n", 1)[0] for r in replies] == [b"HTTP/1.1 200 OK"] * 3
        assert replies[1].endswith(b"\r\n\r\nPOST /two")
        assert writes == [len(r) for r in replies]

    def test_100_continue_is_sent_before_the_body_arrives(self, served):
        server, seen, _ = served()
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(
                b"POST /wait HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
                b"Expect: 100-continue\r\n\r\n"
            )
            started = time.monotonic()
            interim, rest = read_head(sock)
            waited = time.monotonic() - started
            assert interim.startswith(b"HTTP/1.1 100")
            assert rest == b""
            sock.sendall(b"hello")
            reply = read_response(sock)
        assert waited < 0.5
        assert reply.startswith(b"HTTP/1.1 200")
        assert reply.endswith(b"POST /wait")
        assert [r.body for r in seen] == [b"hello"]

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"Content-Length: 5x\r\n", b"400"),
            (b"Transfer-Encoding: chunked\r\n", b"411"),
            (b"Content-Length: 40\r\n", b"413"),
        ],
        ids=["malformed-400", "chunked-411", "oversized-413"],
    )
    def test_refusal_arrives_before_the_drain_ends(self, served, head, status):
        # The drain lasts 5 s here; the reply must not wait for it.
        server, seen, _ = served(LINGER_S=5.0, MAX_BODY_BYTES=16)
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"POST /refused HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n")
            started = time.monotonic()
            reply = read_response(sock)
            waited = time.monotonic() - started
        assert reply.startswith(b"HTTP/1.1 " + status)
        assert b"\r\nConnection: close" in reply
        assert waited < 2.0
        assert seen == []

    @pytest.mark.parametrize(
        "target, head, status",
        [
            ("/refused", b"Content-Length: 5x\r\n", 400),
            ("/refused", b"Transfer-Encoding: chunked\r\n", 411),
            ("/refused", b"Content-Length: 40\r\n", 413),
            ("http://[x/", b"", 400),
        ],
        ids=["malformed-400", "chunked-411", "oversized-413", "unsplittable-target-400"],
    )
    def test_each_refusal_leaves_one_serve_event(
        self, served, monkeypatch, tmp_path, target, head, status
    ):
        log = tmp_path / "transcript.jsonl"
        monkeypatch.setenv(transcript.ENV_VAR, str(log))
        server, seen, _ = served(MAX_BODY_BYTES=16)
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(f"POST {target} HTTP/1.1\r\nHost: x\r\n".encode() + head + b"\r\n")
            assert read_response(sock).startswith(f"HTTP/1.1 {status}".encode())
        events = [(e.actor, e.direction, e.method, e.path, e.status) for e in read_events(log)]
        assert events == [("Test", SERVE, "POST", target, status)]
        assert seen == []

    def test_served_event_carries_the_request_error_and_the_note(self, monkeypatch, tmp_path):
        log = tmp_path / "transcript.jsonl"
        monkeypatch.setenv(transcript.ENV_VAR, str(log))
        server = ServiceServer(
            ("127.0.0.1", 0), lambda request: KitResponse.text("ok", 201, loc="/x"), "Test"
        )
        server.start()
        try:
            netloc = f"127.0.0.1:{server.port}"
            assert http_exchange(netloc, "GET", "/a?b=1", [(H_ERROR, "handle")])[0] == 201
        finally:
            server.shutdown()
        (event,) = read_events(log)
        assert event[1:6] == ("Test", SERVE, "GET", "/a?b=1", 201)
        assert event.detail == {"in_err": "handle", "loc": "/x"}

    def test_malformed_request_line_gets_400(self, served):
        server, seen, _ = served()
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"GET /a b HTTP/1.1\r\n\r\n")
            reply = read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"\r\nConnection: close" in reply
        assert seen == []

    def test_handler_that_raises_gets_a_500_and_one_serve_event(
        self, monkeypatch, tmp_path, caplog
    ):
        log = tmp_path / "transcript.jsonl"
        monkeypatch.setenv(transcript.ENV_VAR, str(log))

        def handler(request: KitRequest) -> KitResponse:
            raise KeyError("missing")

        server = ServiceServer(("127.0.0.1", 0), handler, "Test")
        server.start()
        try:
            status, _, body = http_exchange(server.netloc, "GET", "/raises")
            assert http_exchange(server.netloc, "GET", "/again")[0] == 500  # still serving
        finally:
            server.shutdown()
        assert (status, body) == (500, b"internal error\n")
        events = [(e.actor, e.direction, e.method, e.path, e.status) for e in read_events(log)]
        assert events[0] == ("Test", SERVE, "GET", "/raises", 500)
        assert len(events) == 2
        assert "KeyError: 'missing'" in caplog.text


@pytest.fixture()
def slow_server(monkeypatch):
    """Factory for a started server whose handler sleeps `delay` s: (server, handler threads)."""
    made: list[ServiceServer] = []

    def make(delay: float, **limits):
        for name, value in limits.items():
            monkeypatch.setattr(kit, name, value)
        threads: set[int] = set()

        def handler(request: KitRequest) -> KitResponse:
            threads.add(threading.get_ident())
            time.sleep(delay)
            return KitResponse.text("slow")

        server = ServiceServer(("127.0.0.1", 0), handler, "Test")
        server.start()
        made.append(server)
        return server, threads

    yield make
    for server in made:
        server.shutdown()


def concurrently(count: int, job) -> list:
    """Run `job(i)` on `count` threads at once; their results in order."""
    results: list = [None] * count

    def run(i: int) -> None:
        results[i] = job(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    return results


class TestWorkerBounds:
    def test_concurrent_slow_requests_are_all_served_by_at_most_the_cap(self, slow_server):
        server, threads = slow_server(0.05, KEEPALIVE_MAX=4)
        results = concurrently(40, lambda i: http_exchange(server.netloc, "GET", f"/{i}")[::2])
        assert results == [(200, b"slow")] * 40
        assert 1 <= len(threads) <= 4

    def test_idle_kept_connections_hold_no_thread(self, served):
        baseline = threading.active_count()
        server, _, accepts = served()
        conns = [HTTPConnection("127.0.0.1", server.port, timeout=5) for _ in range(32)]

        def all_waiting() -> bool:
            with server._lock:
                return server._waiting == len(server._workers)

        try:
            for conn in conns:
                # A worker that just served is back waiting before the next connection
                # arrives, as on an idle host; a loaded one may delay its return.
                deadline = time.monotonic() + 5
                while not all_waiting() and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert all_waiting()
                conn.request("GET", "/kept")
                assert conn.getresponse().read() == b"GET /kept"
            assert len(accepts) == 32
            # One worker waits and one serves; the one that accepted may not be back
            # waiting when its connection's request arrives, so a third can start.
            assert threading.active_count() - baseline <= 3
        finally:
            for conn in conns:
                conn.close()

    def test_shutdown_ends_every_worker(self, slow_server):
        baseline = threading.active_count()
        server, threads = slow_server(0.2)
        concurrently(8, lambda i: http_exchange(server.netloc, "GET", "/")[0])
        assert len(threads) > 1
        server.shutdown()
        assert threading.active_count() == baseline

    def test_idle_connection_closes_while_others_keep_the_workers_busy(self, served):
        server, _, _ = served(KEEPALIVE_IDLE_S=0.3)
        idle = HTTPConnection("127.0.0.1", server.port, timeout=5)
        busy = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            idle.request("GET", "/idle")
            idle.getresponse().read()
            idle.sock.setblocking(False)
            deadline = time.monotonic() + 3
            closed = False
            while not closed and time.monotonic() < deadline:
                busy.request("GET", "/busy")  # a wake-up at least every 0.05 s
                assert busy.getresponse().read() == b"GET /busy"
                time.sleep(0.05)
                try:
                    closed = idle.sock.recv(1) == b""
                except BlockingIOError:
                    pass
            assert closed
        finally:
            idle.close()
            busy.close()

    def test_a_trickling_client_is_closed_within_the_idle_bound(self, served):
        # One deadline covers the whole head, not each read of it.
        server, seen, _ = served(KEEPALIVE_IDLE_S=0.5)
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            started = time.monotonic()
            for byte in b"GET / HTTP/1.1\r\nX-Slow: " + b"a" * 20:  # 4 s, at a byte per 0.1 s
                try:
                    sock.sendall(bytes([byte]))
                except OSError:  # reset: the server closed
                    break
                if select.select([sock], [], [], 0.1)[0]:  # EOF or a reset waits
                    break
            elapsed = time.monotonic() - started
        assert elapsed < 1.25
        assert seen == []

    def test_worker_counts_hold_under_contention(self, served):
        server, seen, _ = served(KEEPALIVE_MAX=3)

        def job(i: int) -> list[bytes]:
            conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                replies = []
                for n in range(5):
                    conn.request("GET", f"/{i}/{n}")
                    replies.append(conn.getresponse().read())
                return replies
            finally:
                conn.close()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = concurrently(12, job)
        finally:
            sys.setswitchinterval(previous)
        assert results == [[f"GET /{i}/{n}".encode() for n in range(5)] for i in range(12)]
        assert len(seen) == 60
        deadline = time.monotonic() + 3
        while server._waiting != len(server._workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert 1 <= server._waiting == len(server._workers) <= 3  # every worker back waiting
