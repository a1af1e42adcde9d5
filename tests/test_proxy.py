"""Proxy behavior: relaying, redirection handling, and broker discovery."""

from __future__ import annotations

import json
import os
import re
import socket
import string
import subprocess
import sys
import threading
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psvc.kit
import psvc.proxy
from psvc import transcript
from psvc.broker.server import BrokerServer
from psvc.demo.service import MockAuthService
from psvc.demo.sp import DEFAULT_WP_QUERY, DemoSP
from psvc.kit import (
    ENDPOINT_FILE,
    KitResponse,
    ServiceServer,
    allocate_port,
    stop_process,
    write_port_file,
)
from psvc.protocol import (
    BROKER_RESULT,
    BrokerResult,
    ERR_HANDLE,
    ERR_PARAMETERS,
    ERR_SERVICE,
    H_CALLBACK,
    H_ERROR,
    H_INVOCATION,
    H_METHOD,
    H_PARAMETERS,
    H_SERVICE,
    H_VERSION,
    OP_WHITE,
    OP_YELLOW,
    decode_broker_result,
    encode_broker_result,
)
from psvc.proxy import (
    BrokerLink,
    PersonalServiceProxy,
    Unreachable,
    strip_hop_by_hop,
)
from psvc.scenario import Browser
from psvc.transcript import SERVE, read_events

from conftest import (
    Scripted,
    chunked_post,
    count_accepts,
    header_value,
    http_exchange,
    write_descriptor,
)


@pytest.fixture()
def proxy(tmp_path):
    """Factory for proxies rooted at tmp_path, torn down afterwards."""
    servers: list[PersonalServiceProxy] = []

    def make(*, broker_port: int | None = None) -> PersonalServiceProxy:
        if broker_port is not None:
            write_port_file(tmp_path / ENDPOINT_FILE, broker_port)
        server = PersonalServiceProxy(tmp_path, ("127.0.0.1", 0))
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.shutdown()


def via(server: PersonalServiceProxy, method: str, url: str, headers=None, body=b""):
    return http_exchange(server.netloc, method, url, headers, body)


def broker_stub(stub, *, endpoint: str | None = None):
    """Stub broker whose default replies echo callback/ref like the real one."""
    broker = stub()

    def answer(recorded):
        parts = urlsplit(recorded.path)
        if parts.path == "/resolve":
            ref = parse_qs(parts.query).get("ref", [""])[0]
            return Scripted(
                BROKER_RESULT,
                (("Location", f":{ref}"), (H_SERVICE, endpoint or "")),
                reason="Broker Result",
            )
        query = json.loads(recorded.header(H_SERVICE))
        if parts.path == "/yellow":
            envelope = BrokerResult(OP_YELLOW, query, [])
        else:
            envelope = BrokerResult(OP_WHITE, query, None)
        return Scripted(
            BROKER_RESULT,
            (
                ("Location", recorded.header(H_CALLBACK)),
                (H_SERVICE, encode_broker_result(envelope)),
            ),
            reason="Broker Result",
        )

    broker.default = answer
    return broker


class TestPlainRelay:
    def test_get_passes_through(self, proxy, stub):
        origin = stub()
        origin.enqueue(Scripted(200, (("X-Flavor", "plain"),), b"hello\n"))
        server = proxy()
        status, headers, body = via(server, "GET", origin.url("/page?x=1"))
        assert (status, body) == (200, b"hello\n")
        assert header_value(headers, "X-Flavor") == "plain"
        recorded = origin.requests[0]
        assert (recorded.method, recorded.path) == ("GET", "/page?x=1")

    def test_get_announces_version_exactly_once(self, proxy, stub):
        origin = stub()
        server = proxy()
        # a spoofed client version must not survive the trip
        via(server, "GET", origin.url("/"), [(H_VERSION, "0")])
        assert origin.requests[0].header_values(H_VERSION) == ["1"]

    def test_post_announces_version_and_keeps_body(self, proxy, stub):
        origin = stub()
        server = proxy()
        via(
            server,
            "POST",
            origin.url("/submit"),
            [("Content-Type", "text/plain")],
            b"form data",
        )
        recorded = origin.requests[0]
        assert recorded.body == b"form data"
        assert recorded.header_values(H_VERSION) == ["1"]

    def test_a_client_invocation_marker_is_not_relayed(self, proxy, stub):
        # With a Referer, the marker would pass for a service call the proxy made.
        origin = stub()
        server = proxy()
        headers = [(H_INVOCATION, "1"), ("Referer", "http://sp.test/")]
        via(server, "GET", origin.url("/auth"), headers)
        recorded = origin.requests[0]
        assert recorded.header(H_INVOCATION) is None
        assert recorded.header("Referer") == "http://sp.test/"

    def test_other_methods_relay_without_version(self, proxy, stub):
        origin = stub()
        server = proxy()
        via(server, "HEAD", origin.url("/probe"))
        via(server, "PUT", origin.url("/doc"), body=b"v2")
        assert origin.requests[0].header(H_VERSION) is None
        assert origin.requests[1].header(H_VERSION) is None
        assert origin.requests[1].body == b"v2"

    def test_hop_by_hop_request_headers_dropped(self, proxy, stub):
        origin = stub()
        server = proxy()
        via(
            server,
            "GET",
            origin.url("/"),
            [
                ("Proxy-Authorization", "Basic xxx"),
                ("TE", "trailers"),
                ("Connection", "x-custom-hop"),
                ("X-Custom-Hop", "die"),
                ("X-Keep", "stay"),
            ],
        )
        recorded = origin.requests[0]
        assert recorded.header("Proxy-Authorization") is None
        assert recorded.header("TE") is None
        assert recorded.header("X-Custom-Hop") is None
        assert recorded.header("X-Keep") == "stay"

    def test_response_headers_survive_minus_hop_by_hop(self, proxy, stub):
        origin = stub()
        origin.enqueue(
            Scripted(
                200,
                (
                    ("Set-Cookie", "a=1"),
                    ("Set-Cookie", "b=2"),
                    ("Keep-Alive", "timeout=5"),
                    ("X-Odd", "spaced  value"),
                ),
                b"",
            )
        )
        server = proxy()
        _, headers, _ = via(server, "GET", origin.url("/"))
        cookies = [v for k, v in headers if k.lower() == "set-cookie"]
        assert cookies == ["a=1", "b=2"]
        assert header_value(headers, "Keep-Alive") is None
        assert header_value(headers, "X-Odd") == "spaced  value"

    def test_relative_target_rejected(self, proxy):
        server = proxy()
        status, _, body = via(server, "GET", "/just/a/path")
        assert status == 400
        assert b"absolute" in body

    def test_non_numeric_content_length_is_400(self, proxy, stub):
        origin = stub()
        server = proxy()
        status, _, body = http_exchange(
            server.netloc, "GET", origin.url("/"), [("Content-Length", "abc")], timeout=2
        )
        assert (status, body) == (400, b"malformed Content-Length\n")
        assert origin.requests == []

    def test_negative_content_length_is_400(self, proxy, stub):
        origin = stub()
        server = proxy()
        status, _, body = http_exchange(
            server.netloc, "GET", origin.url("/"), [("Content-Length", "-1")], timeout=2
        )
        assert (status, body) == (400, b"malformed Content-Length\n")
        assert origin.requests == []

    def test_chunked_body_is_refused_not_emptied(self, proxy, stub):
        origin = stub()
        server = proxy()
        status, body = chunked_post(server.netloc, origin.url("/submit"), b"hello", timeout=2)
        assert (status, body) == (411, b"request body needs a Content-Length\n")
        assert origin.requests == []

    def test_unreadable_upstream_reply_is_502(self, proxy, stub):
        origin = stub()
        origin.enqueue(Scripted(200, (("X-Big", "a" * 70_000),), b"never read\n"))
        server = proxy()
        status, _, body = via(server, "GET", origin.url("/"))
        assert status == 502
        assert b"unreadable" in body

    def test_unsplittable_target_is_400(self, proxy):
        status, _, body = via(proxy(), "GET", "http://[127.0.0.1/")
        assert (status, body) == (400, b"malformed request target\n")

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost", "LocalHost"])
    def test_request_for_the_proxy_itself_is_refused(self, proxy, monkeypatch, tmp_path, host):
        log = tmp_path / "transcript.jsonl"
        monkeypatch.setenv(transcript.ENV_VAR, str(log))
        server = proxy()
        status, _, body = via(server, "GET", f"http://{host}:{server.port}/loop")
        assert (status, body) == (508, b"refusing to forward to this proxy itself\n")
        events = [(e.actor, e.direction, e.status) for e in read_events(log)]
        assert events == [("Proxy", SERVE, 508)]

    def test_port_out_of_range_is_400(self, proxy):
        status, _, body = via(proxy(), "GET", "http://127.0.0.1:99999/")
        assert status == 400
        assert b"valid port" in body

    def test_head_then_get_on_one_kept_connection(self, proxy):
        # A HEAD reply keeps the origin's Content-Length and carries no body.
        origin = ServiceServer(("127.0.0.1", 0), lambda _: KitResponse(body=b"x" * 1234), "Origin")
        origin.start()
        conn = HTTPConnection("127.0.0.1", proxy().port, timeout=10)
        try:
            replies = []
            for method in ("HEAD", "GET"):
                conn.request(method, f"http://{origin.netloc}/doc")
                resp = conn.getresponse()
                replies.append((resp.status, resp.getheader("Content-Length"), len(resp.read())))
        finally:
            conn.close()
            origin.shutdown()
        assert replies == [(200, "1234", 0), (200, "1234", 1234)]

    def test_head_reply_without_a_length_reaches_the_browser_without_one(self, proxy):
        # A chunked origin names no length for a HEAD; 0 would say a GET gets no bytes.
        origin = socket.create_server(("127.0.0.1", 0))

        def answer() -> None:
            sock = origin.accept()[0]
            with sock:
                head = b""
                while not head.endswith(b"\r\n\r\n") and (chunk := sock.recv(65536)):
                    head += chunk
                sock.sendall(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")

        threading.Thread(target=answer, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{origin.getsockname()[1]}/doc"
            status, headers, _ = via(proxy(), "HEAD", url)
        finally:
            origin.close()
        assert status == 200
        assert header_value(headers, "Content-Length") is None

    def test_https_target_rejected(self, proxy):
        server = proxy()
        status, _, _ = via(server, "GET", "https://secure.test/")
        assert status == 501

    def test_connect_rejected(self, proxy):
        server = proxy()
        status, _, _ = via(server, "CONNECT", "secure.test:443")
        assert status == 501

    def test_strip_hop_by_hop_connection_tokens(self):
        kept = strip_hop_by_hop(
            [
                ("Connection", "close, X-One"),
                ("X-One", "1"),
                ("X-Two", "2"),
                ("Upgrade", "h2c"),
            ]
        )
        assert kept == [("X-Two", "2")]


# RFC 9110 §7.6.1: Connection itself, the connection-specific fields it
# lists, and the fields every intermediary treats as hop-by-hop.
FIXED_HOP_BY_HOP = [
    "Connection", "Keep-Alive", "Proxy-Connection", "TE", "Transfer-Encoding", "Upgrade",
    "Proxy-Authenticate", "Proxy-Authorization", "Trailer", "Trailers",
]
TOKENS = st.text(string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~", min_size=1, max_size=12)
CASES = [str, str.lower, str.upper, str.swapcase, str.title]
VALUES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=10)


@st.composite
def header_lists(draw):
    """Headers mixing hop-by-hop names, end-to-end names and Connection lists, in any case."""
    end_to_end = draw(st.lists(TOKENS, min_size=1, max_size=6))

    def name() -> str:
        return draw(st.sampled_from(CASES))(draw(st.sampled_from(FIXED_HOP_BY_HOP + end_to_end)))

    def connection_list() -> str:
        ows = st.sampled_from(["", " ", "\t", "  "])
        return ",".join(
            draw(ows) + (name() if draw(st.booleans()) else draw(TOKENS)) + draw(ows)
            for _ in range(draw(st.integers(0, 4)))
        )

    headers = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            headers.append((draw(st.sampled_from(CASES))("Connection"), connection_list()))
        else:
            headers.append((name(), draw(VALUES)))
    return headers


class TestStripHopByHop:
    @settings(max_examples=200, deadline=None)
    @given(header_lists())
    def test_drops_exactly_the_hop_by_hop_fields(self, headers):
        named = {
            token.strip(" \t").lower()
            for key, value in headers
            if key.lower() == "connection"
            for token in value.split(",")
        }
        dropped = {name.lower() for name in FIXED_HOP_BY_HOP} | named
        kept = strip_hop_by_hop(headers)
        assert kept == [(k, v) for k, v in headers if k.lower() not in dropped]


class TestListingFlows:
    def test_yellow_flow_end_to_end(self, proxy, stub):
        sp = stub()
        broker = stub()
        query = {"Purpose": "authentication"}
        names = [{"Purpose": "authentication", "Device": "Portuguese eID"}]
        envelope = encode_broker_result(BrokerResult(OP_YELLOW, query, names))
        sp.enqueue(
            Scripted(
                310,
                ((H_SERVICE, json.dumps(query)), (H_CALLBACK, sp.url("/cb"))),
                b"",
                "Yellow Pages Call",
            ),
            Scripted(200, (), b"listing rendered\n"),
        )
        broker.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", sp.url("/cb")), (H_SERVICE, envelope)),
                b"",
                "Broker Result",
            )
        )
        server = proxy(broker_port=broker.port)

        status, _, body = via(server, "GET", sp.url("/discover"))
        assert (status, body) == (200, b"listing rendered\n")

        asked = broker.requests[0]
        assert asked.method == "HEAD"
        assert asked.path == "/yellow"
        assert json.loads(asked.header(H_SERVICE)) == query
        assert asked.header(H_CALLBACK) == sp.url("/cb")
        assert asked.header("Referer") == sp.netloc

        posted = sp.requests[1]
        assert (posted.method, posted.path) == ("POST", "/cb")
        assert posted.header_values(H_VERSION) == ["1"]
        assert posted.header(H_ERROR) is None
        result = decode_broker_result(posted.header(H_SERVICE))
        assert result.response == names

    def test_white_flow_delivers_handle(self, proxy, stub):
        sp = stub()
        broker = broker_stub(stub)
        query = {"Purpose": "authentication", "Device": "Portuguese eID"}
        envelope = encode_broker_result(
            BrokerResult(OP_WHITE, query, {"service": query, "handle": "h-1"})
        )
        sp.enqueue(
            Scripted(
                311,
                ((H_SERVICE, json.dumps(query)), (H_CALLBACK, sp.url("/wp"))),
            ),
            Scripted(200, (), b"signed in\n"),
        )
        broker.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", sp.url("/wp")), (H_SERVICE, envelope)),
            )
        )
        server = proxy(broker_port=broker.port)

        status, _, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (200, b"signed in\n")
        assert broker.requests[0].path == "/white"
        posted = sp.requests[1]
        result = decode_broker_result(posted.header(H_SERVICE))
        assert result.response["handle"] == "h-1"

    def test_listing_error_forwarded_to_callback(self, proxy, stub):
        sp = stub()
        broker = stub()
        sp.enqueue(
            Scripted(
                311,
                ((H_SERVICE, '{"Purpose": "x"}'), (H_CALLBACK, sp.url("/wp"))),
            ),
            Scripted(200, (), b"sorry\n"),
        )
        broker.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", sp.url("/wp")), (H_ERROR, "ambiguous")),
            )
        )
        server = proxy(broker_port=broker.port)
        status, _, _ = via(server, "GET", sp.url("/login"))
        assert status == 200
        posted = sp.requests[1]
        assert posted.header(H_ERROR) == "ambiguous"
        assert posted.header(H_SERVICE) is None

    def test_broker_down_yellow_yields_empty_listing(self, proxy, stub):
        sp = stub()
        sp.enqueue(
            Scripted(
                310,
                ((H_SERVICE, '{"Purpose": "authentication"}'), (H_CALLBACK, sp.url("/cb"))),
            ),
            Scripted(200, (), b"none found\n"),
        )
        server = proxy()  # no broker.ept at all
        status, _, body = via(server, "GET", sp.url("/discover"))
        assert (status, body) == (200, b"none found\n")
        posted = sp.requests[1]
        assert posted.header(H_ERROR) is None
        result = decode_broker_result(posted.header(H_SERVICE))
        assert result.operation == OP_YELLOW
        assert result.response == []

    def test_broker_down_white_yields_null_result(self, proxy, stub):
        sp = stub()
        sp.enqueue(
            Scripted(
                311,
                ((H_SERVICE, '{"Purpose": "x"}'), (H_CALLBACK, sp.url("/wp"))),
            ),
            Scripted(200),
        )
        # a stale endpoint file must behave like no broker at all
        server = proxy(broker_port=allocate_port())
        assert via(server, "GET", sp.url("/login"))[0] == 200
        result = decode_broker_result(sp.requests[1].header(H_SERVICE))
        assert result.operation == OP_WHITE
        assert result.response is None

    def test_undecodable_endpoint_file_is_broker_down(self, proxy, stub, tmp_path):
        sp = stub()
        sp.enqueue(
            Scripted(311, ((H_SERVICE, '{"Purpose": "x"}'), (H_CALLBACK, sp.url("/wp")))),
            Scripted(200),
        )
        server = proxy()
        (tmp_path / "broker.ept").write_bytes(b"\xff12")  # and no broker.psd
        assert via(server, "GET", sp.url("/login"))[0] == 200
        posted = sp.requests[1]
        assert posted.path == "/wp"
        assert posted.header(H_ERROR) is None
        result = decode_broker_result(posted.header(H_SERVICE))
        assert (result.operation, result.response) == (OP_WHITE, None)

    def test_unreadable_broker_reply_is_502_not_an_empty_listing(self, proxy, stub):
        sp = stub()
        broker = stub()
        sp.enqueue(
            Scripted(310, ((H_SERVICE, '{"Purpose": "x"}'), (H_CALLBACK, sp.url("/cb"))))
        )
        broker.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", sp.url("/cb")), (H_SERVICE, "a" * 70_000)),
            )
        )
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/discover"))
        assert status == 502
        assert b"unreadable" in body
        assert [r.path for r in sp.requests] == ["/discover"]

    def test_malformed_listing_reported_without_broker_call(self, proxy, stub):
        sp = stub()
        broker = stub()
        sp.enqueue(
            Scripted(310, ((H_SERVICE, "{broken"), (H_CALLBACK, sp.url("/cb")))),
            Scripted(200),
        )
        server = proxy(broker_port=broker.port)
        assert via(server, "GET", sp.url("/d"))[0] == 200
        assert broker.requests == []
        posted = sp.requests[1]
        assert posted.header(H_ERROR) == ERR_PARAMETERS
        assert posted.header(H_SERVICE) is None

    @pytest.mark.parametrize("status", [310, 311, 312])
    def test_deeply_nested_directive_is_reported_as_parameters(self, proxy, stub, status):
        sp = stub()
        broker = stub()
        # About 6 KB: json.loads gives up on it with a RecursionError.
        nested = '{"Purpose": ' + "[" * 3000 + "]" * 3000 + "}"
        sp.enqueue(
            Scripted(status, ((H_SERVICE, nested), (H_CALLBACK, sp.url("/cb")))),
            Scripted(200),
        )
        server = proxy(broker_port=broker.port)
        assert via(server, "GET", sp.url("/d"))[0] == 200
        assert broker.requests == []
        assert sp.requests[1].header(H_ERROR) == ERR_PARAMETERS

    def test_malformed_listing_without_callback_is_a_502(self, proxy, stub):
        sp = stub()
        sp.enqueue(Scripted(310, ((H_SERVICE, "{broken"),)))
        server = proxy()
        status, _, _ = via(server, "GET", sp.url("/d"))
        assert status == 502
        assert len(sp.requests) == 1

    @pytest.mark.parametrize("call", ["listing", "resolution"])
    def test_broker_answering_oddly_is_a_502(self, proxy, stub, call):
        sp = stub()
        broker = stub()
        if call == "listing":
            directive = Scripted(310, ((H_SERVICE, '{"a": 1}'), (H_CALLBACK, sp.url("/cb"))))
        else:
            directive = Scripted(312, ((H_SERVICE, '"h-abc"'), (H_CALLBACK, sp.url("/cb"))))
        sp.enqueue(directive)
        broker.enqueue(Scripted(500, (), b"boom"))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/d"))
        assert status == 502
        assert b"broker answered 500" in body
        assert [r.path for r in sp.requests] == ["/d"]
        assert [urlsplit(r.path).path for r in broker.requests] == [
            "/yellow" if call == "listing" else "/resolve"
        ]


class TestServiceInvocation:
    def invoke_response(self, sp, *, handle: str = "h-abc") -> Scripted:
        return Scripted(
            312,
            (
                (H_SERVICE, json.dumps(handle)),
                (H_METHOD, "POST"),
                (H_PARAMETERS, "/auth?sid=9"),
                (H_CALLBACK, sp.url("/err")),
                ("X-Token", "secret"),
                ("Cookie", "tray=full"),
            ),
            b"held payload",
            "Personal Service Call",
        )

    def test_invoke_end_to_end(self, proxy, stub):
        sp = stub()
        service = stub()
        broker = broker_stub(stub, endpoint=service.netloc)
        sp.enqueue(self.invoke_response(sp))
        service.enqueue(Scripted(200, (("X-From", "service"),), b"service says hi\n"))
        server = proxy(broker_port=broker.port)

        status, headers, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (200, b"service says hi\n")
        assert header_value(headers, "X-From") == "service"

        resolved = broker.requests[0]
        assert resolved.method == "HEAD"
        assert resolved.path.startswith("/resolve?ref=")
        assert resolved.header(H_SERVICE) == "h-abc"
        assert resolved.header("Referer") == sp.netloc

        called = service.requests[0]
        assert (called.method, called.path) == ("POST", "/auth?sid=9")
        assert called.body == b"held payload"
        assert called.header("X-Token") == "secret"
        assert called.header("Cookie") == "tray=full"
        assert called.header("Referer") == sp.netloc
        assert called.header(H_INVOCATION) == "1"
        assert called.header_values(H_VERSION) == ["1"]
        # directive headers must not leak into the service call
        for name in (H_SERVICE, H_METHOD, H_PARAMETERS, H_CALLBACK):
            assert called.header(name) is None

    def test_a_312_cannot_speak_for_the_proxy(self, proxy, stub):
        # A service reads the first Referer: a carried one would let an SP name another.
        sp = stub()
        service = stub()
        broker = broker_stub(stub, endpoint=service.netloc)
        directive = self.invoke_response(sp)
        planted = (("Referer", "bank.test:443"), (H_INVOCATION, "2"), (H_VERSION, "9"))
        sp.enqueue(Scripted(312, planted + directive.headers, directive.body, directive.reason))
        server = proxy(broker_port=broker.port)
        assert via(server, "GET", sp.url("/login"))[0] == 200
        called = service.requests[0]
        assert called.header_values("Referer") == [sp.netloc]
        assert called.header_values(H_INVOCATION) == ["1"]
        assert called.header_values(H_VERSION) == ["1"]
        assert called.header("X-Token") == "secret"

    def test_a_chunked_312_carries_no_hop_by_hop_field_to_the_service(self, proxy, stub):
        service = stub()
        broker = broker_stub(stub, endpoint=service.netloc)
        end_to_end = [
            ("X-Token", "secret"),
            ("Cookie", "tray=full; a=b"),
            ("Accept-Language", "pt-PT, en;q=0.5"),
            ("X-Latin", "caf\xe9"),
        ]
        head = "".join(
            f"{line}\r\n"
            for line in [
                "HTTP/1.1 312 Personal Service Call",
                f'{H_SERVICE}: "h-abc"',
                f"{H_METHOD}: POST",
                f"{H_PARAMETERS}: /auth",
                f"{H_CALLBACK}: http://127.0.0.1:9/err",
                "Connection: x-a",
                "X-A: 1",
                "Upgrade: h2c",
                "Transfer-Encoding: chunked",
                *(f"{k}: {v}" for k, v in end_to_end),
            ]
        )
        sp_url = one_reply_origin(head.encode("latin-1"), b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n")
        server = proxy(broker_port=broker.port)
        assert via(server, "GET", sp_url)[0] == 200
        called = service.requests[0]
        assert called.body == b"hello world"
        own = {"host", "referer", "content-length", H_INVOCATION.lower(), H_VERSION.lower()}
        assert [(k, v) for k, v in called.headers if k.lower() not in own] == end_to_end

    def test_resolution_applies_only_to_the_call_that_asked(self, proxy, stub):
        sp = stub()
        service = stub()
        broker = stub()
        sp.default = lambda recorded: Scripted(
            312,
            (
                (H_SERVICE, json.dumps("h-abc")),
                (H_PARAMETERS, "/auth?" + urlsplit(recorded.path).query),
            ),
        )
        refs: list[str] = []
        first_arrived, second_arrived, first_done = (threading.Event() for _ in range(3))

        def resolve(recorded):
            refs.append(parse_qs(urlsplit(recorded.path).query)["ref"][0])
            if len(refs) == 1:
                # Hold the first call, then hand it the second call's ref.
                first_arrived.set()
                second_arrived.wait(5)
            else:
                second_arrived.set()
                first_done.wait(5)
            return Scripted(
                BROKER_RESULT, (("Location", f":{refs[-1]}"), (H_SERVICE, service.netloc))
            )

        broker.default = resolve
        server = proxy(broker_port=broker.port)
        results = {}

        def browse(name):
            results[name] = via(server, "GET", sp.url(f"/login?call={name}"))

        first = threading.Thread(target=browse, args=("first",))
        first.start()
        assert first_arrived.wait(5)
        second = threading.Thread(target=browse, args=("second",))
        second.start()
        first.join(10)
        first_done.set()
        second.join(10)
        assert not first.is_alive() and not second.is_alive()

        assert results["first"][0] == 502
        assert results["second"][0] == 200
        assert [r.path for r in service.requests] == ["/auth?call=second"]

    def test_resolution_error_reaches_callback(self, proxy, stub):
        sp = stub()
        broker = stub()
        sp.enqueue(self.invoke_response(sp), Scripted(200, (), b"told the sp\n"))

        def refuse(recorded):
            ref = parse_qs(urlsplit(recorded.path).query)["ref"][0]
            return Scripted(
                BROKER_RESULT, (("Location", f":{ref}"), (H_ERROR, ERR_HANDLE))
            )

        broker.enqueue(refuse)
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (200, b"told the sp\n")
        posted = sp.requests[1]
        assert (posted.method, posted.path) == ("POST", "/err")
        assert posted.header(H_ERROR) == ERR_HANDLE

    def test_unrecognized_error_code_becomes_service(self, proxy, stub):
        sp = stub()
        broker = stub()
        sp.enqueue(self.invoke_response(sp), Scripted(200))

        def refuse(recorded):
            ref = parse_qs(urlsplit(recorded.path).query)["ref"][0]
            return Scripted(
                BROKER_RESULT, (("Location", f":{ref}"), (H_ERROR, "gremlins"))
            )

        broker.enqueue(refuse)
        server = proxy(broker_port=broker.port)
        via(server, "GET", sp.url("/login"))
        assert sp.requests[1].header(H_ERROR) == ERR_SERVICE

    def test_broker_down_invoke_reports_service_error(self, proxy, stub):
        sp = stub()
        sp.enqueue(self.invoke_response(sp), Scripted(200))
        server = proxy()
        assert via(server, "GET", sp.url("/login"))[0] == 200
        assert sp.requests[1].header(H_ERROR) == ERR_SERVICE

    def test_unreachable_service_is_reported_to_callback(self, proxy, stub):
        sp = stub()
        broker = broker_stub(stub, endpoint=f"127.0.0.1:{allocate_port()}")
        sp.enqueue(self.invoke_response(sp), Scripted(200, (), b"told the sp\n"))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (200, b"told the sp\n")
        posted = sp.requests[1]
        assert (posted.method, posted.path) == ("POST", "/err")
        assert posted.header(H_ERROR) == ERR_SERVICE

    @pytest.mark.parametrize("parameters", ["/auth?sid=a b", "/auth?sid=\u00e9"])
    def test_parameters_that_cannot_go_on_the_wire_are_service(self, proxy, stub, parameters):
        sp = stub()
        service = stub()
        broker = broker_stub(stub, endpoint=service.netloc)
        directive = self.invoke_response(sp)
        headers = tuple((k, parameters if k == H_PARAMETERS else v) for k, v in directive.headers)
        sp.enqueue(
            Scripted(312, headers, directive.body, directive.reason),
            Scripted(200, (), b"told the sp\n"),
        )
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (200, b"told the sp\n")
        assert sp.requests[1].header(H_ERROR) == ERR_SERVICE
        assert service.requests == []

    def test_a_resolution_without_an_endpoint_is_a_502(self, proxy, stub):
        sp = stub()
        broker = broker_stub(stub)  # a 313 naming the ref, with an empty PSvc-Service
        sp.enqueue(self.invoke_response(sp))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (502, b"broker resolution lacked a service endpoint\n")
        assert len(broker.requests) == 1
        assert len(sp.requests) == 1  # the SP's callback is not told

    def test_a_method_that_is_not_a_token_is_parameters_and_never_resolved(
        self, proxy, stub, tmp_path, monkeypatch
    ):
        log = tmp_path / "transcript.jsonl"
        monkeypatch.setenv(transcript.ENV_VAR, str(log))
        write_descriptor(tmp_path, "cc", {"Purpose": "authentication"}, cmd=["false"])
        broker = BrokerServer(tmp_path)
        broker.start()
        sp = stub()
        try:
            query = [
                (H_SERVICE, '{"Purpose": "authentication"}'),
                (H_CALLBACK, sp.url("/cb")),
                ("Referer", sp.netloc),
            ]
            reply = http_exchange(broker.netloc, "HEAD", "/white", query)[1]
            handle = decode_broker_result(header_value(reply, H_SERVICE)).response["handle"]
            directive = ((H_SERVICE, json.dumps(handle)), (H_METHOD, "G\u00c9T"))
            sp.enqueue(
                Scripted(312, directive + ((H_CALLBACK, sp.url("/err")),)),
                Scripted(200, (), b"told the sp\n"),
            )
            status, _, body = via(proxy(broker_port=broker.port), "GET", sp.url("/login"))
        finally:
            broker.shutdown()
        assert (status, body) == (200, b"told the sp\n")
        assert sp.requests[1].header(H_ERROR) == ERR_PARAMETERS
        events = read_events(log)
        assert [e.path for e in events if e.actor == "Broker"] == ["/white"]
        assert [e for e in events if e.direction == transcript.SPAWN] == []

    def test_invoke_without_handle_is_parameters(self, proxy, stub):
        sp = stub()
        sp.enqueue(
            Scripted(312, ((H_CALLBACK, sp.url("/err")),)),
            Scripted(200),
        )
        server = proxy()
        via(server, "GET", sp.url("/login"))
        assert sp.requests[1].header(H_ERROR) == ERR_PARAMETERS

    def test_invoke_default_method_is_get(self, proxy, stub):
        sp = stub()
        service = stub()
        broker = broker_stub(stub, endpoint=service.netloc)
        sp.enqueue(
            Scripted(
                312,
                ((H_SERVICE, json.dumps("h-2")), (H_PARAMETERS, "status")),
            )
        )
        server = proxy(broker_port=broker.port)
        assert via(server, "GET", sp.url("/go"))[0] == 200
        called = service.requests[0]
        # bare parameters grow a leading slash; method falls back to GET
        assert (called.method, called.path) == ("GET", "/status")


class TestBrokerResultGate:
    def test_foreign_313_refused_and_location_never_visited(self, proxy, stub):
        sp = stub()
        victim = stub()
        broker = broker_stub(stub)
        sp.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", victim.url("/steal")), (H_SERVICE, "x")),
                b"",
                "Broker Result",
            )
        )
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/evil"))
        assert status == 502
        assert b"non-broker" in body
        assert victim.requests == []

    def test_313_refused_when_no_broker_is_known(self, proxy, stub):
        sp = stub()
        victim = stub()
        sp.enqueue(
            Scripted(BROKER_RESULT, (("Location", victim.url("/steal")),))
        )
        server = proxy()
        assert via(server, "GET", sp.url("/evil"))[0] == 502
        assert victim.requests == []

    def test_313_from_broker_origin_is_refused(self, proxy, stub):
        # Only the proxy's own broker HEADs may yield a 313; a browser
        # request relayed to the broker's address may not.
        sp = stub()
        broker = stub()
        broker.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", sp.url("/landed")), (H_SERVICE, "payload")),
            )
        )
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", broker.url("/whatever"))
        assert status == 502
        assert b"non-broker" in body
        assert sp.requests == []

    def test_internal_reference_location_never_reaches_browser(self, proxy, stub):
        broker = stub()
        broker.enqueue(Scripted(BROKER_RESULT, (("Location", ":deadbeef"),)))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", broker.url("/x"))
        assert status == 502


class TestChaining:
    def test_chain_limit_enforced(self, proxy, stub, monkeypatch):
        monkeypatch.setattr(psvc.proxy, "MAX_CHAIN", 2)
        sp = stub()
        broker = broker_stub(stub)
        sp.default = Scripted(
            310,
            ((H_SERVICE, '{"Purpose": "loop"}'), (H_CALLBACK, sp.url("/cb"))),
        )
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/start"))
        assert status == 502
        assert b"exceeded" in body
        # initial forward plus one callback POST per allowed step
        assert len(sp.requests) == 3

    def test_callback_may_issue_follow_up_directives(self, proxy, stub):
        # listing answer triggers an invocation from inside the callback
        sp = stub()
        service = stub()
        broker = broker_stub(stub, endpoint=service.netloc)
        sp.enqueue(
            Scripted(
                311,
                ((H_SERVICE, '{"Purpose": "auth"}'), (H_CALLBACK, sp.url("/wp"))),
            ),
            Scripted(
                312,
                ((H_SERVICE, json.dumps("h-9")), (H_PARAMETERS, "/go")),
            ),
        )
        service.enqueue(Scripted(200, (), b"deep result\n"))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/login"))
        assert (status, body) == (200, b"deep result\n")
        assert [r.path for r in sp.requests] == ["/login", "/wp"]
        assert service.requests[0].path == "/go"


MINI_BROKER = """\
from http.server import BaseHTTPRequestHandler, HTTPServer

srv = HTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
with open("broker.ept", "w") as fh:
    fh.write(str(srv.server_address[1]))
srv.serve_forever()
"""


def write_marker_broker(ps_dir: Path) -> None:
    """A broker.psd whose launch only leaves a file named "launched"."""
    write_descriptor(
        ps_dir,
        "broker",
        {"Purpose": "service brokering"},
        cmd=[sys.executable, "-c", "open('launched', 'w').close()"],
        workdir=str(ps_dir),
    )


class TestBrokerLink:
    def test_no_endpoint_and_no_autolaunch(self, tmp_path):
        # No broker.ept and no broker.psd: nothing to read and nothing to launch.
        link = BrokerLink(tmp_path)
        assert link.endpoint_or_none() is None
        with pytest.raises(Unreachable):
            link.endpoint()
        assert not (tmp_path / "broker.ept").exists()

    def test_stale_endpoint_without_a_descriptor_is_unreachable(self, tmp_path):
        port = allocate_port()
        write_port_file(tmp_path / ENDPOINT_FILE, port)
        link = BrokerLink(tmp_path)
        assert link.endpoint_or_none() == ("127.0.0.1", port)  # read, not probed
        with pytest.raises(Unreachable, match="broker.psd"):
            link.call("/white", [])

    def test_slow_broker_is_not_launched_twice(self, tmp_path, monkeypatch):
        # A live broker whose accept queue is full: connecting times out.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        queued = socket.create_connection(listener.getsockname())
        write_port_file(tmp_path / ENDPOINT_FILE, listener.getsockname()[1])
        write_marker_broker(tmp_path)
        monkeypatch.setattr(psvc.proxy, "BROKER_CALL_TIMEOUT_S", 0.5)
        link = BrokerLink(tmp_path)
        try:
            with pytest.raises(Unreachable):
                link.call("/white", [])
        finally:
            link.shutdown()
            queued.close()
            listener.close()
        assert not (tmp_path / "launched").exists()

    def test_refused_endpoint_relaunches_and_retries(self, tmp_path):
        stale = allocate_port()
        write_port_file(tmp_path / ENDPOINT_FILE, stale)
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", MINI_BROKER],
            workdir=str(tmp_path),
        )
        link = BrokerLink(tmp_path)
        try:
            reply = link.call("/white", [])
            # BaseHTTPRequestHandler has no do_HEAD: any answer means the call arrived.
            assert reply.status == 501
            assert reply.origin != f"127.0.0.1:{stale}"
            assert reply.origin == "127.0.0.1:" + (tmp_path / "broker.ept").read_text()
        finally:
            link.shutdown()

    def test_a_relaunch_stops_the_broker_launched_before(self, tmp_path):
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", MINI_BROKER],
            workdir=str(tmp_path),
        )
        link = BrokerLink(tmp_path)
        launched = []
        try:
            link.endpoint()
            launched.append(link._proc)
            write_port_file(tmp_path / ENDPOINT_FILE, allocate_port())  # broker.ept now names a dead port
            assert link.call("/white", []).status == 501
            launched.append(link._proc)
            assert launched[1] is not launched[0]
            assert launched[0].poll() is not None  # it no longer owns broker.ept
        finally:
            link.shutdown()
            for proc in launched:
                stop_process(proc)

    def test_autolaunch_needs_a_descriptor(self, tmp_path):
        link = BrokerLink(tmp_path)
        with pytest.raises(Unreachable, match="broker.psd"):
            link.endpoint()

    def test_autolaunch_refuses_a_broker_descriptor_naming_a_url(self, tmp_path):
        write_descriptor(tmp_path, "broker", {"Purpose": "service brokering"}, url="http://h/")
        with pytest.raises(Unreachable, match="broker.psd does not define a launch command"):
            BrokerLink(tmp_path).endpoint()

    def test_a_fifo_endpoint_file_reads_as_none_without_waiting(self, tmp_path):
        os.mkfifo(tmp_path / "broker.ept")
        read: list[tuple[str, int] | None] = []
        reading = threading.Thread(
            target=lambda: read.append(BrokerLink(tmp_path).endpoint_or_none()), daemon=True
        )
        reading.start()
        reading.join(1)
        assert read == [None]

    def test_autolaunch_refuses_a_descriptor_over_the_size_bound(self, tmp_path):
        path = write_descriptor(tmp_path, "broker", {"Purpose": "service brokering"}, cmd=["x"])
        os.truncate(path, 1 << 24)  # sparse, and never read whole
        with pytest.raises(Unreachable, match="broker.psd: larger than 65536 bytes"):
            BrokerLink(tmp_path).endpoint()

    def test_autolaunch_does_not_wait_on_a_fifo(self, tmp_path):
        os.mkfifo(tmp_path / "broker.psd")
        errors: list[Unreachable] = []

        def launch() -> None:
            try:
                BrokerLink(tmp_path).endpoint()
            except Unreachable as exc:
                errors.append(exc)

        launching = threading.Thread(target=launch, daemon=True)
        launching.start()
        launching.join(5)
        assert [str(e).partition(":")[0] for e in errors] == ["no usable broker.psd"]

    def test_autolaunch_refuses_a_missing_working_directory(self, tmp_path):
        missing = tmp_path / "gone"
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", "open('launched', 'w').close()"],
            workdir=str(missing),
        )
        link = BrokerLink(tmp_path)
        try:
            with pytest.raises(Unreachable, match=re.escape(str(missing))):
                link.endpoint()
        finally:
            link.shutdown()
        assert not (tmp_path / "launched").exists()

    def test_a_launch_that_never_publishes_is_stopped(self, tmp_path, monkeypatch):
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", "import time; time.sleep(60)"],
            workdir=str(tmp_path),
        )
        launched = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            launched.append(popen(*args, **kwargs))
            return launched[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)  # what _launch imports
        monkeypatch.setattr(psvc.proxy, "BROKER_LAUNCH_TIMEOUT_S", 0.5)
        link = BrokerLink(tmp_path)
        try:
            for _ in range(2):
                with pytest.raises(Unreachable, match="never published"):
                    link.endpoint()
            assert len(launched) == 2
            assert [proc.poll() is not None for proc in launched] == [True, True]
        finally:
            link.shutdown()
            for proc in launched:
                stop_process(proc)

    def test_autolaunch_starts_and_finds_broker(self, tmp_path):
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", MINI_BROKER],
            workdir=str(tmp_path),
        )
        link = BrokerLink(tmp_path)
        try:
            host, port = link.endpoint()
            assert host == "127.0.0.1"
            assert (tmp_path / "broker.ept").read_text() == str(port)
        finally:
            link.shutdown()
        assert link._proc.poll() is not None


class RawOrigin:
    """A keep-alive origin on a bare socket, told per request how to answer.

    `script(nth)` is called after the nth request on a connection was
    read; it returns "reply", "reply-close" (reply, then hang up
    without saying so) or "drop" (hang up without replying).
    """

    def __init__(self, script):
        self.script = script
        self.requests: list[tuple[int, str, str]] = []  # (connection number, method, path)
        self.accepts = 0
        self.hung_up = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.netloc = f"127.0.0.1:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._accept, daemon=True).start()

    def url(self, path: str) -> str:
        return f"http://{self.netloc}{path}"

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            self.accepts += 1
            threading.Thread(target=self._serve, args=(sock, self.accepts), daemon=True).start()

    def _serve(self, sock: socket.socket, number: int) -> None:
        with sock, sock.makefile("rb") as rfile:
            nth = 0
            while line := rfile.readline():
                nth += 1
                method, path, _ = line.decode("latin-1").split(" ", 2)
                length = 0
                while (header := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                rfile.read(length)
                self.requests.append((number, method, path))
                action = self.script(nth)
                if action == "drop":
                    break
                body = b"" if method == "HEAD" else b"ok"
                sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n" + body)
                if action == "reply-close":
                    break
        self.hung_up.set()

    def close(self) -> None:
        self._listener.close()


@pytest.fixture()
def raw_origin():
    made: list[RawOrigin] = []

    def make(script) -> RawOrigin:
        made.append(RawOrigin(script))
        return made[-1]

    yield make
    for origin in made:
        origin.close()


class TestConnectionPool:
    def test_keep_alive_reply_is_reused(self, raw_origin):
        origin = raw_origin(lambda nth: "reply")
        for path in ("/a", "/b", "/c"):
            assert psvc.proxy.send_request("GET", origin.url(path), [], b"").body == b"ok"
        assert origin.accepts == 1

    def test_connection_close_reply_is_never_pooled(self, stub):
        origin = stub()  # answers every request with Connection: close
        for _ in range(2):
            assert psvc.proxy.send_request("GET", origin.url("/"), [], b"").status == 200
            assert psvc.proxy._POOL.take(origin.netloc) is None

    def test_post_on_a_connection_closed_while_idle_goes_fresh(self, raw_origin):
        origin = raw_origin(lambda nth: "reply-close")
        psvc.proxy.send_request("GET", origin.url("/warm"), [], b"")
        assert origin.hung_up.wait(5)
        reply = psvc.proxy.send_request("POST", origin.url("/cb"), [], b"x=1")
        assert reply.body == b"ok"
        assert origin.requests == [(1, "GET", "/warm"), (2, "POST", "/cb")]

    def test_post_is_never_sent_twice(self, raw_origin):
        # The server reads the POST on the pooled connection, then hangs up.
        origin = raw_origin(lambda nth: "drop" if nth == 2 else "reply")
        psvc.proxy.send_request("GET", origin.url("/warm"), [], b"")
        with pytest.raises(psvc.proxy.Unreachable):
            psvc.proxy.send_request("POST", origin.url("/cb"), [], b"x=1")
        assert origin.requests == [(1, "GET", "/warm"), (1, "POST", "/cb")]
        assert origin.accepts == 1

    @pytest.mark.parametrize("method", ["HEAD", "GET"])
    def test_stale_pooled_idempotent_request_is_resent_once(self, raw_origin, method):
        origin = raw_origin(lambda nth: "drop" if nth == 2 else "reply")
        psvc.proxy.send_request(method, origin.url("/warm"), [], b"")
        reply = psvc.proxy.send_request(method, origin.url("/again"), [], b"")
        assert reply.status == 200
        assert origin.requests == [(1, method, "/warm"), (1, method, "/again"), (2, method, "/again")]

    def test_the_oldest_idle_connection_goes_first_across_origins(self, monkeypatch):
        monkeypatch.setattr(psvc.proxy, "POOL_MAX", 3)
        pool = psvc.proxy._Pool()
        pairs = [socket.socketpair() for _ in range(5)]
        conns = [mine for mine, _ in pairs]
        try:
            for origin, conn in zip("abacc", conns):
                pool.give(origin, conn)
            # Past POOL_MAX, the oldest went first, whatever its origin.
            assert [conn.fileno() == -1 for conn in conns] == [True, True, False, False, False]
            assert pool.take("b") is None
            assert pool.take("a") is conns[2]
            assert [pool.take("c"), pool.take("c"), pool.take("c")] == [conns[4], conns[3], None]
        finally:
            for pair in pairs:
                for sock in pair:
                    sock.close()

    def test_sign_in_reuses_upstream_connections(self, tmp_path, monkeypatch):
        # No idle limit may end a connection between sign-ins on a slow host.
        monkeypatch.setattr(psvc.kit, "KEEPALIVE_IDLE_S", 60.0)
        monkeypatch.setattr(psvc.proxy, "POOL_IDLE_S", 60.0)
        service_port = allocate_port()
        service = ServiceServer(
            ("127.0.0.1", service_port), MockAuthService(service_port).handle, "Service"
        )
        write_descriptor(
            tmp_path, "cc", dict(DEFAULT_WP_QUERY), url=f"http://127.0.0.1:{service_port}"
        )
        broker = BrokerServer(tmp_path)
        sp = DemoSP(("127.0.0.1", 0))
        front = PersonalServiceProxy(tmp_path, ("127.0.0.1", 0))
        parties = {"service": service, "broker": broker, "sp": sp}
        accepts = {name: count_accepts(server) for name, server in parties.items()}
        for server in [*parties.values(), front]:
            server.start()
        try:
            for _ in range(3):
                page = Browser(front.netloc).run_flow(sp.absolute("/"))
                assert "authenticated as demo-user" in page.text
        finally:
            for server in [front, *parties.values()]:
                server.shutdown()
        # 3 sign-ins made 15 SP, 6 broker and 6 service exchanges.
        assert {name: len(a) for name, a in accepts.items()} == {
            "service": 1, "broker": 1, "sp": 1
        }

    def test_broker_restart_behind_a_pooled_connection(self, tmp_path, stub):
        write_descriptor(tmp_path, "cc", {"Purpose": "authentication"}, cmd=["false"])
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", LAUNCHED_BROKER.format(src=str(SRC_DIR))],
            workdir=str(tmp_path),
        )
        first = BrokerServer(tmp_path)
        first.start()
        sp = stub()

        def answer(recorded):
            if recorded.method == "GET":
                return Scripted(
                    310,
                    ((H_SERVICE, '{"Purpose": "authentication"}'), (H_CALLBACK, sp.url("/cb"))),
                    reason="Yellow Pages Call",
                )
            names = decode_broker_result(recorded.header(H_SERVICE)).response
            return Scripted(200, (), f"{len(names)} names".encode())

        sp.default = answer
        front = PersonalServiceProxy(tmp_path, ("127.0.0.1", 0))
        front.start()
        results: list[tuple[int, bytes]] = []

        def browse(times: int) -> None:
            for _ in range(times):
                status, _, body = via(front, "GET", sp.url("/discover"))
                results.append((status, body))

        try:
            browse(2)  # leaves a pooled connection to the first broker
            first.shutdown()
            clients = [threading.Thread(target=browse, args=(3,)) for _ in range(4)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(60)
            assert not any(client.is_alive() for client in clients)
        finally:
            front.shutdown()
        assert results == [(200, b"1 names")] * 14
        assert (tmp_path / "launches").read_text() == "launch\n"


def one_reply_origin(head: bytes, body: bytes) -> str:
    """A bare-socket origin that answers one request with `head`, a blank line and `body`."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener, listener.accept()[0] as sock:
            sock.recv(65536)  # the request head, sent in one write
            try:
                sock.sendall(head + b"\r\n" + body)
            except OSError:  # the proxy stopped reading at the cap
                pass

    threading.Thread(target=serve, daemon=True).start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}/"


class TestReplyBodyCap:
    """The one body bound, kit.MAX_BODY_BYTES, also caps upstream replies."""

    FRAMINGS = {
        "content-length": lambda size: b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n" % size,
        "close-delimited": lambda size: b"HTTP/1.1 200 OK\r\nConnection: close\r\n",
    }

    @pytest.mark.parametrize("framing", sorted(FRAMINGS))
    def test_reply_one_byte_over_the_cap_is_a_502(self, proxy, framing):
        size = psvc.kit.MAX_BODY_BYTES + 1
        url = one_reply_origin(self.FRAMINGS[framing](size), b"x" * size)
        status, _, body = via(proxy(), "GET", url)
        assert status == 502
        assert f"over {psvc.kit.MAX_BODY_BYTES} bytes".encode() in body
        assert psvc.proxy._POOL.take(urlsplit(url).netloc) is None

    @pytest.mark.parametrize("framing", sorted(FRAMINGS))
    def test_reply_at_the_cap_is_relayed(self, proxy, framing):
        size = psvc.kit.MAX_BODY_BYTES
        url = one_reply_origin(self.FRAMINGS[framing](size), b"x" * size)
        status, _, body = via(proxy(), "GET", url)
        assert (status, len(body)) == (200, size)

    def test_reply_shorter_than_its_content_length_is_a_502(self, proxy):
        url = one_reply_origin(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n", b"short")
        status, _, body = via(proxy(), "GET", url)
        assert status == 502
        assert b"unreadable" in body


SRC_DIR = Path(psvc.proxy.__file__).resolve().parents[1]

# A broker.psd launch: note the launch, then run the real broker.
LAUNCHED_BROKER = """\
import sys
sys.path.insert(0, {src!r})
with open("launches", "a") as fh:
    fh.write("launch\\n")
from psvc.cli import main
sys.exit(main(["broker", "run", "--ps-dir", "."]))
"""
