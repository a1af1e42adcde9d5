"""Proxy behavior: relaying, redirection handling, and broker discovery."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

from psvc.broker.core import write_endpoint_file
from psvc.broker.runtime import allocate_port
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
    BrokerUnreachable,
    DEFAULT_MAX_CHAIN,
    ProxyConfig,
    ProxyServer,
    strip_hop_by_hop,
)

from conftest import Scripted, header_value, http_exchange, write_descriptor


@pytest.fixture()
def proxy(tmp_path):
    """Factory for proxies rooted at tmp_path, torn down afterwards."""
    servers: list[ProxyServer] = []

    def make(
        *, broker_port: int | None = None, max_chain: int = DEFAULT_MAX_CHAIN
    ) -> ProxyServer:
        if broker_port is not None:
            write_endpoint_file(tmp_path, broker_port)
        server = ProxyServer(
            ProxyConfig(
                listen_host="127.0.0.1",
                listen_port=0,
                ps_dir=tmp_path,
                max_chain=max_chain,
                broker_autolaunch=False,
            )
        )
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.shutdown()


def via(server: ProxyServer, method: str, url: str, headers=None, body=b""):
    return http_exchange(server.address, method, url, headers, body)


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
            server.address, "GET", origin.url("/"), [("Content-Length", "abc")], timeout=2
        )
        assert (status, body) == (400, b"malformed Content-Length\n")
        assert origin.requests == []

    def test_negative_content_length_is_400(self, proxy, stub):
        origin = stub()
        server = proxy()
        status, _, body = http_exchange(
            server.address, "GET", origin.url("/"), [("Content-Length", "-1")], timeout=2
        )
        assert (status, body) == (400, b"malformed Content-Length\n")
        assert origin.requests == []

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

    def test_malformed_listing_without_callback_is_a_502(self, proxy, stub):
        sp = stub()
        sp.enqueue(Scripted(310, ((H_SERVICE, "{broken"),)))
        server = proxy()
        status, _, _ = via(server, "GET", sp.url("/d"))
        assert status == 502
        assert len(sp.requests) == 1

    def test_broker_answering_oddly_is_a_502(self, proxy, stub):
        sp = stub()
        broker = stub()
        sp.enqueue(
            Scripted(310, ((H_SERVICE, '{"a": 1}'), (H_CALLBACK, sp.url("/cb"))))
        )
        broker.enqueue(Scripted(500, (), b"boom"))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", sp.url("/d"))
        assert status == 502
        assert b"broker answered 500" in body


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

    def test_313_from_broker_origin_is_followed(self, proxy, stub):
        sp = stub()
        broker = stub()
        broker.enqueue(
            Scripted(
                BROKER_RESULT,
                (("Location", sp.url("/landed")), (H_SERVICE, "payload")),
            )
        )
        sp.enqueue(Scripted(200, (), b"delivered\n"))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", broker.url("/whatever"))
        assert (status, body) == (200, b"delivered\n")
        posted = sp.requests[0]
        assert (posted.method, posted.path) == ("POST", "/landed")
        assert posted.header(H_SERVICE) == "payload"

    def test_internal_reference_location_never_reaches_browser(self, proxy, stub):
        broker = stub()
        broker.enqueue(Scripted(BROKER_RESULT, (("Location", ":deadbeef"),)))
        server = proxy(broker_port=broker.port)
        status, _, body = via(server, "GET", broker.url("/x"))
        assert status == 502
        assert b"never made" in body


class TestChaining:
    def test_chain_limit_enforced(self, proxy, stub):
        sp = stub()
        broker = broker_stub(stub)
        sp.default = Scripted(
            310,
            ((H_SERVICE, '{"Purpose": "loop"}'), (H_CALLBACK, sp.url("/cb"))),
        )
        server = proxy(broker_port=broker.port, max_chain=2)
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


class TestBrokerLink:
    def test_no_endpoint_and_no_autolaunch(self, tmp_path):
        link = BrokerLink(tmp_path, autolaunch=False)
        assert link.endpoint_or_none() is None
        with pytest.raises(BrokerUnreachable):
            link.endpoint()

    def test_stale_endpoint_file_ignored(self, tmp_path):
        write_endpoint_file(tmp_path, allocate_port())
        link = BrokerLink(tmp_path, autolaunch=False)
        assert link.endpoint_or_none() is None

    def test_autolaunch_needs_a_descriptor(self, tmp_path):
        link = BrokerLink(tmp_path, autolaunch=True)
        with pytest.raises(BrokerUnreachable, match="broker.psd"):
            link.endpoint()

    def test_autolaunch_starts_and_finds_broker(self, tmp_path):
        write_descriptor(
            tmp_path,
            "broker",
            {"Purpose": "service brokering"},
            cmd=[sys.executable, "-c", MINI_BROKER],
            workdir=str(tmp_path),
        )
        link = BrokerLink(tmp_path, autolaunch=True)
        try:
            host, port = link.endpoint()
            assert host == "127.0.0.1"
            assert (tmp_path / "broker.ept").read_text() == str(port)
        finally:
            link.shutdown()
        assert link._proc.poll() is not None
