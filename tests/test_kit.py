"""Service-kit behavior: bootstrap, invocation detection, return pages, serving."""

from __future__ import annotations

from html.parser import HTMLParser

import pytest

from psvc import kit
from psvc.broker.runtime import allocate_port
from psvc.kit import (
    BootstrapError,
    KitRequest,
    KitResponse,
    ServiceContext,
    ServiceServer,
    bootstrap,
    detect_psvc_invocation,
    sp_return_page,
)
from psvc.protocol import H_INVOCATION

from conftest import chunked_post, header_value, http_exchange


class TestBootstrap:
    def test_port_is_last_argument(self):
        assert bootstrap(["service", "--flag", "9090"]).port == 9090

    def test_port_alone(self):
        context = bootstrap(["8081"])
        assert context.port == 8081
        assert context.bind_address == "127.0.0.1"

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

    def test_loopback_binding_enforced(self):
        with pytest.raises(BootstrapError, match="loopback"):
            ServiceContext(port=8000, bind_address="0.0.0.0")
        assert ServiceContext(port=8000, bind_address="127.0.0.2").port == 8000


class TestDetectInvocation:
    def test_marker_plus_referer(self):
        assert detect_psvc_invocation(
            {"Referer": "sp.test:8080", H_INVOCATION: "1"}
        )

    def test_header_names_are_case_insensitive(self):
        assert detect_psvc_invocation(
            {"REFERER": "sp.test:8080", "psvc-invocation": "1"}
        )

    @pytest.mark.parametrize(
        "headers",
        [
            {},
            {"Referer": "sp.test:8080"},
            {H_INVOCATION: "1"},
            {"Referer": "", H_INVOCATION: "1"},
            {"Referer": "sp.test:8080", H_INVOCATION: "2"},
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


class TestServiceServer:
    @pytest.fixture()
    def service(self):
        seen: list[KitRequest] = []

        def handler(request: KitRequest) -> KitResponse:
            seen.append(request)
            if request.path == "/boom":
                return KitResponse.text("no", status=500)
            return KitResponse.html(f"<p>{request.method} {request.path}</p>")

        server = ServiceServer(("127.0.0.1", allocate_port()), handler)
        server.start()
        try:
            yield server, seen
        finally:
            server.shutdown()

    def netloc(self, server: ServiceServer) -> str:
        return f"127.0.0.1:{server.port}"

    def test_get_with_query(self, service):
        server, seen = service
        status, headers, body = http_exchange(
            self.netloc(server), "GET", "/auth?sid=7&mode=fast", [("X-Probe", "yes")]
        )
        assert status == 200
        assert header_value(headers, "Content-Type") == "text/html; charset=utf-8"
        assert body == b"<p>GET /auth</p>"
        request = seen[0]
        assert request.query == {"sid": "7", "mode": "fast"}
        assert kit.header_value(request.headers, "X-Probe") == "yes"
        assert request.body == b""

    def test_post_body_reaches_handler(self, service):
        server, seen = service
        status, _, _ = http_exchange(
            self.netloc(server),
            "POST",
            "/submit",
            [("Content-Type", "application/x-www-form-urlencoded")],
            b"a=1&b=2",
        )
        assert status == 200
        assert seen[0].form() == {"a": "1", "b": "2"}

    def test_chunked_body_is_refused_with_411(self, service):
        server, seen = service
        status, body = chunked_post(self.netloc(server), "/submit", b"hello")
        assert (status, body) == (411, b"request body needs a Content-Length\n")
        assert seen == []

    def test_handler_chooses_the_status(self, service):
        server, _ = service
        status, _, body = http_exchange(self.netloc(server), "GET", "/boom")
        assert (status, body) == (500, b"no")

    def test_head_gets_headers_only(self, service):
        server, _ = service
        status, headers, body = http_exchange(self.netloc(server), "HEAD", "/auth")
        assert status == 200
        assert body == b""
        assert int(header_value(headers, "Content-Length")) > 0
