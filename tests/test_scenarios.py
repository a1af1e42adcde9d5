"""Full multi-process flows, each checked against its frozen transcript."""

from __future__ import annotations

import importlib.util
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urlencode

import pytest

import psvc
import psvc.demo.sp
import psvc.kit
import psvc.scenario
from psvc import transcript
from psvc.cli import main
from psvc.demo.service import MockAuthService
from psvc.demo.sp import DemoSP
from psvc.kit import KitRequest
from psvc.protocol import (
    H_ERROR,
    H_INVOCATION,
    H_SERVICE,
    H_VERSION,
    OP_YELLOW,
    BrokerResult,
    encode_broker_result,
)
from psvc.scenario import (
    SCENARIOS,
    Browser,
    ScenarioContext,
    ScenarioFailure,
    kill_and_wait,
    run_scenario,
)

from conftest import Scripted, header_value, http_exchange

WORLD = Path(__file__).resolve().parent.parent / "perfbench" / "world.py"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario(name):
    result = run_scenario(name)
    if not result.passed:
        report = "\n".join(result.failures)
        transcript = "\n".join(result.lines)
        pytest.fail(f"{name}:\n{report}\n\ntranscript:\n{transcript}")


def one_event_scenario(ctx: ScenarioContext) -> None:
    transcript.Transcript(ctx.transcript_path, "Proxy").emit(transcript.SEND, "GET", "http://x/")


def run_cleaned(name: str, **options):
    result = run_scenario(name, **options)
    shutil.rmtree(result.workdir, ignore_errors=True)
    return result


def test_a_transcript_that_deviates_from_its_golden_fails_with_the_diff(tmp_path, monkeypatch):
    monkeypatch.setattr(psvc.scenario, "GOLDEN_DIR", tmp_path)
    monkeypatch.setitem(SCENARIOS, "one-event", one_event_scenario)
    assert run_cleaned("one-event", write_golden=True).passed
    golden = tmp_path / "one-event.txt"
    assert golden.read_text("utf-8") == "Proxy   > GET http://x/\n"
    assert run_cleaned("one-event").passed
    golden.write_text("Proxy   > GET http://y/\n", "utf-8")
    result = run_cleaned("one-event")
    assert not result.passed
    assert result.failures == [
        "transcript deviates from golden:\n--- golden\n+++ observed\n@@ -1 +1 @@\n"
        "-Proxy   > GET http://y/\n+Proxy   > GET http://x/"
    ]


def test_a_frozen_empty_transcript_passes_its_next_run(tmp_path, monkeypatch):
    monkeypatch.setattr(psvc.scenario, "GOLDEN_DIR", tmp_path)
    monkeypatch.setitem(SCENARIOS, "no-op", lambda ctx: None)
    assert run_cleaned("no-op", write_golden=True).passed
    assert (tmp_path / "no-op.txt").read_text("utf-8") == ""
    assert run_cleaned("no-op").passed


def test_every_scenario_has_a_golden_and_every_golden_a_scenario():
    # A scenario without a golden skips the comparison, so a deleted golden must fail here.
    goldens = sorted(path.stem for path in psvc.scenario.GOLDEN_DIR.glob("*.txt"))
    assert goldens == sorted(SCENARIOS)


def test_write_golden_leaves_the_golden_of_a_failed_run_unchanged(tmp_path, monkeypatch):
    def failing(ctx: ScenarioContext) -> None:
        one_event_scenario(ctx)
        raise ScenarioFailure("flow from / ended with 502")

    monkeypatch.setattr(psvc.scenario, "GOLDEN_DIR", tmp_path)
    monkeypatch.setitem(SCENARIOS, "failing", failing)
    golden = tmp_path / "failing.txt"
    golden.write_text("frozen\n", "utf-8")
    result = run_cleaned("failing", write_golden=True)
    assert golden.read_text("utf-8") == "frozen\n"
    assert not result.passed
    assert result.failures == [
        "flow from / ended with 502",
        "golden failing.txt left unchanged: only a passing run is frozen",
    ]


def test_keep_prints_the_kept_directory(capsys):
    assert main(["scenario", "yellow-pages", "--keep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    kept = [line.removeprefix("  kept ") for line in lines if line.startswith("  kept ")]
    assert len(kept) == 1
    workdir = Path(kept[0])
    try:
        assert (workdir / "transcript.jsonl").is_file()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_child_env_imports_the_running_package_from_any_cwd(tmp_path, monkeypatch):
    # A relative entry, as `PYTHONPATH=src` is from the repository root.
    package_root = Path(psvc.__file__).resolve().parent.parent
    monkeypatch.chdir(package_root.parent)
    monkeypatch.setenv("PYTHONPATH", package_root.name)
    ctx = ScenarioContext("import-path", tmp_path)
    child = subprocess.run(
        [sys.executable, "-c", "import psvc; print(psvc.__file__)"],
        cwd=tmp_path,
        env=ctx.child_env(),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert child.returncode == 0, child.stderr
    assert Path(child.stdout.strip()).resolve() == Path(psvc.__file__).resolve()


def test_boot_wait_reports_a_child_that_died(tmp_path):
    ctx = ScenarioContext("early-exit", tmp_path)
    argv = [sys.executable, "-c", "print('doomed-marker', flush=True); raise SystemExit(7)"]
    try:
        with pytest.raises(ScenarioFailure) as failure:
            ctx._boot("doomed", argv, tmp_path / "never.port")
    finally:
        ctx.teardown()
    message = str(failure.value)
    assert "doomed exited with status 7" in message
    assert "doomed-marker" in message


def test_a_party_that_writes_much_before_its_port_file_boots(tmp_path):
    port_file = tmp_path / "chatty.port"
    script = (
        "import pathlib, sys, time; sys.stdout.write('x' * 200_000); sys.stdout.flush(); "
        f"pathlib.Path({str(port_file)!r}).write_text('1234'); time.sleep(60)"
    )
    ctx = ScenarioContext("chatty", tmp_path)
    started = time.monotonic()
    try:
        assert ctx._boot("chatty", [sys.executable, "-c", script], port_file) == "127.0.0.1:1234"
        assert time.monotonic() - started < 5
    finally:
        ctx.teardown()
    assert (tmp_path / "chatty.log").stat().st_size == 200_000


def test_a_party_whose_port_file_holds_no_port_fails_its_boot(tmp_path, monkeypatch):
    # A party that stays up but writes no port: the boot gives up at its deadline.
    port_file = tmp_path / "garbled.port"
    script = (
        "import pathlib, time; print('garbled-marker', flush=True); "
        f"pathlib.Path({str(port_file)!r}).write_text('abc'); time.sleep(60)"
    )
    monkeypatch.setattr(psvc.scenario, "BOOT_TIMEOUT_S", 1.0)
    ctx = ScenarioContext("garbled", tmp_path)
    try:
        with pytest.raises(ScenarioFailure) as failure:
            ctx._boot("garbled", [sys.executable, "-c", script], port_file)
        assert ctx.parties[0].poll() is not None  # stopped at the deadline
    finally:
        ctx.teardown()
    message = str(failure.value)
    assert message.startswith("garbled wrote no port to")
    assert "garbled-marker" in message


def test_concurrent_sign_ins_all_succeed_with_one_spawn(tmp_path):
    ctx = ScenarioContext("concurrent-sign-in", tmp_path)
    failures: list[str] = []

    def sign_in(times: int) -> None:
        for _ in range(times):
            try:
                page = ctx.browser().run_flow(ctx.sp_url("/"))
                if "authenticated as demo-user" not in page.text:
                    failures.append(f"{page.status_code}: {page.text[:200]!r}")
            except Exception as exc:
                failures.append(repr(exc))

    try:
        ctx.write_demo_descriptors()
        ctx.boot_all()
        clients = [threading.Thread(target=sign_in, args=(5,)) for _ in range(8)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(120)
        assert not any(client.is_alive() for client in clients)
        spawns = ctx.spawns()
    finally:
        ctx.teardown()
    assert failures == []
    assert len(spawns) == 1


# A parent that starts a child and never reaps it, so the child, once
# killed, stays a zombie until this parent exits.
NEGLECTFUL_PARENT = """\
import subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
print(child.pid, flush=True)
time.sleep(60)
"""


def test_kill_and_wait_sees_an_unreaped_grandchild_exit():
    parent = subprocess.Popen(
        [sys.executable, "-c", NEGLECTFUL_PARENT], stdout=subprocess.PIPE, text=True
    )
    try:
        grandchild = int(parent.stdout.readline())
        started = time.monotonic()
        kill_and_wait(grandchild)
        assert time.monotonic() - started < 1.0
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()


def test_demo_sp_accepts_a_result_once():
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        session = sp.new_session("/")
        form = urlencode({"sid": session.sid, "nonce": session.nonce, "user": "demo-user"})
        headers = [("Content-Type", "application/x-www-form-urlencoded")]

        def post_result() -> int:
            return http_exchange(sp.netloc, "POST", "/result", headers, form.encode())[0]

        assert post_result() == 302
        assert sp.sessions == {}
        assert post_result() == 403
    finally:
        sp.shutdown()


def test_demo_sp_redirects_after_sign_in_stay_on_its_host():
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        target = "/login?next=@evil.example/"  # joined to the SP's netloc, it names evil.example
        cookie = f"{psvc.demo.sp.COOKIE_NAME}={sp.issue_cookie('demo-user')}"
        signed_in = http_exchange(sp.netloc, "GET", target, [("Cookie", cookie)])
        # Without a cookie the attempt keeps `next` and redirects there from /result.
        assert http_exchange(sp.netloc, "GET", target, [(H_VERSION, "1")])[0] == 311
        (session,) = sp.sessions.values()
        form = urlencode({"sid": session.sid, "nonce": session.nonce, "user": "demo-user"})
        form_headers = [("Content-Type", "application/x-www-form-urlencoded")]
        result = http_exchange(sp.netloc, "POST", "/result", form_headers, form.encode())
    finally:
        sp.shutdown()
    for status, headers, _ in (signed_in, result):
        assert status == 302
        assert header_value(headers, "Location") == f"http://{sp.netloc}/"


def test_demo_sp_tables_stay_bounded(monkeypatch):
    monkeypatch.setattr(psvc.kit, "MAX_TABLE_ENTRIES", 4)
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        form_headers = [("Content-Type", "application/x-www-form-urlencoded")]
        cookies = []
        for n in range(10):
            session = sp.new_session("/")
            form = urlencode({"sid": session.sid, "nonce": session.nonce, "user": f"user-{n}"})
            status, headers, _ = http_exchange(
                sp.netloc, "POST", "/result", form_headers, form.encode()
            )
            assert status == 302
            cookies.append(header_value(headers, "Set-Cookie").split(";")[0])
            sp.new_session("/")  # an attempt that ends in an error, never at /result
        assert len(sp.sessions) == len(sp.cookies) == 4

        def front_page(cookie: str) -> tuple[int, bytes]:
            status, _, body = http_exchange(sp.netloc, "GET", "/", [("Cookie", cookie)])
            return status, body

        status, body = front_page(cookies[-1])
        assert status == 200 and b"authenticated as user-9" in body
        assert front_page(cookies[0])[0] == 302
    finally:
        sp.shutdown()


def test_demo_sp_sign_in_attempts_expire(monkeypatch):
    clock = [1000.0]
    monkeypatch.setattr(psvc.demo.sp, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        old = sp.new_session("/")
        clock[0] += psvc.demo.sp.SESSION_MAX_AGE_S / 2
        young = sp.new_session("/")
        clock[0] += psvc.demo.sp.SESSION_MAX_AGE_S / 2 + 1
        assert sp.session(old.sid) is None
        assert sp.take_session(old.sid, old.nonce) is None
        request = KitRequest("POST", "/wp-callback", "/wp-callback", {"sid": old.sid}, (), b"")
        assert sp._handle(request).status == 403
        assert sp.session(young.sid) == young
        sp.new_session("/")  # drops the expired attempt from the oldest end
        assert old.sid not in sp.sessions and young.sid in sp.sessions
        assert sp.take_session(young.sid, young.nonce) == young
    finally:
        sp.shutdown()


@pytest.mark.parametrize(
    "target", ["/evil313?to=%0D%0AX-Evil:%201", "/login?next=/%0D%0AX-Evil:%201"]
)
def test_demo_sp_header_that_breaks_its_line_is_a_500(target, monkeypatch, tmp_path):
    log = tmp_path / "transcript.jsonl"
    monkeypatch.setenv(transcript.ENV_VAR, str(log))
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        cookie = f"{psvc.demo.sp.COOKIE_NAME}={sp.issue_cookie('demo-user')}"
        with socket.create_connection(("127.0.0.1", sp.port), timeout=5) as sock:
            sock.sendall(
                f"GET {target} HTTP/1.1\r\nHost: x\r\nCookie: {cookie}\r\n"
                "Connection: close\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
    finally:
        sp.shutdown()
    assert reply.startswith(b"HTTP/1.1 500 ")
    assert b"X-Evil" not in reply
    served = [(e.direction, e.path, e.status) for e in transcript.read_events(log)]
    assert served == [(transcript.SERVE, target, 500)]


@pytest.mark.parametrize(
    "versions, status",
    [
        (["1"], 311),
        (["1, 2"], 311),
        ([" 2 ,1"], 311),
        (["2", "1"], 311),  # every field line counts, not just the first
        (["2"], 200),
        (["11"], 200),
        ([""], 200),
        ([], 200),
    ],
    ids=["1", "1-2", "spaced", "two-lines", "2", "11", "empty", "absent"],
)
def test_demo_sp_asks_for_a_service_only_from_a_client_that_speaks_version_1(versions, status):
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        headers = [(H_VERSION, value) for value in versions]
        got, _, body = http_exchange(sp.netloc, "GET", "/login?next=/", headers)
    finally:
        sp.shutdown()
    assert got == status
    if status == 200:
        assert b"Sign in" in body


def test_tampered_handle_is_still_hex_and_differs_in_one_digit():
    for handle in (os.urandom(16).hex() for _ in range(200)):
        tampered = psvc.demo.sp._tamper(handle)
        assert len(tampered) == 32
        assert all(c in "0123456789abcdef" for c in tampered)
        assert sum(a != b for a, b in zip(handle, tampered)) == 1


def load_bench_world(monkeypatch):
    """perfbench/world.py, whose browser reads the demo pages the benchmark drives."""
    spec = importlib.util.spec_from_file_location("perfbench_world", WORLD)
    world = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, world)  # its dataclasses look it up
    spec.loader.exec_module(world)
    return world


def test_demo_sp_pages_keep_the_markers_the_benchmark_reads(monkeypatch):
    world = load_bench_world(monkeypatch)
    sp = DemoSP(("127.0.0.1", 0))
    sp.start()
    try:
        cookie = f"{psvc.demo.sp.COOKIE_NAME}={sp.issue_cookie('demo-user')}"
        status, _, members = http_exchange(sp.netloc, "GET", "/", [("Cookie", cookie)])
        assert status == 200
        assert world._MEMBER.search(members).group(1) == b"demo-user"
        names = [{"Purpose": "authentication"}, {"Purpose": "printing"}]
        envelope = encode_broker_result(BrokerResult(OP_YELLOW, {"Purpose": "x"}, names))
        status, _, listing = http_exchange(
            sp.netloc, "POST", "/yp-callback", [(H_SERVICE, envelope)]
        )
        assert status == 200
        assert world._COUNT.search(listing).group(1) == b"2"
    finally:
        sp.shutdown()


SCRIPT = "</li><script>alert(1)</script>"


def test_demo_sp_writes_what_it_echoes_as_text():
    sp = DemoSP(("127.0.0.1", 0))

    def page(method: str, path: str, headers=(), query=None) -> str:
        request = KitRequest(method, path, path, query or {}, tuple(headers), b"")
        return sp._handle(request).body.decode("utf-8")

    sp.start()
    try:
        names = [{"Name": SCRIPT}]
        envelope = encode_broker_result(BrokerResult(OP_YELLOW, {"Purpose": "x"}, names))
        listing = page("POST", "/yp-callback", [(H_SERVICE, envelope)])
        assert "1 service(s) available" in listing
        assert "&lt;/li&gt;&lt;script&gt;alert(1)&lt;/script&gt;" in listing
        cookie = f"{psvc.demo.sp.COOKIE_NAME}={sp.issue_cookie(SCRIPT)}"
        sid = sp.new_session("/").sid
        echoes = [
            listing,
            page("GET", "/", [("Cookie", cookie)]),
            page("POST", "/yp-callback", [(H_ERROR, SCRIPT)]),
            page("POST", "/wp-callback", [(H_ERROR, SCRIPT)], {"sid": sid}),
            page("POST", "/invoke-error", [(H_ERROR, SCRIPT)]),
        ]
        for echoed in echoes:
            assert "alert(1)" in echoed
            assert "<script>" not in echoed
    finally:
        sp.shutdown()


def auth_request(sid: str) -> KitRequest:
    """The invocation a proxy builds for the demo service's /auth."""
    query = {"sid": sid, "nonce": f"n-{sid}", "return": "http://sp.test/result"}
    return KitRequest(
        "GET",
        "/auth?" + urlencode(query),
        "/auth",
        query,
        (("Referer", "sp.test"), (H_INVOCATION, "1")),
        b"",
    )


def confirm_request(sid: str) -> KitRequest:
    body = urlencode({"sid": sid, "confirm": "yes"}).encode()
    return KitRequest("POST", "/confirm", "/confirm", {}, (), body)


def test_demo_service_consent_page_is_one_autosubmit_form(monkeypatch):
    world = load_bench_world(monkeypatch)
    page = MockAuthService(4321).handle(auth_request("s1")).body.decode("utf-8")
    assert page.count("<form") == 1 and page.count('data-autosubmit="1"') == 1
    scraper = world._AutoForm()
    scraper.feed(page)
    assert scraper.form == {
        "action": "http://127.0.0.1:4321/confirm",
        "method": "POST",
        "fields": {"sid": "s1", "confirm": "yes"},
    }


def test_demo_service_dialogs_stay_bounded():
    service = MockAuthService(4321)
    sids = [f"s{n}" for n in range(psvc.kit.MAX_TABLE_ENTRIES + 1)]
    for sid in sids:
        assert service.handle(auth_request(sid)).status == 200
    assert len(service._dialogs) == psvc.kit.MAX_TABLE_ENTRIES
    assert service.handle(confirm_request(sids[0])).status == 403
    assert service.handle(confirm_request(sids[-1])).status == 200


class TestBrowser:
    """The scenario browser, with a stub standing in for the proxy.

    Origins are names nothing resolves: every request must go to the
    proxy, whatever host its URL names.
    """

    def test_target_is_absolute_and_host_names_the_origin(self, stub):
        proxy = stub()
        page = Browser(proxy.netloc).request("GET", "http://origin.test:8080/a?b=1")
        assert (page.status_code, page.url, page.text) == (200, "http://origin.test:8080/a?b=1", "ok\n")
        sent = proxy.requests[0]
        assert (sent.method, sent.path) == ("GET", "http://origin.test:8080/a?b=1")
        assert sent.header_values("Host") == ["origin.test:8080"]

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_post_redirect_is_followed_as_a_get_without_body(self, stub, status):
        proxy = stub()
        proxy.enqueue(Scripted(status, (("Location", "/done"),)), Scripted(200, (), b"landed"))
        page = Browser(proxy.netloc).request("POST", "http://origin.test/form", data={"a": "1 2"})
        assert (page.url, page.text) == ("http://origin.test/done", "landed")
        posted, followed = proxy.requests
        assert (posted.method, posted.body) == ("POST", b"a=1+2")
        assert posted.header("Content-Type") == "application/x-www-form-urlencoded"
        assert (followed.method, followed.path, followed.body) == ("GET", "http://origin.test/done", b"")
        assert followed.header("Content-Type") is None
        assert followed.header("Content-Length") is None

    @pytest.mark.parametrize("status", [307, 308])
    def test_307_and_308_resend_the_request_unchanged(self, stub, status):
        proxy = stub()
        proxy.enqueue(Scripted(status, (("Location", "http://other.test/again"),)))
        Browser(proxy.netloc).request("POST", "http://origin.test/form", data={"a": "1"})
        resent = proxy.requests[1]
        assert (resent.method, resent.path, resent.body) == ("POST", "http://other.test/again", b"a=1")
        assert resent.header("Host") == "other.test"

    def test_set_cookie_is_sent_back_to_its_host_only(self, stub):
        proxy = stub()
        proxy.enqueue(Scripted(200, (("Set-Cookie", "sid=abc; Path=/"), ("Set-Cookie", "lang=pt"))))
        browser = Browser(proxy.netloc)
        browser.request("GET", "http://origin.test:8080/")
        browser.request("GET", "http://origin.test:9090/next")  # ports do not matter
        browser.request("GET", "http://elsewhere.test/")
        assert proxy.requests[0].header("Cookie") is None
        assert proxy.requests[1].header("Cookie") == "sid=abc; lang=pt"
        assert proxy.requests[2].header("Cookie") is None

    def test_redirect_loop_fails(self, stub):
        proxy = stub()
        proxy.default = Scripted(302, (("Location", "/loop"),))
        with pytest.raises(ScenarioFailure, match="redirects"):
            Browser(proxy.netloc).request("GET", "http://origin.test/loop")
