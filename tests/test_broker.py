"""Broker behavior: lookups, handles, access policy, launch-on-demand, HTTP."""

from __future__ import annotations

import json
import os
import random
import string
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psvc.broker.handles
import psvc.broker.runtime
from psvc.broker.core import Broker
from psvc.broker.policy import MAX_POLICY_BYTES, PolicyError, load_policy
from psvc.broker.runtime import ServiceLauncher
from psvc.broker.server import BrokerServer
from psvc.kit import (
    ENDPOINT_FILE,
    Refusal,
    allocate_port,
    read_endpoint_file,
    stop_process,
    write_port_file,
)
from psvc.protocol import (
    BROKER_RESULT,
    ERR_AMBIGUOUS,
    ERR_HANDLE,
    ERR_PARAMETERS,
    ERR_SERVICE,
    H_CALLBACK,
    H_ERROR,
    H_SERVICE,
    OP_WHITE,
    OP_YELLOW,
    BrokerResult,
    YellowQuery,
    decode_broker_result,
    encode_broker_result,
)
from psvc.registry import Catalog, ServiceDescriptor, list_matching, load_catalog

from conftest import (
    ECHO_SERVICE_SCRIPT,
    echo_service_cmd,
    header_value,
    http_exchange,
    read_313,
    write_descriptor,
    write_echo_descriptor,
)

CALLBACK = "http://sp.test:8080/cb"
SP = "sp.test:8080"


class FakeLauncher:
    """Hands out a canned endpoint without starting any process."""

    def __init__(self, endpoint: str = "127.0.0.1:45678", fail: bool = False):
        self.endpoint = endpoint
        self.fail = fail
        self.calls: list[str] = []

    def ensure_live(self, desc: ServiceDescriptor) -> str:
        self.calls.append(desc.descriptor_id)
        if self.fail:
            raise Refusal(502, "refused by test double")
        return self.endpoint

    def shutdown(self) -> None:
        pass


@pytest.fixture()
def ps_dir(tmp_path: Path) -> Path:
    # cc and twin collide on Purpose; print stands apart
    write_descriptor(
        tmp_path,
        "cc",
        {"Purpose": "authentication", "Device": "Portuguese eID"},
        cmd=["svc"],
        workdir=str(tmp_path),
    )
    write_descriptor(
        tmp_path,
        "twin",
        {"Purpose": "authentication", "Device": "Other eID"},
        cmd=["svc"],
        workdir=str(tmp_path),
    )
    write_descriptor(
        tmp_path, "print", {"Purpose": "printing"}, cmd=["svc"], workdir=str(tmp_path)
    )
    return tmp_path


def make_broker(ps_dir: Path, **kwargs) -> Broker:
    kwargs.setdefault("launcher", FakeLauncher())
    return Broker(ps_dir, **kwargs)


class TestEndpointFile:
    def test_round_trip(self, tmp_path):
        path = write_port_file(tmp_path / ENDPOINT_FILE, 4321)
        assert path.name == "broker.ept"
        assert read_endpoint_file(tmp_path) == ("127.0.0.1", 4321)

    def test_rewrite_wins(self, tmp_path):
        write_port_file(tmp_path / ENDPOINT_FILE, 1000)
        write_port_file(tmp_path / ENDPOINT_FILE, 2000)
        assert read_endpoint_file(tmp_path)[1] == 2000

    def test_missing_file(self, tmp_path):
        assert read_endpoint_file(tmp_path) is None

    # "000000080" names a port, but in 9 bytes: one over the bound.
    @pytest.mark.parametrize("text", ["", "abc", "-5", "12.5", "70000", "0", "000000080"])
    def test_unusable_contents(self, tmp_path, text):
        (tmp_path / "broker.ept").write_text(text, "ascii")
        assert read_endpoint_file(tmp_path) is None

    def test_a_line_end_fits_the_bound(self, tmp_path):
        (tmp_path / "broker.ept").write_bytes(b"65535\r\n")
        assert read_endpoint_file(tmp_path) == ("127.0.0.1", 65535)

    def test_a_file_over_the_bound_is_refused_unread(self, tmp_path):
        path = tmp_path / "broker.ept"
        path.touch()
        os.truncate(path, 1 << 30)  # sparse, and never read whole
        started = time.monotonic()
        assert read_endpoint_file(tmp_path) is None
        assert time.monotonic() - started < 0.5

    def test_contents_that_are_not_ascii(self, tmp_path):
        (tmp_path / "broker.ept").write_bytes(b"\xff12")
        assert read_endpoint_file(tmp_path) is None


class TestYellowService:
    def test_matches_listed_in_id_order(self, ps_dir):
        broker = make_broker(ps_dir)
        query = YellowQuery("purpose", "authentication")
        reply = read_313(broker.serve_yellow(query, SP, CALLBACK))
        assert reply.location == CALLBACK
        assert reply.error is None
        result = decode_broker_result(reply.service)
        assert result.operation == OP_YELLOW
        assert result.request == {"purpose": "authentication"}
        assert [name["Device"] for name in result.response] == [
            "Portuguese eID",
            "Other eID",
        ]

    def test_no_match_is_empty_list(self, ps_dir):
        broker = make_broker(ps_dir)
        reply = read_313(broker.serve_yellow(YellowQuery("Purpose", "time travel"), SP, CALLBACK))
        assert reply.error is None
        assert decode_broker_result(reply.service).response == []


class TestWhiteService:
    def test_unique_match_mints_working_handle(self, ps_dir):
        broker = make_broker(ps_dir)
        query = {"Purpose": "authentication", "Device": "Portuguese eID"}
        reply = read_313(broker.serve_white(query, SP, CALLBACK))
        assert reply.location == CALLBACK
        assert reply.error is None
        result = decode_broker_result(reply.service)
        assert result.operation == OP_WHITE
        assert result.request == query
        assert result.response["service"]["Device"] == "Portuguese eID"
        opened = broker.codec.open(result.response["handle"])
        assert opened.descriptor_id == "cc"
        assert opened.requester_host == SP

    def test_ambiguous(self, ps_dir):
        broker = make_broker(ps_dir)
        reply = read_313(broker.serve_white({"Purpose": "authentication"}, SP, CALLBACK))
        assert reply.error == ERR_AMBIGUOUS
        assert reply.service is None
        assert reply.location == CALLBACK

    def test_no_match(self, ps_dir):
        broker = make_broker(ps_dir)
        reply = read_313(broker.serve_white({"Purpose": "nothing has this"}, SP, CALLBACK))
        assert reply.error == ERR_SERVICE
        assert reply.service is None

    def test_white_is_case_sensitive(self, ps_dir):
        broker = make_broker(ps_dir)
        reply = read_313(broker.serve_white({"purpose": "printing"}, SP, CALLBACK))
        assert reply.error == ERR_SERVICE


class TestResolveHandle:
    def mint(self, broker: Broker, sp: str = SP) -> str:
        query = {"Purpose": "authentication", "Device": "Portuguese eID"}
        reply = read_313(broker.serve_white(query, sp, CALLBACK))
        return decode_broker_result(reply.service).response["handle"]

    def test_live_endpoint_returned(self, ps_dir):
        launcher = FakeLauncher()
        broker = make_broker(ps_dir, launcher=launcher)
        reply = read_313(broker.resolve_handle(self.mint(broker), SP, "r7"))
        assert reply.location == ":r7"
        assert reply.error is None
        assert reply.service == launcher.endpoint
        assert launcher.calls == ["cc"]

    def test_garbage_handle(self, ps_dir):
        launcher = FakeLauncher()
        broker = make_broker(ps_dir, launcher=launcher)
        reply = read_313(broker.resolve_handle("not-a-handle", SP, "r1"))
        assert reply.error == ERR_HANDLE
        assert reply.service is None
        assert launcher.calls == []

    def test_tampered_handle(self, ps_dir):
        broker = make_broker(ps_dir)
        handle = self.mint(broker)
        mid = len(handle) // 2
        flipped = "B" if handle[mid] != "B" else "C"
        tampered = handle[:mid] + flipped + handle[mid + 1 :]
        assert read_313(broker.resolve_handle(tampered, SP, "r1")).error == ERR_HANDLE

    def test_handle_bound_to_requesting_sp(self, ps_dir):
        broker = make_broker(ps_dir)
        handle = self.mint(broker, sp="bank.test:443")
        assert read_313(broker.resolve_handle(handle, "shop.test:80", "r1")).error == ERR_HANDLE
        assert read_313(broker.resolve_handle(handle, "bank.test:443", "r1")).error is None

    def test_handle_for_removed_service(self, ps_dir):
        broker = make_broker(ps_dir)
        handle = self.mint(broker)
        (ps_dir / "cc.psd").unlink()
        broker.catalog = load_catalog(ps_dir)
        assert read_313(broker.resolve_handle(handle, SP, "r1")).error == ERR_HANDLE

    def test_spawn_failure_reported_as_service(self, ps_dir):
        broker = make_broker(ps_dir, launcher=FakeLauncher(fail=True))
        assert read_313(broker.resolve_handle(self.mint(broker), SP, "r1")).error == ERR_SERVICE

    def test_expired_handle(self, ps_dir, monkeypatch):
        monkeypatch.setattr(psvc.broker.handles, "HANDLE_MAX_AGE_S", 0.05)
        broker = make_broker(ps_dir)
        handle = self.mint(broker)
        time.sleep(0.15)
        assert read_313(broker.resolve_handle(handle, SP, "r1")).error == ERR_HANDLE

    def test_evicted_handle(self, ps_dir, monkeypatch):
        monkeypatch.setattr(psvc.broker.handles, "MAX_LIVE_HANDLES", 2)
        broker = make_broker(ps_dir)
        oldest, *newest = (self.mint(broker) for _ in range(3))
        assert read_313(broker.resolve_handle(oldest, SP, "r1")).error == ERR_HANDLE
        for handle in newest:
            assert read_313(broker.resolve_handle(handle, SP, "r2")).error is None

    def test_binding_outcomes_random_hosts(self, ps_dir):
        rng = random.Random(0xB20CE)
        broker = make_broker(ps_dir)
        hosts = [f"sp{n}.test:{8000 + n}" for n in range(6)]
        for _ in range(40):
            minted_for = rng.choice(hosts)
            presented_by = rng.choice(hosts)
            handle = self.mint(broker, sp=minted_for)
            reply = read_313(broker.resolve_handle(handle, presented_by, "r"))
            if presented_by == minted_for:
                assert reply.error is None
            else:
                assert reply.error == ERR_HANDLE


class TestAccessPolicy:
    def test_absent_file_allows_everyone(self, tmp_path):
        policy = load_policy(tmp_path)
        assert policy.allows("anyone.example:80", "cc")

    def test_whitelist_matches_netloc_and_bare_host(self, tmp_path):
        (tmp_path / "policy.json").write_text(
            json.dumps({"mode": "whitelist", "hosts": ["bank.example"]}), "utf-8"
        )
        policy = load_policy(tmp_path)
        assert policy.allows("bank.example:443", "cc")
        assert not policy.allows("ads.example:80", "cc")

    def test_blacklist_with_glob(self, tmp_path):
        (tmp_path / "policy.json").write_text(
            json.dumps({"mode": "blacklist", "hosts": ["ads.*"]}), "utf-8"
        )
        policy = load_policy(tmp_path)
        assert not policy.allows("ads.example:80", "cc")
        assert policy.allows("bank.example:443", "cc")

    def test_override_beats_default(self, tmp_path):
        (tmp_path / "policy.json").write_text(
            json.dumps(
                {
                    "mode": "allow_all",
                    "services": {
                        "cc": {"mode": "whitelist", "hosts": ["bank.example:*"]}
                    },
                }
            ),
            "utf-8",
        )
        policy = load_policy(tmp_path)
        assert policy.allows("shop.example:80", "twin")
        assert not policy.allows("shop.example:80", "cc")
        assert policy.allows("bank.example:443", "cc")

    @pytest.mark.parametrize(
        "doc",
        [
            "[1, 2]",
            "{not json",
            '{"mode": "deny_some"}',
            '{"hosts": "bank.example"}',
            '{"services": []}',
            '{"services": {"cc": "whitelist"}}',
            '{"services": {"cc": {"mode": "nope"}}}',
        ],
    )
    def test_unusable_policy_file(self, tmp_path, doc):
        (tmp_path / "policy.json").write_text(doc, "utf-8")
        with pytest.raises(PolicyError):
            load_policy(tmp_path)

    def test_deeply_nested_policy_file(self, tmp_path):
        doc = '{"hosts": ' + "[" * 5000 + "]" * 5000 + "}"
        (tmp_path / "policy.json").write_text(doc, "utf-8")
        with pytest.raises(PolicyError):
            load_policy(tmp_path)

    def test_a_fifo_policy_is_refused_without_waiting(self, tmp_path):
        os.mkfifo(tmp_path / "policy.json")  # opening one for reading would wait for a writer
        raised: list[BaseException] = []

        def load() -> None:
            try:
                load_policy(tmp_path)
            except BaseException as exc:
                raised.append(exc)

        loading = threading.Thread(target=load, daemon=True)
        loading.start()
        loading.join(1)
        assert not loading.is_alive()
        assert len(raised) == 1 and isinstance(raised[0], PolicyError)

    def test_a_policy_over_the_size_bound_is_refused_unread(self, tmp_path):
        huge = tmp_path / "policy.json"
        huge.write_text('{"mode": "allow_all"}', "utf-8")
        os.truncate(huge, 1 << 30)  # sparse: no disk, and reading it whole would take seconds
        start = time.monotonic()
        with pytest.raises(PolicyError, match=f"larger than {MAX_POLICY_BYTES} bytes"):
            load_policy(tmp_path)
        assert time.monotonic() - start < 0.5


class TestPolicyFiltering:
    def restrict_cc_to_bank(self, ps_dir: Path) -> None:
        (ps_dir / "policy.json").write_text(
            json.dumps(
                {"services": {"cc": {"mode": "whitelist", "hosts": ["bank.test:*"]}}}
            ),
            "utf-8",
        )

    def test_yellow_hides_denied_services(self, ps_dir):
        self.restrict_cc_to_bank(ps_dir)
        broker = make_broker(ps_dir)
        query = YellowQuery("purpose", "authentication")
        from_bank = decode_broker_result(
            read_313(broker.serve_yellow(query, "bank.test:443", CALLBACK)).service
        )
        from_shop = decode_broker_result(
            read_313(broker.serve_yellow(query, "shop.test:80", CALLBACK)).service
        )
        assert len(from_bank.response) == 2
        assert [n["Device"] for n in from_shop.response] == ["Other eID"]

    def test_filtering_can_make_white_unique(self, ps_dir):
        # both auth services match, but shop may only see one of them
        self.restrict_cc_to_bank(ps_dir)
        broker = make_broker(ps_dir)
        query = {"Purpose": "authentication"}
        assert read_313(broker.serve_white(query, "bank.test:443", CALLBACK)).error == ERR_AMBIGUOUS
        reply = read_313(broker.serve_white(query, "shop.test:80", CALLBACK))
        assert reply.error is None
        result = decode_broker_result(reply.service)
        assert result.response["service"]["Device"] == "Other eID"

    def test_resolve_respects_policy(self, ps_dir):
        # minted while shop may see cc, so the binding holds and only the policy rejects
        broker = make_broker(ps_dir)
        reply = read_313(broker.serve_white({"Device": "Portuguese eID"}, "shop.test:80", CALLBACK))
        handle = decode_broker_result(reply.service).response["handle"]
        assert read_313(broker.resolve_handle(handle, "shop.test:80", "r1")).error is None
        self.restrict_cc_to_bank(ps_dir)
        broker.policy = load_policy(ps_dir)
        assert read_313(broker.resolve_handle(handle, "shop.test:80", "r1")).error == ERR_HANDLE

    def test_listing_under_a_mixed_policy_agrees_with_allows(self, ps_dir):
        (ps_dir / "policy.json").write_text(
            json.dumps(
                {
                    "mode": "blacklist",
                    "hosts": ["ads.test:*"],
                    "services": {
                        "cc": {"mode": "whitelist", "hosts": ["bank.test:*", "ads.test"]},
                        "print": {"mode": "blacklist", "hosts": ["shop.test"]},
                    },
                }
            ),
            "utf-8",
        )
        broker = make_broker(ps_dir)
        descriptors = list(broker.catalog.entries.values())
        query = YellowQuery("Purpose", "authentication")
        seen = {}
        for host in ["bank.test:443", "shop.test:80", "ads.test:80", "other.test:1"]:
            visible = broker.policy.visible(host, descriptors)
            allowed = [d for d in descriptors if broker.policy.allows(host, d.descriptor_id)]
            assert visible == allowed
            seen[host] = [d.descriptor_id for d in visible]
            reply = read_313(broker.serve_yellow(query, host, CALLBACK))
            listed = decode_broker_result(reply.service).response
            assert listed == [d.presentation for d in visible if d.presentation["Purpose"] == query.value]
        assert seen == {
            "bank.test:443": ["cc", "print", "twin"],
            "shop.test:80": ["twin"],
            "ads.test:80": ["cc", "print"],
            "other.test:1": ["print", "twin"],
        }


class TestServiceLauncher:
    def local_descriptor(self, tmp_path: Path, stem: str = "svc") -> ServiceDescriptor:
        return ServiceDescriptor(
            stem, {"Purpose": "echo"}, tuple(echo_service_cmd()), None, tmp_path
        )

    def test_launches_then_reuses(self, tmp_path):
        launcher = ServiceLauncher()
        try:
            desc = self.local_descriptor(tmp_path)
            first = launcher.ensure_live(desc)
            status, headers, _ = http_exchange(first, "GET", "/ping")
            assert status == 200
            assert header_value(headers, "X-Echo") == "/ping"
            assert launcher.ensure_live(desc) == first
            assert launcher.record("svc").launch_count == 1
        finally:
            launcher.shutdown()

    def test_concurrent_resolves_spawn_once(self, tmp_path):
        launcher = ServiceLauncher()
        try:
            desc = self.local_descriptor(tmp_path)
            barrier = threading.Barrier(8)
            endpoints: list[str] = []
            failures: list[Exception] = []

            def go():
                barrier.wait()
                try:
                    endpoints.append(launcher.ensure_live(desc))
                except Exception as exc:
                    failures.append(exc)

            threads = [threading.Thread(target=go) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not failures
            assert len(set(endpoints)) == 1
            assert launcher.record("svc").launch_count == 1
        finally:
            launcher.shutdown()

    def test_dead_service_is_relaunched(self, tmp_path):
        launcher = ServiceLauncher()
        try:
            desc = self.local_descriptor(tmp_path)
            launcher.ensure_live(desc)
            record = launcher.record("svc")
            record.proc.kill()
            record.proc.wait()
            endpoint = launcher.ensure_live(desc)
            assert launcher.record("svc").launch_count == 2
            assert http_exchange(endpoint, "HEAD", "/")[0] == 200
        finally:
            launcher.shutdown()

    def test_on_spawn_reports_each_launch(self, tmp_path):
        events: list[tuple] = []
        launcher = ServiceLauncher(on_spawn=lambda *args: events.append(args))
        try:
            desc = self.local_descriptor(tmp_path)
            endpoint = launcher.ensure_live(desc)
            port = int(endpoint.rsplit(":", 1)[1])
            record = launcher.record("svc")
            assert events == [("svc", port, record.proc.pid, 1)]
            launcher.ensure_live(desc)
            assert len(events) == 1
        finally:
            launcher.shutdown()

    def test_immediately_exiting_service_fails_fast(self, tmp_path):
        import sys

        launcher = ServiceLauncher()
        desc = ServiceDescriptor(
            "dud", {}, (sys.executable, "-c", "pass"), None, tmp_path
        )
        started = time.monotonic()
        with pytest.raises(Refusal, match="exited"):
            launcher.ensure_live(desc)
        assert time.monotonic() - started < 4

    def test_unlaunchable_binary(self, tmp_path):
        launcher = ServiceLauncher()
        desc = ServiceDescriptor(
            "ghost", {}, ("/no/such/binary-here",), None, tmp_path
        )
        with pytest.raises(Refusal, match="cannot launch"):
            launcher.ensure_live(desc)

    def test_missing_working_directory(self, tmp_path):
        launcher = ServiceLauncher()
        desc = ServiceDescriptor(
            "lost", {}, tuple(echo_service_cmd()), None, tmp_path / "gone"
        )
        with pytest.raises(Refusal, match="working directory"):
            launcher.ensure_live(desc)

    def test_never_listening_service_times_out(self, tmp_path, monkeypatch):
        import sys

        launched = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            launched.append(popen(*args, **kwargs))
            return launched[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)  # what kit.launch imports
        monkeypatch.setattr(psvc.broker.runtime, "LAUNCH_TIMEOUT_S", 0.5)
        launcher = ServiceLauncher()
        desc = ServiceDescriptor(
            "mute", {}, (sys.executable, "-c", "import time; time.sleep(30)"), None, tmp_path
        )
        try:
            with pytest.raises(Refusal, match="not listening"):
                launcher.ensure_live(desc)
            # the stuck child must not be leaked
            assert launcher.record("mute") is None or launcher.record("mute").proc is None
            assert len(launched) == 1
            assert launched[0].poll() is not None
        finally:
            for proc in launched:
                stop_process(proc)

    def test_remote_service_is_not_contacted(self, tmp_path, stub):
        # An unreachable remote service fails at invocation time instead:
        # see test_proxy's test_unreachable_service_is_reported_to_callback.
        server = stub()
        launcher = ServiceLauncher()
        url = server.url("/svc")
        desc = ServiceDescriptor("far", {}, None, url, tmp_path)
        assert launcher.ensure_live(desc) == url
        assert server.requests == []

    def test_shutdown_terminates_children(self, tmp_path):
        launcher = ServiceLauncher()
        launcher.ensure_live(self.local_descriptor(tmp_path))
        proc = launcher.record("svc").proc
        launcher.shutdown()
        assert proc.poll() is not None

    def test_shutdown_stops_a_launch_under_way(self, tmp_path):
        # The child listens after 1 s; shutdown() comes while its launch waits for that.
        script = "import time; time.sleep(1)\n" + ECHO_SERVICE_SCRIPT
        desc = ServiceDescriptor("slow", {}, (sys.executable, "-c", script), None, tmp_path)
        launcher = ServiceLauncher()
        launching = threading.Thread(target=launcher.ensure_live, args=(desc,))
        launching.start()
        while (record := launcher.record("slow")) is None or not record.lock.locked():
            time.sleep(0.005)
        launcher.shutdown()
        launching.join()
        try:
            assert record.proc.poll() is not None
        finally:
            stop_process(record.proc)

    def test_allocate_port_in_range(self):
        seen = {allocate_port() for _ in range(5)}
        assert all(0 < port < 65536 for port in seen)


@pytest.fixture()
def live_broker(tmp_path: Path):
    write_echo_descriptor(
        tmp_path, "auth", {"Purpose": "authentication", "Device": "Portuguese eID"}
    )
    write_echo_descriptor(tmp_path, "mail", {"Purpose": "mailbox"})
    server = BrokerServer(tmp_path)
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


def test_the_broker_publishes_broker_ept_only_once_it_listens(tmp_path):
    server = BrokerServer(tmp_path)
    try:
        assert not (tmp_path / ENDPOINT_FILE).exists()  # serve() has yet to set its handlers
        server.start()
        assert read_endpoint_file(tmp_path) == ("127.0.0.1", server.port)
    finally:
        server.shutdown()


def broker_head(
    server: BrokerServer,
    target: str,
    *,
    service: str | None = None,
    callback: str | None = None,
    referer: str | None = SP,
):
    headers = []
    if service is not None:
        headers.append((H_SERVICE, service))
    if callback is not None:
        headers.append((H_CALLBACK, callback))
    if referer is not None:
        headers.append(("Referer", referer))
    return http_exchange(server.netloc, "HEAD", target, headers)


class TestBrokerHTTP:
    def test_publishes_endpoint_file(self, live_broker, tmp_path):
        assert read_endpoint_file(tmp_path) == ("127.0.0.1", live_broker.port)

    def test_reason_phrase_on_313(self, live_broker):
        conn = HTTPConnection("127.0.0.1", live_broker.port, timeout=10)
        try:
            conn.request(
                "HEAD",
                "/yellow",
                headers={
                    H_SERVICE: json.dumps({"Purpose": "mailbox"}),
                    H_CALLBACK: CALLBACK,
                    "Referer": SP,
                },
            )
            resp = conn.getresponse()
            assert resp.status == BROKER_RESULT
            assert resp.reason == "Broker Result"
        finally:
            conn.close()

    def test_yellow_round_trip(self, live_broker):
        status, headers, _ = broker_head(
            live_broker,
            "/yellow",
            service=json.dumps({"purpose": "authentication"}),
            callback=CALLBACK,
        )
        assert status == BROKER_RESULT
        assert header_value(headers, "Location") == CALLBACK
        assert header_value(headers, H_ERROR) is None
        result = decode_broker_result(header_value(headers, H_SERVICE))
        assert result.operation == OP_YELLOW
        assert [n["Purpose"] for n in result.response] == ["authentication"]

    def test_white_then_resolve_reaches_live_service(self, live_broker):
        status, headers, _ = broker_head(
            live_broker,
            "/white",
            service=json.dumps(
                {"Purpose": "authentication", "Device": "Portuguese eID"}
            ),
            callback=CALLBACK,
        )
        assert status == BROKER_RESULT
        handle = decode_broker_result(header_value(headers, H_SERVICE)).response["handle"]

        status, headers, _ = broker_head(live_broker, "/resolve?ref=r-42", service=handle)
        assert status == BROKER_RESULT
        assert header_value(headers, "Location") == ":r-42"
        endpoint = header_value(headers, H_SERVICE)
        assert endpoint.startswith("127.0.0.1:")

        status, svc_headers, body = http_exchange(endpoint, "GET", "/auth?sid=1")
        assert status == 200
        assert header_value(svc_headers, "X-Echo") == "/auth?sid=1"
        assert body == b"echo\n"

    def test_resolve_launches_once_across_requests(self, live_broker):
        def resolve() -> str:
            _, headers, _ = broker_head(
                live_broker,
                "/white",
                service=json.dumps({"Purpose": "mailbox"}),
                callback=CALLBACK,
            )
            handle = decode_broker_result(
                header_value(headers, H_SERVICE)
            ).response["handle"]
            _, headers, _ = broker_head(live_broker, "/resolve?ref=a", service=handle)
            return header_value(headers, H_SERVICE)

        assert resolve() == resolve()
        assert live_broker.broker.launcher.record("mail").launch_count == 1

    def test_tampered_handle_rejected(self, live_broker):
        _, headers, _ = broker_head(
            live_broker,
            "/white",
            service=json.dumps({"Purpose": "mailbox"}),
            callback=CALLBACK,
        )
        handle = decode_broker_result(header_value(headers, H_SERVICE)).response["handle"]
        mangled = ("A" if handle[0] != "A" else "B") + handle[1:]
        status, headers, _ = broker_head(live_broker, "/resolve?ref=x", service=mangled)
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) == ERR_HANDLE
        assert header_value(headers, H_SERVICE) is None

    def test_handle_presented_by_wrong_sp(self, live_broker):
        _, headers, _ = broker_head(
            live_broker,
            "/white",
            service=json.dumps({"Purpose": "mailbox"}),
            callback=CALLBACK,
            referer="bank.test:443",
        )
        handle = decode_broker_result(header_value(headers, H_SERVICE)).response["handle"]
        _, headers, _ = broker_head(
            live_broker, "/resolve?ref=x", service=handle, referer="shop.test:80"
        )
        assert header_value(headers, H_ERROR) == ERR_HANDLE

    @pytest.mark.parametrize("path", ["/yellow", "/white"])
    def test_missing_callback_is_parameters_error(self, live_broker, path):
        status, headers, _ = broker_head(
            live_broker, path, service=json.dumps({"Purpose": "mailbox"})
        )
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS
        # nowhere to send the caller: the location degrades to a bare ref mark
        assert header_value(headers, "Location") == ":"

    def test_missing_query_keeps_callback_location(self, live_broker):
        status, headers, _ = broker_head(live_broker, "/yellow", callback=CALLBACK)
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS
        assert header_value(headers, "Location") == CALLBACK

    @pytest.mark.parametrize(
        "bad_query",
        ["{not json", '["Purpose"]', '{"a": 1, "b": 2}', "{}"],
    )
    def test_malformed_yellow_query(self, live_broker, bad_query):
        status, headers, _ = broker_head(
            live_broker, "/yellow", service=bad_query, callback=CALLBACK
        )
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS

    @pytest.mark.parametrize("path", ["/yellow", "/white"])
    def test_deeply_nested_query_is_parameters_error(self, live_broker, path):
        # About 6 KB: json.loads gives up on it with a RecursionError.
        nested = '{"Purpose": ' + "[" * 3000 + "]" * 3000 + "}"
        status, headers, _ = broker_head(live_broker, path, service=nested, callback=CALLBACK)
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS
        assert header_value(headers, "Location") == CALLBACK

    def test_listing_over_a_deeply_nested_descriptor_is_a_result(self, tmp_path):
        # A presentation 982 levels deep still loads in the broker's main
        # thread.  On CPython 3.11 a handler thread, deeper in its own stack,
        # then fails to encode a listing of it, and drops the connection.
        write_echo_descriptor(tmp_path, "auth", {"Purpose": "authentication"})
        (tmp_path / "deep.psd").write_text(
            '{"configuration": {"cmd": ["x"]}, "presentation": {"Purpose": "authentication", '
            '"Deep": ' + "[" * 981 + "]" * 981 + "}}"
        )
        src = str(Path(psvc.broker.__file__).resolve().parents[2])
        proc = subprocess.Popen(
            [sys.executable, "-m", "psvc", "broker", "run", "--ps-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 10
            while not (tmp_path / "broker.ept").exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            host, port = read_endpoint_file(tmp_path)
            query = json.dumps({"Purpose": "authentication"})
            headers = [(H_SERVICE, query), (H_CALLBACK, CALLBACK), ("Referer", SP)]
            status, headers, _ = http_exchange(f"{host}:{port}", "HEAD", "/yellow", headers)
        finally:
            stop_process(proc)
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) is None
        names = decode_broker_result(header_value(headers, H_SERVICE)).response
        assert names == [{"Purpose": "authentication"}]

    @pytest.mark.parametrize("ref", ["%0D%0AX-Injected:%201", "%E2%82%AC"])
    def test_ref_a_header_line_cannot_carry_is_not_echoed(self, live_broker, ref):
        status, headers, _ = broker_head(live_broker, f"/resolve?ref={ref}", service="h")
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS
        assert header_value(headers, "Location") == ":"
        assert header_value(headers, "X-Injected") is None

    def test_malformed_white_query(self, live_broker):
        status, headers, _ = broker_head(
            live_broker, "/white", service="{}", callback=CALLBACK
        )
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS

    def test_resolve_without_ref(self, live_broker):
        status, headers, _ = broker_head(live_broker, "/resolve", service="whatever")
        assert status == BROKER_RESULT
        assert header_value(headers, H_ERROR) == ERR_PARAMETERS
        assert header_value(headers, "Location") == ":"

    def test_get_is_rejected(self, live_broker):
        status, _, body = http_exchange(live_broker.netloc, "GET", "/yellow")
        assert status == 405
        assert b"HEAD" in body

    def test_unknown_path(self, live_broker):
        assert broker_head(live_broker, "/nope", service="x", callback=CALLBACK)[0] == 404
        assert http_exchange(live_broker.netloc, "POST", "/nope")[0] == 405

    def test_only_head_reaches_the_broker(self, live_broker, tmp_path, monkeypatch):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"Broker.{name} called")

        write_echo_descriptor(tmp_path, "vault", {"Purpose": "backup"})
        monkeypatch.setattr(live_broker, "broker", Untouchable())
        for method, target in [("POST", "/reload"), ("POST", "/nope"), ("GET", "/yellow")]:
            assert http_exchange(live_broker.netloc, method, target)[0] == 405, (method, target)
        monkeypatch.undo()

        # The run serves the catalog it read at start.
        query = json.dumps({"Purpose": "backup"})
        _, headers, _ = broker_head(live_broker, "/yellow", service=query, callback=CALLBACK)
        assert decode_broker_result(header_value(headers, H_SERVICE)).response == []


# -- fuzzing the HEAD surface --------------------------------------------------

# Header values http.client can send: printable latin-1.
HEADER_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_categories=("Cc",)),
    max_size=40,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
QUERIES = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.integers(0, 3000).map(lambda depth: '{"Purpose": ' + "[" * depth + "]" * depth + "}"),
    st.integers(4000, 5000).map(lambda digits: '{"Purpose": ' + "7" * digits + "}"),
    HEADER_TEXT,
)
PATH_CHARS = string.ascii_letters + string.digits + "-._~!$&'()*+,;=:@/?%[]"
TARGETS = st.one_of(
    st.sampled_from(["/yellow", "/white", "/resolve"]),
    st.text(max_size=20).map(lambda ref: "/resolve?ref=" + quote(ref, safe="")),
    st.text(PATH_CHARS, max_size=20).map(lambda path: "/" + path),
)


@pytest.fixture(scope="module")
def fuzzed_broker(tmp_path_factory):
    ps_dir = tmp_path_factory.mktemp("fuzzed")
    # Remote services only, so no resolution ever starts a process.
    for stem, presentation in [
        ("auth", {"Purpose": "authentication", "Device": "Portuguese eID"}),
        ("mail", {"Purpose": "mailbox", "Tags": ["a", 1]}),
    ]:
        write_descriptor(ps_dir, stem, presentation, url="http://127.0.0.1:9/")
    server = BrokerServer(ps_dir)
    server.start()
    yield server
    server.shutdown()


class TestHeadSurface:
    @settings(max_examples=200, deadline=None)
    @given(
        TARGETS,
        st.none() | QUERIES,
        st.none() | HEADER_TEXT,
        st.none() | HEADER_TEXT,
    )
    # An origin-form target is a path: `//x/yellow` is not `/yellow`, and `//[` names no host.
    @example(target="//[", service=None, callback=None, referer=None)
    @example(target="//x/yellow", service=None, callback=None, referer=None)
    def test_every_head_gets_a_313_or_a_404(
        self, fuzzed_broker, target, service, callback, referer
    ):
        status, headers, _ = broker_head(
            fuzzed_broker, target, service=service, callback=callback, referer=referer
        )
        served = target.partition("?")[0] in ("/yellow", "/white", "/resolve")
        assert status == (BROKER_RESULT if served else 404)
        if status == BROKER_RESULT:
            assert header_value(headers, "Location") is not None


# A service name as a descriptor file can hold it: any text, floats, nested lists and objects.
PRESENTATIONS = st.dictionaries(
    st.text(min_size=1, max_size=8), JSON_VALUES, min_size=1, max_size=4
)


@pytest.fixture(scope="module")
def bare_broker(tmp_path_factory):
    return make_broker(tmp_path_factory.mktemp("bare"))


class TestJoinedListing:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(PRESENTATIONS, st.booleans()), max_size=6),
        st.text(min_size=1, max_size=8),
        JSON_VALUES,
    )
    def test_joined_envelope_is_what_the_encoder_writes(
        self, bare_broker, named, attribute, value
    ):
        entries = {
            f"d{i}": ServiceDescriptor(
                f"d{i}", {**p, attribute: value} if hit else p, None, "http://127.0.0.1:9/", Path()
            )
            for i, (p, hit) in enumerate(named)
        }
        bare_broker.catalog = Catalog(Path(), entries)
        query = YellowQuery(attribute, value)
        names = [d.presentation for d in list_matching(bare_broker.catalog, query)]
        reply = bare_broker.serve_yellow(query, SP, CALLBACK)
        assert read_313(reply).service == encode_broker_result(
            BrokerResult(OP_YELLOW, query.as_object(), names)
        )
        assert reply.note["svc"] == f"names[{len(names)}]"


class TestWireForms:
    QUERY = YellowQuery("purpose", "AUTH")

    @pytest.fixture()
    def broker(self, tmp_path):
        for i in range(40):
            presentation = {
                "Purpose": "auth" if i % 3 else "sign",
                "Device name": f"Cartão {i}",
                "Slots": [i, {"free": i % 2 == 0, "note": None}, 0.5],
            }
            write_descriptor(tmp_path, f"s{i:02d}", presentation, cmd=["x"])
        return make_broker(tmp_path)

    def test_a_form_is_made_at_its_first_listing_and_is_the_encoders(self, broker):
        wire = broker.catalog.wire
        assert len(wire) == 0
        listed = [d.descriptor_id for d in list_matching(broker.catalog, self.QUERY)]
        assert 0 < len(listed) < len(broker.catalog)
        broker.serve_yellow(self.QUERY, SP, CALLBACK)
        assert sorted(wire) == listed
        for descriptor_id in listed:
            presentation = broker.catalog.entries[descriptor_id].presentation
            assert wire[descriptor_id] == json.dumps(presentation, ensure_ascii=True)
        with pytest.raises(KeyError):
            wire["absent"]
        assert "absent" not in wire

    def test_concurrent_first_listings_agree_byte_for_byte(self, broker):
        start = threading.Barrier(8)
        envelopes: list[str] = []

        def listing() -> None:
            start.wait(5)
            envelopes.append(read_313(broker.serve_yellow(self.QUERY, SP, CALLBACK)).service)

        threads = [threading.Thread(target=listing) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside a first encode
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        names = [d.presentation for d in list_matching(broker.catalog, self.QUERY)]
        expected = encode_broker_result(BrokerResult(OP_YELLOW, self.QUERY.as_object(), names))
        assert envelopes == [expected] * 8
