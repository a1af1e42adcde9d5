"""Per-layer probes for the traced run.

``sweep`` calls the public functions of the layer modules in this
process, with inputs made from the seed.  ``round_trips`` walks one
sign-in by hand, calling each party directly the way the proxy would,
and times every hop; those times are the floor the proxy cannot go
below.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from world import (
    CC_ID,
    CC_PRESENTATION,
    SIGNIN_WP_QUERY,
    Page,
    auto_form,
    http_exchange,
)

REPEATS = 21
SPAWNS = 3


def per_call(fn, calls: int, rounds: int = 5) -> float:
    """Median over rounds of the mean time of one call, in seconds."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


class _CountingSocket:
    """Stands in for the socket module and counts connect attempts."""

    def __init__(self, real) -> None:
        self._real = real
        self.connects = 0

    def __getattr__(self, name: str):
        return getattr(self._real, name)

    def create_connection(self, *args, **kwargs):
        self.connects += 1
        return self._real.create_connection(*args, **kwargs)


def sweep(run_dir: Path, presentations: dict[str, dict], queries: dict[str, dict]) -> dict[str, float]:
    """Layer timings from direct calls; catalog and queries come from the seed."""
    from psvc.broker import HandleCodec
    from psvc.protocol import (
        BrokerResult, OP_YELLOW, YELLOW_PAGES, YellowQuery, encode_broker_result, parse_directive,
    )
    from psvc.registry import Catalog, list_matching, list_matching_white, load_catalog
    from psvc.transcript import SEND, Transcript

    m: dict[str, float] = {}

    codec = HandleCodec()
    handle = codec.mint("127.0.0.1:8080", CC_ID)
    m["handles.mint_us"] = per_call(lambda: codec.mint("127.0.0.1:8080", CC_ID), 500) * 1e6
    m["handles.open_us"] = per_call(lambda: codec.open(handle), 500) * 1e6

    catalog_dir = run_dir / "ps"
    start = time.perf_counter()
    full = load_catalog(catalog_dir)
    load_times = [time.perf_counter() - start]
    for _ in range(2):
        start = time.perf_counter()
        load_catalog(catalog_dir)
        load_times.append(time.perf_counter() - start)
    m["registry.load_catalog_s"] = statistics.median(load_times)

    ids = sorted(presentations)
    narrow = queries["narrow"]["query"]
    (attribute, value), = narrow.items()
    for label, size in (("n10", 10), ("n1k", 1000), ("n10k", len(ids))):
        entries = {i: full.entries[i] for i in ids[:size]}
        catalog = Catalog(source_dir=catalog_dir, entries=entries)
        target = presentations[ids[size // 2]]
        white = {"Device": target["Device"], "Vendor": target["Vendor"]}
        calls = max(1, 2000 // size)
        m[f"registry.match_white_ms.{label}"] = per_call(
            lambda: list_matching_white(catalog, white), calls) * 1e3
        yellow = YellowQuery(attribute, value)
        m[f"registry.match_yellow_ms.{label}"] = per_call(
            lambda: list_matching(catalog, yellow), calls) * 1e3

    headers = [
        ("PSvc-Service", json.dumps(narrow)),
        ("PSvc-Callback", "http://127.0.0.1:8080/yp-callback"),
        ("Content-Type", "text/html; charset=utf-8"),
    ]
    m["protocol.parse_directive_us"] = per_call(
        lambda: parse_directive(YELLOW_PAGES, headers, b""), 500) * 1e6
    for cls, spec in queries.items():
        (a, v), = spec["query"].items()
        names = [d.presentation for d in list_matching(full, YellowQuery(a, v))]
        envelope = BrokerResult(OP_YELLOW, spec["query"], names)
        calls = max(1, 20_000 // (len(names) + 10))
        m[f"protocol.encode_result_us.{cls}"] = per_call(
            lambda: encode_broker_result(envelope), calls) * 1e6

    events = run_dir / "sweep-transcript.jsonl"
    transcript = Transcript(events, "Bench")
    m["transcript.emit_us"] = per_call(
        lambda: transcript.emit(SEND, "GET", "http://127.0.0.1:8080/login?next=/"), 200) * 1e6
    events.unlink(missing_ok=True)

    m.update(_spawn_probe(run_dir))
    return m


def _spawn_probe(run_dir: Path) -> dict[str, float]:
    """Launch the demo service through ServiceLauncher.ensure_live."""
    import psvc.broker.runtime as runtime
    from psvc.registry import ServiceDescriptor

    desc = ServiceDescriptor(
        descriptor_id=CC_ID,
        presentation=dict(CC_PRESENTATION),
        cmd=(sys.executable, "-m", "psvc", "demo", "service"),
        url=None,
        workdir=run_dir,
    )
    counter = _CountingSocket(runtime.socket)
    runtime.socket = counter
    launcher = runtime.ServiceLauncher()
    times, polls = [], 0
    try:
        for _ in range(SPAWNS):
            before = counter.connects
            start = time.perf_counter()
            launcher.ensure_live(desc)
            times.append(time.perf_counter() - start)
            polls += counter.connects - before
            launcher.shutdown()
    finally:
        launcher.shutdown()
        runtime.socket = counter._real
    return {
        "runtime.spawn_ms": statistics.median(times) * 1e3,
        "runtime.listen_polls_per_spawn": polls / SPAWNS,
    }


# -- direct round trips ----------------------------------------------------------


def _timed(samples: dict[str, list[float]], name: str, host_port, method, target, headers, body=None) -> Page:
    start = time.perf_counter()
    page = http_exchange(host_port, method, target, headers, body)
    samples.setdefault(name, []).append((time.perf_counter() - start) * 1e3)
    return page


def _expect(page: Page, status: int, what: str) -> Page:
    if page.status != status:
        raise RuntimeError(f"{what}: expected {status}, got {page.status}")
    return page


def _netloc(netloc: str) -> tuple[str, int]:
    host, _, port = netloc.rpartition(":")
    return host, int(port)


def signin_by_hand(samples: dict, broker_port: int, sp: str, yp_query: dict) -> None:
    """One sign-in, each hop sent straight to its party."""
    broker = ("127.0.0.1", broker_port)
    sp_at = _netloc(sp)
    psvc = {"PSvc-Version": "1"}

    login = _expect(_timed(samples, "sp.login_ms", sp_at, "GET", "/login?next=/",
                           {**psvc, "Host": sp}), 311, "SP /login")
    callback = login.header("PSvc-Callback")
    white = _expect(_timed(samples, "broker.white_ms", broker, "HEAD", "/white", {
        "PSvc-Service": json.dumps(SIGNIN_WP_QUERY), "PSvc-Callback": callback, "Referer": sp,
    }), 313, "broker /white")
    parts = urlsplit(callback)
    call = _expect(_timed(samples, "sp.callback_ms", sp_at, "POST", f"{parts.path}?{parts.query}", {
        **psvc, "Host": sp, "PSvc-Service": white.header("PSvc-Service"),
    }, b""), 312, "SP /wp-callback")
    handle = json.loads(call.header("PSvc-Service"))["handle"]
    resolved = _expect(_timed(samples, "broker.resolve_ms", broker, "HEAD", "/resolve?ref=bench", {
        "PSvc-Service": handle, "Referer": sp,
    }), 313, "broker /resolve")
    endpoint = resolved.header("PSvc-Service")
    if not endpoint:
        raise RuntimeError(f"broker /resolve refused: {resolved.header('PSvc-Error')}")
    service = _netloc(endpoint)
    challenge = _expect(_timed(samples, "service.auth_ms", service, "GET", call.header("PSvc-Parameters"), {
        **psvc, "Host": endpoint, "Referer": sp, "PSvc-Invocation": "1",
    }), 200, "service /auth")
    body = urlencode(auto_form(challenge.body)["fields"]).encode()
    form_headers = {"Host": endpoint, "Content-Type": "application/x-www-form-urlencoded"}
    signed = _expect(_timed(samples, "service.confirm_ms", service, "POST", "/confirm",
                            form_headers, body), 200, "service /confirm")
    body = urlencode(auto_form(signed.body)["fields"]).encode()
    _expect(_timed(samples, "sp.result_ms", sp_at, "POST", "/result",
                   {**form_headers, "Host": sp}, body), 302, "SP /result")
    _expect(_timed(samples, "broker.yellow_ms", broker, "HEAD", "/yellow", {
        "PSvc-Service": json.dumps(yp_query), "PSvc-Callback": f"http://{sp}/yp-callback",
        "Referer": sp,
    }), 313, "broker /yellow")


def round_trips(broker_port: int, sp: str, yp_query: dict) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        signin_by_hand(samples, broker_port, sp, yp_query)
    return {name: statistics.median(values) for name, values in samples.items()}
