"""Acceptance gate: one test per criterion, one PASS/FAIL line each."""

from __future__ import annotations

import functools
import random
import string
import time

import pytest

from conftest import (
    ACCEPTANCE_LINES,
    random_attribute_name,
    random_presentation,
    random_scalar,
    read_313,
    write_descriptor,
)
from psvc.broker.core import Broker, write_endpoint_file
from psvc.kit import read_endpoint_file
from psvc.protocol import YellowQuery, decode_broker_result
from psvc.registry import Catalog, ServiceDescriptor, load_catalog
from psvc.scenario import run_scenario

URL_SAFE = string.ascii_letters + string.digits + "-_="


def criterion(number: int, summary: str):
    """Report exactly one PASS/FAIL line for the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                evidence = fn(*args, **kwargs)
            except BaseException as exc:
                note = str(exc).strip().splitlines()
                detail = note[0] if note else type(exc).__name__
                line = f"FAIL: criterion {number}: {summary} ({detail})"
                ACCEPTANCE_LINES.append(line)
                print(line)
                raise
            line = f"PASS: criterion {number}: {summary}"
            if evidence:
                line += f" ({evidence})"
            ACCEPTANCE_LINES.append(line)
            print(line)

        return run

    return wrap


def scenario_or_fail(name: str):
    result = run_scenario(name)
    if not result.passed:
        raise AssertionError(f"scenario {name}: " + "; ".join(result.failures))
    return result


class FlatLauncher:
    """Launcher stand-in that reports every service as already live."""

    def __init__(self, endpoint: str = "127.0.0.1:45678"):
        self.endpoint = endpoint

    def ensure_live(self, descriptor) -> str:
        return self.endpoint


@criterion(1, "end-to-end authentication flow completes with the stated phases")
def test_criterion_1_end_to_end_authentication_flow():
    result = scenario_or_fail("eid-auth-happy")
    assert result.duration_s < 10.0, f"took {result.duration_s:.1f}s"
    return f"eid-auth-happy in {result.duration_s:.2f}s, limit 10s"


@criterion(2, "launch on demand: one spawn across two flows, respawn after a kill")
def test_criterion_2_launch_on_demand_and_respawn():
    result = scenario_or_fail("launch-on-demand")
    ports = result.notes["ports"]
    assert len(ports) == 2, f"expected 2 spawns, saw {len(ports)}"
    return f"spawned twice across three flows, ports {ports[0]} then {ports[1]}"


@criterion(3, "handles are unforgeable, tamper-evident, and leak nothing")
def test_criterion_3_handle_security_properties(tmp_path):
    descriptor_id = "portuguese-eid-authenticator"
    write_descriptor(
        tmp_path,
        descriptor_id,
        {"Purpose": "authentication", "Device": "Portuguese eID"},
        cmd=["true"],
    )
    broker = Broker(tmp_path, launcher=FlatLauncher())
    rng = random.Random(0xACCE55)
    started = time.monotonic()

    # 100 mint/resolve round trips, each from a distinct SP host.
    handles: list[tuple[str, str]] = []
    for n in range(100):
        sp = f"sp-{n:02d}.test:{8000 + n}"
        reply = read_313(broker.serve_white({"Purpose": "authentication"}, sp, "http://cb.test/cb"))
        assert reply.error is None, f"mint {n} failed: {reply.error}"
        handle = decode_broker_result(reply.service).response["handle"]
        resolved = read_313(broker.resolve_handle(handle, sp, f"r{n}"))
        assert resolved.error is None, f"resolve {n} failed: {resolved.error}"
        handles.append((handle, sp))

    # The handle text must never expose what it names or who asked.
    for handle, sp in handles:
        assert descriptor_id not in handle
        assert sp not in handle

    # 10,000 random byte strings must all be refused with the handle code.
    for _ in range(10_000):
        junk = rng.randbytes(rng.randint(0, 64)).decode("latin-1")
        reply = read_313(broker.resolve_handle(junk, "sp-00.test:8000", "r"))
        assert reply.error == "handle", f"accepted junk {junk!r}: {reply.error}"

    # 1,000 single-character mutations of valid handles, any position.
    for _ in range(1_000):
        handle, sp = handles[rng.randrange(len(handles))]
        pos = rng.randrange(len(handle))
        swap = rng.choice([c for c in URL_SAFE if c != handle[pos]])
        mutated = handle[:pos] + swap + handle[pos + 1 :]
        reply = read_313(broker.resolve_handle(mutated, sp, "r"))
        assert reply.error == "handle", f"accepted mutation of {handle}"

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    return f"100 round trips, 10000 forgeries, 1000 mutations in {elapsed:.2f}s"


def values_equal(a, b) -> bool:
    """Reference equality for presentation values, written from scratch."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, str):
        return a == b
    if isinstance(a, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return set(a) == set(b) and all(values_equal(a[k], b[k]) for k in a)
    return a == b


def pair_matches(have, want) -> bool:
    if isinstance(have, str) and isinstance(want, str):
        return have.casefold() == want.casefold()
    return values_equal(have, want)


def oracle_yellow(entries: dict[str, dict], name: str, value) -> list[str]:
    """Brute-force yellow match: case-blind name, case-blind string value."""
    return [
        sid
        for sid in sorted(entries)
        if any(
            attr.casefold() == name.casefold() and pair_matches(have, value)
            for attr, have in entries[sid].items()
        )
    ]


def oracle_white(entries: dict[str, dict], query: dict) -> list[str]:
    """Brute-force white match: every pair present and exactly equal."""
    hits = []
    for sid in sorted(entries):
        presentation = entries[sid]
        if all(
            name in presentation and values_equal(presentation[name], query[name])
            for name in query
        ):
            hits.append(sid)
    return hits


def twist_case(rng: random.Random, text: str) -> str:
    return "".join(
        c.upper() if rng.random() < 0.5 else c.lower() for c in text
    )


@criterion(4, "broker matching equals a brute-force oracle over random catalogs")
def test_criterion_4_matching_equivalence_against_oracle(tmp_path):
    broker = Broker(tmp_path, launcher=FlatLauncher())
    rng = random.Random(0x04AC1E)
    started = time.monotonic()
    sp = "sp.test:8080"
    callback = "http://sp.test:8080/cb"
    yellow_runs = white_runs = 0

    for round_no in range(500):
        # Build a random catalog, duplicating some presentations so that
        # ambiguous white lookups actually occur.
        count = rng.randint(1, 10)
        presentations: list[dict] = []
        for _ in range(count):
            if presentations and rng.random() < 0.25:
                presentations.append(dict(rng.choice(presentations)))
            else:
                presentations.append(random_presentation(rng, max_attrs=6))
        entries = {}
        for n, presentation in enumerate(presentations):
            sid = f"svc-{n:02d}"
            entries[sid] = ServiceDescriptor(
                descriptor_id=sid,
                presentation=presentation,
                cmd=("true",),
                url=None,
                workdir=tmp_path,
            )
        broker.catalog = Catalog(source_dir=tmp_path, entries=entries)
        flat = {sid: desc.presentation for sid, desc in entries.items()}

        # Yellow queries: planted attribute names plus random misses.
        for _ in range(4):
            if rng.random() < 0.7:
                source = rng.choice(presentations)
                name = rng.choice(sorted(source))
                value = source[name]
                if isinstance(value, str) and rng.random() < 0.5:
                    value = twist_case(rng, value)
                if rng.random() < 0.5:
                    name = twist_case(rng, name)
            else:
                name = random_attribute_name(rng)
                value = random_scalar(rng)
            reply = read_313(broker.serve_yellow(YellowQuery(name, value), sp, callback))
            assert reply.error is None
            got = decode_broker_result(reply.service).response or []
            want = [flat[sid] for sid in oracle_yellow(flat, name, value)]
            assert len(got) == len(want) and all(
                values_equal(g, w) for g, w in zip(got, want)
            ), f"yellow {name}={value!r} round {round_no}"
            yellow_runs += 1

        # White queries: subsets of a real presentation, sometimes spoiled.
        for _ in range(4):
            source = rng.choice(presentations)
            names = rng.sample(sorted(source), rng.randint(1, len(source)))
            query = {name: source[name] for name in names}
            if rng.random() < 0.3:
                query[rng.choice(names)] = random_scalar(rng)
            if rng.random() < 0.2:
                query[random_attribute_name(rng)] = random_scalar(rng)
            expected = oracle_white(flat, query)
            reply = read_313(broker.serve_white(query, sp, callback))
            if len(expected) == 0:
                assert reply.error == "service", f"round {round_no}: {query!r}"
            elif len(expected) > 1:
                assert reply.error == "ambiguous", f"round {round_no}: {query!r}"
            else:
                assert reply.error is None, f"round {round_no}: {reply.error}"
                result = decode_broker_result(reply.service).response
                assert values_equal(result["service"], flat[expected[0]])
                opened = broker.codec.open(result["handle"])
                assert opened.descriptor_id == expected[0]
            white_runs += 1

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return (
        f"500 catalogs, {yellow_runs} yellow + {white_runs} white lookups"
        f" in {elapsed:.2f}s"
    )


@criterion(5, "each error code reaches the SP callback; broker down yields empty results")
def test_criterion_5_all_error_codes_at_the_sp_callback():
    for name, code in [
        ("error-parameters", "parameters"),
        ("error-ambiguous", "ambiguous"),
        ("error-handle", "handle"),
        ("error-service", "service"),
    ]:
        result = scenario_or_fail(name)
        marker = f"in_err={code}"
        assert any(marker in line for line in result.lines), f"{name}: no {marker}"
    down = scenario_or_fail("broker-down")
    assert any("err=unreachable" in line for line in down.lines)
    return "parameters, ambiguous, handle, service, plus empty-result fallback"


@criterion(6, "a broker-result redirection from a non-broker source is refused")
def test_criterion_6_foreign_313_rejected():
    result = scenario_or_fail("reject-313")
    assert any("action=rejected" in line for line in result.lines)
    return "victim endpoint saw zero requests"


@criterion(7, "carried headers and body reach the service byte for byte")
def test_criterion_7_header_and_body_fidelity():
    result = scenario_or_fail("header-fidelity")
    dump = result.notes["dump"]
    planted = [k for k, _ in dump["headers"] if k.startswith("X-Fidelity-")]
    assert len(planted) == 20
    assert dump["body_len"] == 64 * 1024
    assert dump["referer"]
    return "20 headers unmodified, 65536-byte body digest match, Referer set"


@criterion(8, "endpoint file round-trips and a verbatim descriptor resolves")
def test_criterion_8_config_file_conformance(tmp_path):
    for port in (1, 4321, 65535):
        write_endpoint_file(tmp_path, port)
        host, read_back = read_endpoint_file(tmp_path)
        assert (host, read_back) == ("127.0.0.1", port)

    catalog_dir = tmp_path / "catalog"
    catalog_dir.mkdir()
    (catalog_dir / "cc.psd").write_text(
        """{
  "configuration" : {
    "dir": "Z:/PersonalServices/CCPersonalService",
    "cmd": ["java", "-jar", "CCPersonalService.jar"]
  },
  "presentation": {
    "Purpose": "authentication",
    "Credentials": "digital signature",
    "Protocol": "certificate + digital signature",
    "Device": "Portuguese eID",
    "Device name": "Cart\u00e3o de Cidad\u00e3o"
  }
}
""",
        encoding="utf-8",
    )
    catalog = load_catalog(catalog_dir)
    assert catalog.diagnostics == ()
    entry = catalog.entries["cc"]
    assert entry.presentation["Device name"] == "Cartão de Cidadão"
    assert entry.cmd == ("java", "-jar", "CCPersonalService.jar")

    broker = Broker(catalog_dir, launcher=FlatLauncher())
    query = {"Purpose": "authentication", "Device": "Portuguese eID"}
    reply = read_313(broker.serve_white(query, "sp.test:8080", "http://sp.test:8080/cb"))
    assert reply.error is None, f"white lookup failed: {reply.error}"
    result = decode_broker_result(reply.service).response
    assert result["service"]["Device name"] == "Cartão de Cidadão"
    assert broker.codec.open(result["handle"]).descriptor_id == "cc"
    return "broker.ept round trip, non-ASCII descriptor found by two-attribute query"
