"""Check that the tests kill each listed mutant of a security rule or bound.

    python3 tools/mutants.py [NAME ...]

Each mutant replaces one exact text in one file of the checkout and names
the invariant it attacks and the tests that must then fail.  For each one
(all, or the NAMEs given) the runner copies the checkout's tracked files,
as they are in the working tree, to a temp directory, applies the mutant
there and runs its tests with pytest.  The checkout itself is never
written.  A mutant is reported as:

    killed    a named test failed (or the run outlived TIMEOUT_S)
    survived  every named test passed: no test pins the invariant
    stale     its text is no longer found exactly once: update the mutant
    error     pytest could not run the named tests (exit status 2 to 5)

A mutant in ACCEPTED survives by design and carries the reason; it runs
too, and is reported as ``accepted``, with its verdict and that reason.
The exit status is 0 only when every other mutant run was killed.
Standard library only; kept out of the Tier-1 suite, since it runs tests
once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a mutant that hangs its tests this long counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout's root
    text: str  # found exactly once in `path`
    replacement: str
    invariant: str
    tests: tuple[str, ...]  # pytest node ids


CHAIN_TEST = (
    "tests/test_proxy.py::TestChainAlone::"
    "test_every_chain_ends_within_bounds_and_keeps_the_redirection_rules"
)

START_ORDER_TEST = (
    "tests/test_cli.py::test_a_party_listens_once_it_can_stop_and_publishes_once_it_listens"
)

MUTANTS = [
    Mutant(
        "forged-313-honoured", "src/psvc/proxy.py",
        "            if response.status == BROKER_RESULT:\n",
        "            if False:\n",
        "a 313 is honoured only from the broker",
        (CHAIN_TEST,),
    ),
    Mutant(
        "sp-referer-carried", "src/psvc/proxy.py",
        '_NOT_CARRIED = _OWN_FIELDS | {"referer", "content-length"}',
        '_NOT_CARRIED = _OWN_FIELDS | {"content-length"}',
        "only the proxy names the SP in an invocation's Referer",
        (CHAIN_TEST,),
    ),
    Mutant(
        "chain-unbounded", "src/psvc/proxy.py",
        "        for _ in range(MAX_CHAIN):\n",
        "        for _ in iter(int, 1):\n",
        "a browser request runs through at most MAX_CHAIN redirections",
        (CHAIN_TEST,),
    ),
    Mutant(
        "resolution-ref-unchecked", "src/psvc/proxy.py",
        '        if location != f":{ref}":\n',
        "        if False:\n",
        "a service is invoked only on the resolution of this call's ref",
        (CHAIN_TEST,),
    ),
    Mutant(
        "client-own-fields-relayed", "src/psvc/proxy.py",
        "        out = [(k, v) for k, v in strip_hop_by_hop(headers)"
        " if k.lower() not in _OWN_FIELDS]\n",
        "        out = strip_hop_by_hop(headers)\n",
        "only the proxy sets PSvc-Version and PSvc-Invocation",
        (CHAIN_TEST,),
    ),
    Mutant(
        "sp-url-to-broker", "src/psvc/proxy.py",
        '                    if step.method == "HEAD" and step.url.startswith("/"):\n',
        '                    if step.url.startswith("/"):\n',
        "only the chain's own HEADs reach the broker, never an SP's callback",
        ("tests/test_proxy.py::TestListingFlows::"
         "test_a_callback_naming_a_broker_path_never_reaches_the_broker",),
    ),
    Mutant(
        "handle-opens-for-any-sp", "src/psvc/broker/core.py",
        "        if opened.requester_host != sp_host:\n",
        "        if False:\n",
        "a handle is bound to the SP it was minted for",
        (
            "tests/test_broker.py::TestResolveHandle::test_handle_bound_to_requesting_sp",
            "tests/test_broker.py::TestBrokerHTTP::test_handle_presented_by_wrong_sp",
        ),
    ),
    Mutant(
        "listing-ignores-policy", "src/psvc/broker/policy.py",
        "            if (overrides[d.descriptor_id].allows(sp_host)"
        " if d.descriptor_id in overrides else default)\n",
        "            if True\n",
        "a listing names only the services the access policy lets this SP see",
        (
            "tests/test_broker.py::TestPolicyFiltering::test_yellow_hides_denied_services",
            "tests/test_broker.py::TestPolicyFiltering::"
            "test_listing_under_a_mixed_policy_agrees_with_allows",
        ),
    ),
    Mutant(
        "resolution-ignores-policy", "src/psvc/broker/core.py",
        "        if desc is None or not self.policy.allows(sp_host, desc.descriptor_id):\n",
        "        if desc is None:\n",
        "a handle resolves only to a service the access policy lets this SP use",
        ("tests/test_broker.py::TestPolicyFiltering::test_resolve_respects_policy",),
    ),
    Mutant(
        "handle-never-expires", "src/psvc/broker/handles.py",
        "        if _now() - opened.mint_time > HANDLE_MAX_AGE_S:\n",
        "        if False:\n",
        "a handle opens for HANDLE_MAX_AGE_S after it was minted, and no longer",
        (
            "tests/test_handles.py::TestExpiry::test_old_handle_dies",
            "tests/test_broker.py::TestResolveHandle::test_expired_handle",
        ),
    ),
    Mutant(
        "request-line-unchecked", "src/psvc/proxy.py",
        "    if head is None or not REQUEST_LINE.match(head):\n",
        "    if head is None:\n",
        "the proxy sends no request whose start line is not one valid request line",
        ("tests/test_proxy.py::TestServiceInvocation::"
         "test_parameters_that_cannot_go_on_the_wire_are_service",),
    ),
    Mutant(
        "body-unbounded", "src/psvc/kit.py",
        "    if length > MAX_BODY_BYTES:\n",
        "    if False:\n",
        "a request body over MAX_BODY_BYTES gets a 413, unread",
        ("tests/test_kit.py::TestKeepAlive::test_body_over_the_cap_is_refused_with_413",),
    ),
    Mutant(
        "self-loop-forwarded", "src/psvc/proxy.py",
        '        if _port(parts) == self.port and parts.hostname in (self.host, "localhost"):\n',
        "        if False:\n",
        "the proxy refuses with a 508 a request addressed to itself",
        ("tests/test_proxy.py::TestPlainRelay::test_request_for_the_proxy_itself_is_refused",),
    ),
    Mutant(
        "carried-hop-by-hop", "src/psvc/proxy.py",
        "        carried = strip_hop_by_hop(directive.carried_headers)\n",
        "        carried = list(directive.carried_headers)\n",
        "no hop-by-hop field a 312 carries reaches the service",
        ("tests/test_proxy.py::TestServiceInvocation::"
         "test_a_chunked_312_carries_no_hop_by_hop_field_to_the_service",),
    ),
    # -- one launcher and one serve loop
    Mutant(
        "wait-ignores-exit", "src/psvc/kit.py",
        "    while proc.poll() is None:\n"
        "        if found := ready():\n",
        "    while True:\n"
        "        if found := ready():\n",
        "a child that exits before it is ready fails its wait at once, with its status",
        (
            "tests/test_broker.py::TestServiceLauncher::test_immediately_exiting_service_fails_fast",
            "tests/test_scenarios.py::test_boot_wait_reports_a_child_that_died",
        ),
    ),
    Mutant(
        "late-child-kept", "src/psvc/kit.py",
        "            stop_process(proc)\n"
        "            raise Refusal(502, late)\n",
        "            raise Refusal(502, late)\n",
        "a child not ready by its deadline is stopped",
        (
            "tests/test_broker.py::TestServiceLauncher::test_never_listening_service_times_out",
            "tests/test_proxy.py::TestBrokerLink::test_a_launch_that_never_publishes_is_stopped",
            "tests/test_scenarios.py::test_a_party_whose_port_file_holds_no_port_fails_its_boot",
        ),
    ),
    Mutant(
        "workdir-unchecked", "src/psvc/kit.py",
        "    if not workdir.is_dir():\n",
        "    if False:\n",
        "a child is launched only in a working directory that exists",
        ("tests/test_broker.py::TestServiceLauncher::test_missing_working_directory",),
    ),
    Mutant(
        "exec-error-escapes", "src/psvc/kit.py",
        "    except OSError as exc:\n"
        '        raise Refusal(502, f"cannot launch {name}: {exc}") from None\n',
        "    except ValueError as exc:\n"
        '        raise Refusal(502, f"cannot launch {name}: {exc}") from None\n',
        "a command that cannot be run is a Refusal that names it",
        ("tests/test_broker.py::TestServiceLauncher::test_unlaunchable_binary",),
    ),
    Mutant(
        "recovery-retries-refused", "src/psvc/proxy.py",
        "            if published is not None and published != refused:\n",
        "            if published is not None:\n",
        "the proxy relaunches a broker whose published endpoint refused it",
        (
            "tests/test_proxy.py::TestBrokerLink::test_refused_endpoint_relaunches_and_retries",
            "tests/test_proxy.py::TestBrokerLink::test_a_relaunch_stops_the_broker_launched_before",
        ),
    ),
    Mutant(
        "handlers-after-publish", "src/psvc/kit.py",
        "        for signum in signals:\n"
        "            signal.signal(signum, lambda *_: None)\n"
        "        server.start()\n"
        "        if port_file:\n"
        "            write_port_file(port_file, server.port)\n",
        "        server.start()\n"
        "        if port_file:\n"
        "            write_port_file(port_file, server.port)\n"
        "        for signum in signals:\n"
        "            signal.signal(signum, lambda *_: None)\n",
        "a party publishes its port only once a stop signal ends it in a clean shutdown",
        (START_ORDER_TEST,),
    ),
    Mutant(
        "no-wakeup-fd", "src/psvc/kit.py",
        "        signal.set_wakeup_fd(signalled)\n",
        "",
        "a stop signal wakes the serving party's main thread",
        ("tests/test_cli.py::test_a_party_sent_sigterm_as_its_port_appears_exits_0",),
    ),
    Mutant(
        "serve-skips-shutdown", "src/psvc/kit.py",
        "    if server is not None:\n"
        "        server.shutdown()\n",
        "",
        "a party that stops or cannot start shuts its server down first",
        ("tests/test_cli.py::"
         "test_a_broker_whose_port_file_cannot_be_written_shuts_down_and_says_why",),
    ),
    Mutant(
        "launcher-shutdown-unlocked", "src/psvc/broker/runtime.py",
        "            with rec.lock:\n"
        "                if rec.proc is not None:\n"
        "                    stop_process(rec.proc)\n",
        "            if rec.proc is not None:\n"
        "                stop_process(rec.proc)\n",
        "the launcher's shutdown stops a launch under way too",
        ("tests/test_broker.py::TestServiceLauncher::test_shutdown_stops_a_launch_under_way",),
    ),
    Mutant(
        "newer-broker-ept-removed", "src/psvc/broker/server.py",
        "        if read_port_file(self.endpoint_file) == self.port:",
        "        if True:",
        "a stopped broker removes broker.ept only while it names this broker",
        ("tests/test_broker.py::"
         "test_a_stopped_broker_keeps_a_broker_ept_that_names_another_port",),
    ),
    # -- the input bounds: each mutant removes the check, since tests monkeypatch
    # several of the constants.
    Mutant(
        "line-unbounded", "src/psvc/kit.py",
        "            if len(self._buf) - self._pos >= MAX_LINE:\n"
        "                break\n"
        "            chunk = self._recv(65536)\n"
        "            if not chunk:\n"
        "                return None\n"
        "            self._buf, self._pos = self._buf[self._pos :] + chunk, 0\n"
        "        if end < 0 or end + 1 - self._pos > MAX_LINE:\n",
        "            chunk = self._recv(65536)\n"
        "            if not chunk:\n"
        "                return None\n"
        "            self._buf, self._pos = self._buf[self._pos :] + chunk, 0\n"
        "        if end < 0:\n",
        "a start line or a field line holds at most MAX_LINE bytes",
        ("tests/test_http_reader.py::test_over_the_bounds_is_refused",),
    ),
    Mutant(
        "fields-unbounded", "src/psvc/kit.py",
        "        if len(fields) == MAX_FIELDS:\n",
        "        if False:\n",
        "a head holds at most MAX_FIELDS field lines",
        ("tests/test_http_reader.py::test_over_the_bounds_is_refused",),
    ),
    Mutant(
        "descriptor-unbounded", "src/psvc/registry.py",
        "    if len(data) > MAX_DESCRIPTOR_BYTES:\n",
        "    if False:\n",
        "a descriptor over MAX_DESCRIPTOR_BYTES is refused as too large",
        ("tests/test_registry.py::TestLoadCatalog::test_the_size_bound_is_one_header_line",),
    ),
    Mutant(
        "policy-unbounded", "src/psvc/broker/policy.py",
        "    if len(data) > MAX_POLICY_BYTES:\n",
        "    if False:\n",
        "a policy.json over MAX_POLICY_BYTES stops the broker from starting",
        ("tests/test_broker.py::TestAccessPolicy::"
         "test_a_policy_over_the_size_bound_is_refused_unread",),
    ),
    Mutant(
        "endpoint-unbounded", "src/psvc/kit.py",
        "    return port if len(data) <= MAX_ENDPOINT_BYTES and 0 < port < 65536 else None\n",
        "    return port if 0 < port < 65536 else None\n",
        "a port file over MAX_ENDPOINT_BYTES names no port",
        ("tests/test_broker.py::TestEndpointFile::test_unusable_contents",),
    ),
    Mutant(
        "tables-unbounded", "src/psvc/kit.py",
        "    if len(table) <= (MAX_TABLE_ENTRIES if limit is None else limit):\n",
        "    if limit is None or len(table) <= limit:\n",
        "the demo SP's and the demo service's tables hold at most MAX_TABLE_ENTRIES",
        (
            "tests/test_scenarios.py::test_demo_sp_tables_stay_bounded",
            "tests/test_scenarios.py::test_demo_service_dialogs_stay_bounded",
        ),
    ),
    Mutant(
        "handles-unbounded", "src/psvc/broker/handles.py",
        "            put_bounded(self._live, text, entry, MAX_LIVE_HANDLES)\n",
        "            self._live[text] = entry\n",
        "at most MAX_LIVE_HANDLES handles stay open, the oldest forgotten first",
        (
            "tests/test_handles.py::TestTable::test_cap_evicts_oldest_first",
            "tests/test_broker.py::TestResolveHandle::test_evicted_handle",
        ),
    ),
    Mutant(
        "query-depth-unbounded", "src/psvc/registry.py",
        "    return room == 0 or any(_nested_deeper(item, room - 1) for item in value)\n",
        "    return False\n",
        "a query or a presentation nests at most MAX_QUERY_DEPTH levels",
        (
            "tests/test_protocol.py::TestQueryCodecs::test_nesting_is_bounded",
            "tests/test_registry.py::TestLoadCatalog::test_presentation_nested_too_deep_is_skipped",
        ),
    ),
    # -- the demo SP's own rule, and the start order serve() holds
    Mutant(
        "next-leaves-host", "src/psvc/demo/sp.py",
        '        next_url = next_url if next_url.startswith("/") else "/"',
        '        next_url = next_url or "/"',
        "the demo SP redirects a signed-in user only to a path on its own host",
        ("tests/test_scenarios.py::test_demo_sp_redirects_after_sign_in_stay_on_its_host",),
    ),
    Mutant(
        "port-file-before-start", "src/psvc/kit.py",
        "        server.start()\n"
        "        if port_file:\n"
        "            write_port_file(port_file, server.port)\n",
        "        if port_file:\n"
        "            write_port_file(port_file, server.port)\n"
        "        server.start()\n",
        "a party writes its port file only once it listens",
        (START_ORDER_TEST,),
    ),
    Mutant(
        "handlers-after-start", "src/psvc/kit.py",
        "        for signum in signals:\n"
        "            signal.signal(signum, lambda *_: None)\n"
        "        server.start()\n",
        "        server.start()\n"
        "        for signum in signals:\n"
        "            signal.signal(signum, lambda *_: None)\n",
        "a party listens only once a stop signal ends it in a clean shutdown",
        (START_ORDER_TEST,),
    ),
]

# Mutants that survive by design, each with the reason.  They run and are reported
# apart from the others, and leave the exit status alone.
ACCEPTED = [
    (
        Mutant(
            "chain-bound-raised", "src/psvc/proxy.py",
            "MAX_CHAIN = 8 ", "MAX_CHAIN = 64 ",
            "a browser request runs through at most MAX_CHAIN redirections",
            (CHAIN_TEST,),
        ),
        "equivalent by design: the invariant is that a chain is bounded, not the bound's "
        "value, and the chain test reads MAX_CHAIN",
    ),
    (
        Mutant(
            "stop-by-event", "src/psvc/kit.py",
            "        wake, signalled = os.pipe()  # neither end is inherited by a launched child\n"
            "        os.set_blocking(signalled, False)\n"
            "        signal.set_wakeup_fd(signalled)\n"
            "        for signum in signals:\n"
            "            signal.signal(signum, lambda *_: None)\n"
            "        server.start()\n"
            "        if port_file:\n"
            "            write_port_file(port_file, server.port)\n"
            "        os.read(wake, 1)\n",
            "        stopped = threading.Event()\n"
            "        for signum in signals:\n"
            "            signal.signal(signum, lambda *_: stopped.set())\n"
            "        server.start()\n"
            "        if port_file:\n"
            "            write_port_file(port_file, server.port)\n"
            "        stopped.wait()\n",
            "a stop signal never hangs the serving party",
            ("tests/test_cli.py::test_a_party_sent_sigterm_as_its_port_appears_exits_0",),
        ),
        "timing-dependent: a handler that sets an Event the main thread waits on deadlocks "
        "only when the signal lands while wait() holds the Event's lock; every test passes, "
        "and a stress run (900 boots, each sent SIGTERM 0.3-1.0 ms after its port appeared) "
        "hung 3 of them",
    ),
]


def tracked_copy(dest: Path) -> None:
    """Copy every file git tracks, as the working tree holds it, under `dest`."""
    names = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_mutant(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="psvc-mutant-") as tmp:
        copy = Path(tmp)
        tracked_copy(copy)
        target = copy / mutant.path
        source = target.read_text("utf-8") if target.is_file() else ""
        if source.count(mutant.text) != 1:
            return "stale"
        target.write_text(source.replace(mutant.text, mutant.replacement), "utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(
                argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed"
        return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv: list[str]) -> int:
    reasons = {mutant.name: reason for mutant, reason in ACCEPTED}
    everyone = MUTANTS + [mutant for mutant, _ in ACCEPTED]
    unknown = set(argv) - {m.name for m in everyone}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in everyone if not argv or m.name in argv]
    counts: dict[str, int] = {}
    started = time.monotonic()
    for mutant in chosen:
        began = time.monotonic()
        verdict = run_mutant(mutant)
        took = time.monotonic() - began
        if mutant.name in reasons:
            counts["accepted"] = counts.get("accepted", 0) + 1
            note = f"{verdict}; {reasons[mutant.name]}"
            print(f"accepted  {mutant.name:28} {took:6.1f} s  {note}", flush=True)
            continue
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{verdict:9} {mutant.name:28} {took:6.1f} s  {mutant.invariant}", flush=True)
    summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    print(f"{len(chosen)} mutants: {summary}; {time.monotonic() - started:.1f} s")
    judged = len(chosen) - counts.get("accepted", 0)
    return 0 if counts.get("killed", 0) == judged else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
