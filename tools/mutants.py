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

The exit status is 0 only when every mutant run was killed.  Standard
library only; kept out of the Tier-1 suite, since it runs tests once per
mutant.
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
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    counts: dict[str, int] = {}
    started = time.monotonic()
    for mutant in chosen:
        began = time.monotonic()
        verdict = run_mutant(mutant)
        counts[verdict] = counts.get(verdict, 0) + 1
        took = time.monotonic() - began
        print(f"{verdict:9} {mutant.name:28} {took:6.1f} s  {mutant.invariant}", flush=True)
    summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    print(f"{len(chosen)} mutants: {summary}; {time.monotonic() - started:.1f} s")
    return 0 if counts.get("killed", 0) == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
