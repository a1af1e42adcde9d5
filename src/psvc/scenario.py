"""End-to-end scenarios replaying the personal-service flows.

Each scenario materializes a fresh per-user directory, boots broker,
proxy, and demo SP as separate processes on ephemeral ports, then
drives a synthetic browser through the proxy.  Every party appends to
one shared transcript; after the run the transcript is normalized
(ports, session ids, references, and process ids become stable tokens)
and checked: phase patterns must appear in order, and when a golden
transcript exists the whole normalized run must match it line for
line.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import traceback
from base64 import b64encode
from dataclasses import dataclass
from difflib import unified_diff
from html.parser import HTMLParser
from pathlib import Path
from typing import Any, Callable
from urllib.parse import quote, urljoin

import requests

from .broker.core import ENDPOINT_FILE, read_endpoint_file
from .broker.runtime import allocate_port, stop_process
from .kit import KitRequest, KitResponse, ServiceServer
from .transcript import ENV_VAR as TRANSCRIPT_ENV
from .transcript import Event, SPAWN, read_events

GOLDEN_DIR = Path(__file__).parent / "goldens"
# The directory holding the running psvc package; children import it from here.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

REQUEST_TIMEOUT_S = 15.0
BOOT_TIMEOUT_S = 10.0
OUTPUT_TAIL_LINES = 20

# The demo authenticator's full name, non-ASCII value included.
CC_PRESENTATION: dict[str, Any] = {
    "Purpose": "authentication",
    "Credentials": "digital signature",
    "Protocol": "certificate + digital signature",
    "Device": "Portuguese eID",
    "Device name": "Cartão de Cidadão",
}

TWIN_PRESENTATION: dict[str, Any] = {
    "Purpose": "authentication",
    "Device": "Other eID",
}

BROKEN_PRESENTATION: dict[str, Any] = {
    "Purpose": "authentication",
    "Device": "Broken eID",
}


class ScenarioFailure(AssertionError):
    """A scenario assertion that did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioFailure(message)


def assert_order(lines: list[str], patterns: list[str]) -> None:
    """Every pattern must match some line, in order (extra lines allowed)."""
    position = 0
    for pattern in patterns:
        for index in range(position, len(lines)):
            if fnmatch.fnmatchcase(lines[index], pattern):
                position = index + 1
                break
        else:
            observed = "\n".join(f"    {line}" for line in lines)
            raise ScenarioFailure(
                f"phase missing or out of order: {pattern!r}\nobserved transcript:\n{observed}"
            )


# -- parties --------------------------------------------------------------


class Party:
    """One child process with polite teardown."""

    def __init__(self, name: str, argv: list[str], env: dict[str, str], cwd: Path):
        self.name = name
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def stop(self) -> None:
        stop_process(self.proc)

    def output(self) -> str:
        if self.proc.stdout is None:
            return ""
        try:
            return self.proc.stdout.read().decode("utf-8", "replace")
        except Exception:
            return ""

    def check_alive(self) -> None:
        """Fail at once if the child has exited, quoting the end of its output."""
        status = self.proc.poll()
        if status is None:
            return
        tail = "\n".join(self.output().splitlines()[-OUTPUT_TAIL_LINES:])
        raise ScenarioFailure(
            f"{self.name} exited with status {status} before it was ready; "
            f"its output ends:\n{tail}"
        )


def wait_for_file(path: Path, party: Party, timeout: float = BOOT_TIMEOUT_S) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        party.check_alive()
        if path.exists():
            text = path.read_text().strip()
            if text:
                return text
        time.sleep(0.02)
    raise ScenarioFailure(f"{path} never appeared")


def wait_for_tcp(host: str, port: int, party: Party, timeout: float = BOOT_TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        party.check_alive()
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.02)
    raise ScenarioFailure(f"nothing listening on {host}:{port}")


class Victim(ServiceServer):
    """Records any request that reaches it; a successful attack would."""

    def __init__(self) -> None:
        self.hits: list[tuple[str, str]] = []
        super().__init__(("127.0.0.1", 0), self._hit)
        self.netloc = f"127.0.0.1:{self.port}"
        self.start()

    def _hit(self, request: KitRequest) -> KitResponse:
        self.hits.append((request.method, request.target))
        return KitResponse(200, (), b"victim\n")


# -- synthetic browser ------------------------------------------------------


class _FormScraper(HTMLParser):
    """Finds forms marked data-autosubmit and their hidden fields."""

    def __init__(self) -> None:
        super().__init__()
        self.forms: list[dict[str, Any]] = []
        self._current: dict[str, Any] | None = None

    def handle_starttag(self, tag: str, attrs_list) -> None:
        attrs = dict(attrs_list)
        if tag == "form":
            self._current = {
                "action": attrs.get("action", ""),
                "method": (attrs.get("method") or "GET").upper(),
                "autosubmit": attrs.get("data-autosubmit") == "1",
                "fields": {},
            }
        elif tag == "input" and self._current is not None:
            name = attrs.get("name")
            if name is not None:
                self._current["fields"][name] = attrs.get("value", "")

    def handle_endtag(self, tag: str) -> None:
        if tag == "form" and self._current is not None:
            self.forms.append(self._current)
            self._current = None


class Browser:
    """requests wrapper that behaves like a user with scripting enabled."""

    MAX_AUTO_SUBMITS = 6

    def __init__(self, proxy_netloc: str):
        self.session = requests.Session()
        self.session.trust_env = False  # ambient proxy settings must not leak in
        self.proxies = {"http": f"http://{proxy_netloc}"}

    def request(self, method: str, url: str, **kwargs) -> requests.Response:
        return self.session.request(
            method,
            url,
            proxies=self.proxies,
            timeout=REQUEST_TIMEOUT_S,
            **kwargs,
        )

    def run_flow(self, url: str) -> requests.Response:
        """GET a page, then auto-submit forms the way a browser's JS would."""
        response = self.request("GET", url)
        for _ in range(self.MAX_AUTO_SUBMITS):
            scraper = _FormScraper()
            scraper.feed(response.text)
            auto = next((f for f in scraper.forms if f["autosubmit"]), None)
            if auto is None:
                return response
            target = urljoin(response.url, auto["action"])
            response = self.request(auto["method"], target, data=auto["fields"])
        return response


# -- scenario context --------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    failures: list[str]
    duration_s: float
    lines: list[str]
    events: list[Event]
    notes: dict[str, Any]
    workdir: Path


class ScenarioContext:
    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.ps_dir = workdir / "ps"
        self.ps_dir.mkdir(parents=True)
        self.transcript_path = workdir / "transcript.jsonl"
        self.parties: list[Party] = []
        self.victim: Victim | None = None
        self.tokens: dict[str, str] = {}  # netloc -> token
        self.notes: dict[str, Any] = {}
        self.sp_netloc = ""
        self.proxy_netloc = ""

    # -- environment -----------------------------------------------------

    def child_env(self, **extra: str) -> dict[str, str]:
        """This process's environment, with an import path that works from any cwd.

        Children run in the scenario's temp dir, where a relative
        PYTHONPATH entry such as ``src`` points nowhere.  Their children
        (services, an autolaunched broker) inherit this environment too.
        """
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH", "")
        entries = [str(PACKAGE_ROOT)]
        if inherited:
            entries += [str(Path(entry).resolve()) for entry in inherited.split(os.pathsep)]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
        env[TRANSCRIPT_ENV] = str(self.transcript_path)
        env.update(extra)
        return env

    # -- per-user directory ------------------------------------------------

    def write_descriptor(self, stem: str, configuration: dict, presentation: dict) -> Path:
        path = self.ps_dir / f"{stem}.psd"
        path.write_text(
            json.dumps({"configuration": configuration, "presentation": presentation}),
            "utf-8",
        )
        return path

    def write_demo_descriptors(
        self,
        *,
        cc: bool = True,
        twin: bool = False,
        broken: bool = False,
        broker: bool = True,
    ) -> None:
        if cc:
            self.write_descriptor(
                "cc-personal-service",
                {"dir": str(self.ps_dir), "cmd": [sys.executable, "-m", "psvc", "demo", "service"]},
                CC_PRESENTATION,
            )
        if twin:
            self.write_descriptor(
                "twin-auth-service",
                {"dir": str(self.ps_dir), "cmd": [sys.executable, "-m", "psvc", "demo", "service"]},
                TWIN_PRESENTATION,
            )
        if broken:
            self.write_descriptor(
                "broken-service",
                {"dir": str(self.ps_dir), "cmd": [sys.executable, "-c", "raise SystemExit(3)"]},
                BROKEN_PRESENTATION,
            )
        if broker:
            self.write_descriptor(
                "broker",
                {
                    "dir": str(self.ps_dir),
                    "cmd": [sys.executable, "-m", "psvc", "broker", "run", "--ps-dir", str(self.ps_dir)],
                },
                {"Purpose": "service brokering"},
            )

    # -- booting parties ----------------------------------------------------

    def boot_broker(self, *, env: dict[str, str] | None = None) -> str:
        party = Party(
            "broker",
            [sys.executable, "-m", "psvc", "broker", "run", "--ps-dir", str(self.ps_dir)],
            self.child_env(**(env or {})),
            self.workdir,
        )
        self.parties.append(party)
        wait_for_file(self.ps_dir / ENDPOINT_FILE, party)
        host, port = read_endpoint_file(self.ps_dir)
        wait_for_tcp(host, port, party)
        netloc = f"{host}:{port}"
        self.tokens[netloc] = "broker"
        return netloc

    def boot_proxy(self, *, autolaunch: bool = True) -> str:
        port_file = self.workdir / "proxy.port"
        argv = [
            sys.executable, "-m", "psvc", "proxy", "run",
            "--listen", "127.0.0.1:0",
            "--ps-dir", str(self.ps_dir),
            "--port-file", str(port_file),
        ]
        if not autolaunch:
            argv.append("--no-broker-autolaunch")
        party = Party("proxy", argv, self.child_env(), self.workdir)
        self.parties.append(party)
        port = int(wait_for_file(port_file, party))
        wait_for_tcp("127.0.0.1", port, party)
        self.proxy_netloc = f"127.0.0.1:{port}"
        self.tokens[self.proxy_netloc] = "proxy"
        return self.proxy_netloc

    def boot_sp(
        self,
        *,
        wp_query: dict | None = None,
        fault: str | None = None,
        extras_file: Path | None = None,
        env: dict[str, str] | None = None,
    ) -> str:
        port_file = self.workdir / "sp.port"
        argv = [
            sys.executable, "-m", "psvc", "demo", "sp",
            "--listen", "127.0.0.1:0",
            "--port-file", str(port_file),
        ]
        if wp_query is not None:
            argv += ["--wp-query", json.dumps(wp_query)]
        if fault is not None:
            argv += ["--fault", fault]
        if extras_file is not None:
            argv += ["--invoke-extras", str(extras_file)]
        party = Party("sp", argv, self.child_env(**(env or {})), self.workdir)
        self.parties.append(party)
        port = int(wait_for_file(port_file, party))
        wait_for_tcp("127.0.0.1", port, party)
        self.sp_netloc = f"127.0.0.1:{port}"
        self.tokens[self.sp_netloc] = "sp"
        return self.sp_netloc

    def start_victim(self) -> Victim:
        self.victim = Victim()
        self.tokens[self.victim.netloc] = "victim"
        return self.victim

    def browser(self) -> Browser:
        return Browser(self.proxy_netloc)

    def sp_url(self, path: str = "/") -> str:
        return f"http://{self.sp_netloc}{path}"

    # -- transcript access ---------------------------------------------------

    def events(self) -> list[Event]:
        return read_events(self.transcript_path)

    def lines(self) -> list[str]:
        events = self.events()
        mapping = dict(self.tokens)
        for event in events:
            if event.direction == SPAWN and "port" in event.detail:
                netloc = f"127.0.0.1:{event.detail['port']}"
                mapping.setdefault(netloc, "service")
        return normalize_lines([e.render() for e in events], mapping)

    def service_pids(self) -> list[int]:
        return [
            int(e.detail["pid"])
            for e in self.events()
            if e.direction == SPAWN and "pid" in e.detail
        ]

    # -- teardown ---------------------------------------------------------

    def teardown(self) -> None:
        for party in reversed(self.parties):
            party.stop()
        # Services are the broker's children; reap any that outlived it.
        for pid in self.service_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        if self.victim is not None:
            self.victim.shutdown()


def normalize_lines(lines: list[str], netloc_tokens: dict[str, str]) -> list[str]:
    """Make transcript lines stable across runs."""
    replacements = []
    for netloc, token in netloc_tokens.items():
        replacements.append((netloc, "{%s}" % token))
        replacements.append((quote(netloc, safe=""), "{%s}" % token))
    out = []
    for line in lines:
        for raw, token in replacements:
            line = line.replace(raw, token)
        line = re.sub(r"loc=:[A-Za-z0-9_~-]+", "loc=:{ref}", line)
        line = re.sub(r"\b(sid|nonce|ref|next|return|to)=[^&\s]*", r"\1={\1}", line)
        line = re.sub(r"\bpid=\d+", "pid={pid}", line)
        line = re.sub(r"\bport=\d+", "port={port}", line)
        out.append(line)
    return out


# -- the scenarios ----------------------------------------------------------

HAPPY_PHASES = [
    "SP      = GET / -> 302*",
    "SP      = GET /login?next={next} -> 311*",
    "Proxy   > HEAD /white*",
    "Broker  = HEAD /white -> 313 loc=http://{sp}/wp-callback?sid={sid} svc=handle",
    "Proxy   > POST http://{sp}/wp-callback?sid={sid}*",
    "SP      = POST /wp-callback?sid={sid} -> 312*",
    "Proxy   > HEAD /resolve?ref={ref}*",
    "Broker  = HEAD /resolve?ref={ref} -> 313 loc=:{ref} svc=endpoint",
    "Proxy   > GET http://{service}/auth?*",
    "Service = GET /auth?* -> 200*",
    "Service = POST /confirm -> 200*",
    "SP      = POST /result -> 302 loc=http://{sp}/ setcookie=1",
    "SP      = GET / -> 200*",
]


def _assert_313_only_from_broker(ctx: ScenarioContext) -> None:
    for event in ctx.events():
        if event.status == 313 and event.direction == "=":
            check(
                event.actor == "Broker",
                f"a 313 was served by {event.actor}, not the broker",
            )


def _run_auth_flow(ctx: ScenarioContext, browser: Browser) -> requests.Response:
    response = browser.run_flow(ctx.sp_url("/"))
    check(response.status_code == 200, f"flow ended with {response.status_code}")
    check(
        "authenticated as demo-user" in response.text,
        f"flow did not reach the members area: {response.text[:200]!r}",
    )
    return response


def scenario_eid_auth_happy(ctx: ScenarioContext) -> None:
    """Cookie-less visit authenticates through the personal service."""
    ctx.write_demo_descriptors()
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp()
    _run_auth_flow(ctx, ctx.browser())
    lines = ctx.lines()
    assert_order(lines, HAPPY_PHASES)
    check(sum("= HEAD /white" in l for l in lines) == 1, "expected exactly one white-pages call")
    check(sum("= HEAD /resolve" in l for l in lines) == 1, "expected exactly one resolution")
    check(sum(l.startswith("Service =") for l in lines) >= 1, "service never served a request")
    check(sum("+ spawn" in l for l in lines) == 1, "expected exactly one launch")
    _assert_313_only_from_broker(ctx)


def scenario_yellow_pages(ctx: ScenarioContext) -> None:
    """A directory page lists matching services by attribute."""
    ctx.write_demo_descriptors()
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp()
    response = ctx.browser().run_flow(ctx.sp_url("/discover"))
    check(response.status_code == 200, f"discovery ended with {response.status_code}")
    check("1 service(s) available" in response.text, "expected one listed service")
    check("Cartão de Cidadão" in response.text, "name lost its non-ASCII value")
    lines = ctx.lines()
    assert_order(
        lines,
        [
            "SP      = GET /discover -> 310*",
            "Proxy   > HEAD /yellow*",
            "Broker  = HEAD /yellow -> 313 loc=http://{sp}/yp-callback svc=names*",
            "Proxy   > POST http://{sp}/yp-callback*",
            "SP      = POST /yp-callback -> 200*",
        ],
    )
    # names[...] would read as an fnmatch class above; check the count here.
    check(
        any("= HEAD /yellow" in l and "svc=names[1]" in l for l in lines),
        "broker listing should carry exactly one name",
    )
    _assert_313_only_from_broker(ctx)


def scenario_launch_on_demand(ctx: ScenarioContext) -> None:
    """One process serves consecutive flows; a killed one is relaunched."""
    ctx.write_demo_descriptors()
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp()

    _run_auth_flow(ctx, ctx.browser())
    spawns = [e for e in ctx.events() if e.direction == SPAWN]
    check(len(spawns) == 1, f"first flow should spawn once, saw {len(spawns)}")
    first_port = spawns[0].detail["port"]

    _run_auth_flow(ctx, ctx.browser())  # fresh browser: no cookie, full flow again
    spawns = [e for e in ctx.events() if e.direction == SPAWN]
    check(len(spawns) == 1, "second flow must reuse the live process")
    ctx.notes["reused_port"] = first_port

    pid = spawns[0].detail["pid"]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
            time.sleep(0.02)
        except ProcessLookupError:
            break

    _run_auth_flow(ctx, ctx.browser())
    spawns = [e for e in ctx.events() if e.direction == SPAWN]
    check(len(spawns) == 2, "killed service must be relaunched")
    check(spawns[1].detail["n"] == 2, "relaunch must increment the launch count")
    ctx.notes["ports"] = [s.detail["port"] for s in spawns]


def scenario_broker_down(ctx: ScenarioContext) -> None:
    """No live broker: the SP still gets an answer, an empty result."""
    ctx.write_demo_descriptors(broker=False)  # nothing to autolaunch either
    (ctx.ps_dir / ENDPOINT_FILE).write_text(str(allocate_port()))  # stale endpoint
    ctx.boot_proxy()
    ctx.boot_sp()
    response = ctx.browser().run_flow(ctx.sp_url("/"))
    check(response.status_code == 200, f"flow ended with {response.status_code}")
    check(
        "authentication unavailable: no personal service found" in response.text,
        "SP did not see the empty result",
    )
    lines = ctx.lines()
    assert_order(
        lines,
        [
            "SP      = GET /login?next={next} -> 311*",
            "Proxy   > HEAD /white*",
            "Proxy   < HEAD /white err=unreachable",
            "Proxy   > POST http://{sp}/wp-callback?sid={sid} svc=result",
            "SP      = POST /wp-callback?sid={sid} -> 200*",
        ],
    )
    check(not any(l.startswith("Broker") for l in lines), "no broker should have spoken")


def _error_scenario(ctx: ScenarioContext, expected_code: str, **sp_kwargs) -> None:
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp(**sp_kwargs)
    response = ctx.browser().run_flow(ctx.sp_url("/"))
    check(response.status_code == 200, f"flow ended with {response.status_code}")
    check(
        f"authentication unavailable: {expected_code}" in response.text
        or f"authentication failed: {expected_code}" in response.text,
        f"SP page does not show the {expected_code!r} failure: {response.text[:200]!r}",
    )
    marker = f"in_err={expected_code}"
    check(
        any(l.startswith("SP") and marker in l for l in ctx.lines()),
        f"SP never received PSvc-Error: {expected_code}",
    )


def scenario_error_parameters(ctx: ScenarioContext) -> None:
    """A 311 with no query is answered through the callback with 'parameters'."""
    ctx.write_demo_descriptors()
    _error_scenario(ctx, "parameters", fault="malformed-311")
    check(
        not any("= HEAD /white" in l for l in ctx.lines()),
        "a malformed directive must not reach the broker",
    )


def scenario_error_ambiguous(ctx: ScenarioContext) -> None:
    """A white query matching two services is refused as 'ambiguous'."""
    ctx.write_demo_descriptors(twin=True)
    _error_scenario(ctx, "ambiguous", wp_query={"Purpose": "authentication"})


def scenario_error_handle(ctx: ScenarioContext) -> None:
    """A tampered handle is rejected as 'handle'."""
    ctx.write_demo_descriptors()
    _error_scenario(ctx, "handle", fault="tamper-handle")


def scenario_error_service(ctx: ScenarioContext) -> None:
    """A service that dies at launch is reported as 'service'."""
    ctx.write_demo_descriptors(broken=True)
    _error_scenario(
        ctx,
        "service",
        wp_query={"Purpose": "authentication", "Device": "Broken eID"},
    )


def scenario_reject_313(ctx: ScenarioContext) -> None:
    """A 313 forged by an SP is refused; its target is never contacted."""
    ctx.write_demo_descriptors()
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp()
    victim = ctx.start_victim()
    browser = ctx.browser()
    response = browser.request(
        "GET", ctx.sp_url(f"/evil313?to=http://{victim.netloc}/pwned")
    )
    check(response.status_code == 502, f"expected a refusal, got {response.status_code}")
    check("refused" in response.text, "diagnostic should say the redirection was refused")
    check(not victim.hits, f"attacker location was contacted: {victim.hits}")
    assert_order(
        ctx.lines(),
        [
            "SP      = GET /evil313?to={to} -> 313*",
            "Proxy   < ? 313 -> 313 action=rejected origin={sp}",
        ],
    )


def scenario_header_fidelity(ctx: ScenarioContext) -> None:
    """Whatever the SP attaches to its 312 reaches the service unchanged."""
    headers = [
        (f"X-Fidelity-{i:02d}", os.urandom(16).hex()) for i in range(20)
    ]
    body = os.urandom(64 * 1024)
    extras_file = ctx.workdir / "extras.json"
    extras_file.write_text(
        json.dumps({"headers": [[k, v] for k, v in headers], "body_b64": b64encode(body).decode()}),
        "utf-8",
    )
    dump_dir = ctx.workdir / "dumps"
    dump_dir.mkdir()

    ctx.write_demo_descriptors()
    # The dump variable must reach the service: broker inherits it and
    # passes it down at launch.
    ctx.boot_broker(env={"PSVC_DUMP_DIR": str(dump_dir)})
    ctx.boot_proxy()
    ctx.boot_sp(extras_file=extras_file)
    _run_auth_flow(ctx, ctx.browser())

    dumps = sorted(dump_dir.glob("invocation-*.json"))
    check(len(dumps) == 1, f"expected one invocation dump, found {len(dumps)}")
    record = json.loads(dumps[0].read_text("utf-8"))
    received = [(k, v) for k, v in record["headers"]]
    for name, value in headers:
        matches = [v for k, v in received if k == name]
        check(matches == [value], f"header {name} arrived as {matches!r}")
    check(
        record["body_sha256"] == hashlib.sha256(body).hexdigest(),
        "carried body was not byte-identical",
    )
    check(record["body_len"] == len(body), "carried body length changed")
    check(record["referer"] == ctx.sp_netloc, "service request must name the SP in Referer")
    check(record["invocation_marker"] == "1", "proxy-built request must carry its marker")
    ctx.notes["dump"] = record


def scenario_broker_autolaunch(ctx: ScenarioContext) -> None:
    """With no broker running, the proxy launches one from broker.psd."""
    ctx.write_demo_descriptors()
    ctx.boot_proxy()  # no boot_broker on purpose
    ctx.boot_sp()
    _run_auth_flow(ctx, ctx.browser())
    host, port = read_endpoint_file(ctx.ps_dir)
    ctx.tokens[f"{host}:{port}"] = "broker"
    lines = ctx.lines()
    check(any(l.startswith("Broker") for l in lines), "an autolaunched broker should speak")
    assert_order(lines, ["Broker  = HEAD /white -> 313*"])


SCENARIOS: dict[str, Callable[[ScenarioContext], None]] = {
    "eid-auth-happy": scenario_eid_auth_happy,
    "yellow-pages": scenario_yellow_pages,
    "launch-on-demand": scenario_launch_on_demand,
    "broker-down": scenario_broker_down,
    "error-parameters": scenario_error_parameters,
    "error-ambiguous": scenario_error_ambiguous,
    "error-handle": scenario_error_handle,
    "error-service": scenario_error_service,
    "reject-313": scenario_reject_313,
    "header-fidelity": scenario_header_fidelity,
    "broker-autolaunch": scenario_broker_autolaunch,
}


def run_scenario(name: str, *, write_golden: bool = False, keep: bool = False) -> ScenarioResult:
    """Run one scenario to completion and evaluate it."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    workdir = Path(tempfile.mkdtemp(prefix=f"psvc-{name}-"))
    ctx = ScenarioContext(name, workdir)
    failures: list[str] = []
    started = time.monotonic()
    try:
        SCENARIOS[name](ctx)
    except ScenarioFailure as exc:
        failures.append(str(exc))
    except Exception:
        failures.append("crashed:\n" + traceback.format_exc())
    finally:
        ctx.teardown()
    duration = time.monotonic() - started

    lines = []
    try:
        lines = ctx.lines()
    except Exception as exc:
        failures.append(f"transcript unreadable: {exc!r}")

    golden_path = GOLDEN_DIR / f"{name}.txt"
    if write_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text("\n".join(lines) + "\n", "utf-8")
    elif golden_path.exists() and not failures:
        expected = golden_path.read_text("utf-8").splitlines()
        if expected != lines:
            diff = "\n".join(
                unified_diff(expected, lines, "golden", "observed", lineterm="")
            )
            failures.append(f"transcript deviates from golden:\n{diff}")

    events = []
    try:
        events = ctx.events()
    except Exception:
        pass
    result = ScenarioResult(
        name=name,
        passed=not failures,
        failures=failures,
        duration_s=duration,
        lines=lines,
        events=events,
        notes=ctx.notes,
        workdir=workdir,
    )
    if not keep and result.passed:
        shutil.rmtree(workdir, ignore_errors=True)
    return result
