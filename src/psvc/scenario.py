"""End-to-end scenarios replaying the personal-service flows.

Each scenario materializes a fresh per-user directory, boots broker and
proxy as separate processes on ephemeral ports, serves the demo SP, which
stands for the outside web site, in this process, then drives a synthetic
browser through the proxy.  The SP misbehaves where a scenario asks: it
forges a 313 on /evil313, and can edit each 311 and 312 it answers.
Every party appends to one shared transcript; after the run the
transcript is normalized (ports, session ids, references, and process
ids become stable tokens) and checked: phase patterns must appear in
order, and when a golden transcript exists the whole normalized run
must match it line for line.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import re
import select
import shutil
import signal
import sys
import tempfile
import time
import traceback
from difflib import unified_diff
from html.parser import HTMLParser
from http.client import HTTPConnection
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple
from urllib.parse import quote, urlencode, urljoin, urlsplit

from .demo.sp import DemoSP
from .kit import (
    ENDPOINT_FILE,
    LOOPBACK,
    KitRequest,
    KitResponse,
    Refusal,
    ServiceServer,
    allocate_port,
    launch,
    read_endpoint_file,
    read_port_file,
    stop_process,
    wait_until,
)
from .protocol import BROKER_RESULT, H_SERVICE, SERVICE_CALL, WHITE_PAGES
from .transcript import ENV_VAR as TRANSCRIPT_ENV
from .transcript import Event, SPAWN, Transcript, read_events

if TYPE_CHECKING:
    import subprocess

GOLDEN_DIR = Path(__file__).parent / "goldens"
# The directory holding the running psvc package; children import it from here.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent
PSVC = [sys.executable, "-m", "psvc"]  # the command line every party runs

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

# Matches the demo SP's white query as the authenticator does: the two are ambiguous.
TWIN_PRESENTATION: dict[str, Any] = {
    "Purpose": "authentication",
    "Device": "Portuguese eID",
}

DEAD_SERVICE = [sys.executable, "-c", "raise SystemExit(3)"]  # dies at launch

# The demo service, but each /auth request it receives is also written as JSON to
# the directory its first argument names: the launch command header-fidelity checks.
RECORDING_SERVICE = """\
import hashlib, json, sys, time
from psvc.demo import service
from psvc.kit import header_value
handle = service.MockAuthService.handle
def record(self, request):
    if request.path == "/auth":
        fields, body = request.headers, request.body
        dump = {"headers": fields, "body_sha256": hashlib.sha256(body).hexdigest(),
                "body_len": len(body), "referer": header_value(fields, "Referer"),
                "invocation_marker": header_value(fields, "PSvc-Invocation")}
        with open(f"{sys.argv[1]}/invocation-{time.monotonic_ns()}.json", "w") as out:
            json.dump(dump, out)
    return handle(self, request)
service.MockAuthService.handle = record
sys.exit(service.main(sys.argv[1:]))
"""


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


def kill_and_wait(pid: int) -> None:
    """SIGKILL a process, our child or not, and wait until it has exited.

    A probe with signal 0 sees an exited child that its parent has not
    reaped yet as alive; a pidfd turns readable as soon as it exits.
    """
    try:
        pidfd = os.pidfd_open(pid)
    except ProcessLookupError:
        return
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        if not select.select([pidfd], [], [], BOOT_TIMEOUT_S)[0]:
            raise ScenarioFailure(f"process {pid} still running after SIGKILL")
    finally:
        os.close(pidfd)


class Victim(ServiceServer):
    """Records any request that reaches it; a successful attack would."""

    def __init__(self) -> None:
        self.hits: list[tuple[str, str]] = []
        super().__init__((LOOPBACK, 0), self._hit, "Victim")
        self.start()

    def _hit(self, request: KitRequest) -> KitResponse:
        self.hits.append((request.method, request.target))
        return KitResponse(200, (), b"victim\n")


Edit = Callable[[KitResponse], KitResponse]


class ScenarioSP(DemoSP):
    """The demo SP, logging to `transcript_path`, that forges a 313 on /evil313 and passes
    each 311 and 312 it answers through `edit`, if given."""

    def __init__(self, transcript_path: Path, edit: Edit | None = None) -> None:
        super().__init__((LOOPBACK, 0))
        self.transcript.close()  # the one this process's environment names, if any
        self.transcript = Transcript(transcript_path, "SP")
        self.edit = edit
        self.start()

    def _handle(self, request: KitRequest) -> KitResponse:
        if (request.method, request.path) == ("GET", "/evil313"):
            target = request.query.get("to") or f"http://{LOOPBACK}:9/"
            headers = (("Location", target), (H_SERVICE, "forged"))
            return KitResponse(BROKER_RESULT, headers, note={"loc": target})
        response = super()._handle(request)
        if self.edit and response.status in (WHITE_PAGES, SERVICE_CALL):
            return self.edit(response)
        return response


def _tamper(handle: str) -> str:
    """Change the middle hex digit, so the text still looks like a handle."""
    mid = len(handle) // 2
    swapped = "a" if handle[mid] != "a" else "b"
    return handle[:mid] + swapped + handle[mid + 1 :]


def without_query(response: KitResponse) -> KitResponse:
    """A 311 that names no query."""
    if response.status != WHITE_PAGES:
        return response
    return response._replace(headers=tuple(f for f in response.headers if f[0] != H_SERVICE))


def tampered_handle(response: KitResponse) -> KitResponse:
    """A 312 that names a tampered handle."""
    if response.status != SERVICE_CALL:
        return response
    fields = [
        (k, json.dumps({"handle": _tamper(json.loads(v)["handle"])}) if k == H_SERVICE else v)
        for k, v in response.headers
    ]
    return response._replace(headers=tuple(fields))


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


class Page(NamedTuple):
    """The response a browser request ended at, after any redirects."""

    status_code: int
    url: str
    text: str


class Browser:
    """A user with scripting enabled, browsing through the proxy.

    Each request goes to the proxy on a fresh connection, with the URL
    as an absolute-form target and Host naming the origin.  Redirects
    are followed: 301/302/303 as a GET without a body, 307/308 as sent.
    Cookies are kept per host, ignoring ports, as browsers do.
    """

    MAX_AUTO_SUBMITS = 6
    MAX_REDIRECTS = 10

    def __init__(self, proxy_netloc: str):
        host, _, port = proxy_netloc.rpartition(":")
        self.proxy = (host, int(port))
        self.cookies: dict[str, dict[str, str]] = {}  # host -> name -> value

    def request(self, method: str, url: str, data: dict[str, str] | None = None) -> Page:
        """Send one request, form-encoding `data` as its body, and follow redirects."""
        headers: dict[str, str] = {}
        body = None
        if data is not None:
            headers["Content-Type"] = "application/x-www-form-urlencoded"
            body = urlencode(data).encode("ascii")
        for _ in range(self.MAX_REDIRECTS + 1):
            page, location = self._exchange(method, url, headers, body)
            if page.status_code not in (301, 302, 303, 307, 308) or location is None:
                return page
            url = urljoin(url, location)
            if page.status_code in (301, 302, 303):
                method, headers, body = "GET", {}, None
        raise ScenarioFailure(f"more than {self.MAX_REDIRECTS} redirects, the last to {url}")

    def _exchange(
        self, method: str, url: str, headers: dict[str, str], body: bytes | None
    ) -> tuple[Page, str | None]:
        parts = urlsplit(url)
        jar = self.cookies.setdefault(parts.hostname or "", {})
        sent = {"Host": parts.netloc, **headers}
        if jar:
            sent["Cookie"] = "; ".join(f"{name}={value}" for name, value in jar.items())
        conn = HTTPConnection(*self.proxy, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, url, body=body, headers=sent)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        for cookie in resp.headers.get_all("Set-Cookie") or ():
            name, _, rest = cookie.partition("=")
            jar[name.strip()] = rest.split(";", 1)[0]
        text = data.decode(resp.headers.get_content_charset() or "utf-8", "replace")
        return Page(resp.status, url, text), resp.getheader("Location")

    def run_flow(self, url: str) -> Page:
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


class ScenarioResult(NamedTuple):
    name: str
    passed: bool
    failures: list[str]
    duration_s: float
    lines: list[str]
    notes: dict[str, Any]
    workdir: Path


class ScenarioContext:
    def __init__(self, name: str, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.ps_dir = workdir / "ps"
        self.ps_dir.mkdir(parents=True)
        self.transcript_path = workdir / "transcript.jsonl"
        self.broker_argv = [*PSVC, "broker", "run", "--ps-dir", str(self.ps_dir)]
        self.parties: list[subprocess.Popen] = []
        self.sp: ScenarioSP | None = None
        self.victim: Victim | None = None
        self.tokens: dict[str, str] = {}  # netloc -> token
        self.notes: dict[str, Any] = {}
        self.sp_netloc = ""
        self.proxy_netloc = ""

    # -- environment -----------------------------------------------------

    def child_env(self) -> dict[str, str]:
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
        return env

    # -- per-user directory ------------------------------------------------

    def write_demo_descriptors(
        self, *, twin: bool = False, service: list[str] | None = None, broker: bool = True
    ) -> None:
        """Write the demo authenticator's descriptor, launching `service` if given, and
        the others asked for."""
        demo = [*PSVC, "demo", "service"]
        table = [
            (True, "cc-personal-service", service or demo, CC_PRESENTATION),
            (twin, "twin-auth-service", demo, TWIN_PRESENTATION),
            (broker, "broker", self.broker_argv, {"Purpose": "service brokering"}),
        ]
        for wanted, stem, cmd, presentation in table:
            if wanted:
                configuration = {"dir": str(self.ps_dir), "cmd": cmd}
                document = {"configuration": configuration, "presentation": presentation}
                (self.ps_dir / f"{stem}.psd").write_text(json.dumps(document), "utf-8")

    # -- booting parties ----------------------------------------------------

    def _boot(self, name: str, argv: list[str], port_file: Path) -> str:
        """Start a party, wait for the port it publishes, and name its netloc.  Its output
        goes to ``<workdir>/<name>.log``: no pipe can fill up and stall it, a kept
        directory holds what it wrote, and a failed boot quotes its end."""
        output = self.workdir / f"{name}.log"
        env = self.child_env()
        with open(output, "wb") as sink:
            proc = launch(argv, self.workdir, name, env=env, stdout=sink, stderr=sink)
        self.parties.append(proc)
        try:
            port = wait_until(
                proc, lambda: read_port_file(port_file), time.monotonic() + BOOT_TIMEOUT_S,
                f"{name} exited with status %d before it was ready",
                f"{name} wrote no port to {port_file}",
            )
        except Refusal as exc:
            tail = output.read_text("utf-8", "replace").splitlines()[-OUTPUT_TAIL_LINES:]
            raise ScenarioFailure(f"{exc.reason}; its output ends:\n" + "\n".join(tail)) from None
        netloc = f"{LOOPBACK}:{port}"
        self.tokens[netloc] = name
        return netloc

    def boot_broker(self) -> str:
        return self._boot("broker", self.broker_argv, self.ps_dir / ENDPOINT_FILE)

    def boot_proxy(self) -> str:
        port_file = self.workdir / "proxy.port"
        argv = [*PSVC, "proxy", "run", "--ps-dir", str(self.ps_dir)]
        argv += ["--listen", f"{LOOPBACK}:0", "--port-file", str(port_file)]
        self.proxy_netloc = self._boot("proxy", argv, port_file)
        return self.proxy_netloc

    def boot_sp(self, edit: Edit | None = None) -> str:
        self.sp = ScenarioSP(self.transcript_path, edit)
        self.sp_netloc = self.sp.netloc
        self.tokens[self.sp_netloc] = "sp"
        return self.sp_netloc

    def boot_all(self, edit: Edit | None = None) -> None:
        """Boot broker, proxy and SP, in that order; `edit` goes to boot_sp."""
        self.boot_broker()
        self.boot_proxy()
        self.boot_sp(edit)

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
        rendered = [e.render() for e in self.events()]
        mapping = dict(self.tokens)
        for spawn in self.spawns():  # read after the events, so it holds every launch they show
            mapping.setdefault(f"{LOOPBACK}:{spawn.detail['port']}", "service")
        return normalize_lines(rendered, mapping)

    def spawns(self) -> list[Event]:
        """The broker's service launches, in order."""
        return [e for e in self.events() if e.direction == SPAWN]

    # -- teardown ---------------------------------------------------------

    def teardown(self) -> None:
        for party in reversed(self.parties):
            stop_process(party)
        # Services are the broker's children; reap any that outlived it.
        for spawn in self.spawns():
            try:
                os.kill(spawn.detail["pid"], signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        for server in (self.sp, self.victim):
            if server is not None:
                server.shutdown()


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


def _run_flow(ctx: ScenarioContext, path: str, *texts: str) -> None:
    """A fresh browser's flow from an SP path must end in a 200 page showing every text."""
    response = ctx.browser().run_flow(ctx.sp_url(path))
    check(response.status_code == 200, f"flow from {path} ended with {response.status_code}")
    for text in texts:
        check(text in response.text, f"page lacks {text!r}: {response.text[:200]!r}")


def _run_auth_flow(ctx: ScenarioContext) -> None:
    _run_flow(ctx, "/", "authenticated as demo-user")


def scenario_eid_auth_happy(ctx: ScenarioContext) -> None:
    """Cookie-less visit authenticates through the personal service."""
    ctx.write_demo_descriptors()
    ctx.boot_all()
    _run_auth_flow(ctx)
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
    ctx.boot_all()
    _run_flow(ctx, "/discover", "1 service(s) available", "Cartão de Cidadão")
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
    ctx.boot_all()

    _run_auth_flow(ctx)
    spawns = ctx.spawns()
    check(len(spawns) == 1, f"first flow should spawn once, saw {len(spawns)}")

    _run_auth_flow(ctx)  # fresh browser: no cookie, full flow again
    check(len(ctx.spawns()) == 1, "second flow must reuse the live process")

    kill_and_wait(spawns[0].detail["pid"])
    _run_auth_flow(ctx)
    spawns = ctx.spawns()
    check(len(spawns) == 2, "killed service must be relaunched")
    check(spawns[1].detail["n"] == 2, "relaunch must increment the launch count")
    ctx.notes["ports"] = [s.detail["port"] for s in spawns]


def scenario_broker_down(ctx: ScenarioContext) -> None:
    """No live broker: the SP still gets an answer, an empty result."""
    ctx.write_demo_descriptors(broker=False)  # nothing to autolaunch either
    (ctx.ps_dir / ENDPOINT_FILE).write_text(str(allocate_port()))  # stale endpoint
    ctx.boot_proxy()
    ctx.boot_sp()
    _run_flow(ctx, "/", "authentication unavailable: no personal service found")
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


def _error_scenario(
    ctx: ScenarioContext, page: str, expected_code: str, edit: Edit | None = None
) -> None:
    """The flow ends on the SP's `page` naming the code, which reached the SP as PSvc-Error."""
    ctx.boot_all(edit)
    _run_flow(ctx, "/", f"{page}: {expected_code}")
    marker = f"in_err={expected_code}"
    check(
        any(l.startswith("SP") and marker in l for l in ctx.lines()),
        f"SP never received PSvc-Error: {expected_code}",
    )


def scenario_error_parameters(ctx: ScenarioContext) -> None:
    """A 311 with no query is answered through the callback with 'parameters'."""
    ctx.write_demo_descriptors()
    _error_scenario(ctx, "authentication unavailable", "parameters", without_query)
    check(
        not any("= HEAD /white" in l for l in ctx.lines()),
        "a malformed directive must not reach the broker",
    )


def scenario_error_ambiguous(ctx: ScenarioContext) -> None:
    """A white query matching two services is refused as 'ambiguous'."""
    ctx.write_demo_descriptors(twin=True)
    _error_scenario(ctx, "authentication unavailable", "ambiguous")


def scenario_error_handle(ctx: ScenarioContext) -> None:
    """A tampered handle is rejected as 'handle'."""
    ctx.write_demo_descriptors()
    _error_scenario(ctx, "authentication failed", "handle", tampered_handle)


def scenario_error_service(ctx: ScenarioContext) -> None:
    """A service that dies at launch is reported as 'service'."""
    ctx.write_demo_descriptors(service=DEAD_SERVICE)
    _error_scenario(ctx, "authentication failed", "service")


def scenario_reject_313(ctx: ScenarioContext) -> None:
    """A 313 forged by an SP is refused; its target is never contacted."""
    ctx.write_demo_descriptors()
    ctx.boot_all()
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
    headers = tuple((f"X-Fidelity-{i:02d}", os.urandom(16).hex()) for i in range(20))
    body = os.urandom(64 * 1024)
    dump_dir = ctx.workdir / "dumps"
    dump_dir.mkdir()

    def attach(response: KitResponse) -> KitResponse:
        if response.status != SERVICE_CALL:
            return response
        return response._replace(headers=response.headers + headers, body=body)

    ctx.write_demo_descriptors(service=[sys.executable, "-c", RECORDING_SERVICE, str(dump_dir)])
    ctx.boot_all(attach)
    _run_auth_flow(ctx)

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
    _run_auth_flow(ctx)
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
    if write_golden and failures:
        failures.append(f"golden {golden_path.name} left unchanged: only a passing run is frozen")
    elif write_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text("".join(line + "\n" for line in lines), "utf-8")
    elif golden_path.exists() and not failures:
        expected = golden_path.read_text("utf-8").splitlines()
        if expected != lines:
            diff = "\n".join(
                unified_diff(expected, lines, "golden", "observed", lineterm="")
            )
            failures.append(f"transcript deviates from golden:\n{diff}")

    result = ScenarioResult(
        name=name,
        passed=not failures,
        failures=failures,
        duration_s=duration,
        lines=lines,
        notes=ctx.notes,
        workdir=workdir,
    )
    if not keep and result.passed:
        shutil.rmtree(workdir, ignore_errors=True)
    return result
