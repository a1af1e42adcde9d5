"""Inputs, parties and the browser the benchmark drives.

Everything here talks to psvc from outside: descriptor files on disk,
``python -m psvc ...`` child processes, and HTTP over loopback.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from html.parser import HTMLParser
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlencode, urljoin, urlsplit

BOOT_TIMEOUT_S = 15.0
REQUEST_TIMEOUT_S = 15.0
STOP_TIMEOUT_S = 5.0

# The demo authenticator's name, as in the scenario runner's catalog.
CC_PRESENTATION = {
    "Purpose": "authentication",
    "Credentials": "digital signature",
    "Protocol": "certificate + digital signature",
    "Device": "Portuguese eID",
    "Device name": "Cartão de Cidadão",
}
TWIN_PRESENTATION = {"Purpose": "authentication", "Device": "Other eID"}
# The small demo catalog: the authenticator (written with its launch
# command by write_demo_service) plus a twin the sign-in query excludes.
DEMO_CATALOG = {"twin-auth-service": TWIN_PRESENTATION}
CC_ID = "cc-personal-service"
SIGNIN_WP_QUERY = {"Purpose": "authentication", "Device": "Portuguese eID"}
SIGNIN_YP_QUERY = {"Purpose": "authentication"}

# Generated catalog: each attribute gives one selectivity class.  With
# 10k descriptors, a Vendor value is held by ~5 of them, a Region value
# by ~250 and a Purpose value by ~2000.  A name is ~100 bytes of JSON,
# so a medium listing stays under http.client's 64 KiB header line and
# a broad one is well over it.
CATALOG_SIZE = 10_000
CLASS_ATTRIBUTE = {"narrow": "Vendor", "medium": "Region", "broad": "Purpose"}
CLASS_VALUES = {"narrow": 2000, "medium": 40, "broad": 5}
CLASS_BOUNDS = {"narrow": (1, 10), "medium": (100, 500), "broad": (1100, CATALOG_SIZE)}


# -- inputs -----------------------------------------------------------------


def _write_descriptor(ps_dir: Path, stem: str, configuration: dict, presentation: dict) -> None:
    doc = {"configuration": configuration, "presentation": presentation}
    (ps_dir / f"{stem}.psd").write_text(json.dumps(doc), "utf-8")


def service_configuration(run_dir: Path, tracer: Path | None) -> dict:
    """Launch the demo service through sh, which records "pid port" first.

    With a tracer, the service runs under it and writes its spans to
    spans-service-<pid>.json in the run directory.
    """
    q = shlex.quote
    pid_file, tmp = q(str(run_dir / "service.pid")), q(str(run_dir / "service.pid.tmp"))
    if tracer is None:
        launch = f"{q(sys.executable)} -m psvc"
    else:
        launch = f"{q(sys.executable)} {q(str(tracer))} --spans {q(str(run_dir))}/spans-service-$$.json --"
    script = f'echo "$$ $1" >{tmp} && mv {tmp} {pid_file} && exec {launch} demo service "$@"'
    return {"dir": str(run_dir), "cmd": ["sh", "-c", script, "sh"]}


def generated_presentation(rng: random.Random, index: int) -> dict:
    return {
        "Purpose": f"purpose-{rng.randrange(CLASS_VALUES['broad'])}",
        "Device": f"device-{index:05d}",
        "Vendor": f"vendor-{rng.randrange(CLASS_VALUES['narrow']):04d}",
        "Region": f"region-{rng.randrange(CLASS_VALUES['medium']):02d}",
    }


def generate_catalog(rng: random.Random, size: int) -> dict[str, dict]:
    """descriptor id -> presentation for the generated services."""
    return {f"svc-{i:05d}": generated_presentation(rng, i) for i in range(size)}


def write_catalog(ps_dir: Path, presentations: dict[str, dict]) -> None:
    """Write generated descriptors; they are never resolved, so never launched."""
    ps_dir.mkdir(parents=True, exist_ok=True)
    for stem, presentation in presentations.items():
        _write_descriptor(ps_dir, stem, {"cmd": ["false"]}, presentation)


def write_demo_service(ps_dir: Path, service_conf: dict) -> None:
    """The launchable demo authenticator, which every catalog holds."""
    ps_dir.mkdir(parents=True, exist_ok=True)
    _write_descriptor(ps_dir, CC_ID, service_conf, CC_PRESENTATION)


def _random_case(rng: random.Random, text: str) -> str:
    return rng.choice([text, text.upper(), text.lower(), text.capitalize()])


def yellow_oracle(presentations: dict[str, dict], query: dict) -> int:
    """Brute-force count of names matching a one-attribute string query."""
    (attribute, value), = query.items()
    attribute, value = attribute.casefold(), value.casefold()
    return sum(
        any(k.casefold() == attribute and isinstance(v, str) and v.casefold() == value
            for k, v in name.items())
        for name in presentations.values()
    )


def class_queries(rng: random.Random, presentations: dict[str, dict]) -> dict[str, dict]:
    """One yellow query per selectivity class, with its expected count."""
    out = {}
    for cls, attribute in CLASS_ATTRIBUTE.items():
        low, high = CLASS_BOUNDS[cls]
        counts: dict[str, int] = {}
        for name in presentations.values():
            counts[name[attribute]] = counts.get(name[attribute], 0) + 1
        values = sorted(v for v, n in counts.items() if low <= n <= high)
        value = rng.choice(values)
        query = {_random_case(rng, attribute): _random_case(rng, value)}
        out[cls] = {"query": query, "expected": yellow_oracle(presentations, query)}
    return out


# -- parties ------------------------------------------------------------------


class Party:
    """One psvc process in its own session, output drained to a log file.

    It inherits this process's environment, whose PYTHONPATH run.py sets.
    """

    def __init__(self, name: str, argv: list[str], *, cwd: Path, log_dir: Path):
        self.name = name
        log_dir.mkdir(parents=True, exist_ok=True)
        with open(log_dir / f"{name}.log", "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=cwd, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # The broker's services share its process group; end any stragglers
        # and wait until the group is empty.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:
                time.sleep(0.01)
                os.killpg(self.proc.pid, 0)
        except ProcessLookupError:
            pass


def wait_for_text(path: Path, deadline: float, parties: list[Party]) -> str:
    while True:
        try:
            text = path.read_text().strip()
        except OSError:
            text = ""
        if text:
            return text
        for party in parties:
            if party.proc.poll() is not None:
                raise RuntimeError(f"{party.name} exited with {party.proc.returncode} during boot")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{path.name} never appeared")
        time.sleep(0.005)


def read_service_pid(run_dir: Path) -> tuple[int, int] | None:
    try:
        pid, port = (run_dir / "service.pid").read_text().split()
    except (OSError, ValueError):
        return None
    return int(pid), int(port)


def kill_service(run_dir: Path) -> None:
    """Stop the launched service and wait until it has exited.

    Waiting on a pidfd (the service is the broker's child, not ours)
    means the broker's next liveness check already sees it dead.
    """
    found = read_service_pid(run_dir)
    if found is None:
        raise RuntimeError("no launched service to kill")
    try:
        pidfd = os.pidfd_open(found[0])
    except ProcessLookupError:
        return
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGTERM)
        if not select.select([pidfd], [], [], STOP_TIMEOUT_S)[0]:
            raise RuntimeError(f"service {found[0]} still running after SIGTERM")
    finally:
        os.close(pidfd)


def cpu_s(pids: list[int]) -> float:
    """CPU time of the given processes plus the children they have reaped.

    The broker reaps each service it relaunches, so a killed service's
    CPU time moves into the broker's children fields.
    """
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += sum(int(f) for f in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine so far.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; a high share explains a slow run.
    """
    with open("/proc/stat") as fh:
        ticks = [int(f) for f in fh.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def rss_mb(pids: list[int]) -> float:
    """Resident memory of the given processes, in MiB."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as fh:
            total += int(fh.read().split()[1]) * page
    return total / 2**20


@dataclass
class World:
    """One boot of broker, proxy and demo SPs over a prepared ps dir."""

    run_dir: Path
    party_argv: list[str]  # python -m psvc, or the tracing launcher
    sp_queries: dict[str, dict | None]  # SP name -> yellow query (None: default)
    parties: list[Party] = field(default_factory=list)
    proxy_port: int = 0
    broker_port: int = 0
    sp_netlocs: dict[str, str] = field(default_factory=dict)

    def boot(self) -> None:
        ps_dir = self.run_dir / "ps"
        for stale in [ps_dir / "broker.ept", *self.run_dir.glob("*.port"), self.run_dir / "service.pid"]:
            stale.unlink(missing_ok=True)
        logs = self.run_dir / "logs"

        def start(name: str, args: list[str]) -> None:
            argv = [a.replace("{name}", name) for a in self.party_argv] + args
            self.parties.append(Party(name, argv, cwd=self.run_dir, log_dir=logs))

        port_file = lambda name: str(self.run_dir / f"{name}.port")  # noqa: E731
        start("broker", ["broker", "run", "--ps-dir", str(ps_dir), "--port-file", port_file("broker")])
        start("proxy", ["proxy", "run", "--listen", "127.0.0.1:0", "--ps-dir", str(ps_dir),
                        "--port-file", port_file("proxy")])
        for name, query in self.sp_queries.items():
            extra = ["--yp-query", json.dumps(query)] if query else []
            start(name, ["demo", "sp", "--listen", "127.0.0.1:0", "--port-file", port_file(name), *extra])

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        self.broker_port = int(wait_for_text(self.run_dir / "broker.port", deadline, self.parties))
        self.proxy_port = int(wait_for_text(self.run_dir / "proxy.port", deadline, self.parties))
        for name in self.sp_queries:
            port = wait_for_text(self.run_dir / f"{name}.port", deadline, self.parties)
            self.sp_netlocs[name] = f"127.0.0.1:{port}"
        wait_for_text(ps_dir / "broker.ept", deadline, self.parties)

    def party_pids(self, *names: str) -> list[int]:
        return [p.proc.pid for p in self.parties if p.name in names]

    def stop(self) -> None:
        for party in self.parties:
            party.terminate()
        for party in self.parties:
            party.wait()
        self.parties.clear()


# -- browser --------------------------------------------------------------


class _AutoForm(HTMLParser):
    """First form marked data-autosubmit, with its named inputs."""

    def __init__(self) -> None:
        super().__init__()
        self.form: dict | None = None
        self._open = False

    def handle_starttag(self, tag: str, attrs) -> None:
        attrs = dict(attrs)
        if tag == "form" and self.form is None and attrs.get("data-autosubmit") == "1":
            self.form = {"action": attrs.get("action", ""),
                         "method": (attrs.get("method") or "GET").upper(), "fields": {}}
            self._open = True
        elif tag == "input" and self._open and attrs.get("name") is not None:
            self.form["fields"][attrs["name"]] = attrs.get("value", "")

    def handle_endtag(self, tag: str) -> None:
        if tag == "form":
            self._open = False


def auto_form(body: bytes) -> dict | None:
    parser = _AutoForm()
    parser.feed(body.decode("utf-8", "replace"))
    return parser.form


@dataclass
class Page:
    status: int
    url: str
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> str | None:
        return next((v for k, v in self.headers if k.lower() == name.lower()), None)


def http_exchange(host_port: tuple[str, int], method: str, target: str,
                  headers: dict[str, str], body: bytes | None = None) -> Page:
    """One request on a fresh connection, read to the end."""
    conn = HTTPConnection(*host_port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, target, body=body, headers=headers)
        resp = conn.getresponse()
        data = b"" if method == "HEAD" else resp.read()
        return Page(resp.status, target, resp.getheaders(), data)
    finally:
        conn.close()


class Browser:
    """A scripting browser behind the proxy: follows redirects, auto-submits
    forms, keeps one cookie jar (per host, ignoring ports, as browsers do)."""

    MAX_STEPS = 12

    def __init__(self, proxy_port: int):
        self.proxy = ("127.0.0.1", proxy_port)
        self.cookies: dict[str, str] = {}
        self.requests = 0

    def request(self, method: str, url: str, form: dict | None = None) -> Page:
        headers = {"Host": urlsplit(url).netloc, "Accept": "text/html"}
        if self.cookies:
            headers["Cookie"] = "; ".join(f"{k}={v}" for k, v in self.cookies.items())
        body = None
        if form is not None:
            body = urlencode(form).encode("ascii")
            headers["Content-Type"] = "application/x-www-form-urlencoded"
        self.requests += 1
        page = http_exchange(self.proxy, method, url, headers, body)
        for key, value in page.headers:
            if key.lower() == "set-cookie":
                name, _, rest = value.partition("=")
                self.cookies[name.strip()] = rest.split(";", 1)[0]
        return page

    def visit(self, url: str) -> Page:
        """GET a page, then follow it the way a browser with scripts would."""
        page = self.request("GET", url)
        for _ in range(self.MAX_STEPS):
            location = page.header("Location")
            if page.status in (301, 302, 303, 307) and location:
                page = self.request("GET", urljoin(page.url, location))
                continue
            form = auto_form(page.body) if page.status == 200 else None
            if form is None:
                return page
            page = self.request(form["method"], urljoin(page.url, form["action"]), form["fields"])
        return page


_COUNT = re.compile(rb"<p>(\d+) service\(s\) available</p>")
_MEMBER = re.compile(rb"authenticated as ([^<]*)</p>")


def signin_outcome(browser: Browser, page: Page) -> str:
    """"ok", "failed" (error page) or "wrong" (a result that is not right)."""
    member = _MEMBER.search(page.body) if page.status == 200 else None
    if member is None:
        return "failed"
    if member.group(1) != b"demo-user" or "psvc_auth" not in browser.cookies:
        return "wrong"
    return "ok"


def discover_outcome(page: Page, expected: int) -> str:
    found = _COUNT.search(page.body) if page.status == 200 else None
    if found is None:
        return "failed"
    return "ok" if int(found.group(1)) == expected else "wrong"
