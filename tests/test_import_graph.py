"""A spawned service, the proxy, the catalog and the scenarios import only what they run,
no party needs a package from outside the standard library, and none loads
``dataclasses``.  A party loads ``logging`` only for a record it keeps, and
its records read as the CLI formats them.

Every launch on demand starts a fresh interpreter for the service, so
each module on its import path is paid for once per launch.  Each check
imports in a fresh interpreter and compares against that interpreter's
own starting sys.modules, so modules the site hook loads do not count.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CLI_PARTIES, write_echo_descriptor

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports psvc from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def added_modules(*names: str, blocked: tuple[str, ...] = ()) -> set[str]:
    """The modules that importing `names` adds to a fresh interpreter.

    Each module in `blocked` is made unimportable first, as if absent.
    """
    script = (
        "import sys\n"
        + "".join(f"sys.modules[{name!r}] = None\n" for name in blocked)
        + "before = set(sys.modules)\n"
        f"import {', '.join(names)}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    return set(fresh_python(script).stdout.split())


def within(modules: set[str], *packages: str) -> set[str]:
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)}


# kit serves HTTP and the proxy speaks it upstream on their own; no party loads these.
HTTP_LIBRARIES = ("http.server", "http.client", "email", "ssl", "socketserver")


def test_a_kit_service_loads_nothing_the_other_parties_need():
    added = added_modules("psvc.cli", "psvc.demo.service")
    assert {"psvc.kit", "psvc.transcript"} <= added
    unwanted = within(
        added,
        "psvc.protocol", "psvc.registry", "psvc.broker",
        "dataclasses", "secrets", "hmac", "hashlib", "tempfile",
        # cli.main hands `demo service` its own argv; logging and json load on first use.
        "argparse", "logging", "json",
        *HTTP_LIBRARIES,
    )
    assert unwanted == set()


def test_a_service_launched_by_module_loads_no_cli_and_no_html():
    # The launch route the descriptors name: `python -m psvc demo service PORT`.
    script = (
        "import runpy, sys\n"
        "sys.argv = ['psvc', 'demo', 'service', 'nope']\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    runpy.run_module('psvc', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    print('exit', stop.code)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    refusal, _, modules = fresh_python(script).stdout.partition("exit 2\n")
    assert refusal == "cannot start: last argument 'nope' is not a port number\n"
    added = set(modules.split())
    assert {"psvc.demo.service", "psvc.kit"} <= added
    assert within(added, "psvc.cli", "html", "argparse", "logging", "json") == set()


def test_a_raising_handler_gets_a_500_and_a_traceback_with_no_logging_configured():
    script = (
        "import socket, sys\n"
        "from psvc.kit import ServiceServer\n"
        "def handler(request):\n"
        "    raise KeyError('missing')\n"
        "server = ServiceServer(('127.0.0.1', 0), handler, 'Test')\n"
        "server.start()\n"
        "print('logging' in sys.modules)\n"
        "with socket.create_connection(('127.0.0.1', server.port), timeout=10) as sock:\n"
        "    sock.sendall(b'GET / HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n')\n"
        "    reply = b''\n"
        "    while chunk := sock.recv(65536):\n"
        "        reply += chunk\n"
        "server.shutdown()\n"
        "print(reply.partition(b'\\r\\n')[0].decode())\n"
    )
    done = fresh_python(script)
    assert done.stdout.splitlines() == ["False", "HTTP/1.1 500 Internal Server Error"]
    assert "GET /: the handler raised" in done.stderr
    assert "Traceback" in done.stderr
    assert "KeyError: 'missing'" in done.stderr


def test_the_broker_loads_no_http_library():
    added = added_modules("psvc.cli", "psvc.broker.server")
    assert {"psvc.kit", "psvc.broker.server"} <= added
    assert within(added, *HTTP_LIBRARIES) == set()


def test_the_proxy_loads_no_http_library():
    added = added_modules("psvc.cli", "psvc.proxy")
    assert {"psvc.kit", "psvc.proxy"} <= added
    assert within(added, *HTTP_LIBRARIES) == set()


def test_the_proxy_loads_no_broker():
    added = added_modules("psvc.proxy")
    assert {"psvc.proxy", "psvc.kit", "psvc.protocol"} <= added
    # subprocess loads only when the proxy launches a broker.
    unwanted = within(
        added, "psvc.broker", "cryptography", "secrets", "hmac", "hashlib", "subprocess"
    )
    assert unwanted == set()


def test_the_catalog_loads_no_http_server_and_no_wire_protocol():
    added = added_modules("psvc.registry")
    assert "psvc.registry" in added
    assert within(added, "http.server", "psvc.kit", "psvc.protocol") == set()


def test_the_scenarios_load_no_broker_and_no_third_party_client():
    added = added_modules("psvc.scenario", blocked=("requests",))
    assert "psvc.scenario" in added
    assert within(added, "requests", "urllib3", "psvc.broker", "cryptography") == set()


def test_no_party_loads_a_third_party_package():
    added = added_modules(
        "psvc.cli", "psvc.broker.server", "psvc.proxy", "psvc.demo.sp", "psvc.scenario"
    )
    assert {"psvc.broker.handles", "psvc.proxy", "psvc.demo.sp", "psvc.scenario"} <= added
    outside = {m.partition(".")[0] for m in added} - set(sys.stdlib_module_names) - {"psvc"}
    assert outside == set()


def test_no_party_loads_dataclasses():
    # Records are NamedTuples: dataclasses would bring inspect, ast and dis along.
    added = added_modules(
        "psvc.cli", "psvc.broker.server", "psvc.proxy", "psvc.demo.sp", "psvc.scenario"
    )
    assert "psvc.broker.server" in added
    assert within(added, "dataclasses", "inspect", "ast", "dis") == set()


def test_no_party_loads_html():
    # kit.escape does what html.escape does; only the scenario browser parses HTML.
    added = added_modules(
        "psvc.cli", "psvc.broker.server", "psvc.proxy", "psvc.demo.sp", "psvc.demo.service"
    )
    assert {"psvc.broker.server", "psvc.proxy", "psvc.demo.sp", "psvc.demo.service"} <= added
    assert within(added, "html") == set()


# -- parties started through cli.main, and what they log ----------------------

# Runs `cli.main(argv[2:])` with the per-user directory argv[1].  Once the party
# serves, it prints which of WATCHED it has loaded, as JSON; with LAUNCH set it then
# has the broker launch the `auth` service (a /white, then a /resolve) and prints
# them again, with the service's endpoint.  Then it stops the party with SIGTERM.
PARTY_SCRIPT = r"""
import json, os, signal, socket, sys, threading, time
START = set(sys.modules)
from psvc import cli

WATCHED = ("logging", "traceback", "subprocess")
LAUNCH = os.environ.get("LAUNCH")

def loaded():
    return [m for m in WATCHED if m in sys.modules and m not in START]

def head(target, service):
    from psvc.kit import STATUS_LINE, Stream, header_value, read_endpoint_file, read_head

    with socket.create_connection(read_endpoint_file(sys.argv[1]), timeout=10) as sock:
        sock.sendall(
            f"HEAD {target} HTTP/1.1\r\nPSvc-Service: {service}\r\n"
            "PSvc-Callback: http://sp.test/cb\r\nReferer: sp.test\r\n\r\n".encode()
        )
        return header_value(read_head(Stream(sock, 10), STATUS_LINE)[1], "PSvc-Service")

def drive():
    # The handler is set just before it listens, and the broker writes broker.ept after.
    ept = os.path.join(sys.argv[1], "broker.ept")
    while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL or LAUNCH and not os.path.exists(ept):
        time.sleep(0.01)
    seen = {"serving": loaded()}
    if LAUNCH:
        from psvc.protocol import decode_broker_result

        handle = decode_broker_result(head("/white", '{"Purpose": "authentication"}'))
        seen["service"] = head("/resolve?ref=r", handle.response["handle"])
        seen["launched"] = loaded()
    print(json.dumps(seen), flush=True)
    os.kill(os.getpid(), signal.SIGTERM)

threading.Thread(target=drive, daemon=True).start()
sys.exit(cli.main(sys.argv[2:]))
"""

# The line format cli.main gives a record: asctime, name, levelname, message.
CLI_LINE = r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3} %s %s %s"


def run_cli_party(ps_dir: Path, *argv: str, launch: bool = False) -> tuple[dict, str]:
    """What PARTY_SCRIPT prints for `psvc <argv>` (the modules it saw), and the party's stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LAUNCH": "1" if launch else ""}
    done = subprocess.run(
        [sys.executable, "-c", PARTY_SCRIPT, str(ps_dir), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    if launch:  # the broker stopped the service it launched before it exited
        host, port = seen.pop("service").split(":")
        assert host == "127.0.0.1"
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), timeout=5).close()
    return seen, done.stderr


@pytest.mark.parametrize("party", CLI_PARTIES)
def test_a_cli_run_party_that_keeps_no_record_loads_no_logging(tmp_path, party):
    argv = [arg.format(ps_dir=tmp_path) for arg in CLI_PARTIES[party]]
    seen, stderr = run_cli_party(tmp_path, *argv)
    assert stderr == ""
    # Nor subprocess: the broker loads it at its first launch, the proxy at a broker's.
    assert seen["serving"] == []


def test_the_broker_loads_subprocess_at_its_first_launch_and_drops_its_info_record(tmp_path):
    write_echo_descriptor(tmp_path, "auth", {"Purpose": "authentication"})
    seen, stderr = run_cli_party(tmp_path, "broker", "run", "--ps-dir", str(tmp_path), launch=True)
    assert seen == {"serving": [], "launched": ["subprocess"]}
    assert stderr == ""  # the INFO line `launching auth ...` is kept only under -v


def test_verbose_prints_the_launch_line(tmp_path):
    write_echo_descriptor(tmp_path, "auth", {"Purpose": "authentication"})
    seen, stderr = run_cli_party(
        tmp_path, "-v", "broker", "run", "--ps-dir", str(tmp_path), launch=True
    )
    assert "logging" in seen["serving"]
    line = CLI_LINE % (r"psvc\.broker\.runtime", "INFO", r"launching auth on port \d+: \[")
    assert re.match(line, stderr), stderr


def test_a_warning_reaches_stderr_in_the_cli_format(tmp_path):
    (tmp_path / "bad.psd").write_text("{")
    seen, stderr = run_cli_party(tmp_path, "broker", "run", "--ps-dir", str(tmp_path))
    assert "logging" in seen["serving"]  # loaded for the warning
    line = CLI_LINE % (r"psvc\.registry", "WARNING", r"skipping bad\.psd: invalid JSON: .*\n")
    assert re.fullmatch(line, stderr), stderr


def test_logging_a_caller_configured_gets_psvc_info_records(tmp_path):
    script = (
        "import logging, sys\n"
        "logging.basicConfig(level=logging.INFO, stream=sys.stdout,\n"
        "                    format='%(name)s %(levelname)s %(funcName)s %(message)s')\n"
        "from psvc.broker.core import Broker\n"
        f"Broker({str(tmp_path)!r}).resolve_handle('nope', 'sp.test', 'r')\n"
    )
    assert fresh_python(script).stdout == (
        "psvc.broker.core INFO resolve_handle rejected handle from sp.test: no such handle\n"
    )
