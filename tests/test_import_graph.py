"""A spawned service, the proxy, the catalog and the scenarios import only what they run,
no party needs a package from outside the standard library, and none loads
``dataclasses``.

Every launch on demand starts a fresh interpreter for the service, so
each module on its import path is paid for once per launch.  Each check
imports in a fresh interpreter and compares against that interpreter's
own starting sys.modules, so modules the site hook loads do not count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
    unwanted = within(added, "psvc.broker", "cryptography", "secrets", "hmac", "hashlib")
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
