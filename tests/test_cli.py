"""The party command lines parse; removed flags and unusable values are usage errors.

The demo service starts by every route, with or without the parser.  A party
run from the command line stops cleanly on SIGTERM, even one sent as its port
appears, and the demo service on SIGINT, even one sent as its port first
accepts; a launched demo service ends by SIGTERM itself.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from psvc import cli
from psvc.kit import (
    ENDPOINT_FILE,
    STOP_TIMEOUT_S,
    allocate_port,
    launch,
    stop_process,
    wait_until,
)
from psvc.scenario import PSVC, ScenarioContext

from conftest import CLI_PARTIES, http_exchange

ROOT = Path(__file__).resolve().parent.parent
WORLD = ROOT / "perfbench" / "world.py"


def benchmark_argvs(monkeypatch, run_dir: Path) -> list[list[str]]:
    """The psvc arguments perfbench/world.py starts each party with."""
    spec = importlib.util.spec_from_file_location("perfbench_world", WORLD)
    world = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, world)  # its dataclasses look it up
    spec.loader.exec_module(world)
    started: list[list[str]] = []
    monkeypatch.setattr(world, "Party", lambda name, argv, **_: started.append(argv))
    monkeypatch.setattr(world, "wait_for_text", lambda *_: "1")
    queries = {"sp": None, "sp-narrow": {"Purpose": "authentication"}}
    world.World(run_dir=run_dir, party_argv=["psvc"], sp_queries=queries).boot()
    return [argv[1:] for argv in started]


def scenario_argvs(monkeypatch, workdir: Path) -> list[list[str]]:
    """The psvc arguments the scenario runner starts each party with."""
    started: list[list[str]] = []

    def boot(self, name, argv, port_file, env=None):
        started.append(argv[len(PSVC):])
        return "127.0.0.1:1"

    monkeypatch.setattr(ScenarioContext, "_boot", boot)
    extras = workdir / "extras.json"
    extras.write_text(json.dumps({"headers": [["X-Extra", "1"]], "body_b64": "aGk="}))
    ctx = ScenarioContext("cli", workdir)
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp(
        wp_query={"Purpose": "authentication"},
        fault="tamper-handle",
        extras_file=extras,
    )
    return started


@pytest.mark.parametrize("source", [benchmark_argvs, scenario_argvs])
def test_every_party_command_line_parses(source, monkeypatch, tmp_path):
    argvs = source(monkeypatch, tmp_path)
    commands = [cli.build_parser().parse_args(argv) for argv in argvs]
    broker, proxy, *sps = commands
    assert broker.func is cli._cmd_broker_run
    assert Path(broker.ps_dir) == tmp_path / "ps"
    assert proxy.func is cli._cmd_proxy_run
    assert proxy.listen == ("127.0.0.1", 0)
    assert proxy.port_file
    assert sps and all(sp.func is cli._cmd_demo_sp for sp in sps)
    assert all(sp.listen == ("127.0.0.1", 0) and sp.port_file for sp in sps)
    queries = [sp.wp_query or sp.yp_query for sp in sps]
    assert queries[-1] == {"Purpose": "authentication"}


@pytest.mark.parametrize(
    "removed", [["--port", "1"], ["--handle-max-age", "5"]], ids=["port", "handle-max-age"]
)
def test_removed_broker_flags_are_usage_errors(removed, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["broker", "run", "--ps-dir", str(tmp_path), *removed])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_per_user_directory_defaults_to_home(monkeypatch, tmp_path):
    monkeypatch.setenv("PSVC_HOME", str(tmp_path))
    args = cli.build_parser().parse_args(["broker", "run"])
    assert args.ps_dir == str(Path.home() / ".PS")


@pytest.mark.parametrize(
    "argv",
    [
        ["proxy", "run", "--listen", "127.0.0.1:70000"],
        ["demo", "sp", "--listen", "127.0.0.1:70000"],
        ["demo", "sp", "--wp-query", "nope"],
        ["demo", "sp", "--yp-query", "[1, 2]"],
        ["demo", "sp", "--invoke-extras", "no-such-file.json"],
    ],
    ids=["proxy-port", "sp-port", "wp-query", "yp-query", "extras"],
)
def test_unusable_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(argv)  # parsed only: a wrongly accepted value never serves
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_invoke_extras_are_decoded_where_the_flag_is_declared(tmp_path):
    extras = tmp_path / "extras.json"
    extras.write_text(json.dumps({"headers": [["X-A", "1"], ["X-A", "2"]], "body_b64": "aGk="}))
    args = cli.build_parser().parse_args(["demo", "sp", "--invoke-extras", str(extras)])
    assert args.invoke_extras == ((("X-A", "1"), ("X-A", "2")), b"hi")
    assert cli.build_parser().parse_args(["demo", "sp"]).invoke_extras == ((), b"")


# Every way to start the demo service: cli.main given a list (as the console
# script and perfbench/tracer.py call it), python -m psvc, and through the
# parser, which any flag before the command (-v here) takes.
SERVICE_ROUTES = {
    "cli-main": [
        sys.executable, "-c", "import sys; from psvc import cli; sys.exit(cli.main(sys.argv[1:]))"
    ],
    "python-m": PSVC,
    "parser": [*PSVC, "-v"],
}


def psvc_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_psvc(route: str, *args: str, **popen) -> subprocess.Popen:
    return subprocess.Popen([*SERVICE_ROUTES[route], *args], env=psvc_env(), **popen)


def wait_listening(proc: subprocess.Popen, port: int) -> None:
    def connectable() -> bool:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return True
        except OSError:
            return False

    exited = "the service exited with %d"
    wait_until(proc, connectable, time.monotonic() + 20, exited, "the service never listened")


@pytest.mark.parametrize("route", SERVICE_ROUTES)
def test_demo_service_serves_by_every_route(route):
    port = allocate_port()
    proc = run_psvc(route, "demo", "service", str(port), stdout=subprocess.DEVNULL)
    try:
        wait_listening(proc, port)
        status, _, body = http_exchange(f"127.0.0.1:{port}", "GET", "/auth")
    finally:
        stop_process(proc)
    assert (status, body) == (403, b"only proxy-built invocations are served here\n")


@pytest.mark.parametrize("party", [*CLI_PARTIES, "broker-ept"])
def test_a_party_sent_sigterm_as_its_port_appears_exits_0(party, tmp_path):
    # Its handlers are set before it listens and publishes, so it still shuts down.
    # The broker-ept case watches the broker's own broker.ept, with no --port-file.
    for trial in range(3):
        ps_dir = tmp_path / f"ps-{trial}"
        ps_dir.mkdir()
        if party == "broker-ept":
            argv, port_file = CLI_PARTIES["broker"], ps_dir / ENDPOINT_FILE
        else:
            port_file = tmp_path / f"port-{trial}"
            argv = [*CLI_PARTIES[party], "--port-file", str(port_file)]
        argv = [arg.format(ps_dir=ps_dir) for arg in argv]
        proc = run_psvc("python-m", *argv, stdout=subprocess.DEVNULL)
        try:
            while not os.path.exists(port_file):  # no sleep: SIGTERM follows at once
                assert proc.poll() is None, f"{party} exited {proc.returncode} unpublished"
            proc.terminate()
            assert proc.wait(timeout=STOP_TIMEOUT_S) == 0
        finally:
            stop_process(proc)


def test_a_demo_service_sent_sigint_as_its_port_first_accepts_exits_0(tmp_path):
    # Its SIGINT handler is set before it listens, so the first connection a launcher's
    # readiness probe gets already finds a service that can shut down.
    for _ in range(5):
        port = allocate_port()
        proc = launch([*PSVC, "demo", "service", str(port)], tmp_path, "demo", env=psvc_env())
        try:
            while True:  # no sleep: SIGINT follows the first accepted connect at once
                assert proc.poll() is None, f"the service exited {proc.returncode}"
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1).close()
                    break
                except OSError:
                    pass
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=STOP_TIMEOUT_S) == 0
        finally:
            stop_process(proc)


def test_a_launched_demo_service_ends_by_sigterm_itself(tmp_path):
    # The service keeps SIGTERM's default action on purpose.  Made graceful (SIGTERM
    # as KeyboardInterrupt, then shutdown() and a normal exit), each service life cost
    # 10.5-13.6 ms more CPU, nearly all interpreter finalization (73.5 -> 84.0 ms over
    # 12 alternated runs on a 2-vCPU VM), and stopping took 11.5-13.2 ms instead of
    # about 1.2 ms.  The benchmark's signin-cold workload stops one service per sign-in.
    port = allocate_port()
    proc = launch([*PSVC, "demo", "service", str(port)], tmp_path, "demo", env=psvc_env())
    try:
        wait_listening(proc, port)
        proc.terminate()
        assert proc.wait(timeout=STOP_TIMEOUT_S) == -signal.SIGTERM
    finally:
        stop_process(proc)


@pytest.mark.parametrize(
    "argv",
    [["demo", "service", "nope"], ["demo", "service"], ["-v", "demo", "service", "70000"]],
    ids=["not-a-port", "no-port", "parser"],
)
def test_demo_service_without_a_usable_port_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out.startswith("cannot start: ")


def test_python_m_psvc_demo_service_without_a_port_exits_2():
    proc = run_psvc("python-m", "demo", "service", "nope", stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == "cannot start: last argument 'nope' is not a port number\n"


def test_demo_help_lists_the_service(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["demo", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "{sp,service}" in out
    assert "mock eID authenticator (port as last argument)" in out
