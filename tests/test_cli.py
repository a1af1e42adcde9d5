"""The party command lines parse; removed flags and unusable values are usage errors."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from psvc import cli
from psvc.scenario import PSVC, ScenarioContext

WORLD = Path(__file__).resolve().parent.parent / "perfbench" / "world.py"


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
