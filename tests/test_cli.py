"""The command lines the scenarios and the benchmark build parse, and removed flags do not."""

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
    ctx = ScenarioContext("cli", workdir)
    ctx.boot_broker()
    ctx.boot_proxy()
    ctx.boot_sp(
        wp_query={"Purpose": "authentication"},
        fault="tamper-handle",
        extras_file=workdir / "extras.json",
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
    assert json.loads(queries[-1]) == {"Purpose": "authentication"}


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
