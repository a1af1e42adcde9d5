"""Full multi-process flows, each checked against its frozen transcript."""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

import pytest

import psvc
from psvc.scenario import (
    SCENARIOS,
    Party,
    ScenarioContext,
    ScenarioFailure,
    run_scenario,
    wait_for_file,
)
from psvc.transcript import SPAWN


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario(name):
    result = run_scenario(name)
    if not result.passed:
        report = "\n".join(result.failures)
        transcript = "\n".join(result.lines)
        pytest.fail(f"{name}:\n{report}\n\ntranscript:\n{transcript}")


def test_child_env_imports_the_running_package_from_any_cwd(tmp_path, monkeypatch):
    # A relative entry, as `PYTHONPATH=src` is from the repository root.
    package_root = Path(psvc.__file__).resolve().parent.parent
    monkeypatch.chdir(package_root.parent)
    monkeypatch.setenv("PYTHONPATH", package_root.name)
    ctx = ScenarioContext("import-path", tmp_path)
    child = subprocess.run(
        [sys.executable, "-c", "import psvc; print(psvc.__file__)"],
        cwd=tmp_path,
        env=ctx.child_env(),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert child.returncode == 0, child.stderr
    assert Path(child.stdout.strip()).resolve() == Path(psvc.__file__).resolve()


def test_boot_wait_reports_a_child_that_died(tmp_path):
    ctx = ScenarioContext("early-exit", tmp_path)
    party = Party(
        "doomed",
        [sys.executable, "-c", "print('doomed-marker', flush=True); raise SystemExit(7)"],
        ctx.child_env(),
        tmp_path,
    )
    ctx.parties.append(party)
    try:
        with pytest.raises(ScenarioFailure) as failure:
            wait_for_file(tmp_path / "never.port", party)
    finally:
        ctx.teardown()
    message = str(failure.value)
    assert "doomed exited with status 7" in message
    assert "doomed-marker" in message


def test_concurrent_sign_ins_all_succeed_with_one_spawn(tmp_path):
    ctx = ScenarioContext("concurrent-sign-in", tmp_path)
    failures: list[str] = []

    def sign_in(times: int) -> None:
        for _ in range(times):
            try:
                page = ctx.browser().run_flow(ctx.sp_url("/"))
                if "authenticated as demo-user" not in page.text:
                    failures.append(f"{page.status_code}: {page.text[:200]!r}")
            except Exception as exc:
                failures.append(repr(exc))

    try:
        ctx.write_demo_descriptors()
        ctx.boot_broker()
        ctx.boot_proxy()
        ctx.boot_sp()
        clients = [threading.Thread(target=sign_in, args=(5,)) for _ in range(8)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(120)
        assert not any(client.is_alive() for client in clients)
        spawns = [e for e in ctx.events() if e.direction == SPAWN]
    finally:
        ctx.teardown()
    assert failures == []
    assert len(spawns) == 1
