"""The names the benchmark's tracing launcher patches must exist in psvc.

perfbench/tracer.py wraps functions by module and attribute name; a
rename would otherwise only show up as a failed traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_a_callable():
    targets = load_targets()
    assert targets
    for module_name, path, span_name in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{span_name}: {module_name}.{path} is not a callable"
