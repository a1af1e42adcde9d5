"""Per-layer metrics from the span files the tracing launcher writes.

All parties share the host's monotonic clock, so the bench's timed
window (perf_counter_ns) selects the spans of the timed ops.  Ratios per
op use that window; layer times use every span, which includes the
direct round trips made after the window.

A timing with no spans is left out, so run.py reports it as not
measured instead of reading it as zero.  Counts may be zero: every
target was patched, so no span means the call did not happen.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import TARGETS


def load(path: Path) -> tuple[list[dict], list[str]]:
    """The spans of one file, and the span names its party patched."""
    doc = json.loads(path.read_text())
    return [dict(zip(doc["fields"], row)) for row in doc["spans"]], doc["patched"]


def self_ns(span: dict, children: list[dict]) -> int:
    """Span duration minus the part of it its direct children cover."""
    covered, reach = 0, span["start_ns"]
    for child in sorted(children, key=lambda c: c["start_ns"]):
        start, end = max(child["start_ns"], reach), min(child["end_ns"], span["end_ns"])
        if end > start:
            covered += end - start
            reach = end
    return span["end_ns"] - span["start_ns"] - covered


class Process:
    """The spans of one party process."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[dict]] = {}
        for span in spans:
            self.children.setdefault(span["parent"], []).append(span)

    def named(self, name: str, window: tuple[int, int] | None = None) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name
            and (window is None or (window[0] <= s["start_ns"] and s["end_ns"] <= window[1]))
        ]

    def durations(self, name: str, window=None) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.named(name, window)]

    def self_times(self, name: str) -> list[float]:
        return [self_ns(s, self.children.get(s["id"], [])) / 1e6 for s in self.named(name)]

    def has_child(self, span: dict, name: str) -> bool:
        return any(c["name"] == name for c in self.children.get(span["id"], []))


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def layer_metrics(run_dir: Path, window: tuple[int, int], ops: int) -> dict[str, float]:
    procs, patched = {}, set()
    for path in run_dir.glob("spans-*.json"):
        recorded, names = load(path)
        procs[path.stem.removeprefix("spans-")] = Process(recorded)
        patched.update(names)
    missing = sorted({name for _, _, name in TARGETS} - patched)
    if missing:
        raise RuntimeError(f"tracer targets found in no party: {', '.join(missing)}")
    proxy, broker = procs["proxy"], procs["broker"]
    per_op = 1 / max(ops, 1)
    m: dict[str, float | None] = {}

    # Summed over the browser requests of an op, then averaged per op.
    transactions = proxy.named("proxy.transaction", window)
    m["proxy.transaction_ms"] = sum(s["end_ns"] - s["start_ns"] for s in transactions) / 1e6 * per_op
    m["proxy.self_ms"] = sum(
        self_ns(s, proxy.children.get(s["id"], [])) for s in transactions) / 1e6 * per_op
    m["proxy.upstream_connects_per_op"] = len(proxy.named("proxy.send_request", window)) * per_op
    m["proxy.broker_probes_per_op"] = len(proxy.named("proxy.broker_probe", window)) * per_op
    m["proxy.broker_endpoint_ms"] = median(proxy.durations("proxy.broker_endpoint"))

    m["broker.serve_white_ms"] = median(broker.self_times("broker.serve_white"))
    m["broker.serve_yellow_ms"] = median(broker.self_times("broker.serve_yellow"))
    m["broker.resolve_handle_ms"] = median(broker.self_times("broker.resolve_handle"))
    m["handles.rejected"] = sum(s["error"] is not None for s in broker.named("handles.open"))

    matches = broker.named("registry.list_matching", window) + broker.named(
        "registry.list_matching_white", window)
    sizes = [s["size"] for s in matches if s["size"] is not None]
    m["registry.names_per_query"] = statistics.mean(sizes) if sizes else None
    m["runtime.spawns"] = len(broker.named("runtime.wait_connectable", window))
    m["runtime.ensure_live_us"] = median([
        (s["end_ns"] - s["start_ns"]) / 1e3
        for s in broker.named("runtime.ensure_live")
        if not broker.has_child(s, "runtime.wait_connectable")
    ])
    emits = sum(len(p.named("transcript.emit", window)) for p in procs.values())
    m["transcript.events_per_op"] = emits * per_op
    return {name: value for name, value in m.items() if value is not None}
