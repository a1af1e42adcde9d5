"""psvc benchmark: browser flows through broker, proxy, demo SP and service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each party is a separate
``python -m psvc ...`` process on loopback, importing psvc from this
checkout's src/.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import probes
import spans
from world import (
    CATALOG_SIZE, DEMO_CATALOG, SIGNIN_YP_QUERY, Browser, World, class_queries,
    cpu_s, discover_outcome, generate_catalog, host_cpu_ticks, kill_service, read_service_pid, rss_mb,
    service_configuration, signin_outcome, write_catalog, write_demo_service,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_BASE = ROOT / ".bench_run"

SETUP_REPEATS = 6
# The timed loop is cut into this many windows.  Windows during which the
# hypervisor took CPU time from this machine (steal) are left out of the
# loop's figures; see quiet().
WINDOWS = 10
# A window or set-up counts as quiet when its steal share is at most the
# quietest one's plus this much.
STEAL_SLACK = 0.02
# Timed discovery ops come in blocks of one narrow and two medium ops,
# shuffled by the seed.  The weights are a design choice, not a model of
# real traffic: with 1:2 the median and p90 fall inside the medium
# cluster, away from the edge between two clusters.
DISCOVER_BLOCK = ["narrow", "medium", "medium"]
# A broad listing is over 64 KiB, which the proxy cannot pass on today
# (see README.md), so every broad op fails.  The timed loop, where any
# failure makes the run incorrect, leaves the class out.  Each discovery
# run sends this many broad ops after its loop instead, and reports how
# many failed; they count in neither `attempted` nor `failed`.
BROAD_PROBES = 6


# Every workload runs one closed-loop client.  Two clients saturate a
# 2-vCPU host, and queueing then magnifies the host's own speed changes
# until run-to-run spread exceeds any usable regression bound.
@dataclass(frozen=True)
class Workload:
    kind: str  # "signin" or "discover"
    kill_service: bool = False


WORKLOADS = {
    "signin-warm": Workload("signin"),
    "signin-cold": Workload("signin", kill_service=True),
    "discover-10k": Workload("discover"),
}


@dataclass
class Inputs:
    """Everything made from the seed; the program sees only the files."""

    workload: Workload
    run_dir: Path
    rng: random.Random
    presentations: dict[str, dict] = field(default_factory=dict)
    queries: dict[str, dict] = field(default_factory=dict)
    schedule: list[str] = field(default_factory=list)

    def write(self, tracer: Path | None) -> None:
        ps_dir = self.run_dir / "ps"
        if not ps_dir.exists():
            if self.workload.kind == "signin":
                write_catalog(ps_dir, DEMO_CATALOG)
            else:
                self.presentations = generate_catalog(self.rng, CATALOG_SIZE)
                self.queries = class_queries(self.rng, self.presentations)
                for _ in range(500):
                    block = list(DISCOVER_BLOCK)
                    self.rng.shuffle(block)
                    self.schedule += block
                write_catalog(ps_dir, self.presentations)
        write_demo_service(ps_dir, service_configuration(self.run_dir, tracer))

    def sp_queries(self) -> dict[str, dict | None]:
        if self.workload.kind == "signin":
            return {"sp": None}
        return {f"sp-{cls}": spec["query"] for cls, spec in self.queries.items()}


@dataclass
class Record:
    start: float
    end: float
    outcome: str  # ok | failed | wrong
    dropped: bool
    cls: str


def run_op(world, inputs: Inputs, cls: str) -> Record:
    """One op of class `cls`: a whole sign-in or discovery page, then its check."""
    browser = Browser(world.proxy_port)
    if cls == "signin":
        url = f"http://{world.sp_netlocs['sp']}/"
    else:
        url = f"http://{world.sp_netlocs['sp-' + cls]}/discover"
    start = time.perf_counter()
    dropped = False
    try:
        page = browser.visit(url)
    except (OSError, http.client.HTTPException):
        page, dropped = None, True
    end = time.perf_counter()
    if page is None:
        outcome = "failed"
    elif cls == "signin":
        outcome = signin_outcome(browser, page)
    else:
        outcome = discover_outcome(page, inputs.queries[cls]["expected"])
    return Record(start, end, outcome, dropped, cls)


@dataclass
class Window:
    """A stretch of the timed loop, cut between two ops."""

    records: list[Record]
    wall: float  # seconds
    cpu: float  # CPU seconds of broker, proxy and service
    steal: float  # the host's steal share of CPU time


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    (steal0, total0), (steal1, total1) = before, after
    return (steal1 - steal0) / max(total1 - total0, 1)


def quiet(items: list, steal) -> list:
    """The items whose steal share is within STEAL_SLACK of the quietest
    one's; the quieter half when fewer qualify."""
    ranked = sorted(items, key=steal)
    calm = sum(steal(x) <= steal(ranked[0]) + STEAL_SLACK for x in ranked)
    return ranked[:max(calm, (len(ranked) + 1) // 2)]


def boot(world, inputs: Inputs) -> tuple[float, float]:
    """Start every party and finish the warm-up op; return the seconds
    taken and the host's steal share meanwhile."""
    ticks, start = host_cpu_ticks(), time.perf_counter()
    world.boot()
    warm = run_op(world, inputs, "signin" if inputs.workload.kind == "signin" else "narrow")
    if warm.outcome != "ok":
        raise RuntimeError(f"warm-up op ended {warm.outcome}; see {world.run_dir / 'logs'}")
    return time.perf_counter() - start, steal_share(ticks, host_cpu_ticks())


def closed_loop(world, inputs: Inputs, seconds: float, windows: int = 1) -> list[Window]:
    """One client: each op starts when the previous one is done.

    The loop is cut into windows of equal length; a window ends with the
    op during which its time ran out.
    """
    out: list[Window] = []
    index = 0
    start = time.perf_counter()
    for k in range(1, windows + 1):
        ticks, cpu, opened = host_cpu_ticks(), cpu_s(system_pids(world)), time.perf_counter()
        records: list[Record] = []
        while not records or time.perf_counter() < start + seconds * k / windows:
            if inputs.workload.kill_service:
                kill_service(world.run_dir)
            cls = inputs.schedule[index % len(inputs.schedule)] if inputs.schedule else "signin"
            records.append(run_op(world, inputs, cls))
            index += 1
        out.append(Window(records, time.perf_counter() - opened,
                          cpu_s(system_pids(world)) - cpu, steal_share(ticks, host_cpu_ticks())))
    return out


def broad_probe(world, inputs: Inputs) -> list[Record]:
    """The known-failing broad class, outside the timed loop."""
    if inputs.workload.kind != "discover":
        return []
    return [run_op(world, inputs, "broad") for _ in range(BROAD_PROBES)]


def ops(windows: list[Window]) -> list[Record]:
    return [r for w in windows for r in w.records]


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latencies_ms(records: list[Record]) -> list[float]:
    """Every attempted op counts, a failed one until it failed, so that an
    op turning from failed to ok changes its own time, not the population."""
    return sorted((r.end - r.start) * 1e3 for r in records)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def make_world(inputs: Inputs, tracer: Path | None):
    if tracer is None:
        argv = [sys.executable, "-m", "psvc"]
    else:
        spans_file = inputs.run_dir / "spans-{name}.json"
        argv = [sys.executable, str(tracer), "--spans", str(spans_file), "--"]
    return World(inputs.run_dir, argv, inputs.sp_queries())


def summarize(timed: list[Record], probe: list[Record]) -> dict:
    """`attempted` and `failed` cover the timed ops; a wrong answer
    anywhere, the broad probe included, makes the run incorrect."""
    return {
        "attempted": len(timed),
        "failed": sum(r.outcome != "ok" for r in timed),
        "wrong": sum(r.outcome == "wrong" for r in timed + probe),
        "dropped": sum(r.dropped for r in timed + probe),
    }


def system_pids(world: World) -> list[int]:
    """The user's side of psvc: broker, proxy and the live service, if any."""
    pids = world.party_pids("broker", "proxy")
    service = read_service_pid(world.run_dir)
    if service is not None:
        pids.append(service[0])
    return pids


def loop_metrics(windows: list[Window]) -> dict[str, float]:
    """Throughput, latency and CPU cost over the quiet windows of a loop."""
    kept = quiet(windows, lambda w: w.steal)
    timed = ops(kept)
    lat = latencies_ms(timed)
    print(f"windows (steal): {' '.join(f'{100 * w.steal:.1f}%' for w in windows)}; "
          f"{len(timed)} ops in the {len(kept)} quietest, p99 {percentile(lat, 99):.3f} ms")
    return {
        "ops_per_s": sum(r.outcome == "ok" for r in timed) / sum(w.wall for w in kept),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": percentile(lat, 90),
        "cpu_ms_per_op": sum(w.cpu for w in kept) * 1e3 / len(timed),
    }


# Wall-clock figures of the loop.  Each run prints them, and the traced run
# records them, but they are not gated: a tenant taking this VM's CPU for
# minutes stretches them by a third or more, beyond any usable bound
# (README.md).
UNGATED = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def run_untraced(inputs: Inputs, seconds: float) -> tuple[dict, dict]:
    inputs.write(tracer=None)
    setups = []
    world = None
    try:
        for _ in range(SETUP_REPEATS):
            if world is not None:
                world.stop()
            world = make_world(inputs, None)
            setups.append(boot(world, inputs))
        windows = closed_loop(world, inputs, seconds, WINDOWS)
        memory = rss_mb(system_pids(world))
        probe = broad_probe(world, inputs)
    finally:
        if world is not None:
            world.stop()

    records = ops(windows)
    counts = summarize(records, probe)
    print("set-ups (s @ steal): " + " ".join(f"{t:.3f}@{100 * st:.0f}%" for t, st in setups))
    loop = loop_metrics(windows)
    print(f"ops {counts['attempted']}, failed_share {counts['failed'] / counts['attempted']:.4f}, "
          f"dropped {counts['dropped']}, wrong {counts['wrong']}")
    class_failures(records + probe)
    for name, unit in UNGATED.items():
        print(f"{name:34} {loop[name]:14.6f} {unit} (not gated)")
    metrics = {
        "setup_s": (statistics.median(t for t, _ in quiet(setups, lambda s: s[1])), "s"),
        "ok_share": ((counts["attempted"] - counts["failed"]) / counts["attempted"], "ratio"),
        "cpu_ms_per_op": (loop["cpu_ms_per_op"], "ms"),
        "rss_mb": (memory, "MB"),
    }
    return counts, metrics


def class_failures(records: list[Record]) -> dict[str, int]:
    """Print ops, failures and median latency per class; return the failures."""
    by_class: dict[str, list[Record]] = {}
    for r in records:
        by_class.setdefault(r.cls, []).append(r)
    for cls, group in sorted(by_class.items()):
        bad = sum(r.outcome != "ok" for r in group)
        print(f"class {cls}: {len(group)} ops, {bad} failed, "
              f"p50 {statistics.median(latencies_ms(group)):.3f} ms")
    return {cls: sum(r.outcome != "ok" for r in group) for cls, group in by_class.items()}


def run_traced(inputs: Inputs, seconds: float) -> tuple[dict, dict]:
    """An untraced loop of `seconds`, then a traced one of half as long."""
    inputs.write(tracer=None)
    world = make_world(inputs, None)
    try:
        boot(world, inputs)
        plain_windows = closed_loop(world, inputs, seconds, WINDOWS)
        probe = broad_probe(world, inputs)
    finally:
        world.stop()
    plain = ops(plain_windows)

    tracer = HERE / "tracer.py"
    inputs.write(tracer=tracer)
    world = make_world(inputs, tracer)
    try:
        boot(world, inputs)
        window = (time.perf_counter_ns(), 0)
        traced = ops(closed_loop(world, inputs, seconds / 2))
        window = (window[0], time.perf_counter_ns())
        first_sp = next(iter(world.sp_netlocs.values()))
        yp_query = inputs.queries["narrow"]["query"] if inputs.queries else SIGNIN_YP_QUERY
        metrics_raw = probes.round_trips(world.broker_port, first_sp, yp_query)
    finally:
        world.stop()

    if inputs.workload.kind == "discover":
        presentations, queries = inputs.presentations, inputs.queries
    else:  # the sweep always probes a 10k catalog made from the seed
        presentations = generate_catalog(inputs.rng, CATALOG_SIZE)
        queries = class_queries(inputs.rng, presentations)
        shutil.rmtree(inputs.run_dir / "ps")
        write_catalog(inputs.run_dir / "ps", presentations)
    metrics_raw.update(probes.sweep(inputs.run_dir, presentations, queries))
    metrics_raw.update(spans.layer_metrics(inputs.run_dir, window, len(traced)))

    records = plain + traced
    counts = summarize(records, probe)
    plain_p50 = statistics.median(latencies_ms(plain))
    traced_p50 = statistics.median(latencies_ms(traced))
    metrics_raw["proxy.dropped"] = counts["dropped"]
    metrics_raw["trace.op_p50_ms"] = traced_p50
    metrics_raw["trace.overhead_p50_ms"] = traced_p50 - plain_p50
    metrics_raw["op_p99_ms"] = percentile(latencies_ms(plain), 99)
    loop = loop_metrics(plain_windows)
    metrics_raw.update((name, loop[name]) for name in UNGATED)
    failures = class_failures(records + probe)
    for cls in ("narrow", "medium", "broad"):
        metrics_raw[f"discover.failed_{cls}"] = failures.get(cls, 0)
    metrics_raw["src_lines"] = src_lines()
    print(f"tracing overhead on op_p50_ms: {traced_p50 - plain_p50:+.3f} ms "
          f"({plain_p50:.3f} untraced, {traced_p50:.3f} traced)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for entry in spec["per_layer"]:
        if entry["name"] not in metrics_raw:
            raise RuntimeError(f"per-layer metric {entry['name']} was not measured")
        metrics[entry["name"]] = (metrics_raw[entry["name"]], entry["unit"])
    return counts, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop every party.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "psvc" / "__init__.py").is_file():
        print(f"no psvc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # This process and every child import psvc from this checkout, whatever
    # their working directory; timed runs keep the transcript off.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ.pop("PSVC_TRANSCRIPT", None)

    run_dir = RUN_BASE / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = Inputs(WORKLOADS[args.workload], run_dir, random.Random(args.seed))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"logs in {run_dir.relative_to(ROOT)}; src_lines {src_lines()}")
    try:
        if args.trace:
            counts, metrics = run_traced(inputs, args.seconds)
        else:
            counts, metrics = run_untraced(inputs, args.seconds)
    finally:
        shutil.rmtree(run_dir / "ps", ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:14.6f} {unit}")
    if counts["wrong"] or counts["failed"]:
        print(f"incorrect: {counts['failed']} timed ops failed, {counts['wrong']} wrong answers")
    result = {
        "correct": counts["wrong"] == 0 and counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
