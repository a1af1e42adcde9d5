"""Run alternated parent/change pairs of each checkout's unchanged benchmark.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--workload W ...]
        [--pairs 5] [--seconds 20] [--seed 1] [--trace 0] [--out runs.json]

Both directories are full checkouts.  Each runs its own command from the
change's BENCHMARK.json (``python3 perfbench/run.py``) with ``--workload W
--seed N --seconds S --trace T``, from its own root.  Pair i uses seed
``--seed + i`` on both sides, back to back; the parent runs first in even
pairs, the change in odd ones.  Before every run every ``__pycache__`` under
that checkout is removed, and the run gets ``PYTHONDONTWRITEBYTECODE=1``, so
each run compiles psvc the same way and no run leaves bytecode to the next.

The final JSON line of every run is kept; ``--out`` writes them with the
summary and each side's ``src_lines``.  The summary prints, per workload and
metric, both medians, how many pairs the change won, the parent's
interquartile range and, for an end-to-end metric, how much worse the
change's median is than the parent's, against the metric's bound.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clear_bytecode(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def src_lines(root: Path) -> int:
    """Every line of every .py file under src/, as perfbench/run.py counts them."""
    return sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py"))


def run_once(root: Path, command: list[str], workload: str, seed: int, args) -> dict:
    """One benchmark run in `root`; its rc and final JSON line (None when it printed none)."""
    clear_bytecode(root)
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    proc = subprocess.run(
        argv, cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=args.seconds * 10 + 600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"rc": proc.returncode, "result": result}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and metric: medians, change wins, parent quartiles, worsening vs bound."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_side = {
            side: {
                run["seed"]: run["result"]["metrics"]
                for run in runs
                if run["workload"] == workload and run["side"] == side and run["result"]
            }
            for side in ("parent", "change")
        }
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        rows = summary[workload] = {}
        for name, spec in metrics.items():
            if not all(name in by_side[side][s] for side in by_side for s in seeds) or not seeds:
                continue
            parent = [by_side["parent"][s][name]["value"] for s in seeds]
            change = [by_side["change"][s][name]["value"] for s in seeds]
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            row = {
                "pairs": len(seeds),
                "parent_median": p_med,
                "parent_quartiles": quartiles(parent),
                "change_median": c_med,
                "change_quartiles": quartiles(change),
                "change_better_in": wins,
                "parent_runs": parent,
                "change_runs": change,
            }
            if "bound" in spec:
                worse = sign * (c_med - p_med) / abs(p_med) + 0.0 if p_med else 0.0
                row.update(worse_by=worse, bound=spec["bound"], within_bound=worse <= spec["bound"])
            rows[name] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text("utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench.get("per_layer", [])}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], bench["command"], workload, seed, args)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "trace": args.trace, **run})
                result = run["result"] or {}
                print(f"{workload} seed {seed} {side}: rc {run['rc']}, "
                      f"correct {result.get('correct')}, failed {result.get('failed')}",
                      file=sys.stderr, flush=True)

    summary = summarize(runs, metrics)
    for workload, rows in summary.items():
        for name, row in rows.items():
            q1, q3 = row["parent_quartiles"]
            line = (f"{workload:13} {name:34} parent {row['parent_median']:10.4f} "
                    f"[{q1:.4f}, {q3:.4f}]  change {row['change_median']:10.4f}  "
                    f"better in {row['change_better_in']}/{row['pairs']}")
            if "bound" in row:
                verdict = "within" if row["within_bound"] else "OVER"
                line += f"  worse by {row['worse_by']:+.2%} ({verdict} {row['bound']:.0%})"
            print(line)
    bad = [r for r in runs if r["rc"] != 0 or not (r["result"] or {}).get("correct")]
    for run in bad:
        print(f"incorrect run: {run['workload']} seed {run['seed']} {run['side']}, rc {run['rc']}")
    if args.out:
        lines = {side: src_lines(root) for side, root in sides.items()}
        document = {"command": bench["command"], "src_lines": lines,
                    "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(document, indent=1) + "\n", "utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
