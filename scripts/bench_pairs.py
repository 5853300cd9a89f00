#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: a parent and a change.

For each pair, runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, with the side that runs first alternating
from pair to pair.  Then prints, per workload, every run's end-to-end metrics
(the ``end_to_end`` list of the change's BENCHMARK.json), each side's median
and quartiles, the pairs the change wins, and whether a gain may be claimed:
the change wins at least nine tenths of the pairs (ties count for neither) and
the medians differ by more than the parent's interquartile range.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload desk_hard --pairs 10 --seconds 36

Each run is a child process started from its checkout's root, so each side
times its own sources.  Nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric: ``parent[i]`` and ``change[i]`` are pair i.

    ``better`` is "lower" or "higher".  ``claim`` holds when the change wins at
    least nine tenths of the pairs and its median beats the parent's by more
    than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_low, p_median, p_high = quartiles(parent)
    c_low, c_median, c_high = quartiles(change)
    gain = sign * (p_median - c_median)
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "parent": (p_low, p_median, p_high), "change": (c_low, c_median, c_high),
            "parent_iqr": p_high - p_low, "gain": gain,
            "claim": 10 * wins >= 9 * len(parent) and gain > p_high - p_low}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``: its metric values by name,
    and its pipeline count as ``pipelines``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"{result['failed']} of {result['attempted']} pipelines")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return values | {"pipelines": result["attempted"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append",
                        help="workload name, repeatable (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="benchmark seeds, cycled over the pairs")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {(w, side): [] for w in workloads for side in sides}
    for pair in range(args.pairs):
        seed = args.seeds[pair % len(args.seeds)]
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                runs[workload, side].append(run_once(sides[side], workload, seed, seconds))
            print(f"pair {pair} seed {seed} {workload} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
    for workload in workloads:
        print(f"== {workload}: {args.pairs} pairs of {seconds:g} s runs, seeds {args.seeds}")
        for side in sides:  # peak_rss_mb grows with the pipelines a run fits in
            print(f"  pipelines per run, {side}: "
                  + " ".join(str(run["pipelines"]) for run in runs[workload, side]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [run[name] for run in runs[workload, "parent"] if name in run]
            change = [run[name] for run in runs[workload, "change"] if name in run]
            if len(parent) != args.pairs or len(change) != args.pairs:
                print(f"  {name}: absent from some runs")
                continue
            summary = summarize(parent, change, metric["better"])
            print(f"  {name} ({metric['unit']}, {metric['better']} is better)")
            print("    parent " + " ".join(f"{v:.4f}" for v in parent))
            print("    change " + " ".join(f"{v:.4f}" for v in change))
            print("    quartiles parent {:.4f} / {:.4f} / {:.4f}, change {:.4f} / {:.4f} / {:.4f}"
                  .format(*summary["parent"], *summary["change"]))
            print(f"    change wins {summary['wins']} of {summary['pairs']} pairs, loses "
                  f"{summary['losses']}; median gain {summary['gain']:+.4f} against parent "
                  f"IQR {summary['parent_iqr']:.4f}; gain rule "
                  + ("holds" if summary["claim"] else "does not hold"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
