#!/usr/bin/env python3
"""emdet benchmark: generate -> init scores/split -> run_em -> detect/evaluate/corloc.

Run from the repository root:

    python3 perfbench/run.py --workload desk_kem --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py        # every workload, end-to-end table

Each workload runs in its own child process (pipeline.py) with BLAS pinned to
one thread, against the emdet sources in src/.  The child runs whole
pipelines for --seconds and checks every one.  This parent prints each metric
by name with its unit and, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One workload run must end within 180 s; the child gets what is left of that.
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed with the others but not JSON metrics: eval takes ~0.2 s on the desk
# workloads, and on a shared 2-core host its run-to-run spread exceeds any
# bound BENCHMARK.json may set (its parts are per_layer metrics); the wall
# times behind the probe-scaled setup_s and train_s; the host probe itself.
PRINTED_ONLY = {"eval_s": "s", "setup_wall_s": "s", "train_wall_s": "s", "probe_s": "s"}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process and return its report."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        raise SystemExit(f"{workload}: child did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def result_line(report: dict, wanted: list[dict]) -> dict:
    """The contract's result object: the wanted metrics, with their units."""
    got = report["metrics"]
    metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in got}
    return {"correct": report["failed"] == 0 and report["attempted"] > 0,
            "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}


def describe(report: dict, result: dict, wanted: list[dict]) -> None:
    """Human-readable lines: environment, checks, every metric with its unit."""
    print(f"== {report['workload']} seed {report['seed']} trace {report['trace']}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for seed, ds in report["datasets"].items():
        baseline = ds["baseline"] or [float("nan")] * 2
        print(f"dataset seed {seed}: mAP {ds['map']} CorLoc {ds['corloc']}; init baseline "
              f"{baseline[0]:.4f} / {baseline[1]:.4f}"
              + ("; checked against benchmarks/manifest.json" if ds["manifest"] else "")
              + "; untraced train_s " + " ".join(f"{t:.4f}" for t in ds["train_s"])
              + " (wall " + " ".join(f"{t:.4f}" for t in ds["train_wall_s"]) + ")")
    print(f"pipelines attempted {report['attempted']} failed {report['failed']} "
          f"fail_rate {report['failed'] / max(report['attempted'], 1):.3f}; "
          f"samples {report['samples']}")
    for error in report["errors"]:
        print(f"error: {error}")
    for span in report.get("spans", []):
        print(f"  span {span['span']:<30} calls {span['calls']:>8} total {span['total_s']:9.4f} s"
              f"  self {span['self_s']:9.4f} s  parents {span['parents']}")
    units = {m["name"]: m["unit"] for m in wanted} | PRINTED_ONLY
    for name, value in report["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"absent (no longer in emdet or no successful pipeline): {', '.join(missing)}")


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload with tracing off, one end-to-end table."""
    wanted = spec["end_to_end"]
    reports, results = {}, {}
    for workload in spec["workloads"]:
        report = reports[workload["name"]] = run_child(workload["name"], seed, seconds, 0)
        results[workload["name"]] = result_line(report, wanted)
        describe(report, results[workload["name"]], wanted)
    names = [m["name"] for m in wanted] + list(PRINTED_ONLY)
    print(f"{'workload':<12}" + "".join(f"{n:>14}" for n in names + ["fail_rate"]))
    for workload, report in reports.items():
        values = [report["metrics"].get(n, float("nan")) for n in names]
        values.append(report["failed"] / report["attempted"])
        print(f"{workload:<12}" + "".join(f"{v:>14.6g}" for v in values))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if args.workload == "all":
        if args.trace:
            parser.error("--trace 1 needs a single --workload")
        return run_all(spec, args.seed, args.seconds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = run_child(args.workload, args.seed, args.seconds, args.trace)
    result = result_line(report, wanted)
    describe(report, result, wanted)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
