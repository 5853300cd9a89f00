"""One benchmark workload in its own process: build inputs, train, evaluate, check.

Started by run.py, which pins BLAS to one thread and puts the checkout's src/
on PYTHONPATH.  The workload is a closed loop with a single caller: whole
pipelines run one after another, each of the run's datasets at least
MIN_REPEATS times, and more while they fit in --seconds.  Each pipeline is

    setup  generate -> make_init_scores -> split_semi   (the inputs run_em receives)
    train  run_em
    eval   detect + evaluate_detections on test, corloc on train

and every pipeline's outputs are checked.  With --trace 1, untraced and
traced pipelines alternate; the traced ones give the per-layer metrics and
must reproduce the untraced outputs bit for bit.  The report is one JSON line
on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import emdet
from emdet import data, engine, metrics

import tracer

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "benchmarks" / "manifest.json"
MANIFEST_TOL = 1e-9  # the tolerance of the acceptance tests that read the manifest
DEFAULT_SEED = 0
# Run time depends on the data (how many images hold three categories, how
# much NMS work the trained scorer leaves), so one run averages over several
# generated datasets rather than timing one.
DATASETS_PER_RUN = 2
# The shared host slows every process by up to a half, for seconds to minutes
# at a time, and never speeds one up.  Short stalls: each dataset trains at
# least twice and train_s takes the fastest repeat (as timeit does).  Long
# ones: a fixed probe loop, timed right before and after each phase, measures
# the host's speed then, and setup_s and train_s are scaled to the speed at
# which the probe takes PROBE_REFERENCE_S (its fastest reading on a quiet
# 2.1 GHz Xeon vCPU).  The probe runs benchmark code only, so a change to
# emdet moves the scaled times exactly as it moves the wall times.
MIN_REPEATS = 2
PROBE_REFERENCE_S = 0.0145
PROBE_REPEATS = 7
_PROBE_DATA = np.random.default_rng(0).random((60000, 4))


def probe_s() -> float:
    """Fastest of PROBE_REPEATS timings of a fixed numpy and pure-Python loop."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(6):
            np.exp(_PROBE_DATA).sort(axis=0)
        total = 0
        for i in range(60000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class Workload:
    generator: dict  # GeneratorConfig fields beyond the seed
    em: dict  # EmConfig fields beyond the seed
    manifest_run: str | None = None  # manifest runs.<name> reproduced at the default seed


# Why each workload exists and which layers it loads is recorded in README.md.
WORKLOADS = {
    "desk_kem": Workload({}, {"mode": "k_em", "k": 100, "em_iterations": 3}, "k_em"),
    "desk_hard": Workload({}, {"mode": "hard", "k": 100, "em_iterations": 3}, "hard"),
    # 200 proposals put B**3 past engine.OBJECTIVE_GUARD.  The objective trace
    # is off only because it raises GuardError there until the trace is made
    # scale-safe (ROADMAP.md); turning it on is a change to this benchmark.
    "large_kem": Workload({"n_train": 100, "n_test": 50, "proposals_per_image": 200},
                          {"mode": "k_em", "k": 100, "em_iterations": 3,
                           "record_trace": False}),
}


@dataclass(frozen=True)
class Inputs:
    train_strong: data.Dataset
    test: data.Dataset
    init_train: dict
    train_weak: data.Dataset


@dataclass(frozen=True)
class Outcome:
    map: float
    corloc: float
    trace: tuple[float, ...]
    weights: bytes


class CheckFailed(Exception):
    """A pipeline ran but its outputs are wrong."""


def build_inputs(workload: Workload, seed: int) -> Inputs:
    # Generator seed 0 gives the manifest's seeds: generator 0, init 1/2, split 0, EM 0.
    train_strong, test = data.generate(data.GeneratorConfig(seed=seed, **workload.generator))
    init_train = data.make_init_scores(train_strong, seed=seed + 1)
    train_weak = data.split_semi(train_strong, 0.0, seed=seed)
    return Inputs(train_strong, test, init_train, train_weak)


def train(workload: Workload, inputs: Inputs, seed: int) -> engine.EmResult:
    config = engine.EmConfig(seed=seed, **workload.em)
    return engine.run_em(inputs.train_weak, config, init_scores=inputs.init_train)


def evaluate(inputs: Inputs, params) -> tuple[float, float]:
    report = metrics.evaluate_detections(inputs.test, metrics.detect(inputs.test, params))
    _, mean_corloc = metrics.corloc(inputs.train_strong, params)
    return report.mean_ap, mean_corloc


def run_pipeline(workload: Workload, seed: int) -> tuple[dict, Outcome, Inputs]:
    """One pipeline on one dataset: its phase times, checked outputs and inputs.

    The times are wall times, except setup_s and train_s, which are scaled by
    PROBE_REFERENCE_S over the mean probe time around that phase; their wall
    times are setup_wall_s and train_wall_s.
    """
    probes = [probe_s()]
    start = time.perf_counter()
    inputs = build_inputs(workload, seed)
    built = time.perf_counter()
    probes.append(probe_s())
    train_start = time.perf_counter()
    result = train(workload, inputs, seed)
    trained = time.perf_counter()
    probes.append(probe_s())
    eval_start = time.perf_counter()
    mean_ap, mean_corloc = evaluate(inputs, result.params)
    done = time.perf_counter()
    times = {"setup_wall_s": built - start, "train_wall_s": trained - train_start,
             "eval_s": done - eval_start, "probe_s": statistics.median(probes)}
    for phase, (before, after) in (("setup", probes[0:2]), ("train", probes[1:3])):
        times[f"{phase}_s"] = times[f"{phase}_wall_s"] * 2 * PROBE_REFERENCE_S / (before + after)
    return times, Outcome(mean_ap, mean_corloc, tuple(v.total for v in result.trace),
                          result.params.weights.tobytes()), inputs


def init_baseline(inputs: Inputs, seed: int) -> tuple[float, float]:
    """Test mAP and train CorLoc of the raw init scores; called outside the timed phases."""
    init_test = data.make_init_scores(inputs.test, seed=seed + 2)
    report = metrics.evaluate_detections(
        inputs.test, metrics.detections_from_scores(inputs.test, init_test))
    _, mean_corloc = metrics.corloc_from_scores(inputs.train_strong, inputs.init_train)
    return report.mean_ap, mean_corloc


def manifest_record(workload: Workload, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or workload.manifest_run is None:
        return None
    return json.loads(MANIFEST.read_text())["runs"][workload.manifest_run]


def check(outcome: Outcome, baseline: tuple[float, float], recorded: dict | None) -> None:
    """Training must beat the init-score baseline and, where recorded, match the manifest."""
    if not (outcome.map > baseline[0] and outcome.corloc > baseline[1]):
        raise CheckFailed(f"mAP {outcome.map:.4f} / CorLoc {outcome.corloc:.4f} do not beat "
                          f"the init baseline {baseline[0]:.4f} / {baseline[1]:.4f}")
    if recorded is None:
        return
    expected = [recorded["map"], recorded["mean_corloc"], *recorded["objective_trace"]]
    actual = [outcome.map, outcome.corloc, *outcome.trace]
    if len(expected) != len(actual) or any(
            abs(a - e) > MANIFEST_TOL for a, e in zip(actual, expected)):
        raise CheckFailed(f"outputs {actual} differ from the manifest {expected}")


def dataset_seeds(seed: int) -> list[int]:
    """Generator seeds of the datasets one run covers; seed 0 starts with the manifest's."""
    return [seed * DATASETS_PER_RUN + i for i in range(DATASETS_PER_RUN)]


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run pipelines for ``seconds``; return samples, per-layer numbers and failures.

    Untraced, the pipelines cycle over the run's datasets; every dataset runs
    at least MIN_REPEATS times, and no pipeline starts that would likely end
    past ``seconds``.  Traced, untraced and traced pipelines alternate on the
    first dataset, so the traced work counts repeat exactly.
    """
    datasets = dataset_seeds(seed)[:1] if trace else dataset_seeds(seed)
    minimum = 2 if trace else len(datasets) * MIN_REPEATS
    samples = {"setup_s": [], "setup_wall_s": [], "eval_s": [], "probe_s": []}
    train_s: dict[int, list[float]] = {g: [] for g in datasets}
    train_wall_s: dict[int, list[float]] = {g: [] for g in datasets}
    traced_train_s: list[float] = []
    baselines: dict[int, tuple[float, float]] = {}
    outcomes: dict[int, Outcome] = {}  # first outcome per dataset; repeats must match it
    layers: list[dict] = []
    spans: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while attempted < minimum or (
            time.perf_counter() + statistics.median(durations) <= deadline):
        traced = trace and attempted % 2 == 1
        dataset = datasets[attempted % len(datasets)]
        attempted += 1
        began = time.perf_counter()
        try:
            with tracer.Tracer() if traced else contextlib.nullcontext() as spy:
                times, outcome, inputs = run_pipeline(workload, dataset)
            if dataset not in baselines:
                baselines[dataset] = init_baseline(inputs, dataset)
            check(outcome, baselines[dataset], manifest_record(workload, dataset))
            if outcomes.setdefault(dataset, outcome) != outcome:
                raise CheckFailed(f"dataset {dataset}: outputs differ from its first pipeline"
                                  + (" (traced vs untraced)" if trace else ""))
            if traced:
                numbers = tracer.layer_metrics(spy)
                if layers and exact_counts(numbers) != exact_counts(layers[0]):
                    raise CheckFailed("traced work counts differ between traced pipelines")
                layers.append(numbers)
                spans = spy.table()
                traced_train_s.append(times["train_s"])
            else:
                for key, values in samples.items():
                    values.append(times[key])
                train_s[dataset].append(times["train_s"])
                train_wall_s[dataset].append(times["train_wall_s"])
        except Exception as exc:  # a pipeline that raises counts as failed; keep measuring
            failed += 1
            if len(errors) < 5:
                errors.append("".join(traceback.format_exception_only(exc)).strip())
                traceback.print_exc(file=sys.stderr)
        durations.append(time.perf_counter() - began)
    fastest = [min(v) for v in train_s.values() if v]
    fastest_wall = [min(v) for v in train_wall_s.values() if v]
    report = {"attempted": attempted, "failed": failed, "errors": errors,
              "datasets": {g: {"baseline": baselines.get(g),
                               "map": outcomes[g].map if g in outcomes else None,
                               "corloc": outcomes[g].corloc if g in outcomes else None,
                               "manifest": manifest_record(workload, g) is not None,
                               "train_s": train_s[g], "train_wall_s": train_wall_s[g]}
                           for g in datasets},
              "samples": {"setup_s": len(samples["setup_s"]),
                          "train_s": {g: len(v) for g, v in train_s.items()},
                          "traced_train_s": len(traced_train_s)}}
    if trace:
        # Counts are equal in every traced pipeline (checked above); times vary.
        report["metrics"] = {name: statistics.median(run[name] for run in layers)
                             if tracer.is_time(name) else value
                             for name, value in (layers[0] if layers else {}).items()}
        if fastest and traced_train_s:
            report["metrics"]["trace.overhead_pct"] = 100.0 * (
                min(traced_train_s) / fastest[0] - 1.0)
        report["absent"] = tracer.Tracer().absent
        report["spans"] = spans
    else:
        report["metrics"] = {k: statistics.median(v) for k, v in samples.items() if v}
        if fastest:
            # Fastest repeat per dataset, averaged over the run's datasets.
            report["metrics"]["train_s"] = statistics.fmean(fastest)
            report["metrics"]["train_wall_s"] = statistics.fmean(fastest_wall)
        if outcomes:
            report["metrics"]["map"] = statistics.fmean(o.map for o in outcomes.values())
            report["metrics"]["corloc"] = statistics.fmean(o.corloc for o in outcomes.values())
        # RUSAGE_SELF: this workload's own process; ru_maxrss is in KiB on Linux.
        report["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def exact_counts(numbers: dict) -> dict:
    return {k: v for k, v in numbers.items() if not tracer.is_time(k)}


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, when it exposes that."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    src = ROOT / "src"
    if Path(emdet.__file__).resolve().parent.parent != src:
        parser.error(f"emdet was imported from {emdet.__file__}, not from {src}")
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=environment())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
