#!/usr/bin/env python3
"""sha256 digests of what training and evaluation write, to compare a change with its parent.

    python3 scripts/digests.py --out change.json
    python3 scripts/digests.py --checkout ../parent --out parent.json
    python3 scripts/digests.py --compare parent.json change.json

For every benchmark workload (``WORKLOADS`` of perfbench/pipeline.py), every
generator seed in ``SEEDS`` and every BLAS thread count in ``THREADS``, one
child process builds the workload's
inputs as the benchmark does, trains with ``run_em``, runs ``detect`` on the
test set and ``corloc`` on the training set, and digests:

- the trained weights;
- each objective trace term, strong and weak;
- the ``save_detections`` bytes of the detections;
- mAP and CorLoc, as float64 bytes;
- the state of ``run_em``'s generator after the run;
- for a run with the trace on, the positions and every field of every
  ``objective_plan`` chunk (array bytes, dtype and shape).

The child pins its BLAS threads before numpy loads, as perfbench/run.py does,
and imports emdet and the workloads from ``--checkout`` (default: the checkout
holding this script), so one script digests both sides.  ``--compare`` prints
every key whose digest differs or that one file lacks, and exits 1 if there is
any.  The digests pin nothing absolute: they only say whether two checkouts
write the same bytes on the same host.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 3)
THREADS = (1, 2)


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _array_sha(value) -> str:
    """Digest of an array's dtype, shape and bytes, or of any other value's repr."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return _sha(value.dtype.str.encode(), repr(value.shape).encode(),
                    np.ascontiguousarray(value).tobytes())
    return _sha(repr(value).encode())


def digest_run(workload, seed: int) -> dict[str, str]:
    """The digests of one workload at one generator seed, in this process."""
    import numpy as np
    import pipeline
    from emdet import engine, metrics

    inputs = pipeline.build_inputs(workload, seed)
    generators, plans = [], []
    m_step, objective_plan = engine.m_step, engine.objective_plan
    m_step_rng = inspect.signature(m_step)

    def spy_m_step(*args, **kwargs):
        generators.append(m_step_rng.bind(*args, **kwargs).arguments["rng"])
        return m_step(*args, **kwargs)

    def spy_plan(*args, **kwargs):
        plans.append(objective_plan(*args, **kwargs))
        return plans[-1]

    engine.m_step, engine.objective_plan = spy_m_step, spy_plan
    try:
        result = pipeline.train(workload, inputs, seed)
    finally:
        engine.m_step, engine.objective_plan = m_step, objective_plan
    config = engine.EmConfig(seed=seed, **workload.em)
    rng = generators[-1] if generators else np.random.default_rng(config.seed)

    out = {"weights": _array_sha(result.params.weights),
           "generator": _sha(json.dumps(rng.bit_generator.state, sort_keys=True).encode())}
    for n, value in enumerate(result.trace):
        out[f"trace.{n}.strong"] = _sha(np.float64(value.strong_term).tobytes())
        out[f"trace.{n}.weak"] = _sha(np.float64(value.weak_term).tobytes())
    detections = metrics.detect(inputs.test, result.params)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "detections.jsonl"
        metrics.save_detections(detections, path)
        out["detections"] = _sha(path.read_bytes())
    report = metrics.evaluate_detections(inputs.test, detections)
    out["map"] = _sha(np.float64(report.mean_ap).tobytes())
    out["corloc"] = _sha(np.float64(metrics.corloc(inputs.train_strong, result.params)[1])
                         .tobytes())
    if config.record_trace:
        for p, plan in enumerate(plans):
            for c, (positions, chunk) in enumerate(plan):
                out[f"plan.{p}.{c}.positions"] = _sha(repr(list(positions)).encode())
                for name in type(chunk).__slots__:
                    out[f"plan.{p}.{c}.{name}"] = _array_sha(getattr(chunk, name))
    return out


def _use_checkout(checkout: Path) -> None:
    """Import emdet and the benchmark's pipeline from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import emdet

    if Path(emdet.__file__).resolve().parent.parent != (checkout / "src").resolve():
        raise SystemExit(f"emdet was imported from {emdet.__file__}, not from {checkout}/src")


def run_child(checkout: Path, workload: str, seed: int, threads: int) -> dict[str, str]:
    """digest_run in a child process with ``threads`` BLAS threads."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update({name: str(threads) for name in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--checkout", str(checkout),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Every key whose digest differs or that one side lacks, sorted."""
    return sorted(key for key in parent.keys() | change.keys()
                  if parent.get(key) != change.get(key))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ are digested")
    parser.add_argument("--out", type=Path, help="JSON file to write the digests to")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()

    if args.compare:
        parent, change = (json.loads(path.read_text())["digests"] for path in args.compare)
        differing = compare(parent, change)
        for key in differing:
            print(f"{key}: {parent.get(key, 'absent')} != {change.get(key, 'absent')}")
        print(f"{len(differing)} of {len(parent.keys() | change.keys())} digests differ")
        return 1 if differing else 0

    if args.out is None and not args.child:
        parser.error("--out is required unless --compare is given")
    _use_checkout(checkout)
    import pipeline

    if args.child:
        print(json.dumps(digest_run(pipeline.WORKLOADS[args.workload], args.seed)))
        return 0
    digests = {}
    for workload in pipeline.WORKLOADS:
        for seed in SEEDS:
            for threads in THREADS:
                run = run_child(checkout, workload, seed, threads)
                digests.update({f"{workload}/seed{seed}/blas{threads}/{key}": value
                                for key, value in run.items()})
                print(f"{workload} seed {seed} blas {threads}: {len(run)} digests",
                      file=sys.stderr, flush=True)
    args.out.write_text(json.dumps({"checkout": str(checkout), "digests": digests},
                                   indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
