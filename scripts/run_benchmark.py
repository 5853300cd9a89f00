#!/usr/bin/env python3
"""Run the default weak-label benchmark end to end and record the numbers.

Generates the benchmark (seed 0), builds noisy init scores, trains with the
k_em and hard E-steps from the same initialization, runs the k_em
strong-fraction sweep, and evaluates everything on the held-out test split.
Results land in benchmarks/manifest.json, which is the reference record the
acceptance tests compare against (the init-score baseline, both EM runs and
the sweep rows), and the sweep rows also in benchmarks/sweep.csv.
"""

import argparse
import dataclasses
import json
import time
from pathlib import Path

from emdet.cli import sweep, write_sweep_csv
from emdet.data import (GeneratorConfig, config_hash, generate,
                        make_init_scores, split_semi)
from emdet.engine import EmConfig, run_em
from emdet.metrics import (corloc, corloc_from_scores, detect,
                           detections_from_scores, evaluate_detections)

INIT_TRAIN_SEED = 1
INIT_TEST_SEED = 2
FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def em_config(mode):
    return EmConfig(mode=mode, k=100, em_iterations=3, seed=0)


def evaluate_params(params, test, train_strong):
    report = evaluate_detections(test, detect(test, params))
    _, mean_corloc = corloc(train_strong, params)
    return report.mean_ap, mean_corloc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="benchmarks")
    args = parser.parse_args()

    gen_cfg = GeneratorConfig()
    train_strong, test = generate(gen_cfg)
    init_train = make_init_scores(train_strong, seed=INIT_TRAIN_SEED)
    init_test = make_init_scores(test, seed=INIT_TEST_SEED)
    train_weak = split_semi(train_strong, 0.0, seed=0)

    baseline_report = evaluate_detections(
        test, detections_from_scores(test, init_test))
    _, baseline_corloc = corloc_from_scores(train_strong, init_train)
    print(f"init baseline: mAP {baseline_report.mean_ap:.4f} "
          f"meanCorLoc {baseline_corloc:.4f}")

    runs = {}
    for mode in ("k_em", "hard"):
        cfg = em_config(mode)
        start = time.time()
        result = run_em(train_weak, cfg, init_scores=init_train)
        elapsed = time.time() - start
        mean_ap, mean_corloc = evaluate_params(result.params, test,
                                               train_strong)
        runs[mode] = {
            "config": dataclasses.asdict(cfg),
            "map": mean_ap,
            "mean_corloc": mean_corloc,
            "objective_trace": [v.total for v in result.trace],
            "train_seconds": round(elapsed, 2),
        }
        print(f"{mode}: mAP {mean_ap:.4f} meanCorLoc {mean_corloc:.4f} "
              f"({elapsed:.1f}s)")

    # Fraction 0 is the all-weak split the k_em run above trained on; reuse that run.
    k_em = runs["k_em"]
    sweep_rows = [{"fraction": FRACTIONS[0], "map": k_em["map"],
                   "mean_corloc": k_em["mean_corloc"], "seed": k_em["config"]["seed"]}]
    sweep_rows += sweep(train_strong, test, em_config("k_em"), FRACTIONS[1:], init_train,
                        split_seed=0)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest = {
        "generator": dataclasses.asdict(gen_cfg),
        "generator_hash": config_hash(gen_cfg),
        "init_scores": {"noise_sigma": 0.4, "train_seed": INIT_TRAIN_SEED,
                        "test_seed": INIT_TEST_SEED},
        "baseline": {"map": baseline_report.mean_ap,
                     "mean_corloc": baseline_corloc},
        "runs": runs,
        "sweep": sweep_rows,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    write_sweep_csv(sweep_rows, out_dir / "sweep.csv")
    print(f"wrote {manifest_path} and {out_dir / 'sweep.csv'}")

    margin = k_em["map"] - baseline_report.mean_ap
    print(f"k_em improvement over baseline: {margin:+.4f} mAP")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
