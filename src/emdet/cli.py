"""Command-line front end.

Subcommands cover the full workflow: ``gen`` builds the synthetic benchmark,
``train`` runs EM and writes a checkpoint plus an objective trace, ``detect``
and ``eval`` produce detections and VOC-style metrics, ``sweep`` runs the
strong-fraction grid, and ``oracle`` compares the fast E-step and objective
against brute-force enumeration.

Exit codes: 0 success, 1 internal error or failed oracle comparison,
2 usage or input error, 3 enumeration guard violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import sys
import traceback
import typing
from pathlib import Path

import numpy as np

from .data import (Dataset, GeneratorConfig, SchemaError, config_hash,
                   generate, is_integer, is_number, load_dataset, load_init_scores,
                   save_dataset, split_semi)
from .engine import EmConfig, e_step, infer_num_categories, objective, run_em
from .latent import GuardError, center_geometry
from .metrics import corloc, detect, evaluate_detections, save_detections
from .oracle import (brute_marginal_likelihood, brute_posterior, expand,
                     reference_posterior)
from .scorer import load_checkpoint, log_prob_matrix, save_checkpoint

OBJECTIVE_TOL = 1e-9
POSTERIOR_TOL = 1e-12
TRUNCATED_TOL = 1e-9

_EM_FIELDS = {f.name for f in dataclasses.fields(EmConfig)}
_GEN_FIELDS = {f.name for f in dataclasses.fields(GeneratorConfig)}


def _read_json(path: str) -> dict:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return raw


_JSON_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", type(None): "null"}


def _has_json_type(value, kind) -> bool:
    """Whether a parsed JSON value fits a field type; booleans fit only bool,
    integers (data.is_integer) fit int, and numbers (data.is_number) float."""
    if kind is bool:
        return isinstance(value, bool)
    if kind is int:
        return is_integer(value)
    if kind is float:
        return is_number(value)
    return isinstance(value, kind)


def _check_types(raw: dict, hints: dict, path: str) -> None:
    """Raise SchemaError unless every value in raw has its key's type in hints."""
    for key, value in raw.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)
        if not any(_has_json_type(value, kind) for kind in kinds):
            expected = " or ".join(_JSON_NAMES[kind] for kind in kinds)
            raise SchemaError(f"{path}: {key!r} must be {expected}, got {json.dumps(value)}")


def _generator_config(raw: dict, path: str) -> GeneratorConfig:
    unknown = sorted(set(raw) - _GEN_FIELDS)
    if unknown:
        raise SchemaError(f"{path}: unknown generator keys {unknown}")
    _check_types(raw, typing.get_type_hints(GeneratorConfig), path)
    return GeneratorConfig(**raw)


def _em_config(raw: dict, path: str, args: argparse.Namespace,
               extra_types: dict[str, type]) -> tuple[EmConfig, dict]:
    """Split a config file into EmConfig fields and extras typed by ``extra_types``.

    CLI flags override file keys so a single config can drive several runs.
    """
    extras = {k: raw.pop(k) for k in extra_types if k in raw}
    _check_types(extras, extra_types, path)
    unknown = sorted(set(raw) - _EM_FIELDS)
    if unknown:
        raise SchemaError(f"{path}: unknown config keys {unknown}")
    _check_types(raw, typing.get_type_hints(EmConfig), path)
    for name in ("mode", "k", "em_iterations", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    return EmConfig(**raw), extras


def _file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _generator_config(_read_json(args.spec), args.spec)
    train, test = generate(cfg)
    save_dataset(train, args.out_train)
    save_dataset(test, args.out_test)
    out = Path(args.out_train)
    manifest = {
        "seed": cfg.seed,
        "spec_hash": config_hash(cfg),
        "train": str(args.out_train),
        "test": str(args.out_test),
        "train_images": len(train),
        "test_images": len(test),
    }
    manifest_path = out.with_name(out.stem + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(train)} train / {len(test)} test images "
          f"(manifest {manifest_path})")
    return 0


def _write_trace(path: str, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "strong_term", "weak_term", "total"])
        for n, value in enumerate(trace):
            writer.writerow([n, repr(value.strong_term), repr(value.weak_term),
                             repr(value.total)])


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    cfg, extras = _em_config(_read_json(args.config), args.config, args,
                             {"strong_fraction": float, "split_seed": int})
    if "strong_fraction" in extras:
        dataset = split_semi(dataset, float(extras["strong_fraction"]),
                             extras.get("split_seed", 0))
    init_params = init_scores = None
    if args.init_ckpt is not None:
        init_params, _ = load_checkpoint(args.init_ckpt)
    if args.init_scores is not None:
        init_scores = load_init_scores(args.init_scores)
    result = run_em(dataset, cfg, init_params=init_params,
                    init_scores=init_scores)
    meta = {"config": dataclasses.asdict(cfg), "seed": cfg.seed,
            "data_digest": _file_digest(args.data)}
    save_checkpoint(result.params, args.out, meta)
    if args.trace is not None:
        _write_trace(args.trace, result.trace)
    for n, value in enumerate(result.trace):
        print(f"iteration {n}: objective {value.total:.6f} "
              f"(strong {value.strong_term:.6f}, weak {value.weak_term:.6f})")
    print(f"wrote checkpoint {args.out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    params, _ = load_checkpoint(args.ckpt)
    detections = detect(dataset, params)
    save_detections(detections, args.out)
    print(f"wrote {len(detections)} detections to {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    params, _ = load_checkpoint(args.ckpt)
    report = evaluate_detections(dataset, detect(dataset, params))
    if args.corloc:
        report.corloc, report.mean_corloc = corloc(dataset, params)
    Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    line = f"mAP {report.mean_ap:.4f}"
    if report.mean_corloc is not None:
        line += f"  meanCorLoc {report.mean_corloc:.4f}"
    print(line)
    return 0


def _parse_fractions(text: str) -> list[float]:
    fractions = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        value = float(token)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"fraction {value} outside [0, 1]")
        fractions.append(value)
    if not fractions:
        raise ValueError("no fractions given")
    return fractions


def sweep(source: Dataset, test: Dataset, cfg: EmConfig, fractions,
          init_scores: dict | None, split_seed: int) -> list[dict]:
    """One EM run per strong fraction of source: test mAP and source CorLoc.

    Each row holds fraction, map, mean_corloc and seed.
    """
    rows = []
    for fraction in fractions:
        split = split_semi(source, fraction, split_seed)
        result = run_em(split, cfg, init_scores=init_scores)
        report = evaluate_detections(test, detect(test, result.params))
        _, mean_corloc = corloc(source, result.params)
        rows.append({"fraction": fraction, "map": report.mean_ap,
                     "mean_corloc": mean_corloc, "seed": cfg.seed})
        print(f"fraction {fraction:g}: mAP {report.mean_ap:.4f} "
              f"meanCorLoc {mean_corloc:.4f}")
    return rows


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    """Sweep rows as CSV: fraction, mAP, meanCorLoc, seed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "mAP", "meanCorLoc", "seed"])
        for row in rows:
            writer.writerow([f"{row['fraction']:g}", f"{row['map']:.6f}",
                             f"{row['mean_corloc']:.6f}", row["seed"]])


def cmd_sweep(args: argparse.Namespace) -> int:
    source = load_dataset(args.data)
    cfg, extras = _em_config(_read_json(args.config), args.config, args,
                             {"test_data": str, "init_scores": str, "split_seed": int})
    if "test_data" not in extras:
        raise SchemaError(f"{args.config}: sweep config needs a test_data path")
    test = load_dataset(extras["test_data"])
    init_scores = (load_init_scores(extras["init_scores"])
                   if "init_scores" in extras else None)
    rows = sweep(source, test, cfg, _parse_fractions(args.fractions), init_scores,
                 extras.get("split_seed", 0))
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _table_as_dict(table) -> dict[tuple[int, ...], float]:
    centers = table.config_set.centers
    return {tuple(int(v) for v in centers[n]): float(table.weights[n])
            for n in range(centers.shape[0])}


def cmd_oracle(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    params, _ = load_checkpoint(args.ckpt)
    needed = infer_num_categories(dataset)
    if params.num_categories < needed:
        raise ValueError(f"checkpoint covers {params.num_categories} "
                         f"categories, dataset needs {needed}")
    cfg = EmConfig(mode=args.mode, k=args.k, num_categories=params.num_categories)
    weak = [r for r in dataset if r.is_weak]
    if not weak:
        print("dataset has no weak images; nothing to compare")
        return 0

    objective_dev = 0.0
    posterior_dev = 0.0
    mismatches = 0
    truncated_images = 0
    min_captured = 1.0
    for record in weak:
        geometry = center_geometry(record.proposals)
        log_probs = {record.image_id: log_prob_matrix(params, record.features)}
        objective_dev = max(objective_dev, abs(
            objective(Dataset([record]), log_probs, {record.image_id: geometry}, {}).weak_term
            - brute_marginal_likelihood(record, params)))
        fast = _table_as_dict(e_step(record, log_probs[record.image_id], cfg, geometry))
        ref = _table_as_dict(reference_posterior(record, params, cfg))
        if args.mode == "hard":
            # Label-identical configs tie exactly; rounding decides among them.
            labels = [expand(record.annotation.label.categories, centers, record.proposals)
                      for centers in (*fast, *ref)]
            mismatches += not np.array_equal(*labels)
            continue
        if set(fast) != set(ref):
            print(f"image {record.image_id}: fast path and oracle enumerate "
                  f"different config sets ({len(fast)} vs {len(ref)})")
            print("FAIL")
            return 1
        if args.mode == "exact":
            posterior_dev = max(posterior_dev, max(
                abs(fast[key] - ref[key]) for key in ref))
        else:
            scale = max(max(abs(v) for v in ref.values()), 1e-300)
            posterior_dev = max(posterior_dev, max(
                abs(fast[key] - ref[key]) for key in ref) / scale)
            exact = _table_as_dict(brute_posterior(record, params))
            if set(fast) != set(exact):
                truncated_images += 1
            min_captured = min(min_captured,
                               sum(exact[key] for key in fast if key in exact))

    print(f"objective weak-term max |deviation|: {objective_dev:.3e} "
          f"(tolerance {OBJECTIVE_TOL:g})")
    passed = objective_dev <= OBJECTIVE_TOL
    if args.mode == "exact":
        print(f"posterior max |deviation|: {posterior_dev:.3e} "
              f"(tolerance {POSTERIOR_TOL:g})")
        passed &= posterior_dev <= POSTERIOR_TOL
    elif args.mode == "hard":
        print(f"hard argmax mismatches: {mismatches} of {len(weak)} images")
        passed &= mismatches == 0
    else:
        print(f"truncated posterior max relative deviation: {posterior_dev:.3e} "
              f"(tolerance {TRUNCATED_TOL:g})")
        passed &= posterior_dev <= TRUNCATED_TOL
        if truncated_images:
            print(f"truncation active on {truncated_images} of {len(weak)} "
                  f"images; minimum exact-posterior mass kept "
                  f"{min_captured:.4f} (informational)")
        else:
            print(f"k={args.k} keeps every config on all images "
                  f"(truncation vacuous)")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdet",
        description="EM training of proposal scorers from weak labels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the synthetic benchmark")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run EM and write a checkpoint")
    p.add_argument("--data", required=True, help="training dataset JSONL")
    p.add_argument("--config", required=True, help="EM config JSON")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--init-scores", help="external center scores JSON")
    group.add_argument("--init-ckpt", help="checkpoint to start from")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--trace", help="objective trace CSV path")
    p.add_argument("--mode", choices=("exact", "hard", "k_em"))
    p.add_argument("--k", type=int)
    p.add_argument("--em-iterations", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="write detections for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="detections JSONL path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--corloc", action="store_true",
                   help="also report CorLoc (needs box annotations)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="strong-fraction grid over a dataset")
    p.add_argument("--data", required=True, help="fully annotated source JSONL")
    p.add_argument("--config", required=True,
                   help="EM config JSON; must carry a test_data path")
    p.add_argument("--fractions", default="0,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--mode", choices=("exact", "hard", "k_em"))
    p.add_argument("--k", type=int)
    p.add_argument("--em-iterations", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle",
                       help="compare the fast path against brute force")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mode", choices=("exact", "hard", "k_em"),
                   default="exact")
    p.add_argument("--k", type=int, default=100)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
