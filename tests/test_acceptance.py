"""Acceptance suite: one test per top-level criterion, one summary line each.

Every test measures its own runtime, prints a single PASS/FAIL line, and
registers that line for the terminal summary block.  The benchmark-level
criteria share one generated benchmark and one pair of EM runs through
module-scoped fixtures whose stage timings are charged to the criteria that
consume them.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from emdet.data import (
    Dataset,
    GeneratorConfig,
    generate,
    load_dataset,
    make_init_scores,
    save_dataset,
    split_semi,
)
from emdet.engine import (
    EmConfig,
    e_step,
    full_batch_m_step,
    run_em,
    soft_labels,
    surrogate_value,
)
from emdet.geometry import Box, ScoredBox, boxes_to_array, nms
from emdet.latent import center_geometry
from emdet.metrics import (
    Detection,
    corloc,
    corloc_from_scores,
    detect,
    detections_from_scores,
    evaluate_detections,
)
from emdet.oracle import (
    brute_hard_config,
    brute_marginal_likelihood,
    brute_posterior,
)
from emdet.scorer import (
    ScorerParams,
    log_prob_matrix,
    weighted_ce_gradient,
)
from helpers import objective_of, random_params, random_weak_record, strong_record

MANIFEST_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "manifest.json"


def report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.1f}s]"
    record_acceptance(line)
    print(line)
    assert ok, line


def as_table(post):
    return {tuple(int(v) for v in row): w
            for row, w in zip(post.config_set.centers, post.weights)}


@pytest.fixture(scope="module")
def bench():
    """Default benchmark, init scores, baseline, and both EM runs, timed."""
    times = {}
    start = time.monotonic()
    train_strong, test = generate(GeneratorConfig())
    times["generate"] = time.monotonic() - start

    start = time.monotonic()
    init_train = make_init_scores(train_strong, seed=1)
    init_test = make_init_scores(test, seed=2)
    times["init_scores"] = time.monotonic() - start

    start = time.monotonic()
    baseline_map = evaluate_detections(
        test, detections_from_scores(test, init_test)).mean_ap
    _, baseline_corloc = corloc_from_scores(train_strong, init_train)
    times["baseline"] = time.monotonic() - start

    train_weak = split_semi(train_strong, 0.0, seed=0)
    runs = {}
    for mode in ("k_em", "hard"):
        start = time.monotonic()
        cfg = EmConfig(mode=mode, k=100, em_iterations=3, seed=0)
        result = run_em(train_weak, cfg, init_scores=init_train)
        mean_ap = evaluate_detections(test, detect(test, result.params)).mean_ap
        _, mean_corloc = corloc(train_strong, result.params)
        runs[mode] = {"map": mean_ap, "corloc": mean_corloc}
        times[mode] = time.monotonic() - start

    return {"train_strong": train_strong, "test": test,
            "init_train": init_train, "init_test": init_test,
            "baseline_map": baseline_map, "baseline_corloc": baseline_corloc,
            "runs": runs, "times": times}


def test_ac1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    max_posterior_dev = 0.0
    max_objective_dev = 0.0
    max_truncated_rel = 0.0
    hard_agreed = True
    for n in range(200):
        b = int(rng.integers(3, 9))
        num_fg = int(rng.integers(1, 4))
        m = int(rng.integers(1, min(2, num_fg) + 1))
        d = int(rng.integers(2, 7))
        rec = random_weak_record(rng, f"i{n}", num_proposals=b, num_fg=num_fg,
                                 feature_dim=d, num_present=m)
        params = random_params(rng, num_fg + 1, d)
        geometry = center_geometry(rec.proposals)

        exact = as_table(e_step(rec, log_prob_matrix(params, rec.features),
                                EmConfig(mode="exact"), geometry))
        ref = as_table(brute_posterior(rec, params))
        assert set(exact) == set(ref)
        max_posterior_dev = max(max_posterior_dev, max(
            abs(exact[key] - ref[key]) for key in ref))

        fast_weak = objective_of(Dataset([rec]), params).weak_term
        max_objective_dev = max(max_objective_dev, abs(
            fast_weak - brute_marginal_likelihood(rec, params)))

        hard = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="hard"),
                      geometry)
        if tuple(int(v) for v in hard.config_set.centers[0]) \
                != brute_hard_config(rec, params):
            hard_agreed = False

        trunc = as_table(e_step(rec, log_prob_matrix(params, rec.features),
                                EmConfig(mode="k_em", k=b ** m), geometry))
        assert set(trunc) == set(ref)
        scale = max(ref.values())
        max_truncated_rel = max(max_truncated_rel, max(
            abs(trunc[key] - ref[key]) for key in ref) / scale)

    elapsed = time.monotonic() - start
    ok = (max_posterior_dev <= 1e-12 and max_objective_dev <= 1e-9
          and hard_agreed and max_truncated_rel <= 1e-9 and elapsed < 10.0)
    report("AC-1", ok,
           f"200 instances: posterior dev {max_posterior_dev:.1e} (tol 1e-12), "
           f"objective dev {max_objective_dev:.1e} (tol 1e-9), hard argmax "
           f"{'agreed' if hard_agreed else 'DISAGREED'}, full-budget truncation "
           f"rel dev {max_truncated_rel:.1e} (tol 1e-9)", elapsed)


def test_ac2_gradient_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    h = 1e-6
    worst = 0.0
    for _ in range(60):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        l2 = float(rng.choice([0.0, 0.0, 0.3, 1.0]))
        params = random_params(rng, c, d)
        features = rng.normal(size=(n, d))
        labels = rng.dirichlet(np.ones(c), size=n)
        _, grad = weighted_ce_gradient(params, features, labels, l2)
        numeric = np.zeros_like(grad)
        for idx in np.ndindex(*grad.shape):
            bumped = params.copy()
            bumped.weights[idx] += h
            up, _ = weighted_ce_gradient(bumped, features, labels, l2)
            bumped.weights[idx] -= 2 * h
            down, _ = weighted_ce_gradient(bumped, features, labels, l2)
            numeric[idx] = (up - down) / (2 * h)
        scale = max(np.max(np.abs(numeric)), 1.0)
        worst = max(worst, float(np.max(np.abs(grad - numeric)) / scale))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report("AC-2", ok,
           f"60 instances (d<=8, C<=5): max relative error {worst:.1e} "
           f"(tol 1e-5)", elapsed)


def test_ac3_em_monotonicity_exact_full_batch():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    cfg = EmConfig(mode="exact", full_batch=True, em_iterations=5,
                   sgd_steps_per_m_step=60, full_batch_lr=1.0)
    worst_j_step = float("inf")
    worst_bound_gap = float("inf")
    last_dataset = None
    for t in range(20):
        records = [random_weak_record(rng, f"d{t}_w{i}", num_proposals=10,
                                      num_fg=2, feature_dim=4)
                   for i in range(5)]
        dataset = Dataset(records)
        last_dataset = dataset
        params = ScorerParams.zeros(3, 4)
        geometries = {r.image_id: center_geometry(r.proposals) for r in dataset}
        for _ in range(cfg.em_iterations):
            posteriors = {r.image_id: e_step(r, log_prob_matrix(params, r.features), cfg,
                                             geometries[r.image_id])
                          for r in dataset}
            labels = {r.image_id: soft_labels(posteriors[r.image_id], r, 3,
                                              geometries[r.image_id])
                      for r in dataset}
            j_before = objective_of(dataset, params).total
            q_before = surrogate_value(dataset, posteriors, params)
            full_batch_m_step(dataset, labels, params, cfg)
            j_after = objective_of(dataset, params).total
            q_after = surrogate_value(dataset, posteriors, params)
            worst_j_step = min(worst_j_step, j_after - j_before)
            worst_bound_gap = min(worst_bound_gap,
                                  (j_after - j_before) - (q_after - q_before))
    trace = run_em(last_dataset, cfg).trace
    totals = [v.total for v in trace]
    trace_ok = all(b >= a - 1e-8 for a, b in zip(totals, totals[1:]))
    elapsed = time.monotonic() - start
    ok = (worst_j_step >= -1e-8 and worst_bound_gap >= -1e-9
          and trace_ok and elapsed < 60.0)
    report("AC-3", ok,
           f"20 datasets x 5 iterations: min objective step {worst_j_step:.2e} "
           f"(>= -1e-8), min surrogate-bound slack {worst_bound_gap:.2e} "
           f"(>= -1e-9), run_em trace "
           f"{'monotone' if trace_ok else 'NOT monotone'}", elapsed)


def test_ac4_weak_training_beats_init_baseline(bench):
    start = time.monotonic()
    manifest = json.loads(MANIFEST_PATH.read_text())
    k_em = bench["runs"]["k_em"]
    improvement = k_em["map"] - bench["baseline_map"]
    corloc_gain = k_em["corloc"] - bench["baseline_corloc"]
    recorded = (
        abs(manifest["baseline"]["map"] - bench["baseline_map"]) < 1e-9
        and abs(manifest["baseline"]["mean_corloc"]
                - bench["baseline_corloc"]) < 1e-9
        and abs(manifest["runs"]["k_em"]["map"] - k_em["map"]) < 1e-9)
    elapsed = (time.monotonic() - start
               + sum(bench["times"][k] for k in
                     ("generate", "init_scores", "baseline", "k_em")))
    ok = (improvement >= 0.05 and corloc_gain >= 0.0 and recorded
          and elapsed < 300.0)
    report("AC-4", ok,
           f"k_em mAP {k_em['map']:.4f} vs baseline "
           f"{bench['baseline_map']:.4f} ({improvement:+.4f}, need >= +0.05), "
           f"CorLoc {k_em['corloc']:.4f} vs {bench['baseline_corloc']:.4f} "
           f"({corloc_gain:+.4f}, need >= 0), manifest "
           f"{'matches' if recorded else 'STALE'}", elapsed)


def test_ac5_semi_supervised_sweep_shape(bench):
    start = time.monotonic()
    cfg = EmConfig(mode="k_em", k=100, em_iterations=3, seed=0)
    maps = {0.0: bench["runs"]["k_em"]["map"]}
    for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
        split = split_semi(bench["train_strong"], fraction, seed=0)
        result = run_em(split, cfg, init_scores=bench["init_train"])
        maps[fraction] = evaluate_detections(
            bench["test"], detect(bench["test"], result.params)).mean_ap
    floor = maps[0.0] - 0.01
    dips = [f for f, v in maps.items() if v < floor]
    elapsed = (time.monotonic() - start
               + sum(bench["times"][k] for k in
                     ("generate", "init_scores", "k_em")))
    ok = maps[1.0] >= maps[0.0] and not dips and elapsed < 1800.0
    detail = ", ".join(f"mAP({f:g})={v:.4f}" for f, v in sorted(maps.items()))
    report("AC-5", ok,
           f"{detail}; full >= weak {'holds' if maps[1.0] >= maps[0.0] else 'FAILS'}"
           f"{'' if not dips else f'; dips below weak-0.01 at {dips}'}", elapsed)

    # the committed sweep record must match the fresh numbers
    manifest = json.loads(MANIFEST_PATH.read_text())
    recorded = {row["fraction"]: row["map"] for row in manifest["sweep"]}
    assert set(recorded) == set(maps)
    for fraction, value in maps.items():
        assert abs(recorded[fraction] - value) < 1e-9


def test_ac6_metric_worked_examples(tmp_path):
    start = time.monotonic()
    gt = Box(0.0, 0.0, 10.0, 10.0)
    far = Box(50.0, 50.0, 60.0, 60.0)

    records = [strong_record(name, boxes_to_array([gt, far]), np.zeros((2, 3)),
                             [(gt, 1)])
               for name in ("img_a", "img_b")]
    dataset = Dataset(records)
    dets = [Detection("img_a", 1, gt, 0.9),
            Detection("img_a", 1, far, 0.8),
            Detection("img_b", 1, gt, 0.7)]
    ap = evaluate_detections(dataset, dets, [1]).ap[1]
    ap_ok = abs(ap - 28.0 / 33.0) < 1e-9

    boxes = [Box(0, 0, 10, 10), Box(1, 1, 11, 11), Box(20, 20, 30, 30)]
    scored = [ScoredBox(boxes[0], 1, 0.9), ScoredBox(boxes[1], 1, 0.8),
              ScoredBox(boxes[2], 1, 0.7)]
    kept = nms(scored, 0.4)
    nms_ok = [s.box for s in kept] == [boxes[0], boxes[2]]

    rec_hit = strong_record("hit", boxes_to_array([Box(0, 0, 6, 10), far]),
                            np.zeros((2, 2)), [(gt, 1)])
    rec_miss = strong_record("miss", boxes_to_array([Box(0, 0, 3, 10), far]),
                             np.zeros((2, 2)), [(gt, 1)])
    scores = {"hit": np.array([[0.9], [0.1]]),
              "miss": np.array([[0.9], [0.1]])}
    _, mean_corloc = corloc_from_scores(Dataset([rec_hit, rec_miss]), scores)
    corloc_ok = mean_corloc == 0.5

    small = GeneratorConfig(n_train=10, n_test=2, num_fg_categories=3,
                            proposals_per_image=12, feature_dim=6, seed=7)
    train, _ = generate(small)
    mixed = split_semi(train, 0.5, seed=1)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_dataset(mixed, first)
    save_dataset(load_dataset(first), second)
    roundtrip_ok = first.read_bytes() == second.read_bytes()

    elapsed = time.monotonic() - start
    ok = ap_ok and nms_ok and corloc_ok and roundtrip_ok
    report("AC-6", ok,
           f"AP {ap:.10f} vs 28/33 {'ok' if ap_ok else 'WRONG'}, NMS kept "
           f"{'{box1, box3}' if nms_ok else 'WRONG SET'}, CorLoc "
           f"{mean_corloc} {'ok' if corloc_ok else 'WRONG'}, save/load "
           f"{'byte-identical' if roundtrip_ok else 'DIFFERS'}", elapsed)


def test_ac7_truncated_em_tracks_hard_em(bench):
    start = time.monotonic()
    manifest = json.loads(MANIFEST_PATH.read_text())
    k_em = bench["runs"]["k_em"]["map"]
    hard = bench["runs"]["hard"]["map"]
    recorded = (abs(manifest["runs"]["k_em"]["map"] - k_em) < 1e-9
                and abs(manifest["runs"]["hard"]["map"] - hard) < 1e-9)
    elapsed = (time.monotonic() - start
               + sum(bench["times"][k] for k in
                     ("generate", "init_scores", "k_em", "hard")))
    ok = k_em >= hard - 0.005 and recorded
    report("AC-7", ok,
           f"k_em mAP {k_em:.4f} vs hard mAP {hard:.4f} "
           f"(margin {k_em - hard:+.4f}, need >= -0.005), both runs "
           f"{'recorded in manifest' if recorded else 'MISSING from manifest'}",
           elapsed)
