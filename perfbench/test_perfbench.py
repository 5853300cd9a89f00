"""Tests of the benchmark itself, at a size that runs in seconds.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import emdet.engine
import emdet.latent
import pipeline
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_DATA = {"n_train": 12, "n_test": 6, "proposals_per_image": 10}
TINY_EM = {"k": 64, "em_iterations": 2, "sgd_steps_per_m_step": 40}
TINY = {mode: pipeline.Workload(TINY_DATA, {"mode": mode, **TINY_EM})
        for mode in ("k_em", "hard")}


def traced_pipeline(workload, seed):
    with tracer.Tracer() as spans:
        _, outcome, _ = pipeline.run_pipeline(workload, seed)
    return spans, outcome


@pytest.mark.parametrize("mode", sorted(TINY))
def test_tracing_leaves_outputs_bit_identical(mode):
    _, plain, _ = pipeline.run_pipeline(TINY[mode], 3)
    spans, traced = traced_pipeline(TINY[mode], 3)
    assert traced == plain
    assert spans.calls("engine.run_em") == 1


def test_two_traced_runs_count_the_same_work():
    first = pipeline.exact_counts(tracer.layer_metrics(traced_pipeline(TINY["k_em"], 5)[0]))
    second = pipeline.exact_counts(tracer.layer_metrics(traced_pipeline(TINY["k_em"], 5)[0]))
    assert first == second
    assert first["latent.configs_scored"] > 0
    assert first["latent.exact_grid.entries"] > 0
    assert first["scorer.sgd_steps"] == 2 * TINY_EM["sgd_steps_per_m_step"]


def test_layer_self_times_add_up_to_the_traced_calls():
    spans, _ = traced_pipeline(TINY["hard"], 1)
    layers = sum(spans.layer_self_time(layer) for layer in tracer.TRACED)
    roots = sum(v[1] for (_, parent, _), v in spans.spans.items() if parent is None)
    assert layers == pytest.approx(roots, rel=1e-9)


def test_tracer_patches_every_binding_and_restores_it():
    original = emdet.latent.select_k
    with tracer.Tracer():
        assert emdet.engine.select_k is not original
        assert emdet.engine.select_k is emdet.latent.select_k
    assert emdet.engine.select_k is original
    assert emdet.latent.select_k is original


def test_removed_function_makes_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(emdet.latent, "expand")
    spans = tracer.Tracer()
    assert spans.absent == ["latent.expand"]
    numbers = tracer.layer_metrics(spans)
    assert "latent.expand.calls" not in numbers
    assert numbers["engine.e_step.calls"] == 0


def test_failed_output_check_counts_as_failed(monkeypatch):
    monkeypatch.setattr(pipeline, "init_baseline", lambda inputs, seed: (1.1, 1.1))
    report = pipeline.measure(TINY["k_em"], 0, seconds=0, trace=False)
    assert report["attempted"] == report["failed"] == (
        pipeline.DATASETS_PER_RUN * pipeline.MIN_REPEATS)
    assert "init baseline" in report["errors"][0]


def test_manifest_check_uses_its_tolerance():
    recorded = {"map": 0.5, "mean_corloc": 0.5, "objective_trace": [-10.0]}
    ok = pipeline.Outcome(0.5 + 1e-10, 0.5, (-10.0,), b"")
    pipeline.check(ok, (0.0, 0.0), recorded)
    with pytest.raises(pipeline.CheckFailed):
        pipeline.check(pipeline.Outcome(0.5, 0.5, (-10.0 + 1e-6,), b""), (0.0, 0.0), recorded)


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_every_benchmark_metric(monkeypatch, trace):
    monkeypatch.setattr(pipeline, "init_baseline", lambda inputs, seed: (-1.0, -1.0))
    report = pipeline.measure(TINY["k_em"], 2, seconds=0, trace=trace)
    assert report["failed"] == 0
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(report["metrics"]) >= wanted
    if trace:
        assert report["absent"] == []
    else:
        assert set(report["samples"]["train_s"].values()) == {pipeline.MIN_REPEATS}


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_kem",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
