"""End-to-end tests of the command line, run in process via main().

A small benchmark is generated once per module; the workflow commands are
exercised against it and their exit codes and artifacts checked.
"""

import csv
import json

import numpy as np
import pytest

import emdet.oracle
from emdet.cli import main
from emdet.data import (Dataset, load_dataset, make_init_scores,
                        save_dataset, save_init_scores, split_semi)
from emdet.metrics import load_detections
from emdet.scorer import ScorerParams, load_checkpoint, save_checkpoint
from helpers import random_weak_record

GEN_SPEC = {"n_train": 12, "n_test": 6, "num_fg_categories": 3,
            "proposals_per_image": 8, "feature_dim": 8,
            "max_objects_per_image": 2, "seed": 5}

TRAIN_CONFIG = {"mode": "k_em", "k": 20, "em_iterations": 1,
                "sgd_steps_per_m_step": 40, "strong_fraction": 0.5,
                "split_seed": 1}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Generated benchmark plus one trained checkpoint, shared per module."""
    root = tmp_path_factory.mktemp("bench")
    spec = root / "spec.json"
    spec.write_text(json.dumps(GEN_SPEC))
    train = root / "train.jsonl"
    test = root / "test.jsonl"
    assert main(["gen", "--spec", str(spec), "--out-train", str(train),
                 "--out-test", str(test)]) == 0

    config = root / "config.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    ckpt = root / "model.json"
    trace = root / "trace.csv"
    assert main(["train", "--data", str(train), "--config", str(config),
                 "--out", str(ckpt), "--trace", str(trace)]) == 0

    mixed = root / "mixed.jsonl"
    save_dataset(split_semi(load_dataset(train), 0.5, seed=2), mixed)

    scores = root / "scores.jsonl"
    save_init_scores(make_init_scores(load_dataset(train), seed=3), scores)

    return {"root": root, "spec": spec, "train": train, "test": test,
            "config": config, "ckpt": ckpt, "trace": trace, "mixed": mixed,
            "scores": scores}


class TestGen:
    def test_writes_datasets_and_manifest(self, bench):
        train = load_dataset(bench["train"])
        test = load_dataset(bench["test"])
        assert len(train) == 12
        assert len(test) == 6
        manifest = json.loads(
            (bench["root"] / "train.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["train_images"] == 12
        assert manifest["test_images"] == 6
        assert len(manifest["spec_hash"]) == 64

    def test_regeneration_is_byte_identical(self, bench, tmp_path):
        train = tmp_path / "again_train.jsonl"
        test = tmp_path / "again_test.jsonl"
        assert main(["gen", "--spec", str(bench["spec"]),
                     "--out-train", str(train), "--out-test", str(test)]) == 0
        assert train.read_bytes() == bench["train"].read_bytes()
        assert test.read_bytes() == bench["test"].read_bytes()

    def test_missing_spec_is_a_usage_error(self, tmp_path):
        rc = main(["gen", "--spec", str(tmp_path / "none.json"),
                   "--out-train", str(tmp_path / "a"),
                   "--out-test", str(tmp_path / "b")])
        assert rc == 2

    def test_unknown_spec_key_is_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_train": 4, "surprise": 1}))
        rc = main(["gen", "--spec", str(spec),
                   "--out-train", str(tmp_path / "a"),
                   "--out-test", str(tmp_path / "b")])
        assert rc == 2
        assert "surprise" in capsys.readouterr().err

    def test_non_object_spec_is_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        rc = main(["gen", "--spec", str(spec),
                   "--out-train", str(tmp_path / "a"),
                   "--out-test", str(tmp_path / "b")])
        assert rc == 2


class TestTrain:
    def test_checkpoint_carries_config_and_digest(self, bench):
        params, meta = load_checkpoint(bench["ckpt"])
        assert params.num_categories == 4
        assert params.feature_dim == 8
        assert meta["config"]["mode"] == "k_em"
        assert meta["config"]["em_iterations"] == 1
        assert len(meta["data_digest"]) == 16

    def test_trace_rows_cover_init_and_each_iteration(self, bench):
        with open(bench["trace"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "strong_term", "weak_term", "total"]
        assert len(rows) == 3
        for n, row in enumerate(rows[1:]):
            assert row[0] == str(n)
            strong, weak, total = map(float, row[1:])
            assert abs(strong + weak - total) < 1e-9

    def test_zero_iterations_reproduce_the_init_checkpoint(self, bench, tmp_path):
        out = tmp_path / "copy.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(bench["config"]),
                   "--init-ckpt", str(bench["ckpt"]),
                   "--em-iterations", "0", "--out", str(out)])
        assert rc == 0
        before, _ = load_checkpoint(bench["ckpt"])
        after, meta = load_checkpoint(out)
        assert np.array_equal(after.weights, before.weights)
        assert meta["config"]["em_iterations"] == 0

    def test_init_scores_are_accepted(self, bench, tmp_path):
        out = tmp_path / "scored.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(bench["config"]),
                   "--init-scores", str(bench["scores"]),
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_both_init_flags_are_mutually_exclusive(self, bench, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(bench["train"]),
                  "--config", str(bench["config"]),
                  "--init-ckpt", str(bench["ckpt"]),
                  "--init-scores", str(bench["scores"]),
                  "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2

    def test_unknown_config_key_is_rejected(self, bench, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "exact", "velocity": 9}))
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "velocity" in capsys.readouterr().err

    def test_bad_mode_in_config_is_rejected(self, bench, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "soft"}))
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_objective_lines_are_printed(self, bench, tmp_path, capsys):
        out = tmp_path / "again.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(bench["config"]), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "iteration 0: objective" in stdout
        assert "iteration 1: objective" in stdout

    def test_oversized_hard_e_step_exits_three(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=200, num_fg=3,
                                 num_present=3)
        data = tmp_path / "big.jsonl"
        save_dataset(Dataset([rec]), data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "hard", "record_trace": False}))
        rc = main(["train", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "guard" in capsys.readouterr().err

    def test_oversized_candidate_product_exits_three(self, tmp_path, capsys):
        # k = 10 ** 7 keeps all 1100 proposals per category: 1100 ** 2 candidate rows
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=1100, num_fg=2,
                                 num_present=2)
        data = tmp_path / "big.jsonl"
        save_dataset(Dataset([rec]), data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "k_em", "k": 10 ** 7, "record_trace": False}))
        rc = main(["train", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "guard" in capsys.readouterr().err

    def test_non_finite_features_exit_two(self, bench, tmp_path, capsys):
        lines = bench["train"].read_text().splitlines()
        record = json.loads(lines[1])
        record["features"][0][0] = float("nan")
        lines[1] = json.dumps(record)
        data = tmp_path / "nan.jsonl"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(data), "--config", str(bench["config"]),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{data}:2: image" in capsys.readouterr().err


class TestDetectAndEval:
    def test_detect_writes_parseable_detections(self, bench, tmp_path):
        out = tmp_path / "dets.jsonl"
        rc = main(["detect", "--data", str(bench["test"]),
                   "--ckpt", str(bench["ckpt"]), "--out", str(out)])
        assert rc == 0
        dets = load_detections(out)
        assert dets
        assert all(1 <= d.category <= 3 for d in dets)
        assert all(0.0 < d.score <= 1.0 for d in dets)

    def test_eval_report_shape(self, bench, tmp_path):
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--data", str(bench["test"]),
                   "--ckpt", str(bench["ckpt"]), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"ap", "mean_ap", "counts", "corloc",
                               "mean_corloc"}
        assert report["corloc"] is None
        assert 0.0 <= report["mean_ap"] <= 1.0

    def test_eval_corloc_flag_fills_the_table(self, bench, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--data", str(bench["test"]),
                   "--ckpt", str(bench["ckpt"]), "--out", str(out),
                   "--corloc"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["corloc"] is not None
        assert report["mean_corloc"] is not None
        assert "meanCorLoc" in capsys.readouterr().out

    def test_dim_mismatch_is_a_usage_error(self, bench, tmp_path, capsys):
        bad = tmp_path / "bad_ckpt.json"
        save_checkpoint(ScorerParams.zeros(4, 10), bad)
        rc = main(["eval", "--data", str(bench["test"]), "--ckpt", str(bad),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "10-dim" in err and "8-dim" in err


class TestSweep:
    def sweep_config(self, bench, tmp_path, **extra):
        payload = {"mode": "k_em", "k": 10, "em_iterations": 1,
                   "sgd_steps_per_m_step": 30,
                   "test_data": str(bench["test"]), **extra}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(payload))
        return config

    def test_writes_one_row_per_fraction(self, bench, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(bench["train"]),
                   "--config", str(self.sweep_config(bench, tmp_path)),
                   "--fractions", "0,0.5,1", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "mAP", "meanCorLoc", "seed"]
        assert [r[0] for r in rows[1:]] == ["0", "0.5", "1"]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0

    def test_missing_test_data_key_is_rejected(self, bench, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"mode": "exact"}))
        rc = main(["sweep", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "test_data" in capsys.readouterr().err

    def test_weak_source_is_rejected(self, bench, tmp_path):
        rc = main(["sweep", "--data", str(bench["mixed"]),
                   "--config", str(self.sweep_config(bench, tmp_path)),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_fraction_outside_unit_interval_is_rejected(self, bench, tmp_path):
        rc = main(["sweep", "--data", str(bench["train"]),
                   "--config", str(self.sweep_config(bench, tmp_path)),
                   "--fractions", "0,1.5", "--out", str(tmp_path / "s.csv")])
        assert rc == 2


class TestOracle:
    @pytest.mark.parametrize("mode", ["exact", "hard", "k_em"])
    def test_agreement_passes(self, bench, mode, capsys):
        rc = main(["oracle", "--data", str(bench["mixed"]),
                   "--ckpt", str(bench["ckpt"]), "--mode", mode, "--k", "6"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_all_strong_data_is_vacuous(self, bench, capsys):
        rc = main(["oracle", "--data", str(bench["train"]),
                   "--ckpt", str(bench["ckpt"])])
        assert rc == 0
        assert "no weak images" in capsys.readouterr().out

    def test_corrupted_expansion_fails(self, bench, capsys, monkeypatch):
        # sabotage the oracle's label expansion so the references go wrong
        monkeypatch.setattr(
            emdet.oracle, "expand",
            lambda categories, centers, proposals: np.zeros(len(proposals), dtype=np.int64))
        rc = main(["oracle", "--data", str(bench["mixed"]),
                   "--ckpt", str(bench["ckpt"]), "--mode", "exact"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_small_checkpoint_is_rejected(self, bench, tmp_path, capsys):
        bad = tmp_path / "narrow.json"
        save_checkpoint(ScorerParams.zeros(2, 8), bad)
        rc = main(["oracle", "--data", str(bench["mixed"]), "--ckpt", str(bad)])
        assert rc == 2
        assert "checkpoint covers 2" in capsys.readouterr().err

    def test_guard_violation_maps_to_exit_three(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=50, num_fg=3,
                                 num_present=3)
        data = tmp_path / "big.jsonl"
        save_dataset(Dataset([rec]), data)
        ckpt = tmp_path / "z.json"
        save_checkpoint(ScorerParams.zeros(4, 5), ckpt)
        rc = main(["oracle", "--data", str(data), "--ckpt", str(ckpt)])
        assert rc == 3
        assert "guard" in capsys.readouterr().err

