"""End-to-end tests of the command line, run in process via main().

A small benchmark is generated once per module; the workflow commands are
exercised against it and their exit codes and artifacts checked.
"""

import csv
import json
import re

import numpy as np
import pytest

import emdet.cli
import emdet.oracle
from emdet.cli import main
from emdet.data import (Dataset, GeneratorConfig, SchemaError, generate, load_dataset,
                        make_init_scores, save_dataset, save_init_scores,
                        split_semi)
from emdet.engine import EmConfig, PosteriorTable, e_step
from emdet.latent import LatentConfigSet, center_geometry, enumerate_exact
from emdet.metrics import load_detections
from emdet.scorer import ScorerParams, load_checkpoint, log_prob_matrix, save_checkpoint
from helpers import (NON_INTEGER_CATEGORIES, clustered_boxes, random_params,
                     random_weak_record, weak_record)

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


def refuse_training(*args, **kwargs):
    raise AssertionError("training started on a config that should have been rejected")


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

    @pytest.mark.parametrize("payload, message", [
        ({"n_train": -3}, "n_train must be >= 0, got -3"),
        ({"n_test": -1}, "n_test must be >= 0, got -1"),
        ({"jitters_per_object": -1}, "jitters_per_object must be >= 0, got -1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"canvas_width": float("inf")}, "canvas and object sizes must be finite"),
        ({"noise_sigma": -0.1}, "noise_sigma must be finite and >= 0, got -0.1"),
        ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0, got nan"),
    ])
    def test_invalid_size_in_spec_exits_two(self, tmp_path, capsys, payload, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        rc = main(["gen", "--spec", str(spec),
                   "--out-train", str(tmp_path / "a"),
                   "--out-test", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("payload, message", [
        ({"n_train": "6"}, "'n_train' must be an integer, got \"6\""),
        ({"seed": "x"}, "'seed' must be an integer, got \"x\""),
        ({"proposals_per_image": 8.0}, "'proposals_per_image' must be an integer"),
        ({"noise_sigma": True}, "'noise_sigma' must be a number, got true"),
    ])
    def test_wrongly_typed_spec_value_exits_two(self, tmp_path, capsys, payload, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        rc = main(["gen", "--spec", str(spec),
                   "--out-train", str(tmp_path / "a"),
                   "--out-test", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{spec}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "a").exists()


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

    def test_num_categories_zero_in_config_exits_two(self, bench, tmp_path, capsys):
        # zero used to mean "infer"; null is the only way to ask for that
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "num_categories": 0}))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "num_categories must be >= 2 or None, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("lr_initial", float("nan")),
                                              ("momentum", -0.9)])
    def test_non_finite_or_negative_rate_exits_two(self, bench, tmp_path, capsys,
                                                   monkeypatch, field, value):
        monkeypatch.setattr(emdet.cli, "run_em", refuse_training)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, field: value}))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"{field} must be finite and >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("split_seed", -3, "split seed must be >= 0, got -3"),
    ])
    def test_negative_seed_exits_two_before_training(self, bench, tmp_path, capsys,
                                                      monkeypatch, field, value, message):
        monkeypatch.setattr(emdet.cli, "run_em", refuse_training)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, field: value}))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mode_in_config_is_rejected(self, bench, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "soft"}))
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_negative_quota_in_config_is_rejected(self, bench, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bg_per_image": -3}))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "bg_per_image must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"k": "100"}, "'k' must be an integer, got \"100\""),
        ({"em_iterations": 1.5}, "'em_iterations' must be an integer, got 1.5"),
        ({"sgd_steps_per_m_step": True}, "'sgd_steps_per_m_step' must be an integer"),
        ({"record_trace": "no"}, "'record_trace' must be true or false, got \"no\""),
        ({"lr_initial": False}, "'lr_initial' must be a number, got false"),
        ({"mode": 5}, "'mode' must be a string, got 5"),
        ({"num_categories": "4"}, "'num_categories' must be an integer or null"),
    ])
    def test_wrongly_typed_config_value_exits_two(self, bench, tmp_path, capsys,
                                                  payload, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{config}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"strong_fraction": True}, "'strong_fraction' must be a number, got true"),
        ({"strong_fraction": "0.5"}, "'strong_fraction' must be a number, got \"0.5\""),
        ({"strong_fraction": 0.5, "split_seed": 1.0}, "'split_seed' must be an integer, got 1.0"),
    ])
    def test_wrongly_typed_extra_exits_two(self, bench, tmp_path, capsys, payload, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"{config}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_init_scores_with_ids_equal_as_strings_exit_two(self, bench, tmp_path, capsys):
        scores = tmp_path / "dup.jsonl"
        scores.write_text(json.dumps({"id": 5, "scores": [[0.5]]}) + "\n"
                          + json.dumps({"id": 5, "scores": [[0.7]]}) + "\n")
        rc = main(["train", "--data", str(bench["train"]), "--config", str(bench["config"]),
                   "--init-scores", str(scores), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{scores}:2: duplicate image id '5'" in capsys.readouterr().err

    @pytest.mark.parametrize("scores, message", [
        ([[0.5, "1"]], 'score row 0 must hold numbers, got [0.5, "1"]'),
        ([[0.5, 0.1], [0.5]], "score row 1 must hold 2 numbers as score row 0 does"),
    ], ids=["string", "ragged"])
    def test_init_scores_that_are_no_matrix_of_numbers_exit_two(self, bench, tmp_path, capsys,
                                                                  monkeypatch, scores, message):
        monkeypatch.setattr(emdet.cli, "run_em", refuse_training)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "scores": [[0.5]]}) + "\n"
                        + json.dumps({"id": "b", "scores": scores}) + "\n")
        rc = main(["train", "--data", str(bench["train"]), "--config", str(bench["config"]),
                   "--init-scores", str(path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:2: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("width", "100"), ("height", True),
                                            ("proposals", "0"), ("features", True)])
    def test_dataset_values_that_are_no_numbers_exit_two(self, bench, tmp_path, capsys,
                                                         monkeypatch, key, value):
        monkeypatch.setattr(emdet.cli, "run_em", refuse_training)
        lines = bench["train"].read_text().splitlines()
        record = json.loads(lines[1])
        if key in ("width", "height"):
            record[key] = value
        else:
            record[key][0][0] = value
        lines[1] = json.dumps(record)
        data = tmp_path / "typed.jsonl"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(data), "--config", str(bench["config"]),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{data}:2: " in err and json.dumps(value) in err and "Traceback" not in err

    def test_integer_for_a_number_and_null_categories_are_accepted(self, bench, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "em_iterations": 0, "lr_initial": 1,
                                      "num_categories": None}))
        out = tmp_path / "x.json"
        rc = main(["train", "--data", str(bench["train"]),
                   "--config", str(config), "--out", str(out)])
        assert rc == 0
        assert load_checkpoint(out)[1]["config"]["lr_initial"] == 1

    @pytest.mark.parametrize("source", ["data", "init-scores", "init-ckpt"])
    def test_input_holding_a_bare_number_exits_two(self, bench, tmp_path, capsys, source):
        bare = tmp_path / "bare.json"
        bare.write_text("5\n")
        inputs = {"data": str(bench["train"]), source: str(bare)}
        args = [arg for name, path in inputs.items() for arg in (f"--{name}", path)]
        rc = main(["train", *args, "--config", str(bench["config"]),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bare) in err
        assert "Traceback" not in err

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

    def test_trace_past_the_enumeration_guard_exits_zero(self, tmp_path):
        # default k_em with the objective trace on, at 200 ** 3 configs per image
        train, _ = generate(GeneratorConfig(n_train=4, n_test=1, proposals_per_image=200,
                                            seed=2))
        data = tmp_path / "large.jsonl"
        save_dataset(split_semi(train, 0.0, seed=2), data)
        assert max(len(r.annotation.label) for r in load_dataset(data)) == 3
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"em_iterations": 1, "sgd_steps_per_m_step": 50}))
        trace = tmp_path / "trace.csv"
        rc = main(["train", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "x.json"), "--trace", str(trace)])
        assert rc == 0
        assert len(trace.read_text().splitlines()) == 3

    def test_four_category_objective_past_the_guard_exits_three(self, tmp_path, capsys):
        # 40 ** 4 configs: past three categories the objective still enumerates
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=40, num_fg=4, num_present=4)
        data = tmp_path / "big.jsonl"
        save_dataset(Dataset([rec]), data)
        config = tmp_path / "config.json"
        # k = 10 ** 4 keeps 10 candidates per category, so the E-step has distinct configs
        config.write_text(json.dumps({"k": 10 ** 4, "em_iterations": 1,
                                      "sgd_steps_per_m_step": 10}))
        rc = main(["train", "--data", str(data), "--config", str(config),
                   "--out", str(tmp_path / "x.json"), "--trace", str(tmp_path / "t.csv")])
        assert rc == 3
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_non_finite_image_size_exits_two(self, bench, tmp_path, capsys, key):
        lines = bench["train"].read_text().splitlines()
        record = json.loads(lines[1])
        record[key] = float("nan") if key == "width" else float("inf")
        lines[1] = json.dumps(record)
        assert ("NaN" if key == "width" else "Infinity") in lines[1]
        data = tmp_path / "size.jsonl"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(data), "--config", str(bench["config"]),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert f"{data}:2: image" in capsys.readouterr().err

    @pytest.mark.parametrize("annotation, message", NON_INTEGER_CATEGORIES)
    def test_non_integer_category_id_exits_two(self, bench, tmp_path, capsys, monkeypatch,
                                               annotation, message):
        monkeypatch.setattr(emdet.cli, "run_em", refuse_training)
        record = json.loads(bench["train"].read_text().splitlines()[0])
        record["annotation"] = annotation
        data = tmp_path / "one.jsonl"
        data.write_text(json.dumps(record) + "\n")
        rc = main(["train", "--data", str(data), "--config", str(bench["config"]),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{data}:1: " in err and message in err
        assert "Traceback" not in err

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

    def test_non_finite_checkpoint_weight_exits_two(self, bench, tmp_path, capsys):
        params, _ = load_checkpoint(bench["ckpt"])
        params.weights[0, 0] = np.nan
        bad = tmp_path / "nan_ckpt.json"
        save_checkpoint(params, bad)
        out = tmp_path / "m.json"
        rc = main(["eval", "--data", str(bench["test"]), "--ckpt", str(bad),
                   "--out", str(out), "--corloc"])
        assert rc == 2
        assert "weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_checkpoint_shape_exits_two(self, bench, tmp_path, capsys):
        payload = json.loads(bench["ckpt"].read_text())
        bad = tmp_path / "float_c.json"
        bad.write_text(json.dumps({**payload, "c": payload["c"] + 0.5}))
        out = tmp_path / "m.json"
        rc = main(["eval", "--data", str(bench["test"]), "--ckpt", str(bad),
                   "--out", str(out)])
        assert rc == 2
        assert "'c' must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_wrongly_typed_config_value_exits_two(self, bench, tmp_path, capsys):
        config = self.sweep_config(bench, tmp_path, k="10")
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--data", str(bench["train"]), "--config", str(config),
                   "--fractions", "0", "--out", str(out)])
        assert rc == 2
        assert f"{config}: 'k' must be an integer, got \"10\"" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"split_seed": "1"}, "'split_seed' must be an integer, got \"1\""),
        ({"split_seed": True}, "'split_seed' must be an integer, got true"),
        ({"init_scores": 5}, "'init_scores' must be a string, got 5"),
        ({"test_data": None}, "'test_data' must be a string, got null"),
    ])
    def test_wrongly_typed_extra_exits_two(self, bench, tmp_path, capsys, extra, message):
        config = self.sweep_config(bench, tmp_path, **extra)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--data", str(bench["train"]), "--config", str(config),
                   "--fractions", "0", "--out", str(out)])
        assert rc == 2
        assert f"{config}: {message}" in capsys.readouterr().err
        assert not out.exists()

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


def clustered_oracle_inputs(root):
    """20 clustered 8-box weak images (M = 1..3) and a random checkpoint, as files."""
    records = []
    for n in range(20):
        rng = np.random.default_rng(1000 + n)
        boxes = clustered_boxes(rng, 8)
        records.append(weak_record(f"w{n}", boxes, rng.normal(size=(8, 3)),
                                   tuple(range(1, 2 + n % 3))))
    params = random_params(np.random.default_rng(1), 4, 3, scale=1.0)
    data, ckpt = root / "clustered.jsonl", root / "clustered_ckpt.json"
    save_dataset(Dataset(records), data)
    save_checkpoint(params, ckpt)
    return records, params, data, ckpt


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

    def test_hard_ties_between_label_identical_configs_pass(self, tmp_path, capsys):
        records, params, data, ckpt = clustered_oracle_inputs(tmp_path)
        tied = [r for r in records if tuple(
            e_step(r, log_prob_matrix(params, r.features), EmConfig(mode="hard"),
                   center_geometry(r.proposals))
            .config_set.centers[0]) != emdet.oracle.brute_hard_config(r, params)]
        assert tied
        rc = main(["oracle", "--data", str(data), "--ckpt", str(ckpt), "--mode", "hard"])
        assert rc == 0
        assert "hard argmax mismatches: 0 of 20 images" in capsys.readouterr().out

    def test_hard_config_with_other_labels_fails(self, tmp_path, capsys, monkeypatch):
        _, _, data, ckpt = clustered_oracle_inputs(tmp_path)

        def relabelled(record, log_probs, config, geometry):
            # the first config whose labels differ from the fast path's choice
            post = e_step(record, log_probs, config, geometry)
            cats = post.config_set.categories
            labels = emdet.oracle.expand(cats, post.config_set.centers[0], record.proposals)
            for row in enumerate_exact(record.proposals, cats).centers:
                if not np.array_equal(emdet.oracle.expand(cats, row, record.proposals),
                                      labels):
                    return PosteriorTable(record.image_id,
                                          LatentConfigSet(cats, row[None]), np.array([1.0]))

        monkeypatch.setattr(emdet.cli, "e_step", relabelled)
        rc = main(["oracle", "--data", str(data), "--ckpt", str(ckpt), "--mode", "hard"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "hard argmax mismatches: 20 of 20 images" in out
        assert "FAIL" in out

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



def _read_dataset_id(tmp_path, value):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"id": "a", "width": 10, "height": 10,
                                "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                                "annotation": {"type": "weak", "z": [value]}}) + "\n")
    return load_dataset(path)


def _read_config_int(tmp_path, value):
    return emdet.cli._generator_config({"seed": value}, str(tmp_path / "spec.json"))


def _read_checkpoint_shape(tmp_path, value):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"c": value, "d": 1, "weights": [0.0, 0.0]}))
    return load_checkpoint(path)


JSON_INT_READERS = [_read_dataset_id, _read_config_int, _read_checkpoint_shape]


class TestJsonIntegerRule:
    """Dataset ids, config integers and checkpoint shapes take JSON integers by
    one rule (data.is_integer): a boolean, a float or a string is none."""

    @pytest.mark.parametrize("reader", JSON_INT_READERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["true", "float", "string"])
    def test_every_reader_rejects_what_is_no_integer(self, tmp_path, reader, value):
        got = re.escape(f"got {json.dumps(value)}")
        with pytest.raises(SchemaError, match=f"must be an integer.*{got}$"):
            reader(tmp_path, value)

    @pytest.mark.parametrize("reader", JSON_INT_READERS, ids=lambda f: f.__name__)
    def test_every_reader_takes_an_integer(self, tmp_path, reader):
        assert reader(tmp_path, 1) is not None

    def test_ragged_boxes_exit_two_naming_the_line(self, bench, tmp_path, capsys):
        lines = bench["train"].read_text().splitlines()
        strong = next(n for n, line in enumerate(lines)
                      if json.loads(line)["annotation"]["type"] == "strong")
        for where, message in (("proposals", "proposal 1 must be [x1, y1, x2, y2]"),
                               ("objects", "ground-truth object 0 must be [x1, y1, x2, y2]")):
            record = json.loads(lines[strong])
            if where == "proposals":
                record["proposals"][1] = record["proposals"][1][:3]
            else:
                record["annotation"]["objects"][0]["box"] = [0, 0, 5]
            data = tmp_path / f"ragged_{where}.jsonl"
            data.write_text("\n".join(lines[:strong] + [json.dumps(record)]) + "\n")
            rc = main(["train", "--data", str(data), "--config", str(bench["config"]),
                       "--out", str(tmp_path / "x.json")])
            assert rc == 2
            err = capsys.readouterr().err
            assert f"{data}:{strong + 1}: " in err and message in err, err
