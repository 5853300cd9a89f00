"""Tests for dataset records, the synthetic generator, splits, and IO."""

import json
import re

import numpy as np
import pytest

from emdet.data import (
    Dataset,
    GeneratorConfig,
    GroundTruth,
    ImageRecord,
    SchemaError,
    WeakAnnotation,
    config_hash,
    demote,
    generate,
    load_dataset,
    load_init_scores,
    make_init_scores,
    positive_categories,
    save_dataset,
    save_init_scores,
    split_semi,
)
from emdet.geometry import Box, boxes_to_array, iou_matrix
from emdet.latent import CENTER_IOU, ImageLabel
from helpers import isolated_boxes, random_weak_record, strong_record

SMALL = GeneratorConfig(n_train=12, n_test=5, num_fg_categories=3,
                        proposals_per_image=20, feature_dim=8, seed=3)


class TestRecordValidation:
    def test_rejects_empty_proposals(self):
        with pytest.raises(ValueError, match="no proposals"):
            ImageRecord("a", 10, 10, np.zeros((0, 4)), np.zeros((0, 2)),
                        WeakAnnotation(ImageLabel((1,))))

    @pytest.mark.parametrize("shape", [(2, 8), (8,), (0,)])
    def test_rejects_proposals_not_shaped_b_by_4(self, shape):
        with pytest.raises(ValueError, match=r"\(B, 4\) array"):
            ImageRecord("a", 10, 10, np.ones(shape), np.zeros((2, 2)),
                        WeakAnnotation(ImageLabel((1,))))

    def test_rejects_box_list(self):
        with pytest.raises((TypeError, ValueError)):
            ImageRecord("a", 10, 10, [Box(0, 0, 5, 5)], np.zeros((1, 2)),
                        WeakAnnotation(ImageLabel((1,))))

    @pytest.mark.parametrize("row, message", [
        ([0.0, 0.0, np.nan, 5.0], "finite"),
        ([0.0, -np.inf, 5.0, 5.0], "finite"),
        ([2.0, 0.0, 2.0, 5.0], "degenerate proposal 1"),
        ([0.0, 5.0, 5.0, 5.0], "degenerate proposal 1"),
        ([3.0, 0.0, 2.0, 5.0], "degenerate proposal 1"),
    ])
    def test_rejects_bad_coordinates(self, row, message):
        proposals = np.array([[0.0, 0.0, 5.0, 5.0], row])
        with pytest.raises(ValueError, match=message):
            ImageRecord("a", 10, 10, proposals, np.zeros((2, 2)),
                        WeakAnnotation(ImageLabel((1,))))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, value):
        features = np.zeros((2, 2))
        features[1, 0] = value
        with pytest.raises(ValueError, match="features must be finite"):
            ImageRecord("a", 10, 10, isolated_boxes(2), features,
                        WeakAnnotation(ImageLabel((1,))))

    def test_proposals_are_float64_coordinates(self):
        rec = ImageRecord("a", 10, 10, [[0, 0, 5, 5], [1, 1, 4, 6]], np.zeros((2, 2)),
                          WeakAnnotation(ImageLabel((1,))))
        assert rec.proposals.dtype == np.float64
        assert rec.proposals.shape == (2, 4)
        assert rec.num_proposals == 2

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ValueError, match="feature matrix"):
            ImageRecord("a", 10, 10, isolated_boxes(2), np.zeros((3, 2)),
                        WeakAnnotation(ImageLabel((1,))))

    def test_rejects_non_positive_canvas(self):
        with pytest.raises(ValueError, match="non-positive"):
            ImageRecord("a", 0, 10, isolated_boxes(1), np.zeros((1, 2)),
                        WeakAnnotation(ImageLabel((1,))))

    def test_ground_truth_category_must_be_foreground(self):
        with pytest.raises(ValueError, match=">= 1"):
            GroundTruth(Box(0, 0, 1, 1), 0)

    def test_positive_categories_for_both_kinds(self):
        weak = random_weak_record(np.random.default_rng(0), num_present=2)
        assert positive_categories(weak) == weak.annotation.label.categories
        box = Box(0, 0, 10, 10)
        strong = strong_record("s", boxes_to_array([box]), np.zeros((1, 2)),
                               [(box, 2), (box, 2), (box, 1)])
        assert positive_categories(strong) == (1, 2)


class TestDatasetContainer:
    def test_rejects_duplicate_ids(self):
        rng = np.random.default_rng(1)
        records = [random_weak_record(rng, "same"),
                   random_weak_record(rng, "same")]
        with pytest.raises(ValueError, match="duplicate image ids"):
            Dataset(records)

    def test_rejects_mixed_feature_dims(self):
        rng = np.random.default_rng(2)
        records = [random_weak_record(rng, "a", feature_dim=4),
                   random_weak_record(rng, "b", feature_dim=5)]
        with pytest.raises(ValueError, match="mixed feature dimensions"):
            Dataset(records)

    def test_lookup_and_iteration(self):
        rng = np.random.default_rng(3)
        records = [random_weak_record(rng, f"r{n}") for n in range(3)]
        ds = Dataset(records)
        assert len(ds) == 3
        assert ds.by_id("r1") is records[1]
        assert [r.image_id for r in ds] == ["r0", "r1", "r2"]
        assert ds[2] is records[2]


class TestGeneratorConfigValidation:
    def test_feature_dim_must_fit_categories(self):
        with pytest.raises(ValueError, match="too small"):
            GeneratorConfig(num_fg_categories=8, feature_dim=8)

    def test_minimum_proposals(self):
        with pytest.raises(ValueError):
            GeneratorConfig(proposals_per_image=3)

    def test_object_size_range(self):
        with pytest.raises(ValueError):
            GeneratorConfig(min_object_size=30.0, max_object_size=20.0)

    def test_objects_must_fit_canvas(self):
        with pytest.raises(ValueError):
            GeneratorConfig(max_object_size=200.0)

    def test_config_hash_tracks_content(self):
        assert config_hash(GeneratorConfig()) == config_hash(GeneratorConfig())
        assert config_hash(GeneratorConfig()) != config_hash(GeneratorConfig(seed=1))


class TestGenerate:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        paths = []
        for n in range(2):
            train, _ = generate(SMALL)
            path = tmp_path / f"run{n}.jsonl"
            save_dataset(train, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_default_sizes(self):
        train, test = generate(GeneratorConfig())
        assert len(train) == 200
        assert len(test) == 100
        assert train.feature_dim == 16
        assert all(r.num_proposals == 50 for r in train)

    def test_everything_is_strong_and_inside_the_canvas(self):
        train, test = generate(SMALL)
        for ds in (train, test):
            for rec in ds:
                assert not rec.is_weak
                assert 1 <= len(rec.annotation.objects) <= 3
                x1, y1, x2, y2 = rec.proposals.T
                assert np.all((0.0 <= x1) & (x1 < x2) & (x2 <= SMALL.canvas_width))
                assert np.all((0.0 <= y1) & (y1 < y2) & (y2 <= SMALL.canvas_height))
                for gt in rec.annotation.objects:
                    assert 1 <= gt.category <= SMALL.num_fg_categories

    def test_noise_free_features_are_scaled_prototypes(self):
        # single category, sigma 0: covered proposals carry their IoU in
        # column 0, everything else is exactly zero
        cfg = GeneratorConfig(n_train=6, n_test=1, num_fg_categories=1,
                              proposals_per_image=12, feature_dim=5,
                              noise_sigma=0.0, max_objects_per_image=1, seed=9)
        train, _ = generate(cfg)
        for rec in train:
            gt = rec.annotation.objects[0]
            overlap = iou_matrix(rec.proposals, boxes_to_array([gt.box]))[:, 0]
            covered = overlap >= CENTER_IOU
            assert np.allclose(rec.features[covered, 0], overlap[covered],
                               atol=1e-12)
            assert np.all(rec.features[~covered] == 0.0)
            assert np.all(rec.features[:, 1:] == 0.0)
            assert covered.any()


class TestSplitSemi:
    def source(self):
        train, _ = generate(SMALL)
        return train

    def test_fraction_zero_demotes_everything(self):
        out = split_semi(self.source(), 0.0, seed=0)
        assert all(r.is_weak for r in out)

    def test_fraction_one_keeps_everything_strong(self):
        src = self.source()
        out = split_semi(src, 1.0, seed=0)
        assert all(not r.is_weak for r in out)
        assert [r.image_id for r in out] == [r.image_id for r in src]

    def test_strong_count_is_rounded_fraction(self):
        train, _ = generate(GeneratorConfig(n_train=200, n_test=1))
        out = split_semi(train, 0.4, seed=0)
        assert sum(not r.is_weak for r in out) == 80

    def test_rejects_weak_source(self):
        weakened = split_semi(self.source(), 0.0, seed=0)
        with pytest.raises(ValueError, match="fully strong"):
            split_semi(weakened, 0.5, seed=0)

    def test_rejects_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError, match="fraction"):
            split_semi(self.source(), 1.5, seed=0)

    def test_demotion_preserves_the_label_set(self):
        src = self.source()
        out = split_semi(src, 0.0, seed=0)
        for before, after in zip(src, out):
            assert after.annotation.label.categories \
                == positive_categories(before)
            assert np.array_equal(after.proposals, before.proposals)
            assert np.array_equal(after.features, before.features)


class TestDemote:
    def test_weak_input_rejected(self):
        rec = random_weak_record(np.random.default_rng(5))
        with pytest.raises(ValueError, match="already weak"):
            demote(rec)

    def test_objectless_image_rejected(self):
        rec = strong_record("s", isolated_boxes(2), np.zeros((2, 3)), [])
        with pytest.raises(ValueError, match="no objects"):
            demote(rec)


class TestDatasetIo:
    def test_round_trip_preserves_records(self, tmp_path):
        train, _ = generate(SMALL)
        mixed = split_semi(train, 0.5, seed=1)
        path = tmp_path / "ds.jsonl"
        save_dataset(mixed, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(mixed)
        for before, after in zip(mixed, loaded):
            assert after.image_id == before.image_id
            assert after.proposals.dtype == np.float64
            assert np.array_equal(after.proposals, before.proposals)
            assert np.array_equal(after.features, before.features)
            assert after.is_weak == before.is_weak
            if before.is_weak:
                assert after.annotation == before.annotation
            else:
                assert after.annotation.objects == before.annotation.objects

    def test_resave_is_byte_identical(self, tmp_path):
        train, _ = generate(SMALL)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_dataset(train, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("proposals", [
        [[0, 0, 5, 5, 1]],
        [[0, 0, 5]],
        [[0, 0, 5, 5], [0, 0, 5]],
        [1, 2, 3, 4],
        [],
        [[0, 0, 0, 5]],
        [[0, 0, float("nan"), 5]],
        [[0, 0, 5, float("inf")]],
        [[0, 0, "x", 5]],
        "boxes",
    ])
    def test_malformed_proposals_report_line_number(self, tmp_path, proposals):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        rows = len(proposals) if isinstance(proposals, list) else 1
        bad = json.dumps({"id": "b", "width": 10, "height": 10,
                          "proposals": proposals, "features": [[1.0]] * rows,
                          "annotation": {"type": "weak", "z": [1]}})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2:")):
            load_dataset(path)

    def test_non_finite_features_report_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "width": 10, "height": 10,
                                    "proposals": [[0, 0, 5, 5]],
                                    "features": [[float("nan")]],
                                    "annotation": {"type": "weak", "z": [1]}}) + "\n")
        message = f"{path}:1: image a: features must be finite"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_dataset(path)

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(path)

    def test_missing_key_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "width": 10, "height": 10,
                                    "proposals": [[0, 0, 5, 5]],
                                    "annotation": {"type": "weak", "z": [1]}}) + "\n")
        with pytest.raises(SchemaError, match="'features'"):
            load_dataset(path)

    def test_feature_row_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": "a", "width": 10, "height": 10,
            "proposals": [[0, 0, 5, 5], [6, 6, 9, 9]],
            "features": [[1.0]],
            "annotation": {"type": "weak", "z": [1]}}) + "\n")
        with pytest.raises(SchemaError, match="1 feature rows for 2"):
            load_dataset(path)

    def test_duplicate_ids_are_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(SchemaError, match="duplicate image ids"):
            load_dataset(path)

    def test_unknown_annotation_type_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": "a", "width": 10, "height": 10,
            "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
            "annotation": {"type": "soft"}}) + "\n")
        with pytest.raises(SchemaError, match="annotation type"):
            load_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        line = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        path.write_text("\n" + line + "\n\n")
        assert len(load_dataset(path)) == 1


class TestInitScores:
    def test_shapes_and_determinism(self):
        train, _ = generate(SMALL)
        first = make_init_scores(train, noise_sigma=0.4, seed=1)
        second = make_init_scores(train, noise_sigma=0.4, seed=1)
        assert set(first) == {r.image_id for r in train}
        for rec in train:
            mat = first[rec.image_id]
            assert mat.shape == (rec.num_proposals, 3)
            assert np.all(mat >= 0.0)
            assert np.array_equal(mat, second[rec.image_id])

    def test_noise_free_scores_are_best_overlaps(self):
        box = Box(0, 0, 10, 10)
        proposals = boxes_to_array([box, Box(0, 0, 10, 5), Box(50, 50, 60, 60)])
        rec = strong_record("s", proposals, np.zeros((3, 4)), [(box, 2)])
        scores = make_init_scores(Dataset([rec]), noise_sigma=0.0, seed=0)["s"]
        assert scores.shape == (3, 2)
        assert np.allclose(scores[:, 1], [1.0, 0.5, 0.0], atol=1e-12)
        assert np.all(scores[:, 0] == 0.0)

    def test_rejects_weak_records(self):
        rec = random_weak_record(np.random.default_rng(7))
        with pytest.raises(ValueError, match="ground truth"):
            make_init_scores(Dataset([rec]))

    def test_round_trip(self, tmp_path):
        train, _ = generate(SMALL)
        scores = make_init_scores(train, seed=2)
        path = tmp_path / "scores.jsonl"
        save_init_scores(scores, path)
        loaded = load_init_scores(path)
        assert set(loaded) == set(scores)
        for key in scores:
            assert np.array_equal(loaded[key], scores[key])

    def test_load_rejects_negative_scores(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        path.write_text(json.dumps({"id": "a", "scores": [[0.5, -0.1]]}) + "\n")
        with pytest.raises(SchemaError, match="non-negative"):
            load_init_scores(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"id": "a"}) + "\n")
        with pytest.raises(SchemaError, match="'scores'"):
            load_init_scores(path)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"id": "a", "scores": [[0.5]]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_init_scores(path)
