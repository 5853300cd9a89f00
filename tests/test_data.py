"""Tests for dataset records, the synthetic generator, splits, and IO."""

import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emdet.data
import emdet.engine
import referees
from emdet.data import (
    Dataset,
    GeneratorConfig,
    ImageRecord,
    SchemaError,
    StrongAnnotation,
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
from helpers import (NON_INTEGER_CATEGORIES, isolated_boxes, random_box, random_boxes,
                     random_weak_record, strong_record)
from referees import naive_generate, naive_init_scores

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

    @pytest.mark.parametrize("boxes, categories, message", [
        pytest.param([[0, 0, 1, 1]], [0], ">= 1", id="category_0"),
        pytest.param([[0, 0, 1, 1], [0, 0, 2, 2]], [1, -3],
                     "ground-truth category must be >= 1, got -3", id="category_negative"),
        pytest.param([[0, 0, np.nan, 1]], [1], "ground-truth object coordinates must be finite",
                     id="nan"),
        pytest.param([[0, 0, 1, np.inf]], [1], "ground-truth object coordinates must be finite",
                     id="inf"),
        pytest.param([[0, 0, 1, 1], [2, 0, 2, 1]], [1, 1],
                     re.escape("degenerate ground-truth object 1: [2.0, 0.0, 2.0, 1.0]"),
                     id="zero_width"),
        pytest.param([[0, 1, 1, 0]], [1], "degenerate ground-truth object 0", id="flipped"),
        pytest.param([[0, 0, 1, 1, 1]], [1], re.escape("a (m, 4) array"), id="five_columns"),
        pytest.param([0, 0, 1, 1], [1], re.escape("got shape (4,)"), id="one_dimensional"),
        pytest.param([], [], re.escape("got shape (0,)"), id="empty_list"),
        pytest.param([[0, 0, 1, 1]], [1, 2],
                     re.escape("categories of shape (2,) for boxes of shape (1, 4)"),
                     id="more_categories"),
        pytest.param([[0, 0, 1, 1], [0, 0, 2, 2]], [1],
                     re.escape("categories of shape (1,) for boxes of shape (2, 4)"),
                     id="fewer_categories"),
        pytest.param([[0, 0, 1, 1]], [[1]], re.escape("categories of shape (1, 1)"),
                     id="category_matrix"),
        *(pytest.param([[0, 0, 1, 1], [0, 0, 2, 2]], [1, value],
                       re.escape(f"ground-truth category must be an integer, got {value!r}"),
                       id=f"category_{name}")
          for name, value in (("float", 1.7), ("bool", True), ("string", "3"),
                              ("numpy_float", np.float64(2.0)))),
        pytest.param([[0, 0, 1, 1]], np.array([1.0]),
                     re.escape("ground-truth category must be an integer, got 1.0"),
                     id="float_array"),
        pytest.param([[0, 0, 5, 5], [0, 0, 5], [1, 2]], [1, 1, 1],
                     re.escape("ground-truth object 1 must be [x1, y1, x2, y2], got [0, 0, 5]"),
                     id="ragged"),
    ])
    def test_strong_annotation_checks(self, boxes, categories, message):
        with pytest.raises(ValueError, match=message):
            StrongAnnotation(boxes, categories)

    def test_ragged_proposals_name_their_first_short_row(self):
        with pytest.raises(ValueError, match=re.escape(
                "image a: proposal 2 must be [x1, y1, x2, y2], got [0, 0, 5, 5, 1]")):
            ImageRecord("a", 10, 10, [[0, 0, 5, 5], [1, 1, 6, 6], [0, 0, 5, 5, 1]],
                        np.zeros((3, 2)), WeakAnnotation(ImageLabel((1,))))

    def test_strong_annotation_arrays(self):
        empty = StrongAnnotation(np.empty((0, 4)), [])
        assert empty.boxes.shape == (0, 4) and empty.categories.shape == (0,)
        truth = StrongAnnotation([[0, 0, 1, 2], [1, 1, 3, 3]], np.array([2, 1], dtype=np.uint8))
        assert truth.boxes.dtype == np.float64 and truth.categories.dtype == np.int64
        assert truth.categories.tolist() == [2, 1]
        mixed = StrongAnnotation([[0, 0, 1, 2], [1, 1, 3, 3]], [np.int32(3), 1])
        assert mixed.categories.dtype == np.int64 and mixed.categories.tolist() == [3, 1]

    def test_positive_categories_for_both_kinds(self):
        weak = random_weak_record(np.random.default_rng(0), num_present=2)
        assert positive_categories(weak) == weak.annotation.label.categories
        box = Box(0, 0, 10, 10)
        strong = strong_record("s", boxes_to_array([box]), np.zeros((1, 2)),
                               [(box, 2), (box, 2), (box, 1)])
        assert positive_categories(strong) == (1, 2)


def test_data_and_engine_read_ground_truth_only_as_arrays():
    """Neither module names Box or boxes_to_array, so ground truth reaches them
    only as StrongAnnotation's arrays and a second format cannot creep back."""
    for module in (emdet.data, emdet.engine):
        tree = ast.parse(Path(module.__file__).read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"Box", "boxes_to_array"}, module.__name__


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

    @pytest.mark.parametrize("field", ["n_train", "n_test", "jitters_per_object", "seed"])
    def test_negative_counts_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            GeneratorConfig(**{field: -1})

    @pytest.mark.parametrize("sizes", [
        {"canvas_width": float("inf")},
        {"canvas_height": float("nan")},
    ])
    def test_non_finite_sizes_are_rejected(self, sizes):
        with pytest.raises(ValueError, match="must be finite"):
            GeneratorConfig(**sizes)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_sigma_is_rejected(self, sigma):
        with pytest.raises(ValueError,
                           match=re.escape(f"noise_sigma must be finite and >= 0, got {sigma}")):
            GeneratorConfig(noise_sigma=sigma)

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
                assert 1 <= len(rec.annotation.categories) <= 3
                x1, y1, x2, y2 = rec.proposals.T
                assert np.all((0.0 <= x1) & (x1 < x2) & (x2 <= SMALL.canvas_width))
                assert np.all((0.0 <= y1) & (y1 < y2) & (y2 <= SMALL.canvas_height))
                assert np.all((1 <= rec.annotation.categories)
                              & (rec.annotation.categories <= SMALL.num_fg_categories))

    def test_noise_free_features_are_scaled_prototypes(self):
        # single category, sigma 0: covered proposals carry their IoU in
        # column 0, everything else is exactly zero
        cfg = GeneratorConfig(n_train=6, n_test=1, num_fg_categories=1,
                              proposals_per_image=12, feature_dim=5,
                              noise_sigma=0.0, max_objects_per_image=1, seed=9)
        train, _ = generate(cfg)
        for rec in train:
            overlap = iou_matrix(rec.proposals, rec.annotation.boxes)[:, 0]
            covered = overlap >= CENTER_IOU
            assert np.allclose(rec.features[covered, 0], overlap[covered],
                               atol=1e-12)
            assert np.all(rec.features[~covered] == 0.0)
            assert np.all(rec.features[:, 1:] == 0.0)
            assert covered.any()


def _generate_with_states(generate_fn, image_fn_owner, image_fn_name, cfg):
    """generate_fn(cfg), plus the generator state after each of its images."""
    states = []
    original = getattr(image_fn_owner, image_fn_name)

    def image(rng, *args):
        record = original(rng, *args)
        states.append(rng.bit_generator.state)
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(image_fn_owner, image_fn_name, image)
        datasets = generate_fn(cfg)
    return datasets, states


def _record_bytes(record):
    truth = record.annotation
    return (record.image_id, record.width, record.height, record.proposals.tobytes(),
            record.features.tobytes(), truth.boxes.tobytes(), tuple(truth.categories.tolist()))


def assert_generate_matches_referee(cfg):
    fast, fast_states = _generate_with_states(generate, emdet.data, "_synthesize_image", cfg)
    naive, naive_states = _generate_with_states(naive_generate, referees, "naive_image", cfg)
    assert len(fast_states) == cfg.n_train + cfg.n_test
    for n, (a, b) in enumerate(zip(fast_states, naive_states, strict=True)):
        assert a == b, f"generator state differs after image {n}"
    for fast_set, naive_set in zip(fast, naive):
        assert [_record_bytes(r) for r in fast_set] == [_record_bytes(r) for r in naive_set]


REFEREE_CASES = {
    "default": {},
    "large_kem": {"n_train": 100, "n_test": 50, "proposals_per_image": 200},
    # B = 6 < J = 8, so every image draws jitters past B and drops them.
    "truncated_jitters": {"n_train": 20, "n_test": 10, "proposals_per_image": 6},
    "no_jitters": {"n_train": 20, "n_test": 10, "jitters_per_object": 0},
    "one_jitter": {"n_train": 20, "n_test": 10, "jitters_per_object": 1},
    "wide_canvas": {"n_train": 20, "n_test": 10, "canvas_width": 160.0, "canvas_height": 70.0},
    "integer_sizes": {"n_train": 20, "n_test": 10, "canvas_width": 100, "canvas_height": 90,
                      "min_object_size": 15, "max_object_size": 40},
    "five_categories": {"n_train": 20, "n_test": 10, "num_fg_categories": 5,
                        "max_objects_per_image": 4},
}


@st.composite
def generator_configs(draw):
    categories = draw(st.integers(1, 6))
    width = draw(st.one_of(st.integers(1, 300), st.floats(1.0, 300.0)))
    height = draw(st.one_of(st.integers(1, 300), st.floats(1.0, 300.0)))
    largest = min(width, height) * draw(st.floats(0.01, 1.0))
    return GeneratorConfig(
        n_train=draw(st.integers(0, 4)), n_test=draw(st.integers(0, 3)),
        num_fg_categories=categories,
        proposals_per_image=draw(st.integers(4, 40)),
        feature_dim=categories + 1 + draw(st.integers(0, 3)),
        noise_sigma=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2 ** 32)),
        canvas_width=width, canvas_height=height,
        min_object_size=largest * draw(st.floats(0.01, 1.0)), max_object_size=largest,
        jitters_per_object=draw(st.integers(0, 12)),
        max_objects_per_image=draw(st.integers(1, 6)))


class TestGenerateReferee:
    """generate draws every box from one uniform block; referees.naive_generate
    draws them one scalar at a time.  Both must give the same bytes and leave
    the generator in the same state after every image."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", REFEREE_CASES)
    def test_matches_naive_generate(self, case, seed):
        assert_generate_matches_referee(GeneratorConfig(seed=seed, **REFEREE_CASES[case]))

    @settings(max_examples=100, deadline=None)
    @given(generator_configs())
    def test_matches_naive_generate_on_any_config(self, cfg):
        assert_generate_matches_referee(cfg)


class TestGenerateChunks:
    """generate builds its images IMAGE_CHUNK box rows at a time; any chunk
    size gives the referee's bytes and generator states."""

    @pytest.mark.parametrize("chunk", [1, 100, 777])
    @pytest.mark.parametrize("case", ["default", "truncated_jitters", "five_categories"])
    def test_any_chunk_size_matches_naive_generate(self, monkeypatch, case, chunk):
        monkeypatch.setattr(emdet.data, "IMAGE_CHUNK", chunk)
        assert_generate_matches_referee(GeneratorConfig(seed=1, **REFEREE_CASES[case]))


def generation_digest(cfg):
    """sha256 of generate's records and the init scores of both splits."""
    digest = hashlib.sha256()
    train, test = generate(cfg)
    for offset, dataset in enumerate((train, test), start=1):
        for record in dataset:
            digest.update(record.image_id.encode())
            digest.update(np.array([record.width, record.height]).tobytes())
            for array in (record.proposals, record.features,
                          record.annotation.boxes, record.annotation.categories):
                digest.update(repr(array.shape).encode())
                digest.update(array.tobytes())
        for image_id, scores in make_init_scores(dataset, seed=cfg.seed + offset).items():
            digest.update(image_id.encode())
            digest.update(repr(scores.shape).encode())
            digest.update(scores.tobytes())
    return digest.hexdigest()


class TestGenerationDigest:
    """Generation is byte-identical for a given config.  The referees compare
    each fast path with its naive twin, so a change to both would pass them;
    these pinned digests would not."""

    @pytest.mark.parametrize("case, expected", [
        ("default", "2c5b0f20ce6a73ff0ab6fee8ee2399e5fbee0d17e0f2fdaad42cd9b9522cd9ed"),
        ("large_kem", "42ff1d51e55fd6df207c9d21a9d760bbee64ceddd3875e3b54ffdb9f1030cc35"),
    ])
    def test_seed_zero_digest_is_pinned(self, case, expected):
        assert generation_digest(GeneratorConfig(seed=0, **REFEREE_CASES[case])) == expected


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

    def test_rejects_a_negative_seed_before_any_draw(self, monkeypatch):
        source = self.source()
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="split seed must be >= 0, got -3"):
            split_semi(source, 0.5, seed=-3)

    def test_demotion_preserves_the_label_set(self):
        src = self.source()
        out = split_semi(src, 0.0, seed=0)
        for before, after in zip(src, out):
            assert after.annotation.label.categories \
                == positive_categories(before)
            assert np.array_equal(after.proposals, before.proposals)
            assert np.array_equal(after.features, before.features)


def split_digest(dataset):
    """sha256 of every record's id, size, annotation kind, categories and arrays."""
    digest = hashlib.sha256()
    for record in dataset:
        digest.update(repr((record.image_id, record.width, record.height, record.is_weak,
                            positive_categories(record))).encode())
        digest.update(record.proposals.tobytes())
        digest.update(record.features.tobytes())
    return digest.hexdigest()


class TestDemote:
    @pytest.mark.parametrize("fraction, expected", [
        (0.0, "95db8ddde9754444ee7bfe3e005f969bfd8d5d1797110e761440d0a32a90814f"),
        (0.5, "22b320ebffe312801a1a32f6a1de0c0dcce9f7708fb6eab3bd41a5f96ff6e6e7"),
    ])
    def test_split_digest_is_pinned(self, fraction, expected):
        train, _ = generate(SMALL)
        assert split_digest(split_semi(train, fraction, seed=0)) == expected

    def test_demoted_records_share_the_source_arrays(self):
        train, _ = generate(SMALL)
        for before, after in zip(train, split_semi(train, 0.0, seed=0)):
            assert after.proposals is before.proposals
            assert after.features is before.features
            assert after.is_weak and not before.is_weak

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
                assert after.annotation.boxes.tobytes() == before.annotation.boxes.tobytes()
                assert np.array_equal(after.annotation.categories, before.annotation.categories)

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

    def test_non_object_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        path.write_text(good + "\n\n5\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: expected a JSON object")):
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

    @pytest.mark.parametrize("annotation, message", NON_INTEGER_CATEGORIES)
    def test_category_ids_must_be_json_integers(self, tmp_path, annotation, message):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        bad = json.dumps({"id": "b", "width": 10, "height": 10,
                          "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                          "annotation": annotation})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ") + ".*" + re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        ({"width": "100"}, 'width must be a number, got "100"'),
        ({"height": True}, "height must be a number, got true"),
        ({"proposals": [[0, 0, 5, 5], ["0", 0, 5, 5]]},
         'proposal 1 must hold numbers, got ["0", 0, 5, 5]'),
        ({"features": [[1.0], ["0.5"]]}, 'feature row 1 must hold numbers, got ["0.5"]'),
        ({"features": [[True], [1.0]]}, "feature row 0 must hold numbers, got [true]"),
        ({"features": [[1.0], [1.0, 2.0]]},
         "feature row 1 must hold 1 numbers as feature row 0 does, got [1.0, 2.0]"),
        ({"annotation": {"type": "strong",
                         "objects": [{"box": [0, 0, 5, "5"], "category": 1}]}},
         'ground-truth object 0 must hold numbers, got [0, 0, 5, "5"]'),
    ], ids=["width", "height", "proposal", "feature", "feature_bool", "feature_ragged",
            "ground_truth"])
    def test_numbers_must_be_json_numbers(self, tmp_path, edit, message):
        # numpy would read "100" and true as 100.0 and 1.0
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "width": 10, "height": 10,
                "proposals": [[0, 0, 5, 5], [1, 1, 6, 6]], "features": [[1.0], [0.5]],
                "annotation": {"type": "weak", "z": [1]}}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **edit}) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: ") + ".*" + re.escape(message)):
            load_dataset(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        line = json.dumps({"id": "a", "width": 10, "height": 10,
                           "proposals": [[0, 0, 5, 5]], "features": [[1.0]],
                           "annotation": {"type": "weak", "z": [1]}})
        path.write_text("\n" + line + "\n\n")
        assert len(load_dataset(path)) == 1


# A zero-object strong image, a strong image with two boxes of one category
# (integer coordinates, written back as floats), and a weak image.
HAND_WRITTEN = [
    {"id": "empty", "width": 10, "height": 8, "proposals": [[0, 0, 5, 5], [1, 2, 9, 7.5]],
     "features": [[0.25, -1], [3, 0.5]], "annotation": {"type": "strong", "objects": []}},
    {"id": "pair", "width": 20.5, "height": 12, "proposals": [[0, 0, 4, 4], [10, 2, 18.25, 11]],
     "features": [[1, 0], [0, 1]],
     "annotation": {"type": "strong", "objects": [{"box": [0, 0, 4.5, 4], "category": 2},
                                                  {"box": [10, 2, 18, 11.75], "category": 2}]}},
    {"id": "weak", "width": 10, "height": 10, "proposals": [[2, 2, 6, 6]],
     "features": [[0.5, 0.5]], "annotation": {"type": "weak", "z": [3, 1]}},
]


class TestSavedBytes:
    """save_dataset's bytes are pinned, so a change to the record layout that
    keeps every in-memory referee happy still cannot change the files."""

    @pytest.mark.parametrize("split, expected", [
        (0, "6fb9927ebb487ffd02a0cfa3faa8e5234c9105a29457ff431c66681ad8433381"),
        (1, "646b100ca6f7779a246c60ff92cbe0a6631886a8ba898b907507edb6893c49a7"),
    ])
    def test_default_generator_splits_are_pinned(self, tmp_path, split, expected):
        path = tmp_path / "split.jsonl"
        save_dataset(generate(GeneratorConfig(seed=0))[split], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected

    def test_hand_written_round_trip_is_pinned(self, tmp_path):
        source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text("".join(json.dumps(obj) + "\n" for obj in HAND_WRITTEN))
        save_dataset(load_dataset(source), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "4fbb301a5ad9b026ceccb7da734ed196092ba210cd2d014833a5d45442dc32ca"


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

    def test_rejects_a_category_past_num_fg_categories_before_any_draw(self, monkeypatch):
        box = Box(0, 0, 10, 10)
        proposals = boxes_to_array([box, Box(0, 0, 10, 5)])
        ds = Dataset([strong_record("a", proposals, np.zeros((2, 4)), [(box, 1)]),
                      strong_record("b", proposals, np.zeros((2, 4)), [(box, 2), (box, 4)])])
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=re.escape(
                "image b: ground-truth category 4 exceeds num_fg_categories=2")):
            make_init_scores(ds, num_fg_categories=2)

    def test_rejects_fewer_than_one_category_before_any_draw(self, monkeypatch):
        train, _ = generate(SMALL)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="num_fg_categories must be >= 1, got 0"):
            make_init_scores(train, num_fg_categories=0)

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_rejects_a_bad_noise_sigma_before_any_draw(self, monkeypatch, sigma):
        train, _ = generate(SMALL)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError,
                           match=re.escape(f"noise_sigma must be finite and >= 0, got {sigma}")):
            make_init_scores(train, noise_sigma=sigma)

    def test_rejects_a_negative_seed_before_any_draw(self, monkeypatch):
        train, _ = generate(SMALL)
        monkeypatch.setattr(np.random, "default_rng", None)
        monkeypatch.setattr(emdet.data, "iou_matrix", None)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_init_scores(train, seed=-1)

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

    def test_load_rejects_a_non_object_line(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps({"id": "a", "scores": [[0.5]]}) + "\n5\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: expected a JSON object")):
            load_init_scores(path)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"id": "a", "scores": [[0.5]]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_init_scores(path)

    @pytest.mark.parametrize("scores, message", [
        ([[0.5, "1"]], 'score row 0 must hold numbers, got [0.5, "1"]'),
        ([[0.5], [True]], "score row 1 must hold numbers, got [true]"),
        ([[0.5, 0.1], [0.5]], "score row 1 must hold 2 numbers as score row 0 does, got [0.5]"),
        ([0.5, 0.1], "score rows must be a nonempty list of lists of numbers"),
        ([], "score rows must be a nonempty list of lists of numbers"),
    ], ids=["string", "bool", "ragged", "vector", "empty"])
    def test_load_rejects_what_is_no_matrix_of_numbers(self, tmp_path, scores, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "scores": [[0.5]]}) + "\n"
                        + json.dumps({"id": "b", "scores": scores}) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_init_scores(path)

    @pytest.mark.parametrize("first, second", [(5, 5), (5, "5")])
    def test_load_rejects_ids_equal_as_strings(self, tmp_path, first, second):
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps({"id": first, "scores": [[0.5]]}) + "\n"
                        + json.dumps({"id": second, "scores": [[0.7]]}) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: duplicate image id '5'")):
            load_init_scores(path)


def _scores_with_state(score_fn, dataset, **kwargs):
    """score_fn(dataset, **kwargs), plus the state its generator ends in."""
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording_rng)
        scores = score_fn(dataset, **kwargs)
    (rng,) = made
    return scores, rng.bit_generator.state


def assert_init_scores_match_referee(dataset, **kwargs):
    fast, fast_state = _scores_with_state(make_init_scores, dataset, **kwargs)
    naive, naive_state = _scores_with_state(naive_init_scores, dataset, **kwargs)
    assert list(fast) == list(naive)
    for image_id, expected in naive.items():
        assert fast[image_id].shape == expected.shape
        assert fast[image_id].tobytes() == expected.tobytes(), image_id
    assert fast_state == naive_state


@st.composite
def strong_datasets(draw):
    """Strong datasets of 1 to 6 images, each with its own proposal count and
    0 to 3 objects; boxes sit on a coarse grid, and objects are often exact
    copies of proposals, so overlaps cover 0, the CENTER_IOU edge and 1."""
    num_categories = draw(st.integers(1, 4))
    grid = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4))
    records = []
    for n in range(draw(st.integers(1, 6))):
        boxes = [Box(x, y, x + w, y + h)
                 for x, y, w, h in draw(st.lists(grid, min_size=1, max_size=9))]
        objects = [(draw(st.one_of(st.sampled_from(boxes), grid.map(
                        lambda r: Box(r[0], r[1], r[0] + r[2], r[1] + r[3])))),
                    draw(st.integers(1, num_categories)))
                   for _ in range(draw(st.integers(0, 3)))]
        records.append(strong_record(f"img_{n}", boxes_to_array(boxes),
                                     np.zeros((len(boxes), 2)), objects))
    return Dataset(records), num_categories


class TestInitScoresReferee:
    """make_init_scores scores a chunk of images at a time with one noise draw;
    referees.naive_init_scores scores one image at a time.  Both must give the
    same keys in the same order, the same bytes, and the same final generator
    state."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", REFEREE_CASES)
    def test_matches_naive_init_scores(self, monkeypatch, case, seed):
        train, test = generate(GeneratorConfig(seed=seed, **REFEREE_CASES[case]))
        for chunk in (emdet.data.IMAGE_CHUNK, 64):
            monkeypatch.setattr(emdet.data, "IMAGE_CHUNK", chunk)
            for offset, dataset in enumerate((train, test), start=1):
                assert_init_scores_match_referee(dataset, seed=seed + offset)

    @pytest.mark.parametrize("chunk", [1, 13, 4096])
    def test_matches_on_a_loaded_mixed_dataset(self, monkeypatch, tmp_path, chunk):
        rng = np.random.default_rng(11)
        records = []
        for n, (count, cats) in enumerate([(5, (1,)), (8, (2, 3)), (5, ()), (12, (1, 2, 3)),
                                           (8, (3,)), (5, (2, 1)), (12, (3, 3))]):
            proposals = random_boxes(rng, count)
            # The first object is one of the proposals, the rest fall anywhere.
            boxes = [Box(*proposals[0]), *(random_box(rng) for _ in cats[1:])]
            records.append(strong_record(f"img_{n}", proposals, rng.normal(size=(count, 3)),
                                         list(zip(boxes, cats))))
        path = tmp_path / "mixed.jsonl"
        save_dataset(Dataset(records), path)
        monkeypatch.setattr(emdet.data, "IMAGE_CHUNK", chunk)
        assert_init_scores_match_referee(load_dataset(path), noise_sigma=0.4, seed=5)

    @settings(max_examples=100, deadline=None)
    @given(strong_datasets(), st.floats(0.0, 2.0), st.integers(0, 2 ** 32),
           st.sampled_from([1, 7, 20, 4096]), st.integers(0, 2))
    def test_matches_naive_init_scores_on_any_dataset(self, case, sigma, seed, chunk, extra):
        dataset, num_categories = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(emdet.data, "IMAGE_CHUNK", chunk)
            assert_init_scores_match_referee(dataset, noise_sigma=sigma, seed=seed,
                                             num_fg_categories=num_categories + extra)
