"""Tests for detection, average precision, and correct-localization scoring.

The AP worked example is computed by hand in the comments; the perfect-scorer
case is constructed so every metric must come out exactly 1.0.
"""

import hashlib
import json
import re

import numpy as np
import pytest

import emdet.metrics
from emdet.data import Dataset, GeneratorConfig, SchemaError, generate, make_init_scores
from emdet.geometry import Box, boxes_to_array
from emdet.metrics import (
    MATCH_IOU,
    Detection,
    MetricsReport,
    _ground_truth,
    _match_category,
    corloc,
    corloc_from_scores,
    detect,
    detections_from_scores,
    eleven_point_ap,
    evaluate_detections,
    load_detections,
    save_detections,
)
from emdet.scorer import ScorerParams
from helpers import isolated_boxes, random_weak_record, strong_record, weak_record
from referees import naive_match_category

GT_BOX = Box(0.0, 0.0, 10.0, 10.0)
FAR_BOX = Box(50.0, 50.0, 60.0, 60.0)


def two_image_dataset():
    """Two strong images, one category-1 ground-truth box each."""
    records = [strong_record(name, boxes_to_array([GT_BOX, FAR_BOX]), np.zeros((2, 3)),
                             [(GT_BOX, 1)]) for name in ("img_a", "img_b")]
    return Dataset(records)


def worked_detections():
    # ranked: hit on img_a, miss on img_a, hit on img_b
    return [Detection("img_a", 1, GT_BOX, 0.9),
            Detection("img_a", 1, FAR_BOX, 0.8),
            Detection("img_b", 1, GT_BOX, 0.7)]


class TestElevenPointAp:
    def test_hand_curve(self):
        # flags (T, F, T) over 2 ground truths: recalls (.5, .5, 1),
        # precisions (1, .5, 2/3); six levels see 1.0, five see 2/3
        recalls = np.array([0.5, 0.5, 1.0])
        precisions = np.array([1.0, 0.5, 2.0 / 3.0])
        assert abs(eleven_point_ap(recalls, precisions) - 28.0 / 33.0) < 1e-12

    def test_perfect_curve(self):
        assert eleven_point_ap(np.array([1.0]), np.array([1.0])) == 1.0


class TestAveragePrecision:
    def test_worked_example(self):
        ap = evaluate_detections(two_image_dataset(), worked_detections(), [1]).ap[1]
        assert abs(ap - 28.0 / 33.0) < 1e-9

    def test_all_matched_is_one(self):
        dets = [Detection("img_a", 1, GT_BOX, 0.9),
                Detection("img_b", 1, GT_BOX, 0.8)]
        assert evaluate_detections(two_image_dataset(), dets, [1]).ap[1] == 1.0

    def test_no_detections_is_zero(self):
        assert evaluate_detections(two_image_dataset(), [], [1]).ap[1] == 0.0

    def test_no_ground_truth_is_none(self):
        report = evaluate_detections(two_image_dataset(), worked_detections(), [2])
        assert report.ap[2] is None

    def test_ground_truth_matched_at_most_once(self):
        # the duplicate hit must count as a false positive
        dets = [Detection("img_a", 1, GT_BOX, 0.9),
                Detection("img_a", 1, GT_BOX, 0.8)]
        report = evaluate_detections(two_image_dataset(), dets)
        assert report.counts[1] == {"tp": 1, "fp": 1, "gt": 2}

    def test_trailing_false_positive_never_helps(self):
        dataset = two_image_dataset()
        rng = np.random.default_rng(0)
        for _ in range(20):
            dets = [Detection("img_a", 1, GT_BOX if rng.random() < 0.6 else FAR_BOX,
                              float(rng.uniform(0.3, 1.0)))
                    for _ in range(int(rng.integers(1, 6)))]
            base = evaluate_detections(dataset, dets, [1]).ap[1]
            extended = dets + [Detection("img_b", 1, FAR_BOX, 0.01)]
            assert evaluate_detections(dataset, extended, [1]).ap[1] <= base + 1e-12


class TestEvaluateDetections:
    def test_mean_skips_undefined_categories(self):
        dets = worked_detections() + [Detection("img_a", 2, FAR_BOX, 0.5)]
        report = evaluate_detections(two_image_dataset(), dets)
        assert report.ap[2] is None
        assert abs(report.mean_ap - report.ap[1]) < 1e-12

    def test_mean_is_mean_of_defined(self):
        records = [strong_record("a", boxes_to_array([GT_BOX, FAR_BOX]), np.zeros((2, 3)),
                                 [(GT_BOX, 1), (FAR_BOX, 2)])]
        dets = [Detection("a", 1, GT_BOX, 0.9),
                Detection("a", 2, GT_BOX, 0.8)]
        report = evaluate_detections(Dataset(records), dets)
        assert report.ap[1] == 1.0
        assert report.ap[2] == 0.0
        assert abs(report.mean_ap - 0.5) < 1e-12

    def test_json_dict_uses_string_keys(self):
        report = MetricsReport({1: 0.5, 2: None}, 0.5,
                               {1: {"tp": 1, "fp": 0, "gt": 2}},
                               corloc={1: 1.0}, mean_corloc=1.0)
        payload = report.to_json_dict()
        assert payload["ap"] == {"1": 0.5, "2": None}
        assert payload["counts"] == {"1": {"tp": 1, "fp": 0, "gt": 2}}
        assert payload["corloc"] == {"1": 1.0}
        assert payload["mean_corloc"] == 1.0


def saturated_setup():
    """Three images, one planted category each, a scorer that nails them.

    Per image: one proposal identical to the ground truth carrying a scaled
    basis-vector feature, two isolated all-zero background boxes.
    """
    records = []
    for n, cat in enumerate((1, 2, 3)):
        gt = Box(0, 0, 10, 10)
        proposals = boxes_to_array([gt, Box(30, 30, 40, 40), Box(60, 60, 70, 70)])
        features = np.zeros((3, 3))
        features[0, cat - 1] = 1.0
        records.append(strong_record(f"img_{n}", proposals, features, [(gt, cat)]))
    weights = np.zeros((4, 4))
    for cat in (1, 2, 3):
        weights[cat, cat - 1] = 20.0
    return Dataset(records), ScorerParams(weights)


class TestDetect:
    def test_threshold_above_one_yields_nothing(self):
        dataset, params = saturated_setup()
        assert detect(dataset, params, score_threshold=1.01) == []

    def test_perfect_scorer_reaches_map_one(self):
        dataset, params = saturated_setup()
        report = evaluate_detections(dataset, detect(dataset, params))
        assert report.ap == {1: 1.0, 2: 1.0, 3: 1.0}
        assert report.mean_ap == 1.0

    def test_nms_suppresses_overlapping_lower_scores(self):
        # boxes A and B overlap at IoU 81/119 > 0.4, C is far away
        boxes = [Box(0, 0, 10, 10), Box(1, 1, 11, 11), Box(20, 20, 30, 30)]
        features = np.array([[3.0], [2.0], [1.0]])
        rec = strong_record("img", boxes_to_array(boxes), features, [(boxes[0], 1)])
        params = ScorerParams(np.array([[0.0, 0.0], [2.0, 0.0]]))
        dets = detect(Dataset([rec]), params)
        assert [d.box for d in dets] == [boxes[0], boxes[2]]

    def test_dim_mismatch_names_both_sides(self):
        dataset, _ = saturated_setup()
        with pytest.raises(ValueError, match="7-dim features.*3-dim features"):
            detect(dataset, ScorerParams.zeros(4, 7))


class TestDetectionsFromScores:
    def test_global_peak_scaling_and_threshold(self):
        boxes = isolated_boxes(2)
        gt = Box(*boxes[0])
        records = [strong_record("a", boxes, np.zeros((2, 2)), [(gt, 1)]),
                   strong_record("b", boxes, np.zeros((2, 2)), [(gt, 1)])]
        scores = {"a": np.array([[5.0], [1.0]]),
                  "b": np.array([[2.0], [0.04]])}
        dets = detections_from_scores(Dataset(records), scores)
        # peak 5 scales columns to (1, .2) and (.4, .008); .008 < .01 drops
        assert sorted(d.score for d in dets) == [0.2, 0.4, 1.0]

    def test_missing_image_is_rejected(self):
        boxes = isolated_boxes(1)
        records = [strong_record("a", boxes, np.zeros((1, 2)), [(Box(*boxes[0]), 1)])]
        with pytest.raises(ValueError, match="no scores for image"):
            detections_from_scores(Dataset(records), {"other": np.ones((1, 1))})

    @pytest.mark.parametrize("other", [np.zeros((3, 1)), np.full((3, 4), 100.0)])
    def test_entries_for_other_images_change_nothing(self, other):
        # a narrower matrix must not cut the categories, a larger score not the peaks
        _, test = generate(GeneratorConfig(n_train=1, n_test=5, seed=0))
        scores = make_init_scores(test, seed=2)
        expected = detections_from_scores(test, scores)
        assert len(expected) > 0
        assert detections_from_scores(test, {**scores, "other": other}) == expected


class TestCorloc:
    def test_half_right_hand_example(self):
        # top proposal overlaps at 0.6 in one image, 0.3 in the other
        rec_hit = strong_record("hit", boxes_to_array([Box(0, 0, 6, 10), FAR_BOX]),
                                np.zeros((2, 2)), [(GT_BOX, 1)])
        rec_miss = strong_record("miss", boxes_to_array([Box(0, 0, 3, 10), FAR_BOX]),
                                 np.zeros((2, 2)), [(GT_BOX, 1)])
        scores = {"hit": np.array([[0.9], [0.1]]),
                  "miss": np.array([[0.9], [0.1]])}
        table, mean = corloc_from_scores(Dataset([rec_hit, rec_miss]), scores)
        assert table == {1: 0.5}
        assert mean == 0.5

    def test_iou_at_the_threshold_is_correct(self):
        # the top proposal covers the top half of the ground truth: IoU 50/100 == 0.5
        rec = strong_record("edge", boxes_to_array([Box(0, 0, 10, 5), FAR_BOX]),
                            np.zeros((2, 2)), [(GT_BOX, 1)])
        scores = {"edge": np.array([[0.9], [0.1]])}
        assert corloc_from_scores(Dataset([rec]), scores) == ({1: 1.0}, 1.0)
        assert corloc_from_scores(Dataset([rec]), scores, 0.51) == ({1: 0.0}, 0.0)

    def test_perfect_scorer_localizes_everything(self):
        dataset, params = saturated_setup()
        table, mean = corloc(dataset, params)
        assert table == {1: 1.0, 2: 1.0, 3: 1.0}
        assert mean == 1.0

    def test_weak_images_are_rejected(self):
        rec = random_weak_record(np.random.default_rng(0), feature_dim=2)
        with pytest.raises(ValueError, match="strong variant"):
            corloc_from_scores(Dataset([rec]), {"img_0": np.ones((6, 2))})

    def test_objectless_dataset_has_no_mean(self):
        rec = strong_record("empty", isolated_boxes(2), np.zeros((2, 2)), [])
        table, mean = corloc_from_scores(Dataset([rec]), {"empty": np.ones((2, 1))})
        assert table == {}
        assert mean is None


def grid_box(rng):
    x, y = rng.integers(0, 10, size=2)
    w, h = rng.integers(2, 7, size=2)
    return Box(float(x), float(y), float(x + w), float(y + h))


def matching_case(rng):
    """Five strong images and one weak one on an integer grid, with detections
    that copy, shift or miss their ground truth and share three scores."""
    records, detections = [], []
    for n in range(6):
        image_id = f"img_{(n * 7) % 6}"
        objects = [(grid_box(rng), int(c)) for c in rng.integers(1, 3, size=rng.integers(0, 4))]
        if n == 5:
            records.append(weak_record(image_id, isolated_boxes(2), np.zeros((2, 2)), (1,)))
        else:
            records.append(strong_record(image_id, isolated_boxes(2), np.zeros((2, 2)), objects))
        for _ in range(int(rng.integers(0, 7))):
            if objects and rng.random() < 0.7:
                gt, category = objects[int(rng.integers(len(objects)))]
                dx, dy = rng.integers(-1, 2, size=2)
                box = Box(gt.x1 + dx, gt.y1 + dy, gt.x2 + dx, gt.y2 + dy)
            else:
                box, category = grid_box(rng), int(rng.integers(1, 3))
            detections.append(Detection(image_id, category, box,
                                        float(rng.choice([0.3, 0.6, 0.9]))))
    rng.shuffle(detections)
    return Dataset(records), detections


class TestMatchingAgainstReferee:
    """_match_category reads one IoU matrix per image; referees.naive_match_category
    is the scalar loop it replaced."""

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_flags_and_counts_match_the_scalar_loop(self, threshold):
        rng = np.random.default_rng(17)
        for _ in range(60):
            dataset, detections = matching_case(rng)
            for category in (1, 2, 3):
                flags, num_gt = _match_category(_ground_truth(dataset), detections, category,
                                                threshold)
                expected, expected_gt = naive_match_category(dataset, detections, category,
                                                             threshold)
                assert flags.tolist() == expected.tolist()
                assert num_gt == expected_gt

    def match(self, objects, detections, threshold=MATCH_IOU):
        record = strong_record("img", isolated_boxes(2), np.zeros((2, 2)), objects)
        flags, num_gt = _match_category(_ground_truth(Dataset([record])), detections, 1,
                                        threshold)
        expected, expected_gt = naive_match_category(Dataset([record]), detections, 1,
                                                     threshold)
        assert flags.tolist() == expected.tolist() and num_gt == expected_gt
        return flags.tolist()

    def test_equal_iou_goes_to_the_first_ground_truth(self):
        # the first detection overlaps both boxes at 75/125 == 0.6; the second
        # is the first box, and meets the second at only 50/150
        first, second = Box(0, 0, 10, 10), Box(5, 0, 15, 10)
        dets = [Detection("img", 1, Box(2.5, 0, 12.5, 10), 0.9),
                Detection("img", 1, first, 0.8)]
        assert self.match([(first, 1), (second, 1)], dets) == [True, False]
        assert self.match([(second, 1), (first, 1)], dets) == [True, True]

    def test_iou_at_the_threshold_matches(self):
        dets = [Detection("img", 1, Box(0, 0, 10, 5), 0.9)]
        assert self.match([(GT_BOX, 1)], dets) == [True]
        assert self.match([(GT_BOX, 1)], dets, 0.51) == [False]

    def test_zero_iou_never_matches(self):
        dets = [Detection("img", 1, FAR_BOX, 0.9), Detection("img", 1, Box(10, 0, 20, 10), 0.8)]
        assert self.match([(GT_BOX, 1)], dets, 0.0) == [False, False]

    def test_image_without_ground_truth_of_the_category(self):
        dets = [Detection("img", 1, GT_BOX, 0.9)]
        assert self.match([(GT_BOX, 2)], dets, 0.0) == [False]

    def test_score_ties_rank_by_image_id(self):
        records = [strong_record(name, isolated_boxes(2), np.zeros((2, 2)), [(GT_BOX, 1)])
                   for name in ("b", "a")]
        dets = [Detection("b", 1, FAR_BOX, 0.5), Detection("a", 1, GT_BOX, 0.5),
                Detection("a", 1, GT_BOX, 0.5)]
        flags, num_gt = _match_category(_ground_truth(Dataset(records)), dets, 1, MATCH_IOU)
        expected, _ = naive_match_category(Dataset(records), dets, 1, MATCH_IOU)
        assert flags.tolist() == expected.tolist() == [True, False, False]
        assert num_gt == 2


def refuse_iou(*args, **kwargs):
    raise AssertionError("an IoU was built before the score map was checked")


class TestScoreMapValidation:
    """Both score-map baselines check every image's matrix before any IoU."""

    @pytest.fixture
    def case(self, monkeypatch):
        monkeypatch.setattr(emdet.metrics, "iou_matrix", refuse_iou)
        monkeypatch.setattr(emdet.metrics, "nms", refuse_iou)
        train, _ = generate(GeneratorConfig(n_train=4, n_test=1, seed=0))
        return train, make_init_scores(train, seed=1)

    BASELINES = [detections_from_scores, corloc_from_scores]

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_missing_image_is_named(self, case, baseline):
        train, scores = case
        del scores["train_0003"]
        with pytest.raises(ValueError, match="no scores for image train_0003"):
            baseline(train, scores)

    @pytest.mark.parametrize("rows", [53, 10])
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_wrong_row_count_is_named(self, case, baseline, rows):
        train, scores = case
        mat = scores["train_0003"]
        scores["train_0003"] = np.resize(mat, (rows, mat.shape[1]))
        with pytest.raises(ValueError, match=f"image train_0003: score shape \\({rows}, 4\\) "
                                             f"does not cover 50 proposals"):
            baseline(train, scores)

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_one_dimensional_scores_are_named(self, case, baseline):
        train, scores = case
        scores["train_0003"] = scores["train_0003"][:, 0]
        with pytest.raises(ValueError, match="image train_0003: score shape \\(50,\\)"):
            baseline(train, scores)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.25])
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_non_finite_or_negative_score_is_named(self, case, baseline, value):
        train, scores = case
        scores["train_0002"][7, 1] = value
        with pytest.raises(ValueError, match="image train_0002: scores must be finite "
                                             "and non-negative"):
            baseline(train, scores)

    def test_too_few_columns_for_corloc_are_named(self, case):
        train, scores = case
        scores["train_0003"] = scores["train_0003"][:, :2]
        with pytest.raises(ValueError, match="image train_0003: .* and 4 categories"):
            corloc_from_scores(train, scores)


class TestDetectionIo:
    def test_round_trip(self, tmp_path):
        dets = worked_detections()
        path = tmp_path / "dets.jsonl"
        save_detections(dets, path)
        assert load_detections(path) == dets

    def test_non_object_line_reports_position(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text("\n5\n")
        with pytest.raises(SchemaError, match=":2: expected a JSON object"):
            load_detections(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(SchemaError, match=":1"):
            load_detections(path)

    @pytest.mark.parametrize("category", [1.7, "2", True, None])
    def test_category_must_be_a_json_integer(self, tmp_path, category):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "category": 1, "box": [0, 0, 5, 5], "score": 0.5}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "category": category}) + "\n")
        message = f"{path}:2: category must be an integer, got {json.dumps(category)}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_detections(path)


    @pytest.mark.parametrize("edit, message", [
        ({"score": float("nan")}, "score must be finite, got NaN"),
        ({"score": float("inf")}, "score must be finite, got Infinity"),
        ({"score": "0.5"}, 'score must be a number, got "0.5"'),
        ({"score": True}, "score must be a number, got true"),
        ({"box": [0, "0", 5, 5]}, 'box coordinate must be a number, got "0"'),
        ({"box": [0, 0, True, 5]}, "box coordinate must be a number, got true"),
    ], ids=["nan", "inf", "string", "bool", "box_string", "box_bool"])
    def test_score_and_box_must_be_json_numbers(self, tmp_path, edit, message):
        # float() would read each of these, and evaluate_detections would rank a NaN
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "category": 1, "box": [0, 0, 5, 5], "score": 0.5}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **edit}) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_detections(path)

PINNED_RUNS = {"desk_s0": (0, {}), "desk_s3": (3, {}),
               "large_s0": (0, {"n_train": 100, "n_test": 50, "proposals_per_image": 200})}

PINNED_EVAL_DIGESTS = {
    "desk_s0": ("450d720d373bf235b596c50e182b75258a5261f0d8f7750ae20ec3a742449737",
                "a2746855a1fc0e46f706c00f15660e51ea9c46617e15876aaf118434024aa35e"),
    "desk_s3": ("5565b99a10acb5f110cdc869c02e21471d11ffdab397f96088e5d7f9871194aa",
                "0af87249dfb657a302467b6efb4d0fc60b9aff682b903e154b1d7e2fd0fe47df"),
    "large_s0": ("ef01396c4bb006d5c59f8b0d406ae8fd48648035595ec6935aea63d203e5473c",
                 "ff6b8105a04e404318650f45e7f320cc0658724f20b12326d2c12fa358cd1f63"),
}


def evaluation_digest(test, train, detections, corloc_result):
    """sha256 of the detections, their evaluation JSON and the CorLoc table."""
    digest = hashlib.sha256()
    for det in detections:
        digest.update(json.dumps([det.image_id, det.category, det.box.to_list(),
                                  det.score]).encode())
    report = evaluate_detections(test, detections).to_json_dict()
    digest.update(json.dumps(report, sort_keys=True).encode())
    table, mean = corloc_result
    digest.update(json.dumps([sorted(table.items()), mean]).encode())
    return digest.hexdigest()


class TestPinnedEvaluation:
    """sha256 of detect, evaluate_detections and CorLoc under a fixed scorer, and of
    the init-score baselines, on generated benchmark data, recorded while NMS,
    AP matching and CorLoc still called a scalar IoU.  The other tests check
    hand cases; these pin every byte of the full evaluation."""

    @pytest.fixture(scope="class", params=sorted(PINNED_RUNS))
    def run(self, request):
        seed, sizes = PINNED_RUNS[request.param]
        train, test = generate(GeneratorConfig(seed=seed, **sizes))
        # prototype-aligned weights plus noise: a scorer that localizes, not perfectly
        rng = np.random.default_rng(11)
        weights = rng.normal(0.0, 0.5, size=(5, train.feature_dim + 1))
        weights[1:, :4] += 6.0 * np.eye(4)
        return request.param, train, test, ScorerParams(weights)

    def test_scorer_digest_is_pinned(self, run):
        name, train, test, params = run
        digest = evaluation_digest(test, train, detect(test, params), corloc(train, params))
        assert digest == PINNED_EVAL_DIGESTS[name][0]

    def test_init_score_baseline_digest_is_pinned(self, run):
        name, train, test, _ = run
        seed = PINNED_RUNS[name][0]
        detections = detections_from_scores(test, make_init_scores(test, seed=seed + 2))
        digest = evaluation_digest(
            test, train, detections,
            corloc_from_scores(train, make_init_scores(train, seed=seed + 1)))
        assert digest == PINNED_EVAL_DIGESTS[name][1]
