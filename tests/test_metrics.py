"""Tests for detection, average precision, and correct-localization scoring.

The AP worked example is computed by hand in the comments; the perfect-scorer
case is constructed so every metric must come out exactly 1.0.
"""

import numpy as np
import pytest

from emdet.data import Dataset, SchemaError
from emdet.geometry import Box, boxes_to_array
from emdet.metrics import (
    Detection,
    MetricsReport,
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
from helpers import isolated_boxes, random_weak_record, strong_record

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
