import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdet.geometry import (Box, ScoredBox, boxes_to_array, iou,
                            iou_matrix, nms)


def box_strategy(max_coord=50.0):
    coords = st.floats(0.0, max_coord, allow_nan=False, allow_infinity=False)
    sizes = st.floats(0.5, max_coord, allow_nan=False, allow_infinity=False)
    return st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                     coords, coords, sizes, sizes)


class TestIou:
    def test_identical_boxes(self):
        assert iou(Box(0, 0, 2, 2), Box(0, 0, 2, 2)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_hand_value_one_seventh(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert abs(iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) - 1.0 / 7.0) < 1e-15

    def test_touching_edges_have_zero_overlap(self):
        assert iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0

    def test_bounds_and_symmetry_bulk(self):
        # 10^4 random pairs via the vectorized path
        rng = np.random.default_rng(0)
        n = 100
        boxes = []
        for _ in range(n):
            x1, y1 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(0.5, 40, size=2)
            boxes.append(Box(x1, y1, x1 + w, y1 + h))
        mat = iou_matrix(boxes_to_array(boxes))
        assert mat.shape == (n, n)
        assert np.all(mat >= 0.0) and np.all(mat <= 1.0)
        assert np.array_equal(mat, mat.T)
        assert np.allclose(np.diag(mat), 1.0, atol=0)

    @given(box_strategy(), box_strategy())
    def test_pairwise_agrees_with_matrix(self, a, b):
        value = iou(a, b)
        assert 0.0 <= value <= 1.0
        assert value == iou(b, a)
        mat = iou_matrix(boxes_to_array([a]), boxes_to_array([b]))
        assert mat[0, 0] == value


class TestBoxValidation:
    def test_rejects_inverted_x(self):
        with pytest.raises(ValueError):
            Box(2, 0, 1, 1)

    def test_rejects_zero_height(self):
        with pytest.raises(ValueError):
            Box(0, 3, 1, 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(0, 0, float("nan"), 1)

    def test_scored_box_requires_foreground_category(self):
        with pytest.raises(ValueError):
            ScoredBox(Box(0, 0, 1, 1), 0, 0.5)

    def test_scored_box_score_range(self):
        with pytest.raises(ValueError):
            ScoredBox(Box(0, 0, 1, 1), 1, 0.0)
        ScoredBox(Box(0, 0, 1, 1), 1, 1.0)


class TestNms:
    def worked_example(self):
        return [ScoredBox(Box(0, 0, 10, 10), 1, 0.9),
                ScoredBox(Box(1, 1, 11, 11), 1, 0.8),
                ScoredBox(Box(20, 20, 30, 30), 1, 0.7)]

    def test_worked_example_keeps_first_and_third(self):
        dets = self.worked_example()
        # IoU(box1, box2) = 81/119 > 0.4 so the middle one is suppressed
        assert abs(iou(dets[0].box, dets[1].box) - 81.0 / 119.0) < 1e-15
        kept = nms(dets, 0.4)
        assert kept == [dets[0], dets[2]]

    def test_single_detection_survives(self):
        det = ScoredBox(Box(0, 0, 5, 5), 2, 0.3)
        assert nms([det], 0.4) == [det]

    def test_threshold_one_keeps_everything(self):
        dets = self.worked_example()
        assert nms(dets, 1.0) == dets

    def test_mixed_categories_rejected(self):
        dets = [ScoredBox(Box(0, 0, 5, 5), 1, 0.9),
                ScoredBox(Box(0, 0, 5, 5), 2, 0.8)]
        with pytest.raises(ValueError):
            nms(dets, 0.4)

    def test_empty_input(self):
        assert nms([], 0.4) == []

    @settings(max_examples=60)
    @given(st.lists(st.tuples(box_strategy(), st.floats(0.01, 1.0)),
                    min_size=1, max_size=8),
           st.floats(0.0, 0.95))
    def test_survivors_are_sparse_subset(self, raw, threshold):
        dets = [ScoredBox(b, 1, s) for b, s in raw]
        kept = nms(dets, threshold)
        assert all(d in dets for d in kept)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert iou(a.box, b.box) <= threshold
