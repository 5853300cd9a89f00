import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdet.geometry import Box, ScoredBox, boxes_to_array, iou_matrix, nms
from emdet.metrics import Detection
from emdet.oracle import iou
from helpers import clustered_boxes
from referees import naive_nms


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


@st.composite
def box_stacks(draw):
    """(n, B, 4) and (n, m, 4) boxes on a coarse integer grid, so disjoint,
    touching and overlapping pairs all occur, and each b stack copies some
    of its a boxes exactly."""
    n, B, m = draw(st.integers(0, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    corners = st.integers(0, 6)
    sizes = st.integers(1, 4)

    def stack(rows):
        raw = np.array(draw(st.lists(st.tuples(corners, corners, sizes, sizes),
                                     min_size=n * rows, max_size=n * rows)),
                       dtype=np.float64).reshape(n, rows, 4)
        return np.concatenate([raw[..., :2], raw[..., :2] + raw[..., 2:]], axis=-1)

    a, b = stack(B), stack(m)
    copies = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, B - 1)),
                           max_size=m, unique_by=lambda t: t[0]))
    for dst, src in copies:
        b[:, dst] = a[:, src]
    return a, b


class TestBatchedIouMatrix:
    @settings(max_examples=200, deadline=None)
    @given(box_stacks())
    def test_stacked_call_equals_per_slice_calls(self, stacks):
        a, b = stacks
        batched = iou_matrix(a, b)
        assert batched.shape == (a.shape[0], a.shape[1], b.shape[1])
        for n in range(a.shape[0]):
            assert batched[n].tobytes() == iou_matrix(a[n], b[n]).tobytes()
        square = iou_matrix(a)
        for n in range(a.shape[0]):
            assert square[n].tobytes() == iou_matrix(a[n]).tobytes()

    def test_disjoint_touching_and_identical_slices(self):
        a = np.array([[[0, 0, 2, 2]], [[0, 0, 2, 2]], [[0, 0, 2, 2]]], dtype=np.float64)
        b = np.array([[[5, 5, 6, 6]], [[2, 0, 4, 2]], [[0, 0, 2, 2]]], dtype=np.float64)
        assert iou_matrix(a, b).tolist() == [[[0.0]], [[0.0]], [[1.0]]]


def _values():
    """A value, an equal one and a different one of each type built per proposal or detection."""
    box = Box(0.0, 0.0, 2.0, 3.0)
    return {
        "Box": (box, Box(0.0, 0.0, 2.0, 3.0), Box(0.0, 0.0, 2.0, 4.0)),
        "ScoredBox": (ScoredBox(box, 1, 0.5), ScoredBox(Box(0.0, 0.0, 2.0, 3.0), 1, 0.5),
                      ScoredBox(box, 2, 0.5)),
        "Detection": (Detection("img", 1, box, 0.5), Detection("img", 1, box, 0.5),
                      Detection("img", 1, box, 0.25)),
    }


class TestValueTypes:
    @pytest.mark.parametrize("name", sorted(_values()))
    def test_slotted_frozen_values(self, name):
        value, equal, other = _values()[name]
        assert not hasattr(value, "__dict__")
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(other, first))
        # a name that is no field is refused too; with slots, CPython's
        # frozen __setattr__ raises TypeError for it
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.extra = 1
        # field-wise equality and the hash of the field tuple, as a frozen dataclass has
        assert value == equal and value != other
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        assert hash(value) == hash(equal) == hash(fields)
        assert len({value, equal, other}) == 2


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
        for threshold in (0.0, 0.4, 1.0):
            assert nms([det], threshold) == naive_nms([det], threshold) == [det]

    def test_threshold_one_keeps_everything(self):
        dets = self.worked_example()
        assert nms(dets, 1.0) == dets

    def test_mixed_categories_rejected(self):
        dets = [ScoredBox(Box(0, 0, 5, 5), 1, 0.9),
                ScoredBox(Box(0, 0, 5, 5), 2, 0.8)]
        with pytest.raises(ValueError):
            nms(dets, 0.4)

    def test_empty_input(self):
        for threshold in (0.0, 0.4, 1.0):
            assert nms([], threshold) == naive_nms([], threshold) == []

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


def ids(dets):
    return [id(d) for d in dets]


class TestNmsAgainstReferee:
    """geometry.nms reads one IoU matrix per call; referees.naive_nms is the
    scalar loop it replaced.  The kept lists must hold the same objects in the
    same order, so duplicates that compare equal still count by position."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4),
                              st.integers(1, 4), st.sampled_from([0.25, 0.5, 1.0])),
                    max_size=12),
           st.sampled_from([0.0, 0.2, 0.4, 0.5, 1.0]))
    def test_matches_the_scalar_loop_on_grid_boxes(self, raw, threshold):
        # a coarse grid and three scores: duplicates, touching edges, exact
        # ratios and score ties all occur
        dets = [ScoredBox(Box(x, y, x + w, y + h), 1, s) for x, y, w, h, s in raw]
        assert ids(nms(dets, threshold)) == ids(naive_nms(dets, threshold))

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.4, 0.5, 0.7, 1.0])
    def test_matches_the_scalar_loop_on_clustered_boxes(self, threshold):
        rng = np.random.default_rng(5)
        for count in (3, 8, 20, 40):
            boxes = clustered_boxes(rng, count)
            scores = rng.choice([0.2, 0.6, 0.9], size=count)
            dets = [ScoredBox(Box(*row), 3, float(s)) for row, s in zip(boxes.tolist(), scores)]
            assert ids(nms(dets, threshold)) == ids(naive_nms(dets, threshold))

    def test_duplicates_and_score_ties_keep_the_lower_index(self):
        box = Box(0, 0, 10, 10)
        dets = [ScoredBox(Box(30, 30, 40, 40), 1, 0.5), ScoredBox(box, 1, 0.5),
                ScoredBox(box, 1, 0.5), ScoredBox(box, 1, 0.9)]
        kept = nms(dets, 0.4)
        assert ids(kept) == ids([dets[3], dets[0]])
        assert ids(kept) == ids(naive_nms(dets, 0.4))

    def test_iou_at_the_threshold_does_not_suppress(self):
        a, b = Box(0, 0, 10, 10), Box(0, 0, 10, 4)
        # 40 / 100 is exactly 0.4 on both IoU paths
        assert iou(a, b) == 0.4
        assert iou_matrix(boxes_to_array([a, b]))[0, 1] == 0.4
        dets = [ScoredBox(a, 1, 0.9), ScoredBox(b, 1, 0.8)]
        assert ids(nms(dets, 0.4)) == ids(dets) == ids(naive_nms(dets, 0.4))
        assert ids(nms(dets, 0.39)) == ids(dets[:1]) == ids(naive_nms(dets, 0.39))

    def test_threshold_zero_suppresses_any_overlap_and_one_none(self):
        dets = [ScoredBox(Box(0, 0, 10, 10), 1, 0.9), ScoredBox(Box(9, 9, 19, 19), 1, 0.8),
                ScoredBox(Box(10, 0, 20, 10), 1, 0.7), ScoredBox(Box(0, 0, 10, 10), 1, 0.6)]
        # the box touching the first overlaps only a suppressed one, so it survives 0
        assert ids(nms(dets, 0.0)) == ids([dets[0], dets[2]]) == ids(naive_nms(dets, 0.0))
        # an exact duplicate has IoU 1.0, which is not above 1.0
        assert ids(nms(dets, 1.0)) == ids(dets) == ids(naive_nms(dets, 1.0))
