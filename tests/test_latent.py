import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import emdet.latent
from emdet.geometry import Box, boxes_to_array, iou, iou_matrix
from emdet.latent import (CENTER_IOU, LABEL_CHUNK, OBJECTIVE_GUARD, GuardError,
                          ImageLabel, LatentConfigSet, enumerate_exact,
                          exact_config_values, exact_log_likelihood_grid, expand,
                          label_marginals, logsumexp, score_config_set, select_k)
from emdet.oracle import expand as naive_expand
from helpers import clustered_boxes, fg_log_probs, isolated_boxes, random_boxes

WORKED_PROPOSALS = boxes_to_array([Box(0, 0, 10, 10), Box(1, 1, 11, 11), Box(20, 20, 30, 30)])


def one_config(categories, centers):
    """The set holding the single config that puts categories[m]'s center at centers[m]."""
    return LatentConfigSet(categories, np.array([centers]))


def uniform_log_probs(num_proposals, num_categories):
    return np.full((num_proposals, num_categories),
                   -math.log(num_categories))


def random_instance(rng, max_b=8, max_m=2, max_fg=3):
    m = int(rng.integers(1, max_m + 1))
    b = int(rng.integers(max(m, 2), max_b + 1))
    fg = int(rng.integers(m, max_fg + 1))
    cats = tuple(sorted(rng.choice(np.arange(1, fg + 1), size=m,
                                   replace=False).tolist()))
    boxes = random_boxes(rng, b)
    logits = rng.normal(0.0, 1.5, size=(b, fg + 1))
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return boxes, ImageLabel(cats), log_probs


def grid_boxes(rng, count, duplicates=3):
    """Integer boxes on a small grid, with repeats and an overlap of exactly 0.5."""
    boxes = []
    while len(boxes) < count - duplicates - 1:
        x1, y1 = rng.integers(0, 4, size=2)
        w, h = rng.integers(1, 5, size=2)
        boxes.append(Box(float(x1), float(y1), float(x1 + w), float(y1 + h)))
    half = boxes[0]
    boxes.append(Box(half.x1, half.y1, (half.x1 + half.x2) / 2, half.y2))
    boxes += [boxes[int(i)] for i in rng.integers(0, len(boxes), size=duplicates)]
    return boxes_to_array([boxes[int(i)] for i in rng.permutation(count)])


class TestImageLabel:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ImageLabel(())

    def test_rejects_background_id(self):
        with pytest.raises(ValueError):
            ImageLabel((0, 1))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            ImageLabel((2, 1))
        with pytest.raises(ValueError):
            ImageLabel((1, 1))


class TestExpand:
    def test_neighbor_takes_center_category(self):
        assert iou_matrix(WORKED_PROPOSALS)[0, 1] >= CENTER_IOU
        assert expand(one_config((1,), (0,)), WORKED_PROPOSALS).tolist() == [[1, 1, 0]]

    def test_isolated_boxes_label_centers_only(self):
        boxes = isolated_boxes(4)
        labels = expand(one_config((1, 2), (1, 3)), boxes)[0]
        assert labels.tolist() == [0, 1, 0, 2]

    def test_disjoint_neighborhoods_union(self):
        # two clusters of two boxes each, no overlap across clusters
        boxes = boxes_to_array([Box(0, 0, 10, 10), Box(1, 1, 11, 11),
                                Box(40, 40, 50, 50), Box(41, 41, 51, 51)])
        both = expand(one_config((1, 2), (0, 2)), boxes)[0]
        assert both.tolist() == [1, 1, 2, 2]
        one = expand(one_config((1,), (0,)), boxes)[0]
        two = expand(one_config((2,), (2,)), boxes)[0]
        assert np.array_equal(both, one + two)

    def test_tie_goes_to_lower_category(self):
        # proposal 0 overlaps both centers at exactly IoU 0.5
        boxes = [Box(0, 0, 2, 2), Box(0, 0, 4, 2), Box(0, 0, 2, 4)]
        assert iou(boxes[0], boxes[1]) == 0.5
        assert iou(boxes[0], boxes[2]) == 0.5
        labels = expand(one_config((1, 2), (1, 2)), boxes_to_array(boxes))[0]
        assert labels[0] == 1

    def test_centers_keep_their_own_category(self):
        # identical boxes as centers of different categories
        boxes = boxes_to_array([Box(0, 0, 5, 5), Box(0, 0, 5, 5)])
        labels = expand(one_config((1, 2), (0, 1)), boxes)[0]
        assert labels.tolist() == [1, 2]

    def test_higher_iou_center_wins(self):
        boxes = boxes_to_array([Box(0, 0, 10, 10), Box(0, 0, 10, 9), Box(0, 0, 10, 16)])
        # center 1 overlaps proposal 0 at 0.9, center 2 at 0.625
        labels = expand(one_config((1, 2), (2, 1)), boxes)[0]
        assert labels[0] == 2


class TestLabellingKernel:
    """The batched kernel against the oracle's naive per-config expansion."""

    def instances(self, seed):
        rng = np.random.default_rng(seed)
        for m in (1, 2, 3, 4):
            for _ in range(2):
                boxes = grid_boxes(rng, 9)
                assert np.any(iou_matrix(boxes) == 0.5)
                label = ImageLabel(tuple(range(1, m + 1)))
                logits = rng.normal(0.0, 1.5, size=(len(boxes), m + 1))
                log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                yield boxes, enumerate_exact(boxes, label), log_probs

    @pytest.mark.parametrize("chunk", [7, LABEL_CHUNK])
    def test_rows_scores_and_marginals_match_naive_expansion(self, chunk, monkeypatch):
        monkeypatch.setattr(emdet.latent, "LABEL_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for boxes, config_set, log_probs in self.instances(chunk):
            # every set spans more than one chunk of 7; of the default, only M = 4 does
            assert len(config_set) > chunk or len(config_set.categories) < 4
            naive = np.array([naive_expand(config_set.categories, row, boxes)
                              for row in config_set.centers])
            assert np.array_equal(expand(config_set, boxes), naive)

            direct = log_probs[np.arange(len(boxes)), naive].sum(axis=1)
            values = score_config_set(config_set, log_probs, boxes)
            assert np.max(np.abs(values - direct)) < 1e-12

            weights = rng.random(len(config_set))
            weights /= weights.sum()
            expected = np.zeros_like(log_probs)
            for w, row in zip(weights, naive):
                expected[np.arange(len(boxes)), row] += w
            q = label_marginals(config_set, weights, boxes, log_probs.shape[1])
            assert np.max(np.abs(q - expected)) < 1e-12

    def test_out_of_range_center_is_rejected(self):
        config_set = one_config((1,), (3,))
        with pytest.raises(ValueError, match="only 3 proposals"):
            score_config_set(config_set, uniform_log_probs(3, 2), isolated_boxes(3))


class TestEnumerateExact:
    def test_single_category_counts(self):
        boxes = isolated_boxes(5)
        assert len(enumerate_exact(boxes, ImageLabel((1,)))) == 5

    def test_two_categories_exclude_duplicates(self):
        boxes = isolated_boxes(4)
        assert len(enumerate_exact(boxes, ImageLabel((1, 2)))) == 12

    def test_too_few_proposals(self):
        with pytest.raises(ValueError):
            enumerate_exact(isolated_boxes(1), ImageLabel((1, 2)))

    def test_lexicographic_order(self):
        boxes = isolated_boxes(3)
        config_set = enumerate_exact(boxes, ImageLabel((1, 2)))
        rows = [tuple(r) for r in config_set.centers]
        assert rows == sorted(rows)
        assert rows[0] == (0, 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rows_match_filtered_product(self, m):
        boxes = isolated_boxes(5)
        rows = [tuple(r) for r in enumerate_exact(boxes, ImageLabel(tuple(range(1, m + 1)))).centers]
        assert rows == [c for c in itertools.product(range(5), repeat=m) if len(set(c)) == m]

    def test_column_max_reconstructs_label(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            boxes, label, _ = random_instance(rng)
            for labels in expand(enumerate_exact(boxes, label), boxes):
                present = tuple(sorted(set(labels.tolist()) - {0}))
                assert present == label.categories


class TestConfigLogLikelihood:
    def test_uniform_scorer_symmetry(self):
        boxes = isolated_boxes(3)
        log_probs = uniform_log_probs(3, 2)
        config_set = enumerate_exact(boxes, ImageLabel((1,)))
        values = score_config_set(config_set, log_probs, boxes)
        assert np.max(np.abs(values - 3 * math.log(0.5))) < 1e-12

    def test_isolated_hand_value(self):
        boxes = isolated_boxes(3)
        log_probs = fg_log_probs([0.9, 0.2, 0.1])
        value = score_config_set(one_config((1,), (0,)), log_probs, boxes)[0]
        expected = math.log(0.9) + math.log(0.8) + math.log(0.9)
        assert abs(value - expected) < 1e-12

    def test_rejects_non_finite_rows(self):
        boxes = isolated_boxes(2)
        log_probs = uniform_log_probs(2, 2)
        log_probs[1, 1] = -np.inf
        with pytest.raises(ValueError):
            score_config_set(one_config((1,), (0,)), log_probs, boxes)

    def test_incremental_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            boxes, label, log_probs = random_instance(rng, max_m=3, max_fg=3)
            config_set = enumerate_exact(boxes, label)
            labels = expand(config_set, boxes)
            direct = log_probs[np.arange(len(boxes)), labels].sum(axis=1)
            fast = score_config_set(config_set, log_probs, boxes)
            assert np.max(np.abs(fast - direct)) < 1e-12


class TestExactGrid:
    def test_grid_matches_per_config_loop(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(120):
            boxes, label, log_probs = random_instance(rng, max_b=7, max_m=3)
            grid = exact_log_likelihood_grid(boxes, label, log_probs)
            assert grid.shape == (len(boxes),) * len(label)
            config_set = enumerate_exact(boxes, label)
            slow = score_config_set(config_set, log_probs, boxes)
            worst = max(worst, np.max(np.abs(grid[tuple(config_set.centers.T)] - slow)))
        assert worst < 1e-12

    def test_four_categories_score_every_distinct_row(self):
        rng = np.random.default_rng(23)
        boxes = random_boxes(rng, 6)
        logits = rng.normal(0.0, 1.5, size=(6, 5))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        label = ImageLabel((1, 2, 3, 4))
        grid = exact_log_likelihood_grid(boxes, label, log_probs)
        config_set = enumerate_exact(boxes, label)
        assert np.isfinite(grid).sum() == len(config_set)
        slow = score_config_set(config_set, log_probs, boxes)
        assert np.max(np.abs(grid[tuple(config_set.centers.T)] - slow)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_clustered_grid_matches_naive_expansion(self, m):
        # duplicates, IoU exactly 0.5 and proposals covered by three centers
        rng = np.random.default_rng(40 + m)
        for _ in range(8):
            boxes = clustered_boxes(rng, 8)
            cats = tuple(sorted(rng.choice(np.arange(1, 5), size=m, replace=False).tolist()))
            logits = rng.normal(0.0, 1.5, size=(8, 5))
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            grid = exact_log_likelihood_grid(boxes, ImageLabel(cats), log_probs)
            for centers in itertools.product(range(8), repeat=m):
                if len(set(centers)) < m:
                    assert grid[centers] == -np.inf
                    continue
                labels = naive_expand(cats, centers, boxes)
                assert abs(grid[centers] - log_probs[np.arange(8), labels].sum()) < 1e-12

    def test_peak_memory_stays_below_twice_the_grid(self):
        rng = np.random.default_rng(25)
        boxes = random_boxes(rng, 50)
        logits = rng.normal(0.0, 1.5, size=(50, 4))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        tracemalloc.start()
        try:
            grid = exact_log_likelihood_grid(boxes, ImageLabel((1, 2, 3)), log_probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid.nbytes

    def test_duplicate_entries_masked(self):
        boxes = isolated_boxes(3)
        grid = exact_log_likelihood_grid(boxes, ImageLabel((1, 2)),
                                         uniform_log_probs(3, 3))
        for i in range(3):
            assert grid[i, i] == -np.inf
        # three slots: a repeat in the first and last slot is masked too
        grid = exact_log_likelihood_grid(isolated_boxes(4), ImageLabel((1, 2, 3)),
                                         uniform_log_probs(4, 4))
        assert grid[0, 1, 0] == -np.inf
        assert np.isfinite(grid).sum() == 4 * 3 * 2

    def test_exact_config_values_alignment(self):
        rng = np.random.default_rng(31)
        boxes, label, log_probs = random_instance(rng, max_b=6, max_m=2)
        config_set, values = exact_config_values(boxes, label, log_probs)
        reference = enumerate_exact(boxes, label)
        assert np.array_equal(config_set.centers, reference.centers)
        slow = score_config_set(config_set, log_probs, boxes)
        assert np.max(np.abs(values - slow)) < 1e-12


class TestSelectK:
    def test_ranking_example(self):
        boxes = isolated_boxes(3)
        config_set = select_k(boxes, ImageLabel((1,)), fg_log_probs([0.9, 0.2, 0.1]), 2)
        assert [tuple(r) for r in config_set.centers] == [(0,), (1,)]

    def test_large_k_equals_exact(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            boxes, label, log_probs = random_instance(rng, max_b=5, max_m=2)
            k = len(boxes) ** len(label)
            truncated = select_k(boxes, label, log_probs, k)
            exact = enumerate_exact(boxes, label)
            assert {tuple(r) for r in truncated.centers} == \
                   {tuple(r) for r in exact.centers}

    def test_budget_respected_two_categories(self):
        rng = np.random.default_rng(61)
        boxes = random_boxes(rng, 20)
        logits = rng.normal(size=(20, 3))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        config_set = select_k(boxes, ImageLabel((1, 2)), log_probs, 100)
        assert len(config_set) <= 100
        assert len({r[0] for r in config_set.centers.tolist()}) <= 10
        assert len({r[1] for r in config_set.centers.tolist()}) <= 10

    def test_subset_of_exact_and_monotone_in_k(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            boxes, label, log_probs = random_instance(rng, max_b=6, max_m=2)
            exact = {tuple(r) for r in enumerate_exact(boxes, label).centers}
            previous: set = set()
            for k in (1, 2, 4, 9, 16, 100):
                try:
                    chosen = {tuple(r) for r in
                              select_k(boxes, label, log_probs, k).centers}
                except ValueError:
                    # tiny K can leave only duplicate-center combinations
                    assert k <= len(label)
                    continue
                assert chosen <= exact
                assert previous <= chosen
                previous = chosen

    def test_degenerate_k_raises_with_advice(self):
        # both categories rank the same proposal first, K=1 keeps only it
        boxes = isolated_boxes(3)
        log_probs = np.log(np.array([
            [0.2, 0.6, 0.6],
            [0.4, 0.3, 0.3],
            [0.4, 0.1, 0.1],
        ]))
        with pytest.raises(ValueError, match="increase k"):
            select_k(boxes, ImageLabel((1, 2)), log_probs, 1)


    def test_guard_rejects_oversized_candidate_product_up_front(self):
        # 1500 ** 2 candidate rows exceed the 10 ** 6 guard; building them takes ~70 MB
        log_probs = np.log(np.full((1500, 3), 1.0 / 3.0))
        start = time.monotonic()
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="exceed"):
                select_k(isolated_boxes(1500), ImageLabel((1, 2)), log_probs, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - start < 1.0
        assert peak < 2 ** 20

    def test_guard_allows_a_product_at_the_limit(self):
        config_set = select_k(isolated_boxes(1000), ImageLabel((1, 2)),
                              uniform_log_probs(1000, 3), OBJECTIVE_GUARD)
        assert len(config_set) == 1000 * 999


class TestConfigSetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            LatentConfigSet((1, 2), np.array([[0], [1]]))

    @pytest.mark.parametrize("a, b", itertools.combinations(range(4), 2))
    def test_duplicate_centers_within_row_rejected(self, a, b):
        row = [0, 1, 2, 3]
        row[b] = row[a]
        with pytest.raises(ValueError, match="reuses one proposal"):
            LatentConfigSet((1, 2, 3, 4), np.array([[0, 1, 2, 3], row]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatentConfigSet((1,), np.zeros((0, 1), dtype=np.int64))


class TestLogsumexp:
    def test_known_value(self):
        values = np.array([0.0, math.log(3.0)])
        assert abs(logsumexp(values) - math.log(4.0)) < 1e-12

    def test_permutation_stable(self):
        rng = np.random.default_rng(81)
        values = rng.normal(0, 10, size=40)
        base = logsumexp(values)
        for _ in range(10):
            assert abs(logsumexp(rng.permutation(values)) - base) < 1e-12

    def test_all_neg_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
