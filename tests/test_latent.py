import hashlib
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emdet.latent
from emdet.data import GeneratorConfig, generate, split_semi
from emdet.engine import PosteriorTable, soft_labels
from emdet.geometry import Box, boxes_to_array, iou_matrix
from emdet.latent import (CENTER_IOU, LABEL_CHUNK, OBJECTIVE_GUARD, GuardError,
                          ImageLabel, LatentConfigSet, as_label, center_geometry,
                          chunk_argmax, enumerate_exact, exact_log_likelihood_grid,
                          exact_log_partition, expand, label_marginals, logsumexp,
                          score_config_set, select_k)
from emdet.oracle import brute_marginal_likelihood, iou
from emdet.oracle import expand as naive_expand
from emdet.scorer import log_prob_matrix
from helpers import (clustered_boxes, fg_log_probs, isolated_boxes, random_boxes,
                     random_params, weak_record)
from referees import ordered_pair_plan, ordered_triple_plan

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

    @pytest.mark.parametrize("ids, shown", [
        ([1.7, 2.2], "1.7"), ([True], "True"), (["3"], "'3'"), ([1, 2.0], "2.0"),
        ([2, np.float64(1.0)], repr(np.float64(1.0))), ([np.bool_(True)], repr(np.bool_(True))),
    ])
    def test_non_integer_ids_are_named(self, ids, shown):
        message = re.escape(f"category id must be an integer, got {shown}")
        with pytest.raises(ValueError, match=message):
            as_label(ids)
        with pytest.raises(ValueError, match=message):
            ImageLabel(tuple(ids))

    def test_python_and_numpy_integers_pass(self):
        assert as_label([np.int64(3), 1, np.uint8(2)]).categories == (1, 2, 3)
        assert as_label(np.array([2, 1], dtype=np.int32)).categories == (1, 2)
        assert all(type(c) is int for c in as_label(np.array([4, 2])).categories)


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
    """The batched kernel against the oracle's naive per-config expansion.

    Grid boxes hold duplicates and overlaps of exactly 0.5; clustered boxes
    add proposals covered by three or more centers at once.  Both give
    equal keys between slots, where the slot walk's strict > must agree
    with the naive first-highest-IoU scan.
    """

    def instances(self, seed, kind):
        rng = np.random.default_rng(seed)
        for m in (1, 2, 3, 4):
            for _ in range(2):
                boxes = grid_boxes(rng, 9) if kind == "grid" else clustered_boxes(rng, 9)
                overlap = iou_matrix(boxes)
                assert np.any(overlap == 0.5)
                if kind == "clustered":
                    assert np.any((overlap >= CENTER_IOU).sum(axis=1) >= 4)
                    assert len(np.unique(boxes, axis=0)) < len(boxes)
                label = ImageLabel(tuple(range(1, m + 1)))
                logits = rng.normal(0.0, 1.5, size=(len(boxes), m + 1))
                log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                yield boxes, enumerate_exact(boxes, label), log_probs

    @pytest.mark.parametrize("chunk", [7, LABEL_CHUNK])
    def test_rows_scores_and_marginals_match_naive_expansion(self, chunk, monkeypatch):
        self.check_against_naive_expansion("grid", chunk, monkeypatch)

    @pytest.mark.parametrize("chunk", [7, LABEL_CHUNK])
    def test_clustered_rows_scores_and_marginals_match_naive_expansion(self, chunk,
                                                                       monkeypatch):
        self.check_against_naive_expansion("clustered", chunk, monkeypatch)

    def check_against_naive_expansion(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(emdet.latent, "LABEL_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for boxes, config_set, log_probs in self.instances(chunk, kind):
            # every set spans more than one chunk of 7; of the default, only M = 4 does
            assert len(config_set) > chunk or len(config_set.categories) < 4
            naive = np.array([naive_expand(config_set.categories, row, boxes)
                              for row in config_set.centers])
            assert np.array_equal(expand(config_set, boxes), naive)

            direct = log_probs[np.arange(len(boxes)), naive].sum(axis=1)
            geometry = center_geometry(boxes)
            values = score_config_set(config_set, log_probs, geometry)
            assert np.max(np.abs(values - direct)) < 1e-12

            weights = rng.random(len(config_set))
            weights /= weights.sum()
            expected = np.zeros_like(log_probs)
            for w, row in zip(weights, naive):
                expected[np.arange(len(boxes)), row] += w
            q = label_marginals(config_set, weights, geometry, log_probs.shape[1])
            assert np.max(np.abs(q - expected)) < 1e-12

    def test_out_of_range_center_is_rejected(self):
        config_set = one_config((1,), (3,))
        with pytest.raises(ValueError, match="only 3 proposals"):
            score_config_set(config_set, uniform_log_probs(3, 2),
                             center_geometry(isolated_boxes(3)))


# Small integer boxes: overlaps of exactly 0.5 and equal keys between slots are common.
_small_box = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4),
                       st.integers(1, 4))


class TestCenterGeometry:
    def test_member_lists_are_the_dense_coverage(self):
        rng = np.random.default_rng(5)
        for boxes in (random_boxes(rng, 40), clustered_boxes(rng, 40), grid_boxes(rng, 20)):
            overlap = iou_matrix(boxes)
            keys = overlap + 2.0 * np.eye(len(boxes))
            centers, members = np.nonzero(overlap >= CENTER_IOU)
            geometry = center_geometry(boxes)
            assert geometry.num_proposals == len(boxes)
            assert geometry.members.dtype == np.int32
            assert np.array_equal(np.repeat(np.arange(len(boxes)), np.diff(geometry.offsets)),
                                  centers)
            assert np.array_equal(geometry.members, members)
            assert geometry.keys.tobytes() == keys[centers, members].tobytes()

    def test_holds_nothing_quadratic(self):
        # A (B, B) bool mask alone would take 40 kB at B = 200.
        rng = np.random.default_rng(6)
        B = 200
        for boxes in (random_boxes(rng, B), clustered_boxes(rng, B)):
            tracemalloc.start()
            try:
                geometry = center_geometry(boxes)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            pairs = len(geometry.members)
            assert pairs > B
            assert 16 * pairs + 32 * B < B * B
            assert held < 16 * pairs + 32 * B

    def test_reused_geometry_matches_fresh_ones(self):
        # the plan is coverage only: no label or scores of an earlier call leak into a later one
        rng = np.random.default_rng(7)
        labels = [(1, 2, 3), (2,), (1, 3), (2, 3, 4), (4,), (3, 4)]
        for n, boxes in enumerate((random_boxes(rng, 30), clustered_boxes(rng, 30),
                                   grid_boxes(rng, 20))):
            geometry = center_geometry(boxes)
            for cats in labels[n:] + labels[:n]:
                logits = rng.normal(0.0, 2.0, size=(len(boxes), 5))
                log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                for reader in (exact_log_partition, exact_log_likelihood_grid):
                    reused = np.asarray(reader(geometry, cats, log_probs))
                    fresh = np.asarray(reader(center_geometry(boxes), cats, log_probs))
                    assert reused.tobytes() == fresh.tobytes()

    def test_plan_is_built_once_in_compact_dtypes(self):
        train, _ = generate(GeneratorConfig(n_train=20, n_test=1, seed=0))
        record = max(train, key=lambda r: len(center_geometry(r.proposals).members))
        geometry = center_geometry(record.proposals)
        tracemalloc.start()
        try:
            pairs, triples = geometry.pair_plan(), geometry.triple_plan()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert geometry.pair_plan() is pairs and geometry.triple_plan() is triples
        # int16 proposals and counts and one-byte codes: 3 bytes per entry, 6
        # per touched line and 8 per triple config
        size = (3 * len(pairs.i) + 6 * len(pairs.count) + 3 * len(triples.i)
                + 8 * len(triples.count))
        assert sum(a.nbytes for a in (*pairs, *triples)) == size
        # each co-covering pair and triple of centers once, not once per slot order
        assert 2 * len(pairs.i) == len(ordered_pair_plan(geometry).i) > len(geometry.members)
        assert 6 * len(triples.i) == len(ordered_triple_plan(geometry).i) > len(pairs.i)
        # nothing else is kept beyond the array and tuple headers
        assert held < size + 8192

    def test_geometry_of_other_proposals_is_rejected(self):
        # scores and a record of four proposals against coverages of three and five
        boxes = isolated_boxes(5)
        record = weak_record("w", boxes[:4], np.zeros((4, 3)), (1,))
        post = PosteriorTable("w", one_config((1,), (0,)), np.array([1.0]))
        for other in (3, 5):
            geometry = center_geometry(boxes[:other])
            for reader in _SCORING_READERS.values():
                with pytest.raises(ValueError, match=f"4 score rows for {other} proposals"):
                    reader(geometry, (1,), uniform_log_probs(4, 2))
            with pytest.raises(ValueError, match=f"covers {other} proposals, not the 4"):
                soft_labels(post, record, 2, geometry)

    @settings(max_examples=300, deadline=None)
    @given(boxes=st.lists(_small_box, min_size=1, max_size=8), data=st.data())
    def test_sparse_labels_equal_the_naive_expansion(self, boxes, data):
        # Repeating drawn boxes gives equal keys between slots on every proposal
        # the repeats cover.
        repeats = data.draw(st.lists(st.integers(0, len(boxes) - 1), max_size=3))
        boxes = boxes + [boxes[i] for i in repeats]
        proposals = np.array([[x, y, x + w, y + h] for x, y, w, h in boxes], dtype=np.float64)
        B = len(proposals)
        m = data.draw(st.integers(1, min(4, B)))
        categories = tuple(sorted(data.draw(
            st.lists(st.integers(1, 6), min_size=m, max_size=m, unique=True))))
        rows = data.draw(st.lists(st.permutations(range(B)).map(lambda p: p[:m]),
                                  min_size=1, max_size=5))
        config_set = LatentConfigSet(categories, np.array(rows))
        naive = np.array([naive_expand(categories, row, proposals) for row in rows])
        assert np.array_equal(expand(config_set, proposals), naive)


def expanded_plan(centers, plan, table):
    """{slot-ordered centers: [(i, table[p, code]), ...]} over every slot order p.

    ``centers`` holds the plan's centers of each line or config, one row per
    center; slot order p of _ORDERS puts row _ORDERS[n][p][s] in slot s.
    """
    group = np.repeat(np.arange(plan.count.size), plan.count)
    expanded = {}
    for p, order in enumerate(emdet.latent._ORDERS[len(centers)]):
        for e, g in enumerate(group):
            expanded.setdefault(tuple(centers[order, g]), []).append(
                (plan.i[e], table[p, plan.code[e]]))
    return expanded


def expanded_pairs(plan):
    """{(j, k): [(i, first_wins), ...]} of a pair plan in both slot orders."""
    return expanded_plan(plan.centers, plan, emdet.latent._FIRST_WINS)


def referee_pairs(plan):
    """expanded_pairs of the ordered referee pair plan, listed as it holds them."""
    lines = {}
    for i, first_wins, n in zip(plan.i, plan.first_wins, plan.line):
        lines.setdefault((plan.line_j[n], plan.line_k[n]), []).append((i, first_wins))
    return lines


def expanded_triples(plan):
    """{(j, k, l): [(i, bottom slot), ...]} of a triple plan in all six slot orders."""
    return expanded_plan(plan.centers, plan, emdet.latent._BOTTOM)


def referee_triples(plan):
    """expanded_triples of the ordered referee triple plan, listed as it holds them."""
    configs = {}
    for i, bottom, n in zip(plan.i, plan.bottom, plan.config):
        configs.setdefault((plan.j[n], plan.k[n], plan.l[n]), []).append((i, bottom))
    return configs


def referee_grid(boxes, categories, log_probs):
    """exact_log_likelihood_grid for M = 2, 3 from the dense coverage of the boxes
    and factors of the ordered referee plans."""
    B, M = len(boxes), len(categories)
    geometry = center_geometry(boxes)
    delta = log_probs[:, list(categories)] - log_probs[:, [0]]
    cover = (iou_matrix(boxes) >= CENTER_IOU).astype(np.float64)
    per_center = cover.T @ delta
    pairs = ordered_pair_plan(geometry)
    covered = delta.take(pairs.i, axis=0)
    minus = {}
    for a, b in itertools.combinations(range(M), 2):
        loser = np.where(pairs.first_wins, covered[:, b], covered[:, a])
        minus[(a, b)] = np.zeros((B, B))
        minus[(a, b)][pairs.line_j, pairs.line_k] = -np.bincount(
            pairs.line, weights=loser, minlength=pairs.line_j.size)
        np.fill_diagonal(minus[(a, b)], -np.inf)
    grid = ((log_probs[:, 0].sum() + per_center[:, 0])[:, None] + per_center[:, 1]) + minus[(0, 1)]
    if M == 3:
        triples = ordered_triple_plan(geometry)
        bonus = np.bincount(triples.config, weights=delta.take(triples.i * M + triples.bottom),
                            minlength=triples.j.size)
        grid = grid[:, :, None] + (per_center[:, 2] + minus[(0, 2)])[:, None, :]
        grid += minus[(1, 2)]
        grid[triples.j, triples.k, triples.l] += bonus
    return grid


def random_log_probs(rng, num_proposals, num_categories=4):
    logits = rng.normal(0.0, 1.5, size=(num_proposals, num_categories))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestCoCoveragePlans:
    """The plans hold each co-covering pair and triple of centers once; expanded to
    every slot order they list the ordered referee plans entry for entry."""

    @staticmethod
    def check_against_referee(boxes):
        geometry = center_geometry(boxes)
        pairs, triples = geometry.pair_plan(), geometry.triple_plan()
        assert np.all(pairs.centers[0] < pairs.centers[1])
        assert np.all(triples.centers[0] < triples.centers[1])
        assert np.all(triples.centers[1] < triples.centers[2])
        # same entries, flags and bottom slots, in the same order by i on every line and config
        assert expanded_pairs(pairs) == referee_pairs(ordered_pair_plan(geometry))
        assert expanded_triples(triples) == referee_triples(ordered_triple_plan(geometry))
        return geometry

    @pytest.mark.parametrize("kind", ["clustered", "grid", "random"])
    def test_expansion_lists_the_ordered_referee(self, kind):
        rng = np.random.default_rng(80)
        make = {"clustered": clustered_boxes, "grid": grid_boxes, "random": random_boxes}[kind]
        for count in (6, 9, 16, 30):
            geometry = self.check_against_referee(make(rng, count))
            if kind == "clustered":
                assert len(geometry.triple_plan().i) > 0

    def test_duplicate_boxes_tie_in_every_slot_order(self):
        # Three copies of one box and a shifted box all cover proposal 3 with
        # equal keys, so every slot order ranks its last slot bottom.
        copy = Box(0.0, 0.0, 10.0, 10.0)
        boxes = boxes_to_array([copy, copy, copy, Box(1.0, 0.0, 11.0, 10.0)])
        geometry = self.check_against_referee(boxes)
        configs = expanded_triples(geometry.triple_plan())
        for order in itertools.permutations((0, 1, 2)):
            assert dict(configs[order])[3] == 2
        lines = expanded_pairs(geometry.pair_plan())
        assert dict(lines[(0, 1)])[3] and dict(lines[(1, 0)])[3]

    def test_iou_exactly_half_ties_in_every_slot_order(self):
        # Proposal 0 overlaps each of the other three at IoU exactly 0.5.
        boxes = [Box(0, 0, 2, 2), Box(0, 0, 4, 2), Box(0, 0, 2, 4), Box(-2, 0, 2, 2)]
        assert all(iou(boxes[0], box) == 0.5 for box in boxes[1:])
        proposals = boxes_to_array(boxes)
        geometry = self.check_against_referee(proposals)
        configs = expanded_triples(geometry.triple_plan())
        assert all(configs[order] == [(0, 2)] for order in itertools.permutations((1, 2, 3)))
        for m in (2, 3):
            log_probs = random_log_probs(np.random.default_rng(m), 4)
            cats = tuple(range(1, m + 1))
            grid = exact_log_likelihood_grid(geometry, cats, log_probs)
            assert grid.tobytes() == referee_grid(proposals, cats, log_probs).tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    def test_grid_bytes_equal_the_referee_grid(self, m):
        rng = np.random.default_rng(81 + m)
        train, _ = generate(GeneratorConfig(n_train=6, n_test=1, seed=m))
        instances = [clustered_boxes(rng, 12), grid_boxes(rng, 12), random_boxes(rng, 20),
                     *(r.proposals for r in train)]
        for boxes in instances:
            geometry = center_geometry(boxes)
            cats = tuple(sorted(rng.choice(np.arange(1, 4), size=m, replace=False).tolist()))
            log_probs = random_log_probs(rng, len(boxes))
            grid = exact_log_likelihood_grid(geometry, cats, log_probs)
            assert grid.tobytes() == referee_grid(boxes, cats, log_probs).tobytes()

    def test_grid_and_partition_take_the_triples_in_any_order(self, monkeypatch):
        # The chunk that the partition and the grid read sorts the
        # slot-ordered triple configs itself, so neither depends on the order
        # in which the triple plan lists its configs.
        rng = np.random.default_rng(83)
        train, _ = generate(GeneratorConfig(n_train=12, n_test=1, seed=0))
        instances = [clustered_boxes(rng, 12), clustered_boxes(rng, 24),
                     *(r.proposals for r in train)]
        cases = [(boxes, random_log_probs(rng, len(boxes))) for boxes in instances]

        def values():
            # fresh geometries, so each reader builds its triple plan anew
            return [(exact_log_likelihood_grid(center_geometry(boxes), (1, 2, 3),
                                               log_probs).tobytes(),
                     np.float64(exact_log_partition(center_geometry(boxes), (1, 2, 3),
                                                    log_probs)).tobytes())
                    for boxes, log_probs in cases]

        expected = values()
        build = emdet.latent._build_triple_plan
        moved = []

        def shuffled(geometry):
            # the configs in a random order, each with its entries in ascending i
            plan = build(geometry)
            order = rng.permutation(plan.count.size)
            starts = np.cumsum(plan.count) - plan.count
            entries = np.concatenate([np.zeros(0, dtype=np.intp)]
                                     + [np.arange(starts[g], starts[g] + plan.count[g])
                                        for g in order])
            moved.append(np.any(order != np.arange(order.size)))
            return plan._replace(i=plan.i[entries], code=plan.code[entries],
                                 centers=plan.centers[:, order], count=plan.count[order])

        monkeypatch.setattr(emdet.latent, "_build_triple_plan", shuffled)
        assert values() == expected
        assert sum(moved) > len(cases)

    @settings(max_examples=200, deadline=None)
    @given(boxes=st.lists(_small_box, min_size=2, max_size=8), data=st.data())
    def test_expansion_and_grid_match_the_referee(self, boxes, data):
        # Repeats give equal keys between slots on every proposal they cover.
        repeats = data.draw(st.lists(st.integers(0, len(boxes) - 1), max_size=3))
        boxes = boxes + [boxes[i] for i in repeats]
        proposals = np.array([[x, y, x + w, y + h] for x, y, w, h in boxes], dtype=np.float64)
        geometry = self.check_against_referee(proposals)
        m = data.draw(st.integers(2, min(3, len(boxes))))
        log_probs = random_log_probs(np.random.default_rng(data.draw(st.integers(0, 99))),
                                     len(boxes))
        cats = tuple(range(1, m + 1))
        grid = exact_log_likelihood_grid(geometry, cats, log_probs)
        assert grid.tobytes() == referee_grid(proposals, cats, log_probs).tobytes()

    def test_plans_past_the_guard_raise_before_building(self):
        geometry = center_geometry(isolated_boxes(1001))
        for build in (geometry.pair_plan, geometry.triple_plan):
            with pytest.raises(GuardError, match="exceed the 1000000 config guard"):
                build()


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
        values = score_config_set(config_set, log_probs, center_geometry(boxes))
        assert np.max(np.abs(values - 3 * math.log(0.5))) < 1e-12

    def test_isolated_hand_value(self):
        boxes = isolated_boxes(3)
        log_probs = fg_log_probs([0.9, 0.2, 0.1])
        value = score_config_set(one_config((1,), (0,)), log_probs, center_geometry(boxes))[0]
        expected = math.log(0.9) + math.log(0.8) + math.log(0.9)
        assert abs(value - expected) < 1e-12

    def test_rejects_non_finite_rows(self):
        boxes = isolated_boxes(2)
        log_probs = uniform_log_probs(2, 2)
        log_probs[1, 1] = -np.inf
        with pytest.raises(ValueError):
            score_config_set(one_config((1,), (0,)), log_probs, center_geometry(boxes))

    def test_incremental_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            boxes, label, log_probs = random_instance(rng, max_m=3, max_fg=3)
            config_set = enumerate_exact(boxes, label)
            labels = expand(config_set, boxes)
            direct = log_probs[np.arange(len(boxes)), labels].sum(axis=1)
            fast = score_config_set(config_set, log_probs, center_geometry(boxes))
            assert np.max(np.abs(fast - direct)) < 1e-12


class TestExactGrid:
    def test_grid_matches_per_config_loop(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(120):
            boxes, label, log_probs = random_instance(rng, max_b=7, max_m=3)
            geometry = center_geometry(boxes)
            grid = exact_log_likelihood_grid(geometry, label, log_probs)
            assert grid.shape == (len(boxes),) * len(label)
            config_set = enumerate_exact(boxes, label)
            slow = score_config_set(config_set, log_probs, geometry)
            worst = max(worst, np.max(np.abs(grid[tuple(config_set.centers.T)] - slow)))
        assert worst < 1e-12

    def test_four_categories_score_every_distinct_row(self):
        rng = np.random.default_rng(23)
        boxes = random_boxes(rng, 6)
        logits = rng.normal(0.0, 1.5, size=(6, 5))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        label = ImageLabel((1, 2, 3, 4))
        geometry = center_geometry(boxes)
        grid = exact_log_likelihood_grid(geometry, label, log_probs)
        config_set = enumerate_exact(boxes, label)
        assert np.isfinite(grid).sum() == len(config_set)
        slow = score_config_set(config_set, log_probs, geometry)
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
            grid = exact_log_likelihood_grid(center_geometry(boxes), ImageLabel(cats),
                                             log_probs)
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
            grid = exact_log_likelihood_grid(center_geometry(boxes), ImageLabel((1, 2, 3)),
                                             log_probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid.nbytes

    def test_duplicate_entries_masked(self):
        boxes = isolated_boxes(3)
        grid = exact_log_likelihood_grid(center_geometry(boxes), ImageLabel((1, 2)),
                                         uniform_log_probs(3, 3))
        for i in range(3):
            assert grid[i, i] == -np.inf
        # three slots: a repeat in the first and last slot is masked too
        grid = exact_log_likelihood_grid(center_geometry(isolated_boxes(4)),
                                         ImageLabel((1, 2, 3)), uniform_log_probs(4, 4))
        assert grid[0, 1, 0] == -np.inf
        assert np.isfinite(grid).sum() == 4 * 3 * 2


class TestChunkArgmax:
    """chunk_argmax assembles each image's grid from its chunk's factors: the
    bytes of the image's own exact_log_likelihood_grid in a chunk of any size,
    and np.argmax's first maximum of it."""

    @staticmethod
    def assert_grids_of_their_own(geometries, labels, log_probs):
        """Every chunk of partition_chunks against the per-image grids; returns the chunks."""
        chunks = emdet.latent.partition_chunks(geometries, labels)
        for positions, chunk in chunks:
            matrices = [log_probs[p] for p in positions]
            terms = emdet.latent._chunk_terms(chunk, np.stack(matrices))
            centers, best = chunk_argmax(chunk, matrices)
            assert centers.shape == (len(positions), chunk.categories.shape[1])
            for a, p in enumerate(positions):
                grid = exact_log_likelihood_grid(geometries[p], labels[p], log_probs[p])
                assert emdet.latent._image_grid(chunk, terms, a).tobytes() == grid.tobytes()
                flat = int(np.argmax(grid))
                assert tuple(centers[a]) == np.unravel_index(flat, grid.shape)
                assert best[a].tobytes() == grid.flat[flat].tobytes()
        return chunks

    @pytest.mark.parametrize("cells", [2500, 5000, None])
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_desk_images_keep_their_own_grids(self, seed, cells, monkeypatch):
        # 2,500 cells hold one 50-proposal image, 5,000 two, the default 13
        if cells is not None:
            monkeypatch.setattr(emdet.latent, "PARTITION_CELLS", cells)
        train, _ = generate(GeneratorConfig(n_train=40, n_test=1, seed=seed))
        dataset = split_semi(train, 0.0, seed=seed)
        params = random_params(np.random.default_rng(seed), 5, dataset.feature_dim, scale=1.0)
        chunks = self.assert_grids_of_their_own(
            [center_geometry(r.proposals) for r in dataset],
            [r.annotation.label for r in dataset],
            [log_prob_matrix(params, r.features) for r in dataset])
        assert {len(r.annotation.label) for r in dataset} >= {2, 3}
        assert max(len(positions) for positions, _ in chunks) == {2500: 1, 5000: 2}.get(
            cells, 13)

    def test_clustered_instances_keep_their_own_grids(self):
        # Proposals covered by three centers, duplicates and IoU exactly 0.5;
        # a uniform scorer on every third image ties whole lines of the grid.
        rng = np.random.default_rng(77)
        geometries, labels, log_probs = [], [], []
        for n in range(30):
            boxes = clustered_boxes(rng, 8)
            m = 2 + n % 2
            params = random_params(rng, 4, 3, scale=[0.0, 1.5, 3.0][n % 3])
            geometries.append(center_geometry(boxes))
            labels.append(tuple(sorted(rng.choice(np.arange(1, 4), size=m,
                                                  replace=False).tolist())))
            log_probs.append(log_prob_matrix(params, rng.normal(size=(8, 3))))
        chunks = self.assert_grids_of_their_own(geometries, labels, log_probs)
        assert max(len(positions) for positions, _ in chunks) > 1
        ties = sum(np.count_nonzero(grid == grid.max()) > 1 for grid in (
            exact_log_likelihood_grid(g, z, lp) for g, z, lp in zip(geometries, labels,
                                                                     log_probs)))
        assert ties > 0

    def test_one_grid_at_a_time(self):
        # Past the chunk's factors, at most one image's B^3 grid and its bonus
        # indexes are alive: keeping the last grid while building the next
        # adds one more grid to the peak.
        train, _ = generate(GeneratorConfig(n_train=60, n_test=1, seed=0))
        dataset = split_semi(train, 0.0, seed=0)
        params = random_params(np.random.default_rng(0), 5, dataset.feature_dim, scale=1.0)
        log_probs = [log_prob_matrix(params, r.features) for r in dataset]
        chunks = [(positions, chunk) for positions, chunk in emdet.latent.partition_chunks(
            [center_geometry(r.proposals) for r in dataset],
            [r.annotation.label for r in dataset]) if chunk.categories.shape[1] == 3]
        assert max(len(positions) for positions, _ in chunks) >= 7
        for positions, chunk in chunks:
            matrices = [log_probs[p] for p in positions]
            tracemalloc.start()
            try:
                emdet.latent._chunk_terms(chunk, np.stack(matrices))
                terms_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                chunk_argmax(chunk, matrices)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < terms_peak + 1.3 * chunk.num_proposals ** 3 * 8


class TestExactLogPartition:
    @staticmethod
    def grid_value(geometry, label, log_probs):
        return logsumexp(exact_log_likelihood_grid(geometry, label, log_probs).reshape(-1))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_the_grid(self, m):
        rng = np.random.default_rng(60 + m)
        for trial in range(40):
            b = int(rng.integers(max(m, 2), 10))
            boxes = grid_boxes(rng, b) if b >= 6 else random_boxes(rng, b)
            geometry = center_geometry(boxes)
            label = ImageLabel(tuple(range(1, m + 1)))
            logits = rng.normal(0.0, 1.5, size=(b, m + 2))
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            expected = self.grid_value(geometry, label, log_probs)
            assert abs(exact_log_partition(geometry, label, log_probs) - expected) <= 1e-12

    def test_matches_the_grid_at_the_guard(self):
        # 100 ** 3 grid entries are the most the guard lets the grid build
        rng = np.random.default_rng(61)
        geometry = center_geometry(random_boxes(rng, 100))
        logits = rng.normal(0.0, 1.5, size=(100, 4))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        label = ImageLabel((1, 2, 3))
        expected = self.grid_value(geometry, label, log_probs)
        assert abs(exact_log_partition(geometry, label, log_probs) - expected) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_clustered_instances_match_grid_and_oracle(self, m):
        # Proposals covered by three centers, duplicates, IoU exactly 0.5, and
        # scorers whose log-probabilities reach about -30.
        rng = np.random.default_rng(70 + m)
        cats = tuple(range(1, m + 1))
        deepest = 0.0
        for trial in range(12):
            boxes = clustered_boxes(rng, 8)
            assert np.any((iou_matrix(boxes) >= CENTER_IOU).sum(axis=1) >= 3)
            geometry = center_geometry(boxes)
            features = rng.normal(size=(8, 3))
            params = random_params(rng, m + 1, 3, scale=[0.3, 1.5, 3.0][trial % 3])
            log_probs = log_prob_matrix(params, features)
            deepest = max(deepest, -log_probs.min())
            value = exact_log_partition(geometry, cats, log_probs)
            assert abs(value - self.grid_value(geometry, cats, log_probs)) <= 1e-12
            record = weak_record("w", boxes, features, cats)
            assert abs(value - brute_marginal_likelihood(record, params)) <= 1e-12
        assert 20.0 < deepest < 32.0

    def test_overlap_corrections_beyond_the_float_range(self):
        # Foreground log-probabilities near -100 make the pair corrections
        # hundreds of nats each; shifting each pair factor by one global max
        # would underflow every config that no correction touches.
        rng = np.random.default_rng(63)
        for _ in range(3):
            geometry = center_geometry(clustered_boxes(rng, 10))
            logits = np.column_stack([np.zeros(10), rng.normal(-100.0, 5.0, size=(10, 3))])
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            expected = self.grid_value(geometry, (1, 2, 3), log_probs)
            value = exact_log_partition(geometry, (1, 2, 3), log_probs)
            assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_every_config_triple_covered(self):
        # three mutually covering proposals: every config is a triple config
        geometry = center_geometry(np.array([[0.0, 0.0, 10.0, 10.0], [1.0, 0.0, 11.0, 10.0],
                                             [0.0, 1.0, 10.0, 11.0]]))
        rng = np.random.default_rng(62)
        logits = rng.normal(0.0, 1.5, size=(3, 4))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = self.grid_value(geometry, (1, 2, 3), log_probs)
        assert abs(exact_log_partition(geometry, (1, 2, 3), log_probs) - expected) <= 1e-12

    def test_exact_terms_are_summed_in_config_order(self, monkeypatch):
        # The triple configs' exact terms reach their log-sum-exp sorted by
        # (j, k, l), the order their rounding was pinned in.
        rng = np.random.default_rng(84)
        boxes = clustered_boxes(rng, 16)
        geometry = center_geometry(boxes)
        log_probs = random_log_probs(rng, len(boxes))
        grid = exact_log_likelihood_grid(geometry, (1, 2, 3), log_probs)
        summed = []
        rows, segments = emdet.latent._row_logsumexp, emdet.latent._segment_logsumexp
        monkeypatch.setattr(emdet.latent, "_row_logsumexp",
                            lambda values: summed.append(values.copy()) or rows(values))
        monkeypatch.setattr(emdet.latent, "_segment_logsumexp",
                            lambda values, bounds: summed.append(values.copy())
                            or segments(values, bounds))
        exact_log_partition(geometry, (1, 2, 3), log_probs)
        triples = ordered_triple_plan(geometry)  # configs ascending by (j, k, l)
        exact, dense = summed
        assert dense.shape == (1, len(boxes) ** 2) and exact.size > 100
        expected = grid[triples.j, triples.k, triples.l] - log_probs[:, 0].sum()
        assert np.max(np.abs(exact - expected)) < 1e-12

    def test_row_and_segment_log_sum_exps_have_the_bits_of_logsumexp(self):
        rng = np.random.default_rng(85)
        for rows, width in ((1, 7), (5, 300), (3, 2500)):
            values = rng.normal(0.0, 20.0, size=(rows, width))
            values[0, :] = -np.inf  # a row of no config, as an all-triple-covered image
            expected = [logsumexp(row) for row in values]
            assert emdet.latent._row_logsumexp(values.copy()).tolist() == expected
        # numpy's reduceat sums many of these lengths in another order than sum
        sizes = [0, *range(1, 40), 129, 130, 1000, 0, 2]
        values = rng.normal(0.0, 1.0, size=sum(sizes))
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        some, terms = emdet.latent._segment_logsumexp(values.copy(), bounds)
        assert some.tolist() == [a for a, size in enumerate(sizes) if size]
        assert terms.tolist() == [logsumexp(values[bounds[a]:bounds[a + 1]]) for a in some]

    def test_triple_lines_are_recomputed_a_chunk_at_a_time(self):
        # 40 clusters of 12 mutually covering proposals: 5,280 (j, k) lines of
        # triple configs, each a row of B floats, which the call must not hold
        # all at once.  The plans are built before the measured call.
        boxes = np.array([[50.0 * g + 0.25 * s, 0.0, 50.0 * g + 0.25 * s + 10.0, 10.0]
                          for g in range(40) for s in range(12)])
        B = len(boxes)
        geometry = center_geometry(boxes)
        log_probs = random_log_probs(np.random.default_rng(65), B)
        expected = exact_log_partition(geometry, (1, 2, 3), log_probs)
        tracemalloc.start()
        try:
            assert exact_log_partition(geometry, (1, 2, 3), log_probs) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dozen (B, B) tables and two chunks of lines
        assert peak < (12 * B + 2 * LABEL_CHUNK) * B * 8

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_guard_rejects_pair_factors_before_allocating(self, m):
        # 1001 ** 2 configs or pair factors exceed the guard; one (B, B)
        # float matrix is ~8 MB
        geometry = center_geometry(isolated_boxes(1001))
        log_probs = uniform_log_probs(1001, 5)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="exceed"):
                exact_log_partition(geometry, tuple(range(1, m + 1)), log_probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_one_category_is_guarded_by_its_grid_size(self):
        # 1001 configs are within the guard although 1001 ** 2 is not
        geometry = center_geometry(isolated_boxes(1001))
        log_probs = uniform_log_probs(1001, 2)
        expected = self.grid_value(geometry, (1,), log_probs)
        assert exact_log_partition(geometry, (1,), log_probs) == expected

    def test_four_categories_take_the_log_sum_exp_of_the_grid(self):
        rng = np.random.default_rng(64)
        cats = (1, 2, 3, 4)
        for boxes in (random_boxes(rng, 7), clustered_boxes(rng, 8)):
            geometry = center_geometry(boxes)
            features = rng.normal(size=(len(boxes), 3))
            params = random_params(rng, 5, 3, scale=1.5)
            log_probs = log_prob_matrix(params, features)
            value = exact_log_partition(geometry, cats, log_probs)
            assert value == self.grid_value(geometry, cats, log_probs)
            record = weak_record("w", boxes, features, cats)
            assert abs(value - brute_marginal_likelihood(record, params)) <= 1e-12
        # 32 ** 4 configs exceed the guard although 32 ** 2 pair factors would not
        with pytest.raises(GuardError, match="exceed"):
            exact_log_partition(center_geometry(isolated_boxes(32)), cats,
                                uniform_log_probs(32, 5))


def pinned_instances(kind):
    """The proposals of one family of instances whose exact values are pinned."""
    if kind.startswith("desk"):
        seed, proposals = {"desk_s0_b50": (0, 50), "desk_s3_b50": (3, 50),
                           "desk_s0_b200": (0, 200)}[kind]
        train, _ = generate(GeneratorConfig(n_train=12, n_test=1,
                                            proposals_per_image=proposals, seed=seed))
        return [r.proposals for r in train]
    rng = np.random.default_rng(90)
    make = {"clustered": clustered_boxes, "grid": grid_boxes, "random": random_boxes}[kind]
    return [make(rng, count) for count in (6, 9, 16, 24)]


PINNED_DIGESTS = {
    "desk_s0_b50": "515c753eea5c296a415026545cb4d377c55522f155b93c70324bcce22f97e244",
    "desk_s3_b50": "f28d7eb8ff4f23e60a76e00b1725e3d77ea498eb6350061cfcf123ef31b2de3c",
    "desk_s0_b200": "a674e6494bd1f885af07141fe37d8ecbfc900fca2f772d9165796e72617d1e69",
    "clustered": "da38472a4e7c71359c9a72dbde1cae20de59d8ce5a7f36740fc605daea818636",
    "grid": "c2b4354e279ad6d5981288d1d3c5ccb85b2d459b57cca48a5b2e8e49967670d8",
    "random": "d6c0bd665a89e22032464aa0cda175671e555471f79f9c74e046b33875e1887f",
}


def pinned_digest(kind):
    """sha256 of the exact log-partition for M = 1..4 and the exact grid for M <= 2.

    Every instance of the family is scored under a shallow and a deep scorer
    (log-probabilities down to about -2 and -60), skipping label sizes whose
    table the guard rejects.
    """
    rng = np.random.default_rng(91)
    digest = hashlib.sha256()
    for boxes in pinned_instances(kind):
        geometry = center_geometry(boxes)
        B = len(boxes)
        for scale in (1.5, 30.0):
            logits = rng.normal(0.0, scale, size=(B, 5))
            log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            for m in range(1, 5):
                cats = tuple(range(1, m + 1))
                if B < m or B ** (2 if m == 3 else m) > OBJECTIVE_GUARD:
                    continue
                digest.update(np.float64(exact_log_partition(geometry, cats,
                                                             log_probs)).tobytes())
                if m <= 2:
                    digest.update(exact_log_likelihood_grid(geometry, cats, log_probs).tobytes())
    return digest.hexdigest()


class TestPinnedExactValues:
    """sha256 of the exact log-partition (M = 1..4) and the exact grid (M <= 2),
    recorded before both were built from one set of pair factors."""

    @pytest.mark.parametrize("kind, expected", list(PINNED_DIGESTS.items()))
    def test_digest_is_pinned(self, kind, expected):
        assert pinned_digest(kind) == expected

    # The desk images hold up to thousands of (j, k) lines of triple configs;
    # the other families would run the M = 4 labelling kernel one row a time.
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("kind", ["desk_s0_b50", "desk_s3_b50", "desk_s0_b200"])
    def test_digest_holds_a_few_triple_lines_at_a_time(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(emdet.latent, "LABEL_CHUNK", chunk)
        assert pinned_digest(kind) == PINNED_DIGESTS[kind]


# Every reader of a coverage plus log-probabilities, called as
# reader(geometry, categories, log_probs); score_config_set scores the config
# with its centers on the first proposals.
_SCORING_READERS = {
    "score_config_set": lambda geometry, cats, log_probs: score_config_set(
        one_config(cats, tuple(range(len(cats)))), log_probs, geometry),
    "exact_log_likelihood_grid": exact_log_likelihood_grid,
    "exact_log_partition": exact_log_partition,
}


class TestScoringInputs:
    @pytest.mark.parametrize("reader", sorted(_SCORING_READERS))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("defect, message", [
        ("nan", "must be finite"),
        ("-inf", "must be finite"),
        ("fewer rows", "4 score rows for 5 proposals"),
        ("more rows", "6 score rows for 5 proposals"),
        ("no column for the last category", "exceed"),
    ])
    def test_rejects_log_probs_that_do_not_fit_the_coverage(self, reader, m, defect,
                                                            message):
        geometry = center_geometry(clustered_boxes(np.random.default_rng(m), 5))
        cats = tuple(range(1, m + 1))
        rows = {"fewer rows": 4, "more rows": 6}.get(defect, 5)
        columns = m if defect.startswith("no column") else m + 1
        log_probs = uniform_log_probs(rows, columns)
        if defect in ("nan", "-inf"):
            log_probs[3, m] = float(defect)
        with pytest.raises(ValueError, match=message):
            _SCORING_READERS[reader](geometry, cats, log_probs)


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
                chosen = {tuple(r) for r in select_k(boxes, label, log_probs, k).centers}
                assert chosen <= exact
                assert previous <= chosen
                previous = chosen

    def test_degenerate_k_keeps_the_best_distinct_config(self):
        # both categories rank proposal 0 first; at k = 1 each keeps two
        # candidates, leaving (0, 1) and (1, 0), which tie, so the earlier is kept
        boxes = isolated_boxes(3)
        log_probs = np.log(np.array([
            [0.2, 0.6, 0.6],
            [0.4, 0.3, 0.3],
            [0.4, 0.1, 0.1],
        ]))
        config_set = select_k(boxes, ImageLabel((1, 2)), log_probs, 1)
        assert config_set.centers.tolist() == [[0, 1]]

    def test_fewer_candidates_than_categories_keep_the_k_best_distinct_rows(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            boxes, label, log_probs = random_instance(rng, max_b=7, max_m=4, max_fg=5)
            M = len(label)
            top = [set(np.argsort(-log_probs[:, c], kind="stable")[:M].tolist())
                   for c in label]
            product = [row for row in itertools.product(*top) if len(set(row)) == M]
            score = {row: sum(log_probs[j, c] for j, c in zip(row, label)) for row in product}
            for k in range(1, 2 ** M):  # floor(k ** (1/M)) = 1 candidate
                rows = [tuple(r) for r in select_k(boxes, label, log_probs, k).centers.tolist()]
                assert len(rows) == min(k, len(product)) == len(set(rows))
                assert set(rows) <= set(product)
                dropped = set(product) - set(rows)
                if dropped:
                    assert min(score[r] for r in rows) >= max(score[r] for r in dropped)


    def test_product_rows_come_in_meshgrid_order(self):
        # select_k's product template against np.meshgrid of the candidate
        # lists, raveled: the same rows in the same order, ties included
        rng = np.random.default_rng(79)
        for trial in range(300):
            boxes, label, log_probs = random_instance(rng, max_b=12, max_m=4, max_fg=5)
            log_probs = np.round(log_probs, trial % 3)
            k = int(rng.integers(1, 150))
            M = len(label)
            width = max(M, min(len(boxes), emdet.latent._integer_root(k, M)))
            candidates = [np.argsort(-log_probs[:, c], kind="stable")[:width] for c in label]
            rows = np.stack([c.ravel() for c in np.meshgrid(*candidates, indexing="ij")],
                            axis=1)
            rows = rows[[len(set(row)) == M for row in rows.tolist()]]
            if len(rows) > k:
                score = log_probs[rows, np.array(label.categories)].sum(axis=1)
                rows = rows[np.sort(np.argsort(-score, kind="stable")[:k])]
            got = select_k(boxes, label, log_probs, k).centers
            assert got.dtype == rows.dtype and np.array_equal(got, rows)

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
