"""Tests for the EM engine: posteriors, soft labels, objective, M-steps.

The gradient identity between the surrogate and the soft-label cross entropy
is checked numerically; posterior values are checked against hand products.
"""

import collections
import hashlib
import inspect
import itertools
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import emdet.engine
import emdet.geometry
import emdet.latent
from emdet.data import Dataset, GeneratorConfig, generate, make_init_scores, split_semi
from emdet.engine import (
    EmConfig,
    PosteriorTable,
    e_step,
    e_step_from_scores,
    full_batch_gradient_descent,
    infer_num_categories,
    learning_rate,
    m_step,
    run_em,
    soft_labels,
    strong_label_vector,
    surrogate_value,
    _batch_rows,
    _Chunks,
    _draw_plan,
    _minibatches,
    _read_ahead,
    _sgd_image,
    _step_draws,
)
from emdet.geometry import Box, boxes_to_array
from emdet.latent import (
    GuardError,
    LatentConfigSet,
    center_geometry,
    enumerate_exact,
    exact_log_likelihood_grid,
    exact_log_partition,
    select_k,
)
from emdet.oracle import brute_hard_config
from emdet.oracle import expand as naive_expand
from emdet.scorer import (
    OptimizerState,
    ScorerParams,
    log_prob_matrix,
    sgd_step,
    weighted_ce_gradient,
)
from helpers import (
    clustered_boxes,
    isolated_boxes,
    isolated_weak_record,
    objective_of,
    random_params,
    random_weak_record,
    single_record_dataset,
    strong_record,
    weak_record,
)


class TestEmConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            EmConfig(mode="soft")

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be"):
            EmConfig(k=0)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            EmConfig(em_iterations=-1)

    def test_rejects_empty_minibatch(self):
        with pytest.raises(ValueError):
            EmConfig(fg_per_image=0, bg_per_image=0)

    @pytest.mark.parametrize("count", [1, 0, -3])
    def test_rejects_fewer_than_two_categories(self, count):
        with pytest.raises(ValueError, match=f"num_categories must be >= 2 or None, got {count}"):
            EmConfig(num_categories=count)

    @pytest.mark.parametrize("field, quotas", [("fg_per_image", (-4, 48)),
                                               ("bg_per_image", (16, -3))])
    def test_rejects_negative_quotas(self, field, quotas):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            EmConfig(fg_per_image=quotas[0], bg_per_image=quotas[1])

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            EmConfig(seed=-1)

    @pytest.mark.parametrize("field", ["lr_initial", "lr_dropped", "momentum",
                                       "weight_decay", "l2", "full_batch_lr"])
    def test_rejects_non_finite_or_negative_rates(self, field):
        for value in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError, match=f"{field} must be finite and >= 0, got {value}"):
                EmConfig(**{field: value})
        assert getattr(EmConfig(**{field: 0.0}), field) == 0.0


class TestPosteriorTable:
    def config_set(self):
        return LatentConfigSet((1,), np.array([[0], [1]]))

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError, match="configs"):
            PosteriorTable("a", self.config_set(), np.array([1.0]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            PosteriorTable("a", self.config_set(), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            PosteriorTable("a", self.config_set(), np.array(weights))

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum"):
            PosteriorTable("a", self.config_set(), np.array([0.5, 0.4]))


class TestStrongLabelVector:
    def test_identical_box_takes_category(self):
        box = Box(10, 10, 20, 20)
        rec = strong_record("s", boxes_to_array([box]), np.zeros((1, 3)), [(box, 2)])
        assert strong_label_vector(rec, 3).tolist() == [2]

    def test_disjoint_proposal_is_background(self):
        rec = strong_record("s", boxes_to_array([Box(0, 0, 5, 5)]), np.zeros((1, 3)),
                            [(Box(50, 50, 60, 60), 1)])
        assert strong_label_vector(rec, 2).tolist() == [0]

    def test_highest_overlap_wins(self):
        # IoU 0.6 for category 1 beats IoU 0.55 for category 2
        rec = strong_record("s", boxes_to_array([Box(0, 0, 10, 10)]), np.zeros((1, 3)),
                            [(Box(0, 0, 6, 10), 1), (Box(0, 0, 5.5, 10), 2)])
        assert strong_label_vector(rec, 3).tolist() == [1]

    def test_tie_goes_to_earlier_object(self):
        rec = strong_record("s", boxes_to_array([Box(0, 0, 10, 10)]), np.zeros((1, 3)),
                            [(Box(0, 0, 5, 10), 2), (Box(5, 0, 10, 10), 1)])
        assert strong_label_vector(rec, 3).tolist() == [2]

    def test_below_threshold_is_background(self):
        rec = strong_record("s", boxes_to_array([Box(0, 0, 10, 10)]), np.zeros((1, 3)),
                            [(Box(0, 0, 4.9, 10), 1)])
        assert strong_label_vector(rec, 2).tolist() == [0]

    def test_no_objects_all_background(self):
        rec = strong_record("s", isolated_boxes(3), np.zeros((3, 3)), [])
        assert strong_label_vector(rec, 2).tolist() == [0, 0, 0]

    def test_rejects_weak_records(self):
        rec = isolated_weak_record("w", 2, (1,))
        with pytest.raises(ValueError, match="ground truth"):
            strong_label_vector(rec, 2)

    def test_rejects_categories_beyond_scorer(self):
        box = Box(0, 0, 10, 10)
        rec = strong_record("s", boxes_to_array([box]), np.zeros((1, 3)), [(box, 5)])
        with pytest.raises(ValueError, match="only covers"):
            strong_label_vector(rec, 3)

    def test_one_hot_expansion(self):
        box = Box(0, 0, 10, 10)
        rec = strong_record("s", boxes_to_array([box, Box(50, 50, 55, 55)]),
                            np.zeros((2, 3)), [(box, 1)])
        q = np.eye(2)[strong_label_vector(rec, 2)]
        assert np.array_equal(q, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestObjective:
    def test_uniform_weak_image_closed_form(self):
        # zero weights, C=2: every proposal scores 1/2 for both categories,
        # so each of the 3 single-center configs has likelihood (1/2)^3
        rec = isolated_weak_record("w", 3, (1,), dim=4)
        val = objective_of(single_record_dataset(rec), ScorerParams.zeros(2, 4))
        assert val.strong_term == 0.0
        assert abs(val.weak_term - (math.log(3) + 3 * math.log(0.5))) < 1e-12

    def test_strong_only_dataset_has_zero_weak_term(self):
        box = Box(0, 0, 10, 10)
        rec = strong_record("s", boxes_to_array([box]), np.zeros((1, 4)), [(box, 1)])
        val = objective_of(single_record_dataset(rec), ScorerParams.zeros(2, 4))
        assert val.weak_term == 0.0
        assert abs(val.strong_term - math.log(0.5)) < 1e-12
        assert val.total == val.strong_term

    def test_guard_rejects_oversized_enumeration(self):
        # past three categories the objective takes the exact grid: 101 ** 4 configs
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=101, num_fg=4,
                                 num_present=4)
        with pytest.raises(GuardError, match="image big: .* exceed"):
            objective_of(single_record_dataset(rec), ScorerParams.zeros(5, 5))


class TestEStep:
    def test_exact_uniform_posterior(self):
        rec = isolated_weak_record("w", 5, (1,), dim=3)
        post = e_step(rec, log_prob_matrix(ScorerParams.zeros(2, 3), rec.features),
                      EmConfig(mode="exact"), center_geometry(rec.proposals))
        assert np.allclose(post.weights, 0.2, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_weighs_the_enumeration_by_its_config_scores(self, m):
        cats = tuple(range(1, m + 1))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            boxes = clustered_boxes(rng, 7)
            rec = weak_record("w", boxes, rng.normal(size=(7, 3)), cats)
            params = random_params(rng, 4, 3, scale=1.0)
            geometry = center_geometry(boxes)
            post = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="exact"),
                          geometry)
            rows = emdet.latent.enumerate_exact(boxes, cats)
            assert np.array_equal(post.config_set.centers, rows.centers)
            values = emdet.latent.score_config_set(
                rows, log_prob_matrix(params, rec.features), geometry)
            expected = values - emdet.latent.logsumexp(values)
            assert np.max(np.abs(np.log(post.weights) - expected)) < 1e-12

    def test_hard_matches_argmax_selection(self):
        rng = np.random.default_rng(4)
        rec = random_weak_record(rng, "w", num_proposals=7, num_fg=2,
                                 feature_dim=4, num_present=2)
        params = random_params(rng, 3, 4)
        post = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="hard"),
                      center_geometry(rec.proposals))
        assert len(post.config_set) == 1
        assert tuple(post.config_set.centers[0]) == brute_hard_config(rec, params)
        assert post.weights.tolist() == [1.0]

    def test_hard_tie_picks_lexicographically_smallest(self):
        rec = isolated_weak_record("w", 4, (1, 2), dim=3)
        post = e_step(rec, log_prob_matrix(ScorerParams.zeros(3, 3), rec.features),
                      EmConfig(mode="hard"), center_geometry(rec.proposals))
        assert tuple(post.config_set.centers[0]) == (0, 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hard_matches_oracle_on_clustered_instances(self, m):
        cats = tuple(range(1, m + 1))
        unique = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            boxes = clustered_boxes(rng, 8)
            rec = weak_record("w", boxes, rng.normal(size=(8, 3)), cats)
            params = random_params(rng, 4, 3, scale=1.0)
            post = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="hard"),
                          center_geometry(boxes))
            centers = tuple(post.config_set.centers[0])
            best = brute_hard_config(rec, params)
            # Configs with identical labels tie exactly; the grid's rounding,
            # not index order, decides among them.
            labels = naive_expand(cats, best, boxes)
            tied = [c for c in itertools.permutations(range(8), m)
                    if np.array_equal(naive_expand(cats, c, boxes), labels)]
            if tied == [best]:
                unique += 1
                assert centers == best
            else:
                assert centers in tied
        assert unique > 0

    def test_hard_rejects_zero_likelihood(self):
        rec = isolated_weak_record("w", 4, (1, 2), dim=3)
        weights = np.zeros((3, 4))
        weights[1, 0] = np.nan
        with pytest.raises(ValueError, match="log probabilities must be finite"):
            e_step(rec, log_prob_matrix(ScorerParams(weights), rec.features),
                   EmConfig(mode="hard"), center_geometry(rec.proposals))

    def test_truncated_with_full_budget_matches_exact(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=5,
                                     num_fg=2, feature_dim=4, num_present=2)
            params = random_params(rng, 3, 4)
            geometry = center_geometry(rec.proposals)
            exact = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="exact"),
                           geometry)
            trunc = e_step(rec, log_prob_matrix(params, rec.features),
                           EmConfig(mode="k_em", k=25), geometry)
            expected = {tuple(row): w for row, w
                        in zip(exact.config_set.centers, exact.weights)}
            got = {tuple(row): w for row, w
                   in zip(trunc.config_set.centers, trunc.weights)}
            assert set(got) == set(expected)
            for row, w in got.items():
                assert abs(w - expected[row]) < 1e-9

    def test_rejects_labels_beyond_scorer(self):
        rec = isolated_weak_record("w", 3, (4,), dim=3)
        with pytest.raises(ValueError, match="only covers"):
            e_step(rec, log_prob_matrix(ScorerParams.zeros(3, 3), rec.features),
                   EmConfig(mode="exact"), center_geometry(rec.proposals))

    @pytest.mark.parametrize("mode", ["exact", "hard"])
    def test_guard_rejects_oversized_enumeration_up_front(self, mode):
        # 200 ** 3 configs exceed the 10 ** 6 guard; building them would take ~200 MB
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=200, num_fg=3,
                                 num_present=3)
        start = time.monotonic()
        with pytest.raises(GuardError, match="exceed"):
            e_step(rec, log_prob_matrix(ScorerParams.zeros(4, 5), rec.features),
                   EmConfig(mode=mode), center_geometry(rec.proposals))
        with pytest.raises(GuardError, match="exceed"):
            e_step_from_scores(rec, np.ones((200, 3)), EmConfig(mode=mode))
        assert time.monotonic() - start < 1.0


class TestEStepFromScores:
    def config(self, mode="exact", k=100):
        return EmConfig(mode=mode, k=k)

    def test_product_rule_hand_example(self):
        # isolated centers, M=1: weights proportional to the score column
        rec = isolated_weak_record("w", 2, (1,), dim=3)
        post = e_step_from_scores(rec, np.array([[2.0], [6.0]]), self.config())
        assert [tuple(r) for r in post.config_set.centers] == [(0,), (1,)]
        assert np.allclose(post.weights, [0.25, 0.75], atol=1e-12)

    def test_zero_mass_falls_back_to_uniform(self, caplog):
        rec = isolated_weak_record("w", 2, (1,), dim=3)
        with caplog.at_level(logging.WARNING, logger="emdet.engine"):
            post = e_step_from_scores(rec, np.zeros((2, 1)), self.config())
        assert np.allclose(post.weights, [0.5, 0.5])
        assert any("zero mass" in m for m in caplog.messages)

    def test_hard_mode_keeps_best_product(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = e_step_from_scores(rec, np.array([[2.0], [6.0], [1.0]]),
                                  self.config(mode="hard"))
        assert len(post.config_set) == 1
        assert tuple(post.config_set.centers[0]) == (1,)
        assert post.weights.tolist() == [1.0]

    @pytest.mark.parametrize("mode", ["exact", "hard", "k_em"])
    @pytest.mark.parametrize("power", [664, -664])
    def test_extreme_score_scales_keep_the_posterior(self, mode, power):
        # 2 ** +-664 is about 1e+-200: each config's product of two scores
        # overflows or underflows unless the columns are scaled first
        rng = np.random.default_rng(7)
        rec = isolated_weak_record("w", 5, (1, 2), dim=3)
        scores = rng.uniform(0.1, 0.5, size=(5, 2))
        scores[3, 0] = scores[4, 1] = 1.0
        expected = e_step_from_scores(rec, scores, self.config(mode))
        assert expected.config_set.centers.tolist()[int(np.argmax(expected.weights))] == [3, 4]
        exact = e_step_from_scores(rec, np.ldexp(scores, power), self.config(mode))
        assert np.array_equal(exact.config_set.centers, expected.config_set.centers)
        assert exact.weights.tobytes() == expected.weights.tobytes()
        post = e_step_from_scores(rec, scores * 10.0 ** (200 * np.sign(power)),
                                  self.config(mode))
        assert np.array_equal(post.config_set.centers, expected.config_set.centers)
        assert np.allclose(post.weights, expected.weights, rtol=1e-12, atol=0)

    def test_hard_posterior_keeps_only_its_row(self):
        # the enumeration it is picked from holds 60 * 59 * 58 rows, ~4.9 MB
        rng = np.random.default_rng(5)
        rec = random_weak_record(rng, "w", num_proposals=60, num_fg=3,
                                 num_present=3)
        scores = rng.uniform(0.1, 1.0, size=(60, 3))
        tracemalloc.start()
        try:
            post = e_step_from_scores(rec, scores, self.config(mode="hard"))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(post.config_set) == 1
        assert kept < 2 ** 20

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hard_mode_matches_the_row_form_on_ties(self, m):
        # Duplicate boxes and scores from {0, 1, 2}: many configs tie on mass.
        cats = tuple(range(1, m + 1))
        ties = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            boxes = clustered_boxes(rng, 8)
            rec = weak_record("w", boxes, np.zeros((8, 3)), cats)
            scores = rng.integers(0, 3, size=(8, m)).astype(np.float64)
            rows = emdet.latent.enumerate_exact(boxes, cats).centers
            mass = np.prod(scores[rows, np.arange(m)[None, :]], axis=1)
            weights = mass / mass.sum()
            expected = tuple(rows[int(np.argmax(weights))])
            ties += np.sum(weights == weights.max()) > 1
            post = e_step_from_scores(rec, scores, self.config(mode="hard"))
            assert tuple(post.config_set.centers[0]) == expected
        assert ties > 0

    def test_hard_mode_matches_the_row_form_on_random_scores(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=30, num_fg=3,
                                     num_present=3)
            scores = rng.uniform(0.0, 1.0, size=(30, 3))
            cols = np.array(rec.annotation.label.categories) - 1
            rows = emdet.latent.enumerate_exact(rec.proposals, rec.annotation.label).centers
            mass = np.prod(scores[rows, cols[None, :]], axis=1)
            expected = tuple(rows[int(np.argmax(mass / mass.sum()))])
            post = e_step_from_scores(rec, scores, self.config(mode="hard"))
            assert tuple(post.config_set.centers[0]) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_hard_mode_is_the_first_best_product_of_the_enumeration(self, m):
        # Scores from {0, 1, 2} on clustered boxes tie often, and every 7th
        # seed zeroes one category, so the whole enumeration has zero mass.
        cats = tuple(range(1, m + 1))
        ties = zero_mass = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            boxes = clustered_boxes(rng, 8)
            rec = weak_record("w", boxes, np.zeros((8, 3)), cats)
            scores = rng.integers(0, 3, size=(8, m)).astype(np.float64)
            if seed % 7 == 0:
                scores[:, rng.integers(m)] = 0.0
            rows = emdet.latent.enumerate_exact(boxes, cats).centers
            mass = np.prod(scores[rows, np.arange(m)[None, :]], axis=1)
            ties += np.sum(mass == mass.max()) > 1
            zero_mass += mass.max() == 0.0
            post = e_step_from_scores(rec, scores, self.config(mode="hard"))
            assert tuple(post.config_set.centers[0]) == tuple(rows[int(np.argmax(mass))])
        assert ties > 0 and zero_mass > 0

    def test_hard_mode_peak_memory_does_not_grow_with_the_enumeration(self):
        # the enumeration holds 100 * 99 * 98 rows, ~23 MB; M ** M rows are scored
        rng = np.random.default_rng(5)
        rec = random_weak_record(rng, "w", num_proposals=100, num_fg=3,
                                 num_present=3)
        scores = rng.uniform(0.1, 1.0, size=(100, 3))
        tracemalloc.start()
        try:
            post = e_step_from_scores(rec, scores, self.config(mode="hard"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(post.config_set) == 1
        assert peak < 2 ** 20

    def test_hard_mode_needs_a_proposal_per_category(self):
        rec = isolated_weak_record("w", 2, (1, 2, 3), dim=3)
        with pytest.raises(ValueError, match="need at least 3 proposals"):
            e_step_from_scores(rec, np.ones((2, 3)), self.config(mode="hard"))

    def test_hard_mode_zero_mass_keeps_the_first_distinct_config(self, caplog):
        rec = isolated_weak_record("w", 4, (1, 2, 3), dim=3)
        with caplog.at_level(logging.WARNING, logger="emdet.engine"):
            post = e_step_from_scores(rec, np.zeros((4, 3)), self.config(mode="hard"))
        assert tuple(post.config_set.centers[0]) == (0, 1, 2)
        assert post.weights.tolist() == [1.0]
        assert any("zero mass" in m for m in caplog.messages)

    def test_truncated_mode_ranks_by_score(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = e_step_from_scores(rec, np.array([[0.5], [3.0], [1.0]]),
                                  self.config(mode="k_em", k=2))
        assert sorted(tuple(r) for r in post.config_set.centers) == [(1,), (2,)]
        weights = {tuple(r): w for r, w
                   in zip(post.config_set.centers, post.weights)}
        assert abs(weights[(1,)] - 0.75) < 1e-12
        assert abs(weights[(2,)] - 0.25) < 1e-12

    def test_rejects_wrong_shape(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        with pytest.raises(ValueError, match="score shape"):
            e_step_from_scores(rec, np.zeros(3), self.config())

    def test_rejects_missing_categories(self):
        rec = isolated_weak_record("w", 3, (1, 2), dim=3)
        with pytest.raises(ValueError, match="mentions"):
            e_step_from_scores(rec, np.zeros((3, 1)), self.config())

    def test_rejects_negative_scores(self):
        rec = isolated_weak_record("w", 2, (1,), dim=3)
        with pytest.raises(ValueError, match="non-negative"):
            e_step_from_scores(rec, np.array([[1.0], [-0.1]]), self.config())

    @pytest.mark.parametrize("mode", ["k_em", "exact", "hard"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_scores_before_enumerating(self, mode, value, monkeypatch):
        def unreachable(*args):
            raise AssertionError("configs enumerated before the score check")

        monkeypatch.setattr(emdet.engine, "select_k", unreachable)
        monkeypatch.setattr(emdet.engine, "enumerate_exact", unreachable)
        rec = isolated_weak_record("w", 6, (1, 2), dim=3)
        scores = np.ones((6, 2))
        scores[3, 1] = value
        with pytest.raises(ValueError, match="finite and non-negative"):
            e_step_from_scores(rec, scores, self.config(mode=mode))


class TestSoftLabels:
    def test_hard_posterior_gives_one_hot_rows(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = PosteriorTable("w", LatentConfigSet((1,), np.array([[0]])),
                              np.array([1.0]))
        q = soft_labels(post, rec, 2, center_geometry(rec.proposals))
        assert np.array_equal(q, np.array([[0, 1], [1, 0], [1, 0]], dtype=float))

    def test_split_posterior_splits_the_marginals(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = PosteriorTable("w",
                              LatentConfigSet((1,), np.array([[0], [1]])),
                              np.array([0.5, 0.5]))
        q = soft_labels(post, rec, 2, center_geometry(rec.proposals))
        assert np.allclose(q, np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]))

    def test_covered_neighbor_inherits_center_category(self):
        # proposal 1 overlaps center 0 above the threshold, proposal 2 not
        boxes = boxes_to_array([Box(0, 0, 10, 10), Box(1, 0, 11, 10), Box(40, 40, 50, 50)])
        rec = weak_record("w", boxes, np.zeros((3, 3)), (1,))
        post = PosteriorTable("w", LatentConfigSet((1,), np.array([[0]])),
                              np.array([1.0]))
        q = soft_labels(post, rec, 2, center_geometry(rec.proposals))
        assert np.array_equal(q, np.array([[0, 1], [0, 1], [1, 0]], dtype=float))

    def test_rows_always_sum_to_one(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=6,
                                     num_fg=3, feature_dim=4)
            params = random_params(rng, 4, 4)
            geometry = center_geometry(rec.proposals)
            post = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="exact"),
                          geometry)
            q = soft_labels(post, rec, 4, geometry)
            assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(q >= 0)

    def test_matches_naive_weighted_expansion(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=9,
                                     num_fg=3, feature_dim=4)
            geometry = center_geometry(rec.proposals)
            post = e_step(rec, log_prob_matrix(random_params(rng, 4, 4), rec.features),
                          EmConfig(mode="exact"), geometry)
            expected = np.zeros((9, 4))
            cats = post.config_set.categories
            for w, row in zip(post.weights, post.config_set.centers):
                expected[np.arange(9), naive_expand(cats, row, rec.proposals)] += w
            assert np.max(np.abs(soft_labels(post, rec, 4, geometry) - expected)) < 1e-12

    def test_exact_posterior_memory_is_bounded_by_the_chunk(self):
        # 50 * 49 * 48 configs; an unchunked (B, N, M) key block alone is ~140 MB
        rng = np.random.default_rng(24)
        rec = random_weak_record(rng, "w", num_proposals=50, num_fg=3,
                                 feature_dim=4, num_present=3)
        geometry = center_geometry(rec.proposals)
        post = e_step(rec, log_prob_matrix(random_params(rng, 4, 4), rec.features),
                      EmConfig(mode="exact"), geometry)
        assert len(post.config_set) == 50 * 49 * 48
        tracemalloc.start()
        try:
            q = soft_labels(post, rec, 4, geometry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_categories_beyond_count(self):
        rec = isolated_weak_record("w", 2, (3,), dim=3)
        post = PosteriorTable("w", LatentConfigSet((3,), np.array([[0]])),
                              np.array([1.0]))
        with pytest.raises(ValueError, match="categories exist"):
            soft_labels(post, rec, 2, center_geometry(rec.proposals))

    def test_rejects_a_posterior_of_another_image(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = PosteriorTable("v", LatentConfigSet((1,), np.array([[0]])),
                              np.array([1.0]))
        with pytest.raises(ValueError, match="image v passed with image w"):
            soft_labels(post, rec, 2, center_geometry(rec.proposals))

    def test_rejects_centers_past_the_proposals(self):
        # a posterior built for five proposals, passed with a three-proposal record
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = PosteriorTable("w", LatentConfigSet((1,), np.array([[1], [4]])),
                              np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="only 3 proposals"):
            soft_labels(post, rec, 2, center_geometry(rec.proposals))


class TestSurrogateGradientIdentity:
    def test_gradient_matches_stacked_soft_label_ce(self):
        # d surrogate / d W equals minus the soft-label CE gradient summed
        # over images, checked against central differences
        rng = np.random.default_rng(33)
        weak_a = random_weak_record(rng, "a", num_proposals=4, num_fg=2,
                                    feature_dim=3, num_present=2)
        weak_b = random_weak_record(rng, "b", num_proposals=5, num_fg=2,
                                    feature_dim=3, num_present=1)
        gt = Box(10, 10, 30, 30)
        strong = strong_record("c", boxes_to_array([gt, Box(60, 60, 70, 70)]),
                               rng.normal(size=(2, 3)), [(gt, 1)])
        dataset = Dataset([weak_a, weak_b, strong])
        anchor = random_params(rng, 3, 3)
        geometries = {r.image_id: center_geometry(r.proposals) for r in dataset if r.is_weak}
        posteriors = {r.image_id: e_step(r, log_prob_matrix(anchor, r.features),
                                         EmConfig(mode="exact"), geometries[r.image_id])
                      for r in dataset if r.is_weak}

        params = random_params(rng, 3, 3)
        analytic = np.zeros_like(params.weights)
        for rec in dataset:
            if rec.is_weak:
                q = soft_labels(posteriors[rec.image_id], rec, 3, geometries[rec.image_id])
            else:
                q = np.eye(3)[strong_label_vector(rec, 3)]
            _, grad = weighted_ce_gradient(params, rec.features, q)
            analytic -= grad

        h = 1e-6
        numeric = np.zeros_like(params.weights)
        for idx in np.ndindex(*params.weights.shape):
            bumped = params.copy()
            bumped.weights[idx] += h
            up = surrogate_value(dataset, posteriors, bumped)
            bumped.weights[idx] -= 2 * h
            down = surrogate_value(dataset, posteriors, bumped)
            numeric[idx] = (up - down) / (2 * h)
        scale = max(np.max(np.abs(numeric)), 1.0)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_surrogate_touches_objective_at_the_anchor(self):
        # standard EM tangency: Q~(theta'; theta') <= J(theta'), equality in
        # exact mode up to the entropy offset being non-negative
        rng = np.random.default_rng(40)
        rec = random_weak_record(rng, "w", num_proposals=5, num_fg=2,
                                 feature_dim=3, num_present=1)
        dataset = single_record_dataset(rec)
        params = random_params(rng, 3, 3)
        posteriors = {"w": e_step(rec, log_prob_matrix(params, rec.features),
                                  EmConfig(mode="exact"), center_geometry(rec.proposals))}
        assert surrogate_value(dataset, posteriors, params) \
            <= objective_of(dataset, params).total + 1e-12


class TestLearningRateSchedule:
    def test_boundaries(self):
        config = EmConfig(lr_initial=0.01, lr_drop_step=3000, lr_dropped=0.001)
        assert learning_rate(config, 0) == 0.01
        assert learning_rate(config, 2999) == 0.01
        assert learning_rate(config, 3000) == 0.001
        assert learning_rate(config, 10_000) == 0.001


def same_state(first, second):
    """Whether two bit generator states (dicts, possibly holding arrays) are equal."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(same_state(first[key], second[key])
                                                     for key in first)
    return np.array_equal(first, second)


def per_pool_rows(rng, q, config):
    """The reference mini-batch: rng.choice on each non-empty pool, foreground
    then background, twice; a pool shorter than its quota with replacement."""
    fg = q.argmax(axis=1) != 0
    rows = []
    for _ in range(2):
        for pool, count in ((np.flatnonzero(fg), config.fg_per_image),
                            (np.flatnonzero(~fg), config.bg_per_image)):
            if pool.size:
                rows.append(rng.choice(pool, count, replace=pool.size < count))
    return np.concatenate(rows)


class TestDrawPlan:
    """The M-step's mini-batch draws against the per-pool rng.choice calls.

    _batch_rows draws each quota on positions in the image's row order
    (rng.integers with replacement, rng.choice on the pool size without).
    _minibatches makes the same draws in one rng.integers call over their
    bounds: one per row with replacement, Floyd's picks then a Fisher-Yates
    shuffle for rng.choice without.  A numpy release that changes choice's
    algorithm fails here, not by moving the manifest.
    """

    @staticmethod
    def image(fg_size, bg_size, config, seed):
        """Soft labels with fg_size foreground-argmax rows at shuffled
        positions, and their _sgd_image inputs."""
        rng = np.random.default_rng(seed)
        categories = np.concatenate([rng.integers(1, 3, size=fg_size),
                                     np.zeros(bg_size, dtype=np.int64)])
        q = np.full((fg_size + bg_size, 3), 0.1)
        q[np.arange(len(categories)), rng.permutation(categories)] = 0.8
        record = random_weak_record(rng, num_proposals=len(categories), feature_dim=2)
        return _sgd_image(record, q, ScorerParams.zeros(3, 2), config)

    def assert_matches_per_pool_calls(self, fg_size, bg_size, fg_quota, bg_quota, seed):
        config = EmConfig(fg_per_image=fg_quota, bg_per_image=bg_quota)
        image = self.image(fg_size, bg_size, config, seed)
        _, q, order, _, plan = image
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        table_rng = np.random.default_rng(seed)
        table = _minibatches(table_rng, [image], 3)
        for _ in range(3):
            # m_step skips an image with an empty plan before drawing
            rows = _batch_rows(rng, order, plan) if plan else order[:0]
            expected = per_pool_rows(reference, q, config)
            context = (f"numpy {np.__version__}: pools ({fg_size}, {bg_size}), "
                       f"quotas ({fg_quota}, {bg_quota}), seed {seed}")
            assert rows.dtype == expected.dtype, context
            assert np.array_equal(rows, expected), f"{context}: rows differ"
            assert rng.bit_generator.state == reference.bit_generator.state, \
                f"{context}: generator states differ"
            assert np.array_equal(next(table)[1], expected), f"{context}: table rows differ"
        assert next(table, None) is None
        assert table_rng.bit_generator.state == reference.bit_generator.state, \
            f"{context}: table generator states differ"

    @pytest.mark.parametrize("fg_size, bg_size, fg_quota, bg_quota, calls", [
        (0, 7, 4, 8, 2),     # empty foreground pool
        (5, 0, 8, 4, 2),     # empty background pool
        (3, 7, 4, 8, 4),     # both pools shorter than their quotas
        (1, 1, 4, 8, 4),     # one-row pools: draws that take no generator word
        (4, 7, 4, 8, 4),     # a pool exactly its quota: rng.choice without replacement
        (6, 20, 4, 8, 4),    # pools longer than their quotas
        (3, 20, 4, 8, 4),    # one quota with, one without replacement
        (3, 5, 0, 8, 2),     # foreground quota 0
        (3, 5, 4, 0, 2),     # background quota 0
        (0, 5, 4, 0, 0),     # nothing to draw
    ] + [(size, 0, count, 0, 2)  # one pool against choice
         for size in (1, 5, 15, 16, 17, 60) for count in (16, 48)])
    def test_draws_match_the_per_pool_calls(self, fg_size, bg_size, fg_quota, bg_quota,
                                            calls):
        config = EmConfig(fg_per_image=fg_quota, bg_per_image=bg_quota)
        assert len(_draw_plan(fg_size, bg_size, config)) == calls
        for seed in range(20):
            self.assert_matches_per_pool_calls(fg_size, bg_size, fg_quota, bg_quota, seed)

    @settings(max_examples=200, deadline=None)
    @given(fg_size=st.integers(0, 40), bg_size=st.integers(0, 60),
           fg_quota=st.integers(0, 20), bg_quota=st.integers(0, 50),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_pools_and_quotas_match_the_per_pool_calls(self, fg_size, bg_size, fg_quota,
                                                           bg_quota, seed):
        assume(fg_quota + bg_quota > 0)  # EmConfig rejects an empty mini-batch
        assume(fg_size + bg_size > 0)  # an image has at least one proposal
        self.assert_matches_per_pool_calls(fg_size, bg_size, fg_quota, bg_quota, seed)

    def test_composition_respects_quotas(self):
        config = EmConfig(fg_per_image=16, bg_per_image=48)
        _, q, order, _, plan = self.image(4, 6, config, seed=2)
        rows = _batch_rows(np.random.default_rng(2), order, plan)
        assert rows.shape == (128,)
        is_fg = q.argmax(axis=1)[rows] != 0
        assert np.all(is_fg[:16]) and not np.any(is_fg[16:64])
        assert np.all(is_fg[64:80]) and not np.any(is_fg[80:])

    def test_all_background_image_contributes_background_only(self):
        _, _, order, fg_size, plan = self.image(0, 6, EmConfig(), seed=3)
        rows = _batch_rows(np.random.default_rng(3), order, plan)
        assert fg_size == 0
        assert rows.shape == (96,)
        assert set(rows.tolist()) <= set(range(6))

    def test_foreground_rows_come_first_in_the_order(self):
        _, q, order, fg_size, _ = self.image(5, 9, EmConfig(), seed=4)
        assert fg_size == 5
        assert np.array_equal(np.sort(order), np.arange(14))
        assert np.all(q.argmax(axis=1)[order[:5]] != 0)
        assert np.all(q.argmax(axis=1)[order[5:]] == 0)

    def test_plans_are_shared_by_pool_sizes(self, monkeypatch):
        # equal pool sizes give equal plans, which _Chunks compiles once
        images = [self.image(3, 9, EmConfig(), seed=6), self.image(3, 9, EmConfig(), seed=7),
                  self.image(2, 9, EmConfig(), seed=8)]
        first, second, other = (image[-1] for image in images)
        assert first == second != other
        compiled = []
        step_draws = emdet.engine._step_draws
        monkeypatch.setattr(emdet.engine, "_step_draws",
                            lambda plan, count: compiled.append(plan) or step_draws(plan, count))
        _Chunks(images)
        assert sorted(compiled) == sorted([first, other])


class ReferenceStream:
    """numpy Generator draws in pure Python from a list of 32-bit words, the
    referee of the row table.  ``log`` holds (word index, role, bound) for
    every word taken."""

    def __init__(self, words):
        self.words = [int(word) for word in words]
        self.at = 0
        self.log = []

    def bounded(self, bound, role):
        """rng.integers(bound): Lemire's multiply-shift of one word, drawing
        again on a rejected one; no word for bound 1."""
        if bound == 1:
            return 0
        while True:
            product = self.words[self.at] * bound
            self.log.append((self.at, role, bound))
            self.at += 1
            if product & 0xFFFFFFFF >= (2 ** 32 - bound) % bound:
                return product >> 32

    def choice(self, n, k):
        """rng.choice(n, k, replace=False) for n <= 10,000: Floyd's picks, then
        a Fisher-Yates shuffle."""
        picked = []
        for j in range(n - k, n):
            value = self.bounded(j + 1, "floyd")
            picked.append(j if value in picked else value)
        for i in range(k - 1, 0, -1):
            value = self.bounded(i + 1, "shuffle")
            picked[i], picked[value] = picked[value], picked[i]
        return picked

    def batch(self, plan):
        """The positions _batch_rows draws for a _draw_plan."""
        positions = []
        for low, high, size, replace in plan:
            if replace:
                positions += [low + self.bounded(high - low, "row") for _ in range(size)]
            else:
                positions += [low + value for value in self.choice(high - low, size)]
        return positions

    def steps(self, plans, count):
        """(pick, positions, first word, end word) of ``count`` M-step steps."""
        steps = []
        for _ in range(count):
            start = self.at
            image = self.bounded(len(plans), "pick")
            steps.append((image, self.batch(plans[image]), start, self.at))
        return steps


def next_words(rng, count):
    """The next ``count`` 32-bit words of a PCG64 generator's bounded draws,
    read from a copy: a buffered high half first, then each raw output low
    half first."""
    state = rng.bit_generator.state
    copy = np.random.PCG64()
    copy.state = state
    words = [state["uinteger"]] if state["has_uint32"] else []
    for raw in copy.random_raw(count // 2 + 1).tolist():
        words += [raw & 0xFFFFFFFF, raw >> 32]
    return words[:count]


def per_step_minibatches(rng, images, steps):
    """The per-step loop _minibatches reproduces: a pick below the image
    count, then the picked image's _batch_rows."""
    for _ in range(steps):
        inputs = images[int(rng.integers(len(images)))]
        plan = inputs[-1]
        yield inputs, _batch_rows(rng, inputs[2], plan) if plan else inputs[2][:0]


def assert_matches_the_per_step_loop(images, steps, seed, bit_generator=np.random.PCG64):
    """_minibatches against per_step_minibatches on one stream: the same image
    and rows at every step, and the same generator state after the last.
    Returns the steps drawn."""
    rng, reference = np.random.Generator(bit_generator(seed)), np.random.Generator(
        bit_generator(seed))
    drawn = list(_minibatches(rng, images, steps))
    expected = list(per_step_minibatches(reference, images, steps))
    assert len(drawn) == steps
    for (inputs, rows), (expected_inputs, expected_rows) in zip(drawn, expected):
        assert inputs is expected_inputs
        assert rows.tolist() == expected_rows.tolist()
    assert same_state(rng.bit_generator.state, reference.bit_generator.state)
    return drawn


def pick_word(image, images):
    """A 32-bit word whose bounded draw below ``images`` is ``image``."""
    return -(-image * 2 ** 32 // images)


def spy_read_ahead(monkeypatch, change=lambda n, words: words):
    """Patch _read_ahead to pass the n-th read's words through ``change``;
    returns the list of reads, each its generator's has_uint32 flag."""
    reads = []
    read_ahead = emdet.engine._read_ahead

    def spying(rng, count):
        reads.append(rng.bit_generator.state.get("has_uint32"))
        words, state = read_ahead(rng, count)
        return change(len(reads) - 1, words), state

    monkeypatch.setattr(emdet.engine, "_read_ahead", spying)
    return reads


class TestChunkedDraws:
    """_minibatches, which draws a chunk of M-step steps in one checked
    generator call, against the per-step loop; ReferenceStream, itself
    checked against numpy on real streams, tells which draw takes which word."""

    @pytest.mark.parametrize("seed", range(40))
    def test_the_reference_draws_as_numpy(self, seed):
        rng = np.random.default_rng(seed)
        rng.integers(3, size=seed % 3)  # odd counts leave a buffered half
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, n + 1))
        reference = ReferenceStream(next_words(rng, 4 * n + 20))
        assert rng.choice(n, k, replace=False).tolist() == reference.choice(n, k)
        assert rng.choice(n, n, replace=False).tolist() == reference.choice(n, n)
        assert rng.integers(n, size=3).tolist() == [reference.bounded(n, "row")
                                                     for _ in range(3)]
        assert int(rng.integers(7)) == reference.bounded(7, "pick")
        assert next_words(rng, 1) == reference.words[reference.at:reference.at + 1]

    @pytest.mark.parametrize("seed", range(3))
    def test_the_read_ahead_reads_the_reference_words_in_place(self, seed):
        rng = np.random.default_rng(seed)
        rng.integers(3, size=seed)  # odd counts leave a buffered half
        before = rng.bit_generator.state
        words, state = _read_ahead(rng, 101)
        assert words.tolist() == next_words(rng, 101)
        assert state == before == rng.bit_generator.state

    @staticmethod
    def images(sizes, fg_quota=4, bg_quota=6):
        config = EmConfig(fg_per_image=fg_quota, bg_per_image=bg_quota)
        return [TestDrawPlan.image(fg_size, bg_size, config, seed)
                for seed, (fg_size, bg_size) in enumerate(sizes)]

    @settings(max_examples=100, deadline=None)
    @given(fg_size=st.integers(0, 30), bg_size=st.integers(0, 40),
           fg_quota=st.integers(0, 12), bg_quota=st.integers(0, 20),
           images=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_run_draws_the_reference_bounds(self, fg_size, bg_size, fg_quota,
                                                 bg_quota, images, seed):
        assume(fg_quota + bg_quota > 0)
        plan = _draw_plan(fg_size, bg_size,
                          EmConfig(fg_per_image=fg_quota, bg_per_image=bg_quota))
        bounds = _step_draws(plan, images)[0]
        reference = ReferenceStream(next_words(np.random.default_rng(seed), 2000))
        reference.bounded(images, "pick")
        reference.batch(plan)
        assert [bound for bound in bounds.tolist() if bound > 1] == \
            [bound for _, _, bound in reference.log]

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 40)),
                          min_size=1, max_size=5).filter(lambda s: all(map(sum, s))),
           fg_quota=st.integers(0, 12), bg_quota=st.integers(0, 20),
           chunk=st.sampled_from([1, 7, 100, 333, 1 << 16]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_draws_the_per_step_loop(self, sizes, fg_quota, bg_quota, chunk, seed):
        assume(fg_quota + bg_quota > 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(emdet.engine, "DRAW_CHUNK", chunk)
            assert_matches_the_per_step_loop(self.images(sizes, fg_quota, bg_quota), 20, seed)

    @pytest.mark.parametrize("role", ["pick", "row", "floyd", "shuffle"])
    def test_a_read_ahead_off_by_a_word_keeps_the_steps_before(self, role, monkeypatch):
        # as if numpy rejected a word of the role in the third step or later:
        # the read-ahead runs one word off from there, and the chunk's call
        # shows a wrong pick at the next step; a wrong pick word is wrong at once
        images = self.images([(3, 20), (7, 9), (5, 30)])
        reference = ReferenceStream(next_words(np.random.default_rng(15), 3000))
        steps = reference.steps([plan for *_, plan in images], 12)
        at = next(at for at, logged, _ in reference.log if logged == role and at >= steps[2][2])
        image = next((image for image, _, start, _ in steps if start == at), 0)
        inserted = pick_word((image + 1) % 3, 3)

        def off_by_a_word(n, words):
            return np.insert(words, at, inserted)[:len(words)] if n == 0 else words

        reads = spy_read_ahead(monkeypatch, off_by_a_word)
        calls = TestMStep.count_batch_rows(monkeypatch)
        assert_matches_the_per_step_loop(images, 12, seed=15)
        assert len(reads) == 2  # the second chunk starts at the first wrong pick
        assert calls == []

    def test_a_wrong_first_pick_draws_that_step_alone(self, monkeypatch):
        # every other read-ahead mispredicts its chunk's first pick
        monkeypatch.setattr(emdet.engine, "DRAW_CHUNK", 300)
        images = self.images([(3, 20), (7, 9), (5, 30)])

        def wrong_first(n, words):
            if n % 2 == 0:
                words = words.copy()
                words[0] = pick_word(((int(words[0]) * 3 >> 32) + 1) % 3, 3)
            return words

        reads = spy_read_ahead(monkeypatch, wrong_first)
        calls = TestMStep.count_batch_rows(monkeypatch)
        assert_matches_the_per_step_loop(images, 40, seed=17)
        assert len(calls) == (len(reads) + 1) // 2 > 3

    @pytest.mark.parametrize("sizes, step_words", [
        ([(1, 1)], 0),  # one image and one-row pools: no word at all
        ([(1, 6)], 20),  # a pool exactly its quota: Floyd's first bound is 1
        ([(4, 1)], 12),
        ([(1, 1), (1, 1)], 1),  # two images: the pick takes a word
    ])
    def test_draws_that_take_no_word(self, sizes, step_words, monkeypatch):
        images = self.images(sizes)
        assert set(_Chunks(images).words) == {step_words}
        calls = TestMStep.count_batch_rows(monkeypatch)
        assert_matches_the_per_step_loop(images, 30, seed=16)
        assert calls == []

    def test_leaves_a_choice_beyond_floyd_to_batch_rows(self, monkeypatch):
        # rng.choice(n, k, replace=False) leaves Floyd's algorithm for
        # n > 10,000 and k > n // 50
        floyd, tail = self.images([(3, 12_000)], bg_quota=240) + self.images(
            [(3, 12_000)], bg_quota=241)
        assert _step_draws(floyd[-1], 2) is not None
        assert _step_draws(tail[-1], 2) is None
        calls = TestMStep.count_batch_rows(monkeypatch)
        drawn = assert_matches_the_per_step_loop([floyd, tail], 10, seed=23)
        assert len(calls) == sum(inputs is tail for inputs, _ in drawn) > 0

    @pytest.mark.parametrize("chunk", [1, 7, 100, 333])
    def test_a_chunk_holds_the_most_steps_that_fit(self, chunk, monkeypatch):
        monkeypatch.setattr(emdet.engine, "DRAW_CHUNK", chunk)
        chunks = []
        draw = _Chunks.draw

        def recording(self, rng, steps):
            picks, rows, ends = draw(self, rng, steps)
            chunks.append(picks)
            return picks, rows, ends

        monkeypatch.setattr(_Chunks, "draw", recording)
        images = self.images([(3, 20), (7, 9)])
        assert_matches_the_per_step_loop(images, 40, seed=18)
        sizes = _Chunks(images).sizes
        assert sizes == [31 + 2 * 20 // 8, 37 + 2 * (7 + 9) // 8]  # draws, seen flags / 8
        assert all(chunks) and sum(map(len, chunks)) == 40
        for picks, following in zip(chunks, chunks[1:]):
            filled = sum(sizes[image] for image in picks)
            assert filled <= chunk or len(picks) == 1
            assert filled + sizes[following[0]] > chunk

    def test_a_chunk_bounds_its_seen_flags(self):
        # quota 1 of a 5,000-row pool: three draws but 10,000 seen flags a step
        config = EmConfig(fg_per_image=0, bg_per_image=1)
        images = [TestDrawPlan.image(0, 5000, config, seed) for seed in range(2)]
        tracemalloc.start()
        try:
            assert sum(1 for _ in _minibatches(np.random.default_rng(1), images, 4000)) == 4000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestMStep:
    def small_setup(self, seed=0):
        rng = np.random.default_rng(seed)
        rec = random_weak_record(rng, "w", num_proposals=8, num_fg=2,
                                 feature_dim=4, num_present=1)
        dataset = single_record_dataset(rec)
        params = ScorerParams.zeros(3, 4)
        geometry = center_geometry(rec.proposals)
        post = e_step(rec, log_prob_matrix(params, rec.features), EmConfig(mode="exact"),
                      geometry)
        labels = {"w": soft_labels(post, rec, 3, geometry)}
        return dataset, labels, params

    @staticmethod
    def assert_matches_a_per_step_loop(records, labels, config, start, seed, m_steps=1,
                                       bit_generator=np.random.PCG64):
        """m_step from start_step 5, ``m_steps`` times on one generator, against
        a loop of per_pool_rows batches and weighted_ce_gradient steps on the
        same generator stream: equal weights and equal generator states."""
        def run(step_fn):
            params = start.copy()
            state = OptimizerState.for_params(params, config.lr_initial,
                                              config.momentum, config.weight_decay)
            rng = np.random.Generator(bit_generator(seed))
            step_fn(params, state, rng)
            return params.weights, rng.bit_generator.state

        def reference(params, state, rng):
            for n in range(m_steps * config.sgd_steps_per_m_step):
                state.learning_rate = learning_rate(config, 5 + n)
                record = records[int(rng.integers(len(records)))]
                q = labels[record.image_id]
                rows = per_pool_rows(rng, q, config)
                _, grad = weighted_ce_gradient(params, record.features[rows], q[rows],
                                               config.l2)
                sgd_step(params, state, grad / rows.size)

        def m_steps_on_one_generator(params, state, rng):
            step = 5
            for _ in range(m_steps):
                step = m_step(Dataset(records), labels, params, state, config, rng, step)

        expected_weights, expected_state = run(reference)
        weights, generator_state = run(m_steps_on_one_generator)
        assert np.array_equal(weights, expected_weights)
        assert same_state(generator_state, expected_state)

    def test_zero_steps_leave_params_unchanged(self):
        dataset, labels, params = self.small_setup()
        config = EmConfig(sgd_steps_per_m_step=0)
        state = OptimizerState.for_params(params, config.lr_initial)
        out = m_step(dataset, labels, params, state, config,
                     np.random.default_rng(0))
        assert out == 0
        assert np.array_equal(params.weights, np.zeros((3, 5)))

    def test_returns_advanced_step_counter(self):
        dataset, labels, params = self.small_setup()
        config = EmConfig(sgd_steps_per_m_step=5)
        state = OptimizerState.for_params(params, config.lr_initial)
        out = m_step(dataset, labels, params, state, config,
                     np.random.default_rng(0), start_step=7)
        assert out == 12

    def test_steps_move_the_weights(self):
        dataset, labels, params = self.small_setup()
        config = EmConfig(sgd_steps_per_m_step=20)
        state = OptimizerState.for_params(params, config.lr_initial)
        m_step(dataset, labels, params, state, config, np.random.default_rng(1))
        assert np.max(np.abs(params.weights)) > 0.0

    def test_matches_a_per_step_gradient_loop_bit_for_bit(self):
        # mixed images, one with no foreground-eligible rows, l2 on, and a
        # learning-rate drop inside the run
        rng = np.random.default_rng(3)
        records = [random_weak_record(rng, f"w{n}", num_proposals=7, num_fg=2,
                                      feature_dim=4) for n in range(3)]
        gt = Box(10, 10, 30, 30)
        proposals = boxes_to_array([gt, Box(12, 10, 31, 30), Box(60, 60, 70, 70)])
        records.append(strong_record("s", proposals, rng.normal(size=(3, 4)), [(gt, 2)]))
        anchor = random_params(rng, 3, 4)
        labels = {}
        for r in records[:-1]:
            geometry = center_geometry(r.proposals)
            post = e_step(r, log_prob_matrix(anchor, r.features), EmConfig(mode="exact"),
                          geometry)
            labels[r.image_id] = soft_labels(post, r, 3, geometry)
        labels["s"] = np.eye(3)[strong_label_vector(records[-1], 3)]
        labels["w0"] = np.eye(3)[np.zeros(7, dtype=int)]
        config = EmConfig(sgd_steps_per_m_step=200, lr_drop_step=150, l2=0.3,
                          fg_per_image=4, bg_per_image=5)
        self.assert_matches_a_per_step_loop(records, labels, config,
                                            random_params(rng, 3, 4), seed=9)

    def test_matches_a_per_step_gradient_loop_without_l2(self):
        # a background-only image, a foreground pool exactly its quota, pools
        # shorter than their quotas, and l2 = 0: plans of two draws and of
        # four, and the gradient without the L2 term
        rng = np.random.default_rng(4)
        sizes = {"bg_only": (0, 4), "exact": (4, 2), "short": (3, 3), "mixed": (2, 5)}
        records, labels = self.pooled_images(rng, sizes)
        config = EmConfig(sgd_steps_per_m_step=200, lr_drop_step=150, l2=0.0,
                          fg_per_image=4, bg_per_image=5)
        calls = [len(_draw_plan(*sizes[r.image_id], config)) for r in records]
        assert calls == [2, 4, 4, 4]
        self.assert_matches_a_per_step_loop(records, labels, config,
                                            random_params(rng, 3, 4), seed=11)

    @staticmethod
    def pooled_images(rng, sizes):
        """Weak records and soft labels with the given (foreground, background)
        pool sizes, foreground-argmax rows first."""
        records, labels = [], {}
        for image_id, (fg_size, bg_size) in sizes.items():
            record = random_weak_record(rng, image_id, num_proposals=fg_size + bg_size,
                                        num_fg=2, feature_dim=4)
            q = rng.dirichlet(np.ones(3), size=record.num_proposals)
            q[:fg_size, 1] += 2.0
            q[fg_size:, 0] += 2.0
            labels[image_id] = q / q.sum(axis=1, keepdims=True)
            records.append(record)
        return records, labels

    @staticmethod
    def count_batch_rows(monkeypatch):
        """Patch _batch_rows to record the row-order length of every call."""
        calls = []
        batch_rows = emdet.engine._batch_rows

        def counting(rng, order, plan):
            calls.append(order.size)
            return batch_rows(rng, order, plan)

        monkeypatch.setattr(emdet.engine, "_batch_rows", counting)
        return calls

    def test_back_to_back_m_steps_carry_the_generator_between_chunks(self, monkeypatch):
        # two m_step calls on one generator, 157 steps each (a multiple of no
        # chunk), in chunks small enough that some end on an odd 32-bit word:
        # the buffered half carries into the next chunk and the next m_step
        monkeypatch.setattr(emdet.engine, "DRAW_CHUNK", 300)
        chunk_starts = spy_read_ahead(monkeypatch)
        rng = np.random.default_rng(6)
        sizes = {"bg_only": (0, 4), "exact": (4, 5), "short": (3, 3), "long": (9, 14)}
        records, labels = self.pooled_images(rng, sizes)
        config = EmConfig(sgd_steps_per_m_step=157, lr_drop_step=200, fg_per_image=4,
                          bg_per_image=5)
        self.assert_matches_a_per_step_loop(records, labels, config,
                                            random_params(rng, 3, 4), seed=12, m_steps=2)
        assert len(chunk_starts) > 4
        assert set(chunk_starts) == {0, 1}

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                               np.random.SFC64])
    def test_other_bit_generators_take_the_chunk_path(self, bit_generator, monkeypatch):
        calls = self.count_batch_rows(monkeypatch)
        rng = np.random.default_rng(7)
        records, labels = self.pooled_images(rng, {"exact": (4, 5), "long": (9, 14)})
        config = EmConfig(sgd_steps_per_m_step=60, fg_per_image=4, bg_per_image=5)
        self.assert_matches_a_per_step_loop(records, labels, config, random_params(rng, 3, 4),
                                            seed=0, bit_generator=bit_generator)
        assert calls == []

    def test_a_pool_where_choice_leaves_floyd_is_drawn_through_batch_rows(self, monkeypatch):
        # rng.choice(12000, 300, replace=False) shuffles a tail (300 > 12000 // 50);
        # chunks draw every step of the small image and none of the large one
        calls = self.count_batch_rows(monkeypatch)
        batch_sizes = []
        ce = emdet.engine.ce_gradient

        def recording(params, features, q, l2):
            batch_sizes.append(len(features))
            return ce(params, features, q, l2)

        monkeypatch.setattr(emdet.engine, "ce_gradient", recording)
        rng = np.random.default_rng(8)
        records, labels = self.pooled_images(rng, {"large": (5, 12_000), "small": (0, 7)})
        config = EmConfig(sgd_steps_per_m_step=30, fg_per_image=4, bg_per_image=300)
        self.assert_matches_a_per_step_loop(records, labels, config,
                                            random_params(rng, 3, 4), seed=13)
        large_steps = batch_sizes.count(2 * (4 + 300))
        assert 0 < large_steps < 30
        assert calls == [12_005] * large_steps

    def test_a_wrong_first_pick_is_drawn_through_batch_rows(self, monkeypatch):
        # as if every third chunk's first pick word were one numpy rejects
        def wrong_first(n, words):
            if n % 3 == 0:
                words = words.copy()
                words[0] = pick_word(((int(words[0]) * 3 >> 32) + 1) % 3, 3)
            return words

        monkeypatch.setattr(emdet.engine, "DRAW_CHUNK", 200)
        reads = spy_read_ahead(monkeypatch, wrong_first)
        calls = self.count_batch_rows(monkeypatch)
        rng = np.random.default_rng(9)
        records, labels = self.pooled_images(rng, {"exact": (4, 5), "short": (3, 3),
                                                   "long": (9, 14)})
        config = EmConfig(sgd_steps_per_m_step=50, fg_per_image=4, bg_per_image=5)
        self.assert_matches_a_per_step_loop(records, labels, config,
                                            random_params(rng, 3, 4), seed=14)
        assert len(calls) == (len(reads) + 2) // 3 > 2

    @pytest.mark.parametrize("steps, fg_per_image, lines", [(0, 16, 2), (3, 16, 2),
                                                            (3, 0, 0)])
    def test_logs_every_background_only_image_once_per_m_step(self, steps, fg_per_image,
                                                              lines, caplog):
        # two of three images have no foreground-eligible rows; they are
        # counted whether or not a step draws them, and not at all when no
        # foreground rows are asked for
        rng = np.random.default_rng(5)
        records = [random_weak_record(rng, f"w{n}", num_proposals=4, feature_dim=4)
                   for n in range(3)]
        labels = {r.image_id: np.eye(3)[np.zeros(4, dtype=int)] for r in records}
        labels["w2"] = np.eye(3)[np.array([0, 1, 2, 0])]
        config = EmConfig(sgd_steps_per_m_step=steps, fg_per_image=fg_per_image)
        params = ScorerParams.zeros(3, 4)
        state = OptimizerState.for_params(params, config.lr_initial)
        with caplog.at_level(logging.DEBUG, logger="emdet.engine"):
            for _ in range(2):
                m_step(Dataset(records), labels, params, state, config, rng)
        found = [r for r in caplog.records if "foreground-eligible" in r.getMessage()]
        assert [r.levelno for r in found] == [logging.INFO] * lines
        assert all(r.getMessage().startswith("2 of 3 images") for r in found)

    def test_an_empty_dataset_has_no_image_to_pick(self):
        params = ScorerParams.zeros(3, 4)
        state = OptimizerState.for_params(params, 0.01)
        with pytest.raises(ValueError, match="high <= 0"):
            m_step(Dataset([]), {}, params, state, EmConfig(sgd_steps_per_m_step=3),
                   np.random.default_rng(0))

    def test_unnormalized_soft_label_row_is_rejected(self):
        dataset, labels, params = self.small_setup()
        labels["w"] = labels["w"].copy()
        labels["w"][2] *= 0.5
        config = EmConfig(sgd_steps_per_m_step=5)
        state = OptimizerState.for_params(params, config.lr_initial)
        with pytest.raises(ValueError, match="sum to 1"):
            m_step(dataset, labels, params, state, config, np.random.default_rng(0))


class TestFullBatchDescent:
    def setup_loss(self, seed=5):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(12, 4))
        soft = rng.dirichlet(np.ones(3), size=12)
        params = random_params(rng, 3, 4)
        return params, features, soft

    def test_plain_descent_reduces_loss_at_small_rate(self):
        params, features, soft = self.setup_loss()
        initial, _ = weighted_ce_gradient(params, features, soft)
        final = full_batch_gradient_descent(params, features, soft, steps=25,
                                            lr=0.005)
        assert final < initial

    def test_backtracking_never_increases_loss(self):
        # the initial rate is absurd on purpose; halving must rescue it
        params, features, soft = self.setup_loss(seed=6)
        initial, _ = weighted_ce_gradient(params, features, soft)
        final = full_batch_gradient_descent(params, features, soft, steps=10,
                                            lr=100.0)
        assert final <= initial

    def test_zero_steps_return_initial_loss(self):
        params, features, soft = self.setup_loss(seed=7)
        expected, _ = weighted_ce_gradient(params, features, soft)
        assert full_batch_gradient_descent(params, features, soft, steps=0,
                                           lr=0.1) == expected


class TestRunEm:
    def tiny_dataset(self, seed=0, count=4):
        rng = np.random.default_rng(seed)
        records = [random_weak_record(rng, f"w{n}", num_proposals=6,
                                      num_fg=2, feature_dim=4)
                   for n in range(count)]
        return Dataset(records)

    def test_zero_iterations_return_init_unchanged(self):
        dataset = self.tiny_dataset()
        rng = np.random.default_rng(8)
        init = random_params(rng, 3, 4)
        result = run_em(dataset, EmConfig(em_iterations=0), init_params=init)
        assert np.array_equal(result.params.weights, init.weights)
        assert result.params is not init
        assert len(result.trace) == 1

    def test_trace_has_one_entry_per_iteration_plus_init(self):
        dataset = self.tiny_dataset()
        config = EmConfig(mode="exact", em_iterations=2,
                          sgd_steps_per_m_step=10)
        result = run_em(dataset, config)
        assert len(result.trace) == 3

    def test_trace_can_be_disabled(self):
        dataset = self.tiny_dataset()
        config = EmConfig(em_iterations=1, sgd_steps_per_m_step=5,
                          record_trace=False)
        assert run_em(dataset, config).trace == []

    def test_default_config_traces_past_the_enumeration_guard(self):
        # 200 ** 3 configs per three-category image: the trace used to raise GuardError
        train, _ = generate(GeneratorConfig(n_train=6, n_test=1, proposals_per_image=200,
                                            seed=2))
        dataset = split_semi(train, 0.0, seed=2)
        assert max(len(r.annotation.label) for r in dataset) == 3
        config = EmConfig(sgd_steps_per_m_step=100)
        assert config.mode == "k_em" and config.record_trace
        trace = run_em(dataset, config).trace
        assert len(trace) == config.em_iterations + 1
        assert all(np.isfinite(v.total) and v.weak_term < 0.0 for v in trace)

    def test_exact_full_batch_objective_is_monotone(self):
        dataset = self.tiny_dataset(seed=11, count=5)
        config = EmConfig(mode="exact", em_iterations=4, full_batch=True,
                          sgd_steps_per_m_step=40, full_batch_lr=1.0)
        trace = run_em(dataset, config).trace
        totals = [v.total for v in trace]
        for before, after in zip(totals, totals[1:]):
            assert after >= before - 1e-8

    def test_reruns_are_bit_identical(self):
        dataset = self.tiny_dataset(seed=13)
        config = EmConfig(mode="k_em", k=10, em_iterations=2,
                          sgd_steps_per_m_step=30, seed=5)
        first = run_em(dataset, config)
        second = run_em(dataset, config)
        assert np.array_equal(first.params.weights, second.params.weights)
        assert [v.total for v in first.trace] == [v.total for v in second.trace]

    def test_init_scores_seed_the_first_posteriors(self):
        dataset = self.tiny_dataset(seed=17, count=2)
        scores = {r.image_id: np.abs(np.random.default_rng(1).normal(
            size=(r.num_proposals, 2))) for r in dataset}
        config = EmConfig(mode="exact", em_iterations=1,
                          sgd_steps_per_m_step=10)
        with_scores = run_em(dataset, config, init_scores=scores)
        without = run_em(dataset, config)
        assert not np.array_equal(with_scores.params.weights,
                                  without.params.weights)

    def test_missing_init_scores_are_rejected(self):
        dataset = self.tiny_dataset(seed=19, count=2)
        ids = [r.image_id for r in dataset]
        scores = {ids[0]: np.ones((dataset.by_id(ids[0]).num_proposals, 2))}
        with pytest.raises(ValueError, match="no init scores"):
            run_em(dataset, EmConfig(em_iterations=1), init_scores=scores)

    def test_both_init_sources_are_rejected(self):
        dataset = self.tiny_dataset()
        with pytest.raises(ValueError, match="at most one"):
            run_em(dataset, EmConfig(), init_params=ScorerParams.zeros(3, 4),
                   init_scores={})

    def test_checkpoint_dim_mismatch_is_rejected(self):
        dataset = self.tiny_dataset()
        with pytest.raises(ValueError, match="features"):
            run_em(dataset, EmConfig(), init_params=ScorerParams.zeros(3, 7))

    def test_checkpoint_category_shortfall_is_rejected(self):
        dataset = self.tiny_dataset()
        with pytest.raises(ValueError, match="categories"):
            run_em(dataset, EmConfig(), init_params=ScorerParams.zeros(2, 4))

    @staticmethod
    def count_iou_matrices(monkeypatch):
        """Record the first argument of every iou_matrix call, by every binding."""
        calls = []
        original = emdet.geometry.iou_matrix

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (emdet.geometry, emdet.latent, emdet.engine):
            monkeypatch.setattr(module, "iou_matrix", counting)
        return calls

    @pytest.mark.parametrize("mode, record_trace",
                             [("k_em", True), ("k_em", False), ("hard", False)])
    def test_one_iou_matrix_per_weak_image_per_run(self, mode, record_trace, monkeypatch):
        dataset = self.tiny_dataset(seed=29, count=5)
        calls = self.count_iou_matrices(monkeypatch)
        config = EmConfig(mode=mode, k=10, em_iterations=3,
                          sgd_steps_per_m_step=20, record_trace=record_trace)
        first = run_em(dataset, config)
        assert len(calls) == len(dataset)

        # Replace one record's proposals: the next run builds every image's
        # coverage again and trains on the new boxes.
        record = dataset[2]
        moved = clustered_boxes(np.random.default_rng(30), record.num_proposals)
        record.proposals = moved
        del calls[:]
        second = run_em(dataset, config)
        assert len(calls) == len(dataset)
        assert any(boxes is moved for boxes in calls)
        fresh = Dataset([weak_record(r.image_id, r.proposals, r.features,
                                     r.annotation.label.categories) for r in dataset])
        again = run_em(fresh, config)
        assert second.params.weights.tobytes() == again.params.weights.tobytes()
        assert [v.total for v in second.trace] == [v.total for v in again.trace]
        assert first.params.weights.tobytes() != second.params.weights.tobytes()

    @pytest.mark.parametrize("mode", ["exact", "hard"])
    def test_guard_fails_before_any_iou_matrix_is_built(self, mode, monkeypatch):
        # 1100 ** 2 configs exceed the guard; the image's IoU matrix alone is ~10 MB
        dataset = self.tiny_dataset(seed=31, count=2)
        rng = np.random.default_rng(31)
        big = random_weak_record(rng, "big", num_proposals=1100, num_fg=2,
                                 feature_dim=4, num_present=2)
        dataset = Dataset([*dataset, big])
        calls = self.count_iou_matrices(monkeypatch)
        with pytest.raises(GuardError, match="image big"):
            run_em(dataset, EmConfig(mode=mode, em_iterations=1, sgd_steps_per_m_step=5))
        assert calls == []

    def test_strong_images_are_labelled_once_per_run(self, monkeypatch):
        train, _ = generate(GeneratorConfig(n_train=20, n_test=1, seed=4))
        dataset = split_semi(train, 0.5, seed=4)
        assert sum(r.is_weak for r in dataset) == 10
        config = EmConfig(em_iterations=3, sgd_steps_per_m_step=20)
        calls = self.count_iou_matrices(monkeypatch)
        result = run_em(dataset, config)
        # one coverage per weak image, one ground-truth match per strong image
        assert len(calls) == 20
        # equal to an objective that labels the strong images itself
        assert result.trace[-1] == objective_of(dataset, result.params)

    @staticmethod
    def count_plans(monkeypatch):
        """Count the co-coverage plans built, by (level, geometry id)."""
        built = collections.Counter()
        for level in ("pair", "triple"):
            original = getattr(emdet.latent, f"_build_{level}_plan")

            def counting(geometry, original=original, level=level):
                built[level, id(geometry)] += 1
                return original(geometry)

            monkeypatch.setattr(emdet.latent, f"_build_{level}_plan", counting)
        return built

    @pytest.mark.parametrize("mode", ["k_em", "hard"])
    def test_each_geometry_builds_its_plan_at_most_once_per_run(self, mode, monkeypatch):
        train, _ = generate(GeneratorConfig(n_train=12, n_test=1, seed=4))
        dataset = split_semi(train, 0.0, seed=4)
        sizes = [len(r.annotation.label) for r in dataset]
        assert {1, 2, 3} <= set(sizes)
        built = self.count_plans(monkeypatch)
        config = EmConfig(mode=mode, em_iterations=3, sgd_steps_per_m_step=20)
        assert config.record_trace
        run_em(dataset, config)
        assert set(built.values()) == {1}
        assert sum(level == "pair" for level, _ in built) == sum(m >= 2 for m in sizes)
        assert sum(level == "triple" for level, _ in built) == sizes.count(3)

    def test_k_em_without_trace_builds_no_plan(self, monkeypatch):
        train, _ = generate(GeneratorConfig(n_train=12, n_test=1, seed=4))
        dataset = split_semi(train, 0.0, seed=4)
        built = self.count_plans(monkeypatch)
        run_em(dataset, EmConfig(em_iterations=3, sgd_steps_per_m_step=20,
                                 record_trace=False))
        assert not built

    @pytest.mark.parametrize("with_scores", [False, True])
    def test_k_em_trains_with_more_categories_than_candidates(self, with_scores):
        # k = 100 keeps floor(100 ** (1/M)) < M candidates for M = 4 and 5
        train, _ = generate(GeneratorConfig(n_train=12, n_test=1, num_fg_categories=5,
                                            max_objects_per_image=5, seed=1))
        dataset = split_semi(train, 0.0, seed=1)
        assert max(len(r.annotation.label) for r in dataset) >= 4
        scores = make_init_scores(train, seed=2) if with_scores else None
        config = EmConfig(em_iterations=2, sgd_steps_per_m_step=20, record_trace=False)
        result = run_em(dataset, config, init_scores=scores)
        assert np.all(np.isfinite(result.params.weights))

    def test_num_categories_override_widens_the_scorer(self):
        dataset = self.tiny_dataset()
        config = EmConfig(em_iterations=0, num_categories=6)
        result = run_em(dataset, config)
        assert result.params.weights.shape == (6, 5)

    @staticmethod
    def mixed_dataset():
        train, _ = generate(GeneratorConfig(n_train=12, n_test=1, seed=4))
        dataset = split_semi(train, 0.5, seed=4)
        assert 0 < sum(r.is_weak for r in dataset) < len(dataset)
        return train, dataset

    @pytest.mark.parametrize("count, mode", [(2, "k_em"), (3, "hard"), (4, "exact")])
    def test_too_few_config_categories_fail_before_any_iou_matrix(self, count, mode,
                                                                  monkeypatch):
        _, dataset = self.mixed_dataset()
        assert infer_num_categories(dataset) == 5
        calls = self.count_iou_matrices(monkeypatch)
        with pytest.raises(ValueError, match=f"config covers {count} categories, "
                                             f"dataset needs 5"):
            run_em(dataset, EmConfig(mode=mode, num_categories=count))
        assert calls == []

    def test_missing_init_scores_fail_before_any_iou_matrix(self, monkeypatch):
        train, dataset = self.mixed_dataset()
        scores = make_init_scores(train, seed=5)
        missing = [r.image_id for r in dataset if r.is_weak][-1]
        del scores[missing]
        calls = self.count_iou_matrices(monkeypatch)
        with pytest.raises(ValueError, match=f"no init scores for image {missing}"):
            run_em(dataset, EmConfig(em_iterations=1), init_scores=scores)
        assert calls == []

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("with_scores", [False, True])
    @pytest.mark.parametrize("mode", ["k_em", "hard"])
    def test_each_pass_scores_each_image_it_reads_once(self, mode, with_scores, record_trace,
                                                       monkeypatch):
        train, dataset = self.mixed_dataset()
        scored = []
        original = emdet.engine.log_prob_matrix

        def counting(params, features):
            scored.append(id(features))
            return original(params, features)

        monkeypatch.setattr(emdet.engine, "log_prob_matrix", counting)
        config = EmConfig(mode=mode, em_iterations=3, sgd_steps_per_m_step=20,
                          record_trace=record_trace)
        run_em(dataset, config, init_scores=make_init_scores(train, seed=5) if with_scores
               else None)
        # the trace reads every image in every pass; otherwise only the
        # E-steps of the first em_iterations passes read, the weak images
        if record_trace:
            expected = {id(r.features): config.em_iterations + 1 for r in dataset}
        else:
            expected = {id(r.features): config.em_iterations - with_scores
                        for r in dataset if r.is_weak}
        assert collections.Counter(scored) == expected

    def test_exact_mode_holds_one_posterior_table_at_a_time(self):
        # 30 * 29 * 28 configs per three-category image; only soft labels
        # outlive an E-step, so four times the images cost no more memory
        def peak(count):
            rng = np.random.default_rng(37)
            dataset = Dataset([random_weak_record(rng, f"w{n}", num_proposals=30, num_fg=3,
                                                  feature_dim=4, num_present=3)
                               for n in range(count)])
            config = EmConfig(mode="exact", em_iterations=2, sgd_steps_per_m_step=20,
                              record_trace=False)
            tracemalloc.start()
            try:
                run_em(dataset, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) - peak(2) < 0.5 * 2 ** 20


def run_digest(result):
    """sha256 of the trained weights and every (strong, weak) trace term."""
    digest = hashlib.sha256(result.params.weights.tobytes())
    for value in result.trace:
        digest.update(np.array([value.strong_term, value.weak_term]).tobytes())
    return digest.hexdigest()


class TestRunEmDigest:
    """run_em is byte-identical for a given input and config.  The other run_em
    tests compare runs of the same code with each other, so a change that
    moved every run alike would pass them; these pinned digests would not."""

    @pytest.mark.parametrize("mode, with_scores, expected", [
        ("exact", False, "260c3a93a06f263a4a641d97a5800cac31c527540d1f0923f0fa0686e298c1e2"),
        ("exact", True, "5d56ba0f87aee624e9d759f2ffb117c43cc39df6d2a674d113f1a15911e67ff9"),
        ("hard", False, "dbd6727727ad80f1b13875f90bbf5e40975c9bd57503393e34fe7362dc05a2b7"),
        ("hard", True, "d26c505e8d12d5fc2e7f107c85a2244c479a3214aff418d721640989c116bf4c"),
        ("k_em", False, "185d3bf804114aca55d84ef8d78aaa656dee67f06af580be4169c6d2950153fe"),
        ("k_em", True, "b37a498343592a832705c5303b75e48478d210d9bcfc2204bdd0605ea4215bab"),
    ])
    def test_mixed_run_digest_is_pinned(self, mode, with_scores, expected):
        train, _ = generate(GeneratorConfig(n_train=14, n_test=1, proposals_per_image=20,
                                            seed=4))
        dataset = split_semi(train, 0.3, seed=4)
        scores = make_init_scores(train, seed=5) if with_scores else None
        config = EmConfig(mode=mode, k=20, em_iterations=3, sgd_steps_per_m_step=60, seed=1)
        assert config.record_trace
        assert run_digest(run_em(dataset, config, init_scores=scores)) == expected


class TestInferNumCategories:
    def test_counts_background(self):
        rng = np.random.default_rng(23)
        rec = random_weak_record(rng, "w", num_fg=3, num_present=3)
        assert infer_num_categories(single_record_dataset(rec)) == 4


def _table_builders(record):
    """Every function that builds a config table, bound to one weak record."""
    label = record.annotation.label
    B, M = record.num_proposals, len(label)
    params = ScorerParams.zeros(M + 1, record.features.shape[1])
    log_probs = log_prob_matrix(params, record.features)
    geometry = center_geometry(record.proposals)
    scores = np.ones((B, M))
    return {
        "enumerate_exact": lambda: enumerate_exact(record.proposals, label),
        "exact_log_likelihood_grid": lambda: exact_log_likelihood_grid(geometry, label,
                                                                       log_probs),
        "exact_log_partition": lambda: exact_log_partition(geometry, label, log_probs),
        "select_k": lambda: select_k(record.proposals, label, log_probs, B ** M),
        "e_step_exact": lambda: e_step(record, log_probs, EmConfig(mode="exact"), geometry),
        "e_step_hard": lambda: e_step(record, log_probs, EmConfig(mode="hard"), geometry),
        "e_step_from_scores_exact": lambda: e_step_from_scores(
            record, scores, EmConfig(mode="exact")),
        "e_step_from_scores_hard": lambda: e_step_from_scores(
            record, scores, EmConfig(mode="hard")),
    }


BUILDERS = sorted(_table_builders(isolated_weak_record("w", 3, (1, 2, 3))))


class TestOneTableSizeRule:
    """Every config-table builder checks latent's one size rule before allocating."""

    @pytest.mark.parametrize("size", [(101, 3), (1001, 2)])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_past_the_guard_raises_before_allocating(self, builder, size):
        B, M = size
        if builder == "exact_log_partition" and M == 3:
            # three categories build B ** 2 pair factors, not the B ** 3 grid
            B = 1001
        call = _table_builders(isolated_weak_record("big", B, tuple(range(1, M + 1))))[builder]
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="exceed the 1000000 config guard"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_too_few_proposals_raise_one_error(self, builder):
        call = _table_builders(isolated_weak_record("few", 2, (1, 2, 3)))[builder]
        with pytest.raises(ValueError, match=re.escape(
                "need at least 3 proposals to place 3 centers, got 2")):
            call()


class TestCoverageArguments:
    """Per-image coverages, log-prob matrices and strong label vectors are built
    by the caller, once."""

    @staticmethod
    def functions():
        for module in (emdet.latent, emdet.engine):
            for name, func in inspect.getmembers(module, inspect.isfunction):
                if func.__module__ == module.__name__:
                    yield f"{module.__name__}.{name}", inspect.signature(func).parameters

    def test_no_function_builds_a_missing_coverage(self):
        readers = set()
        for name, params in self.functions():
            for arg in ("geometry", "geometries", "strong_vectors"):
                if arg in params:
                    readers.add(name)
                    assert params[arg].default is inspect.Parameter.empty, (name, arg)
            assert not {"proposals", "geometry"} <= set(params), name
        assert {"emdet.latent.score_config_set", "emdet.latent.exact_log_partition",
                "emdet.engine.e_step", "emdet.engine.soft_labels",
                "emdet.engine.objective"} <= readers

    def test_no_function_scores_images_it_is_handed_log_probs_for(self):
        readers = set()
        for name, params in self.functions():
            if "log_probs" in params:
                readers.add(name)
                assert params["log_probs"].default is inspect.Parameter.empty, name
            assert not (name.startswith("emdet.engine.")
                        and {"params", "log_probs"} <= set(params)), name
        assert {"emdet.engine.e_step", "emdet.engine.objective"} <= readers

    def test_engine_keeps_no_guard_of_its_own(self):
        # the config-table size rule lives in latent; engine only calls it
        assert not hasattr(emdet.engine, "OBJECTIVE_GUARD")
        assert "OBJECTIVE_GUARD" not in inspect.getsource(emdet.engine)
        for name, _ in self.functions():
            assert not name.startswith("emdet.engine.") or "guard" not in name.lower(), name
        assert emdet.engine.check_enumeration is emdet.latent.check_enumeration
