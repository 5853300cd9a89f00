"""Tests for the EM engine: posteriors, soft labels, objective, M-steps.

The gradient identity between the surrogate and the soft-label cross entropy
is checked numerically; posterior values are checked against hand products.
"""

import itertools
import logging
import math
import time
import tracemalloc

import numpy as np
import pytest

import emdet.engine
import emdet.geometry
import emdet.latent
from emdet.data import Dataset
from emdet.engine import (
    EmConfig,
    PosteriorTable,
    e_step,
    e_step_from_scores,
    full_batch_gradient_descent,
    infer_num_categories,
    learning_rate,
    m_step,
    objective,
    run_em,
    soft_labels,
    strong_label_vector,
    strong_labels,
    surrogate_value,
    _minibatch_rows,
    _pools,
    _sample_rows,
)
from emdet.geometry import Box, boxes_to_array
from emdet.latent import GuardError, LatentConfigSet
from emdet.oracle import brute_hard_config
from emdet.oracle import expand as naive_expand
from emdet.scorer import (
    OptimizerState,
    ScorerParams,
    sgd_step,
    weighted_ce_gradient,
)
from helpers import (
    clustered_boxes,
    isolated_boxes,
    isolated_weak_record,
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
        q = strong_labels(rec, 2)
        assert np.array_equal(q, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestObjective:
    def test_uniform_weak_image_closed_form(self):
        # zero weights, C=2: every proposal scores 1/2 for both categories,
        # so each of the 3 single-center configs has likelihood (1/2)^3
        rec = isolated_weak_record("w", 3, (1,), dim=4)
        val = objective(single_record_dataset(rec), ScorerParams.zeros(2, 4))
        assert val.strong_term == 0.0
        assert abs(val.weak_term - (math.log(3) + 3 * math.log(0.5))) < 1e-12

    def test_strong_only_dataset_has_zero_weak_term(self):
        box = Box(0, 0, 10, 10)
        rec = strong_record("s", boxes_to_array([box]), np.zeros((1, 4)), [(box, 1)])
        val = objective(single_record_dataset(rec), ScorerParams.zeros(2, 4))
        assert val.weak_term == 0.0
        assert abs(val.strong_term - math.log(0.5)) < 1e-12
        assert val.total == val.strong_term

    def test_guard_rejects_oversized_enumeration(self):
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=101, num_fg=3,
                                 num_present=3)
        with pytest.raises(GuardError, match="exceed"):
            objective(single_record_dataset(rec), ScorerParams.zeros(4, 5))


class TestEStep:
    def test_exact_uniform_posterior(self):
        rec = isolated_weak_record("w", 5, (1,), dim=3)
        post = e_step(rec, ScorerParams.zeros(2, 3), EmConfig(mode="exact"))
        assert np.allclose(post.weights, 0.2, atol=1e-12)

    def test_hard_matches_argmax_selection(self):
        rng = np.random.default_rng(4)
        rec = random_weak_record(rng, "w", num_proposals=7, num_fg=2,
                                 feature_dim=4, num_present=2)
        params = random_params(rng, 3, 4)
        post = e_step(rec, params, EmConfig(mode="hard"))
        assert len(post.config_set) == 1
        assert tuple(post.config_set.centers[0]) == brute_hard_config(rec, params)
        assert post.weights.tolist() == [1.0]

    def test_hard_tie_picks_lexicographically_smallest(self):
        rec = isolated_weak_record("w", 4, (1, 2), dim=3)
        post = e_step(rec, ScorerParams.zeros(3, 3), EmConfig(mode="hard"))
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
            centers = tuple(e_step(rec, params, EmConfig(mode="hard")).config_set.centers[0])
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
        with pytest.raises(ValueError, match="zero likelihood"):
            e_step(rec, ScorerParams(weights), EmConfig(mode="hard"))

    def test_truncated_with_full_budget_matches_exact(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=5,
                                     num_fg=2, feature_dim=4, num_present=2)
            params = random_params(rng, 3, 4)
            exact = e_step(rec, params, EmConfig(mode="exact"))
            trunc = e_step(rec, params, EmConfig(mode="k_em", k=25))
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
            e_step(rec, ScorerParams.zeros(3, 3), EmConfig(mode="exact"))

    @pytest.mark.parametrize("mode", ["exact", "hard"])
    def test_guard_rejects_oversized_enumeration_up_front(self, mode):
        # 200 ** 3 configs exceed the 10 ** 6 guard; building them would take ~200 MB
        rng = np.random.default_rng(0)
        rec = random_weak_record(rng, "big", num_proposals=200, num_fg=3,
                                 num_present=3)
        start = time.monotonic()
        with pytest.raises(GuardError, match="exceed"):
            e_step(rec, ScorerParams.zeros(4, 5), EmConfig(mode=mode))
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
        q = soft_labels(post, rec, 2).q
        assert np.array_equal(q, np.array([[0, 1], [1, 0], [1, 0]], dtype=float))

    def test_split_posterior_splits_the_marginals(self):
        rec = isolated_weak_record("w", 3, (1,), dim=3)
        post = PosteriorTable("w",
                              LatentConfigSet((1,), np.array([[0], [1]])),
                              np.array([0.5, 0.5]))
        q = soft_labels(post, rec, 2).q
        assert np.allclose(q, np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]))

    def test_covered_neighbor_inherits_center_category(self):
        # proposal 1 overlaps center 0 above the threshold, proposal 2 not
        boxes = boxes_to_array([Box(0, 0, 10, 10), Box(1, 0, 11, 10), Box(40, 40, 50, 50)])
        rec = weak_record("w", boxes, np.zeros((3, 3)), (1,))
        post = PosteriorTable("w", LatentConfigSet((1,), np.array([[0]])),
                              np.array([1.0]))
        q = soft_labels(post, rec, 2).q
        assert np.array_equal(q, np.array([[0, 1], [0, 1], [1, 0]], dtype=float))

    def test_rows_always_sum_to_one(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=6,
                                     num_fg=3, feature_dim=4)
            params = random_params(rng, 4, 4)
            post = e_step(rec, params, EmConfig(mode="exact"))
            q = soft_labels(post, rec, 4).q
            assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(q >= 0)

    def test_matches_naive_weighted_expansion(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            rec = random_weak_record(rng, f"w{trial}", num_proposals=9,
                                     num_fg=3, feature_dim=4)
            post = e_step(rec, random_params(rng, 4, 4), EmConfig(mode="exact"))
            expected = np.zeros((9, 4))
            cats = post.config_set.categories
            for w, row in zip(post.weights, post.config_set.centers):
                expected[np.arange(9), naive_expand(cats, row, rec.proposals)] += w
            assert np.max(np.abs(soft_labels(post, rec, 4).q - expected)) < 1e-12

    def test_exact_posterior_memory_is_bounded_by_the_chunk(self):
        # 50 * 49 * 48 configs; an unchunked (B, N, M) key block alone is ~140 MB
        rng = np.random.default_rng(24)
        rec = random_weak_record(rng, "w", num_proposals=50, num_fg=3,
                                 feature_dim=4, num_present=3)
        post = e_step(rec, random_params(rng, 4, 4), EmConfig(mode="exact"))
        assert len(post.config_set) == 50 * 49 * 48
        tracemalloc.start()
        try:
            q = soft_labels(post, rec, 4).q
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
            soft_labels(post, rec, 2)


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
        posteriors = {r.image_id: e_step(r, anchor, EmConfig(mode="exact"))
                      for r in dataset if r.is_weak}

        params = random_params(rng, 3, 3)
        analytic = np.zeros_like(params.weights)
        for rec in dataset:
            if rec.is_weak:
                q = soft_labels(posteriors[rec.image_id], rec, 3).q
            else:
                q = strong_labels(rec, 3)
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
        posteriors = {"w": e_step(rec, params, EmConfig(mode="exact"))}
        assert surrogate_value(dataset, posteriors, params) \
            <= objective(dataset, params).total + 1e-12


class TestLearningRateSchedule:
    def test_boundaries(self):
        config = EmConfig(lr_initial=0.01, lr_drop_step=3000, lr_dropped=0.001)
        assert learning_rate(config, 0) == 0.01
        assert learning_rate(config, 2999) == 0.01
        assert learning_rate(config, 3000) == 0.001
        assert learning_rate(config, 10_000) == 0.001


class TestMinibatchRows:
    def test_composition_respects_quotas(self):
        rng = np.random.default_rng(2)
        q = np.zeros((10, 3))
        q[:4, 1] = 1.0
        q[4:, 0] = 1.0
        config = EmConfig(fg_per_image=16, bg_per_image=48)
        rows = _minibatch_rows(rng, *_pools(q), config)
        assert rows.shape == (64,)
        assert np.all(q.argmax(axis=1)[rows[:16]] != 0)
        assert np.all(q.argmax(axis=1)[rows[16:]] == 0)

    def test_all_background_image_contributes_background_only(self):
        rng = np.random.default_rng(3)
        q = np.zeros((6, 3))
        q[:, 0] = 1.0
        rows = _minibatch_rows(rng, *_pools(q), EmConfig())
        assert rows.shape == (48,)
        assert set(rows.tolist()) <= set(range(6))


class TestSampleRows:
    @pytest.mark.parametrize("size", [1, 5, 15, 16, 17, 60])
    @pytest.mark.parametrize("count", [16, 48])
    def test_draws_and_generator_state_match_choice(self, size, count):
        pool = np.arange(size, dtype=np.int64) * 3 + 1
        for seed in range(5):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = _sample_rows(rng, pool, count)
            expected = reference.choice(pool, size=count, replace=pool.size < count)
            assert rows.dtype == expected.dtype
            assert np.array_equal(rows, expected)
            assert rng.bit_generator.state == reference.bit_generator.state


class TestMStep:
    def small_setup(self, seed=0):
        rng = np.random.default_rng(seed)
        rec = random_weak_record(rng, "w", num_proposals=8, num_fg=2,
                                 feature_dim=4, num_present=1)
        dataset = single_record_dataset(rec)
        params = ScorerParams.zeros(3, 4)
        post = e_step(rec, params, EmConfig(mode="exact"))
        labels = {"w": soft_labels(post, rec, 3).q}
        return dataset, labels, params

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
        dataset = Dataset(records)
        anchor = random_params(rng, 3, 4)
        labels = {r.image_id: soft_labels(e_step(r, anchor, EmConfig(mode="exact")),
                                          r, 3).q for r in records[:-1]}
        labels["s"] = strong_labels(records[-1], 3)
        labels["w0"] = np.eye(3)[np.zeros(7, dtype=int)]
        config = EmConfig(sgd_steps_per_m_step=200, lr_drop_step=150, l2=0.3,
                          fg_per_image=4, bg_per_image=5)
        start = random_params(rng, 3, 4)

        def run(step_fn):
            params = start.copy()
            state = OptimizerState.for_params(params, config.lr_initial,
                                              config.momentum, config.weight_decay)
            step_fn(params, state, np.random.default_rng(9))
            return params.weights

        def draw(rng, q):
            fg = q.argmax(axis=1) != 0
            out = []
            for pool, count in ((np.flatnonzero(fg), config.fg_per_image),
                                (np.flatnonzero(~fg), config.bg_per_image)):
                if pool.size:
                    out.append(rng.choice(pool, size=count, replace=pool.size < count))
            return out

        def reference(params, state, rng):
            for n in range(config.sgd_steps_per_m_step):
                state.learning_rate = learning_rate(config, 5 + n)
                record = records[int(rng.integers(len(records)))]
                q = labels[record.image_id]
                rows = np.concatenate(draw(rng, q) + draw(rng, q))
                _, grad = weighted_ce_gradient(params, record.features[rows], q[rows],
                                               config.l2)
                sgd_step(params, state, grad / rows.size)

        expected = run(reference)
        actual = run(lambda params, state, rng: m_step(dataset, labels, params, state,
                                                       config, rng, start_step=5))
        assert np.array_equal(actual, expected)

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

    def test_kem_builds_at_most_two_iou_matrices_per_image_and_round(self, monkeypatch):
        dataset = self.tiny_dataset(seed=29, count=5)
        calls = []
        original = emdet.geometry.iou_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (emdet.geometry, emdet.latent, emdet.engine):
            monkeypatch.setattr(module, "iou_matrix", counting)
        config = EmConfig(mode="k_em", k=10, em_iterations=3,
                          sgd_steps_per_m_step=20, record_trace=False)
        run_em(dataset, config)
        # one E-step and one soft-label pass per weak image and round
        assert len(calls) <= 2 * len(dataset) * config.em_iterations

    def test_num_categories_override_widens_the_scorer(self):
        dataset = self.tiny_dataset()
        config = EmConfig(em_iterations=0, num_categories=6)
        result = run_em(dataset, config)
        assert result.params.weights.shape == (6, 5)


class TestInferNumCategories:
    def test_counts_background(self):
        rng = np.random.default_rng(23)
        rec = random_weak_record(rng, "w", num_fg=3, num_present=3)
        assert infer_num_categories(single_record_dataset(rec)) == 4
