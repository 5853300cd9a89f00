"""Tests for the linear softmax scorer, its gradient, and checkpoint IO.

The gradient is checked against central finite differences, the optimizer
against a hand-unrolled recurrence, and the softmax against closed forms.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdet.data import SchemaError
from emdet.scorer import (
    OptimizerState,
    ScorerParams,
    ce_gradient,
    load_checkpoint,
    log_prob_matrix,
    save_checkpoint,
    sgd_step,
    weighted_ce_gradient,
)
from helpers import random_params


class TestParamsValidation:
    def test_rejects_one_dimensional_weights(self):
        with pytest.raises(ValueError, match="got"):
            ScorerParams(np.zeros(6))

    def test_rejects_missing_bias_column(self):
        # a (C, 1) matrix has no room for both a feature weight and a bias
        with pytest.raises(ValueError):
            ScorerParams(np.zeros((2, 1)))

    def test_zeros_constructor_shape(self):
        params = ScorerParams.zeros(3, 7)
        assert params.weights.shape == (3, 8)
        assert params.num_categories == 3
        assert params.feature_dim == 7

    def test_copy_is_independent(self):
        params = ScorerParams(np.ones((2, 3)))
        clone = params.copy()
        clone.weights[0, 0] = 99.0
        assert params.weights[0, 0] == 1.0


class TestLogSoftmax:
    def test_zero_weights_give_uniform(self):
        params = ScorerParams.zeros(4, 3)
        out = log_prob_matrix(params, np.array([[0.3, -1.2, 5.0]]))[0]
        assert np.allclose(out, -np.log(4.0), atol=1e-15)

    def test_constant_logits_give_uniform(self):
        # identical rows produce identical logits regardless of the feature
        params = ScorerParams(np.tile(np.array([[0.5, -0.25, 2.0]]), (3, 1)))
        out = log_prob_matrix(params, np.array([[1.7, 0.4]]))[0]
        assert np.allclose(out, -np.log(3.0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        # logits (1000, 0): naive exp overflows, shifted form is exact
        params = ScorerParams(np.array([[1000.0, 0.0], [0.0, 0.0]]))
        out = log_prob_matrix(params, np.array([[1.0]]))[0]
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0
        assert out[1] == -1000.0

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 4, 5)
        features = rng.normal(size=(6, 5))
        base = log_prob_matrix(params, features)
        shifted = params.copy()
        shifted.weights[:, -1] += 3.7
        assert np.allclose(log_prob_matrix(shifted, features), base, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8),
           c=st.integers(2, 6), d=st.integers(1, 7))
    def test_rows_are_normalized(self, seed, n, c, d):
        rng = np.random.default_rng(seed)
        params = random_params(rng, c, d, scale=3.0)
        out = log_prob_matrix(params, rng.normal(size=(n, d)))
        assert np.allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            log_prob_matrix(ScorerParams.zeros(2, 3), np.zeros((4, 5)))


def finite_difference_gradient(params, features, soft_labels, l2, h=1e-6):
    grad = np.zeros_like(params.weights)
    for idx in np.ndindex(*params.weights.shape):
        bumped = params.copy()
        bumped.weights[idx] += h
        up, _ = weighted_ce_gradient(bumped, features, soft_labels, l2)
        bumped.weights[idx] -= 2 * h
        down, _ = weighted_ce_gradient(bumped, features, soft_labels, l2)
        grad[idx] = (up - down) / (2 * h)
    return grad


class TestWeightedCeGradient:
    def test_saturated_one_hot_is_a_minimum(self):
        # true class logit dominates by 50 nats, loss and gradient vanish
        params = ScorerParams(np.array([[0.0, 0.0], [50.0, 0.0]]))
        loss, grad = weighted_ce_gradient(
            params, np.array([[1.0]]), np.array([[0.0, 1.0]]))
        assert loss < 1e-15
        assert np.max(np.abs(grad)) < 1e-15

    def test_uniform_labels_at_zero_weights_are_stationary(self):
        params = ScorerParams.zeros(4, 3)
        rng = np.random.default_rng(3)
        features = rng.normal(size=(5, 3))
        labels = np.full((5, 4), 0.25)
        loss, grad = weighted_ce_gradient(params, features, labels)
        assert abs(loss - 5 * np.log(4.0)) < 1e-12
        assert np.max(np.abs(grad)) < 1e-15

    @pytest.mark.parametrize("seed,l2", [(0, 0.0), (1, 0.0), (2, 0.3),
                                         (3, 1.5), (4, 0.01)])
    def test_matches_finite_differences(self, seed, l2):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        params = random_params(rng, c, d)
        features = rng.normal(size=(n, d))
        labels = rng.dirichlet(np.ones(c), size=n)
        _, grad = weighted_ce_gradient(params, features, labels, l2)
        numeric = finite_difference_gradient(params, features, labels, l2)
        scale = max(np.max(np.abs(numeric)), 1.0)
        assert np.max(np.abs(grad - numeric)) / scale < 1e-5

    def test_l2_skips_the_bias_column(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, 3, 4)
        features = rng.normal(size=(4, 4))
        labels = rng.dirichlet(np.ones(3), size=4)
        loss0, grad0 = weighted_ce_gradient(params, features, labels, 0.0)
        loss1, grad1 = weighted_ce_gradient(params, features, labels, 0.7)
        masked = params.weights.copy()
        masked[:, -1] = 0.0
        assert abs((loss1 - loss0) - 0.35 * (masked ** 2).sum()) < 1e-12
        assert np.allclose(grad1 - grad0, 0.7 * masked, atol=1e-12)

    def test_single_vector_inputs_are_promoted(self):
        params = ScorerParams.zeros(3, 2)
        loss, grad = weighted_ce_gradient(
            params, np.array([1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
        assert abs(loss - np.log(3.0)) < 1e-12
        assert grad.shape == (3, 3)

    def test_rejects_negative_labels(self):
        params = ScorerParams.zeros(2, 2)
        with pytest.raises(ValueError, match="non-negative"):
            weighted_ce_gradient(params, np.zeros((1, 2)),
                                 np.array([[1.5, -0.5]]))

    def test_rejects_unnormalized_labels(self):
        params = ScorerParams.zeros(2, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            weighted_ce_gradient(params, np.zeros((1, 2)),
                                 np.array([[0.5, 0.4]]))

    def test_rejects_row_count_mismatch(self):
        params = ScorerParams.zeros(2, 2)
        with pytest.raises(ValueError, match="rows"):
            weighted_ce_gradient(params, np.zeros((2, 2)),
                                 np.array([[0.5, 0.5]]))

    def test_rejects_category_count_mismatch(self):
        params = ScorerParams.zeros(3, 2)
        with pytest.raises(ValueError, match="categories"):
            weighted_ce_gradient(params, np.zeros((1, 2)),
                                 np.array([[0.5, 0.5]]))


def naive_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def naive_loss_and_gradient(weights, features, soft_labels, l2):
    augmented = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    logp = naive_log_softmax(augmented @ weights.T)
    probs = np.exp(logp)
    penalized = weights.copy()
    penalized[:, -1] = 0.0
    loss = -(soft_labels * logp).sum() + 0.5 * l2 * (penalized ** 2).sum()
    grad = (probs - soft_labels).T @ augmented + l2 * penalized
    return loss, grad


def naive_sgd_step(weights, velocity, gradient, lr, momentum, weight_decay):
    decayed = gradient + weight_decay * weights
    decayed[:, -1] = gradient[:, -1]
    velocity = velocity * momentum
    velocity -= lr * decayed
    return weights + velocity, velocity


class TestByteIdentity:
    """The kernels against plain formulas of the softmax, its gradient and the update."""

    @staticmethod
    def instance(seed, n=40, c=5, d=6):
        """Random rows, including one whose top logit leads by more than 800,
        so the other categories' probabilities underflow to exactly 0."""
        rng = np.random.default_rng(seed)
        params = random_params(rng, c, d, scale=1.0)
        params.weights[:, 0] = np.arange(c)
        features = rng.normal(size=(n, d))
        features[0, 0] = 900.0
        labels = rng.dirichlet(np.ones(c), size=n)
        return params, features, labels

    @pytest.mark.parametrize("seed", range(5))
    def test_log_prob_matrix_matches_the_naive_softmax(self, seed):
        params, features, _ = self.instance(seed)
        augmented = np.concatenate([features, np.ones((len(features), 1))], axis=1)
        out = log_prob_matrix(params, features)
        assert np.all(np.exp(out[0, :-1]) == 0.0)
        assert out.tobytes() == naive_log_softmax(augmented @ params.weights.T).tobytes()

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_the_naive_formula(self, seed, l2):
        params, features, labels = self.instance(seed)
        loss, grad = naive_loss_and_gradient(params.weights, features, labels, l2)
        got_loss, got_grad = weighted_ce_gradient(params, features, labels, l2)
        assert got_grad.tobytes() == grad.tobytes()
        assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
        augmented = np.concatenate([features, np.ones((len(features), 1))], axis=1)
        logp, core_grad = ce_gradient(params, augmented, labels, l2)
        assert core_grad.tobytes() == grad.tobytes()
        assert logp.tobytes() == log_prob_matrix(params, features).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_sgd_step_matches_the_naive_update(self, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 4, 6)
        weights, velocity = params.weights.copy(), np.zeros_like(params.weights)
        state = OptimizerState.for_params(params, 0.01, momentum=0.9, weight_decay=0.0005)
        array_ids = (id(params.weights), id(state.velocity))
        for step in range(6):
            grad = rng.normal(size=weights.shape)
            given = grad.copy()
            state.learning_rate = 0.01 if step < 4 else 0.001
            out = sgd_step(params, state, given)
            weights, velocity = naive_sgd_step(weights, velocity, grad, state.learning_rate,
                                               0.9, 0.0005)
            assert out[0] is params and out[1] is state
            assert (id(params.weights), id(state.velocity)) == array_ids
            assert given.tobytes() == grad.tobytes()
            assert params.weights.tobytes() == weights.tobytes()
            assert state.velocity.tobytes() == velocity.tobytes()


class TestSgdStep:
    def test_plain_gradient_descent(self):
        # momentum 0, decay 0 reduces to w <- w - lr * g
        rng = np.random.default_rng(5)
        params = random_params(rng, 2, 3)
        before = params.weights.copy()
        grad = rng.normal(size=params.weights.shape)
        state = OptimizerState.for_params(params, 0.1, momentum=0.0)
        sgd_step(params, state, grad.copy())
        assert np.array_equal(params.weights, before - 0.1 * grad)

    def test_zero_gradient_is_a_fixed_point(self):
        params = ScorerParams(np.full((2, 3), 1.5))
        before = params.weights.copy()
        state = OptimizerState.for_params(params, 0.5, momentum=0.9)
        sgd_step(params, state, np.zeros((2, 3)))
        assert np.array_equal(params.weights, before)

    def test_weight_decay_shrinks_weights_but_not_bias(self):
        params = ScorerParams(np.full((2, 3), 2.0))
        state = OptimizerState.for_params(params, 0.1, momentum=0.0,
                                          weight_decay=0.5)
        sgd_step(params, state, np.zeros((2, 3)))
        assert np.allclose(params.weights[:, :-1], 1.9)
        assert np.array_equal(params.weights[:, -1], np.array([2.0, 2.0]))

    def test_two_steps_match_hand_recurrence(self):
        rng = np.random.default_rng(9)
        lr, momentum, wd = 0.05, 0.9, 0.1
        w0 = rng.normal(size=(3, 4))
        g1 = rng.normal(size=(3, 4))
        g2 = rng.normal(size=(3, 4))

        params = ScorerParams(w0.copy())
        state = OptimizerState.for_params(params, lr, momentum, wd)
        sgd_step(params, state, g1.copy())
        sgd_step(params, state, g2.copy())

        def decayed(g, w):
            out = g + wd * w
            out[:, -1] = g[:, -1]
            return out

        v1 = np.zeros_like(w0) * momentum
        v1 -= lr * decayed(g1, w0)
        w1 = w0 + v1
        v2 = v1 * momentum
        v2 -= lr * decayed(g2, w1)
        w2 = w1 + v2
        assert np.array_equal(params.weights, w2)
        assert np.array_equal(state.velocity, v2)

    def test_updates_happen_in_place(self):
        params = ScorerParams.zeros(2, 2)
        state = OptimizerState.for_params(params, 0.1)
        out_params, out_state = sgd_step(params, state, np.ones((2, 3)))
        assert out_params is params
        assert out_state is state

    def test_for_params_initializes_state(self):
        params = ScorerParams.zeros(4, 6)
        state = OptimizerState.for_params(params, 0.01, momentum=0.8,
                                          weight_decay=0.002)
        assert state.velocity.shape == (4, 7)
        assert np.all(state.velocity == 0.0)
        assert state.learning_rate == 0.01
        assert state.momentum == 0.8
        assert state.weight_decay == 0.002


class TestCheckpointIo:
    def test_round_trip_preserves_weights_and_meta(self, tmp_path):
        rng = np.random.default_rng(13)
        params = random_params(rng, 3, 5)
        meta = {"seed": 4, "note": "unit test", "nested": {"k": [1, 2]}}
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert np.array_equal(loaded.weights, params.weights)
        assert loaded_meta == meta

    def test_resave_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        params = random_params(rng, 2, 4)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_checkpoint(params, first, {"m": 1})
        loaded, meta = load_checkpoint(first)
        save_checkpoint(loaded, second, meta)
        assert first.read_bytes() == second.read_bytes()

    def test_meta_defaults_to_empty_dict(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(ScorerParams.zeros(2, 2), path)
        _, meta = load_checkpoint(path)
        assert meta == {}

    def test_missing_key_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"c": 2, "d": 2}))
        with pytest.raises(ValueError, match="'weights'"):
            load_checkpoint(path)

    def test_non_object_is_rejected(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text("5")
        with pytest.raises(ValueError, match="must hold a JSON object"):
            load_checkpoint(path)

    def test_wrong_weight_count_is_rejected(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"c": 2, "d": 2, "weights": [0.0] * 5}))
        with pytest.raises(ValueError, match="expected 2x3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["c", "d"])
    @pytest.mark.parametrize("value", [2.9, True, "2", 0])
    def test_shape_must_be_a_positive_json_integer(self, tmp_path, key, value):
        # As many weights as int() would read the shape for, so only the key's
        # type or range can refuse the file.
        shape = {"c": 2, "d": 2, key: value}
        size = int(shape["c"]) * (int(shape["d"]) + 1)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({**shape, "weights": [0.0] * size}))
        with pytest.raises(SchemaError, match=f"'{key}' must be an integer >= 1, got "
                                              f"{re.escape(json.dumps(value))}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_is_rejected(self, tmp_path, value):
        # Python's json writes and reads NaN and Infinity.
        weights = np.zeros((2, 3))
        weights[1, 2] = value
        path = tmp_path / "nan.json"
        save_checkpoint(ScorerParams(weights), path)
        with pytest.raises(SchemaError, match="weights must be finite"):
            load_checkpoint(path)
