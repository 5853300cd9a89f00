"""Brute-force reference checks and engine-vs-oracle equivalence sweeps."""

import math

import numpy as np
import pytest

from emdet.engine import EmConfig, e_step, objective
from emdet.latent import GuardError
from emdet.oracle import (
    brute_hard_config,
    brute_marginal_likelihood,
    brute_posterior,
    brute_truncated_posterior,
    reference_posterior,
)
from emdet.scorer import ScorerParams
from helpers import (
    isolated_weak_record,
    random_params,
    random_weak_record,
    single_record_dataset,
)


def as_table(post):
    return {tuple(int(v) for v in row): w
            for row, w in zip(post.config_set.centers, post.weights)}


class TestBruteMarginal:
    def test_uniform_closed_form(self):
        # three isolated single-center configs, each worth (1/2)^3
        rec = isolated_weak_record("w", 3, (1,), dim=4)
        value = brute_marginal_likelihood(rec, ScorerParams.zeros(2, 4))
        assert abs(value - (math.log(3) + 3 * math.log(0.5))) < 1e-12

    def test_invariant_under_proposal_permutation(self):
        rng = np.random.default_rng(2)
        rec = random_weak_record(rng, "w", num_proposals=6, num_fg=2,
                                 feature_dim=4, num_present=2)
        params = random_params(rng, 3, 4)
        base = brute_marginal_likelihood(rec, params)
        perm = rng.permutation(rec.num_proposals)
        shuffled = type(rec)(rec.image_id, rec.width, rec.height,
                             rec.proposals[perm],
                             rec.features[perm], rec.annotation)
        assert abs(brute_marginal_likelihood(shuffled, params) - base) < 1e-12

    def test_guard_rejects_oversized_enumeration(self):
        rng = np.random.default_rng(3)
        rec = random_weak_record(rng, "big", num_proposals=50, num_fg=3,
                                 num_present=3)
        with pytest.raises(GuardError, match="oracle guard"):
            brute_marginal_likelihood(rec, ScorerParams.zeros(4, 5))


class TestBrutePosterior:
    def test_count_and_order_for_two_categories(self):
        rec = isolated_weak_record("w", 4, (1, 2), dim=3)
        post = brute_posterior(rec, ScorerParams.zeros(3, 3))
        assert len(post.config_set) == 12
        assert tuple(post.config_set.centers[0]) == (0, 1)
        assert abs(post.weights.sum() - 1.0) < 1e-12

    def test_truncation_guard_and_empty_truncation(self):
        rec = isolated_weak_record("w", 2, (1, 2), dim=3)
        with pytest.raises(ValueError, match="no valid config"):
            brute_truncated_posterior(rec, ScorerParams.zeros(3, 3), k=1)


class TestEngineAgreement:
    """Randomized equivalence between the fast paths and the references."""

    def instances(self, count, seed):
        rng = np.random.default_rng(seed)
        for n in range(count):
            rec = random_weak_record(rng, f"w{n}",
                                     num_proposals=int(rng.integers(3, 8)),
                                     num_fg=2, feature_dim=4)
            yield rec, random_params(rng, 3, 4)

    def test_objective_weak_term(self):
        for rec, params in self.instances(30, seed=10):
            fast = objective(single_record_dataset(rec), params).weak_term
            slow = brute_marginal_likelihood(rec, params)
            assert abs(fast - slow) < 1e-9

    def test_exact_posterior_weights(self):
        for rec, params in self.instances(30, seed=11):
            fast = as_table(e_step(rec, params, EmConfig(mode="exact")))
            slow = as_table(brute_posterior(rec, params))
            assert set(fast) == set(slow)
            for row, w in fast.items():
                assert abs(w - slow[row]) < 1e-12

    def test_hard_argmax_config(self):
        for rec, params in self.instances(30, seed=12):
            fast = e_step(rec, params, EmConfig(mode="hard"))
            slow = brute_hard_config(rec, params)
            assert tuple(int(v) for v in fast.config_set.centers[0]) == slow

    def test_truncated_posterior_weights(self):
        for rec, params in self.instances(30, seed=13):
            fast = as_table(e_step(rec, params, EmConfig(mode="k_em", k=4)))
            slow = as_table(brute_truncated_posterior(rec, params, k=4))
            assert set(fast) == set(slow)
            for row, w in fast.items():
                assert abs(w - slow[row]) < 1e-9

    def test_reference_posterior_dispatch(self):
        rng = np.random.default_rng(14)
        rec = random_weak_record(rng, "w", num_proposals=5, num_fg=2)
        params = random_params(rng, 3, 5)
        sizes = {mode: len(reference_posterior(rec, params, EmConfig(mode=mode, k=4)).config_set)
                 for mode in ("exact", "hard", "k_em")}
        assert sizes["exact"] == math.perm(rec.num_proposals, len(rec.annotation.label))
        assert sizes["hard"] == 1
        assert 1 <= sizes["k_em"] <= 4 < sizes["exact"]
