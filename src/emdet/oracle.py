"""Brute-force reference implementations for auditing the fast paths.

Everything here enumerates configs directly with itertools and scores each
one with a plain per-proposal sum, no baseline-plus-delta shortcuts, so
agreement with the engine is meaningful evidence of correctness.  Sizes are
guarded: these run on small instances only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from emdet.data import ImageRecord
from emdet.engine import EmConfig, PosteriorTable
from emdet.geometry import Box, iou
from emdet.latent import CENTER_IOU, GuardError, LatentConfigSet
from emdet.scorer import ScorerParams, log_prob_matrix

# Largest B ** M these references will enumerate.
ORACLE_GUARD = 10 ** 5


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if not math.isfinite(m):
        return m
    return m + math.log(sum(math.exp(v - m) for v in values))


def _weak_label(record: ImageRecord) -> tuple[int, ...]:
    if not record.is_weak:
        raise ValueError(f"image {record.image_id} is strongly annotated")
    return record.annotation.label.categories


def _guarded_enumeration(record: ImageRecord) -> list[tuple[int, ...]]:
    cats = _weak_label(record)
    B, M = record.num_proposals, len(cats)
    if B ** M > ORACLE_GUARD:
        raise GuardError(
            f"image {record.image_id}: {B} proposals with {M} categories exceed "
            f"the oracle guard of {ORACLE_GUARD} configs")
    return [centers for centers in itertools.product(range(B), repeat=M)
            if len(set(centers)) == M]


def expand(categories: tuple[int, ...], centers: tuple[int, ...],
           proposals: np.ndarray) -> np.ndarray:
    """Naive labels of one config, kept apart from the engine's labelling kernel.

    ``centers[m]`` is the center proposal of ``categories[m]``, a row of the
    (B, 4) ``proposals``.  Each proposal scans the centers in category order:
    a center keeps its own category, otherwise the first center with the
    highest scalar IoU at or above CENTER_IOU wins and no covering center
    means background.
    """
    proposals = [Box(*row) for row in proposals.tolist()]
    labels = np.zeros(len(proposals), dtype=np.int64)
    for i, box in enumerate(proposals):
        best = -1.0
        for category, center in zip(categories, centers):
            if center == i:
                labels[i] = category
                break
            overlap = iou(box, proposals[center])
            if overlap >= CENTER_IOU and overlap > best:
                best = overlap
                labels[i] = category
    return labels


def brute_config_value(record: ImageRecord, centers: tuple[int, ...],
                       log_probs: np.ndarray) -> float:
    """Naive full-sum log-likelihood of one config's expanded labels."""
    labels = expand(_weak_label(record), centers, record.proposals)
    return float(sum(log_probs[i, labels[i]] for i in range(record.num_proposals)))


def brute_marginal_likelihood(record: ImageRecord, params: ScorerParams) -> float:
    """log P(z | x): log-sum-exp of every config's naive log-likelihood."""
    log_probs = log_prob_matrix(params, record.features)
    values = [brute_config_value(record, centers, log_probs)
              for centers in _guarded_enumeration(record)]
    return _logsumexp(values)


def brute_posterior(record: ImageRecord, params: ScorerParams) -> PosteriorTable:
    """Normalized posterior over the full enumeration, lexicographic order."""
    cats = _weak_label(record)
    log_probs = log_prob_matrix(params, record.features)
    enumeration = _guarded_enumeration(record)
    values = [brute_config_value(record, centers, log_probs)
              for centers in enumeration]
    total = _logsumexp(values)
    weights = np.array([math.exp(v - total) for v in values])
    config_set = LatentConfigSet(cats, np.array(enumeration))
    return PosteriorTable(record.image_id, config_set, weights / weights.sum())


def brute_hard_config(record: ImageRecord, params: ScorerParams) -> tuple[int, ...]:
    """Argmax config; ties keep the lexicographically smallest center tuple."""
    log_probs = log_prob_matrix(params, record.features)
    enumeration = _guarded_enumeration(record)
    values = [brute_config_value(record, centers, log_probs)
              for centers in enumeration]
    return enumeration[int(np.argmax(values))]


def brute_truncated_posterior(record: ImageRecord, params: ScorerParams,
                              k: int) -> PosteriorTable:
    """Reference for the truncated E-step.

    Candidate centers per category are the top floor(k ** (1/M)) proposals by
    that category's probability (ties to the lower index); weights are the
    naive config likelihoods renormalized over the surviving subset.
    """
    cats = _weak_label(record)
    B, M = record.num_proposals, len(cats)
    if B ** M > ORACLE_GUARD:
        raise GuardError(
            f"image {record.image_id}: {B} proposals with {M} categories exceed "
            f"the oracle guard of {ORACLE_GUARD} configs")
    log_probs = log_prob_matrix(params, record.features)
    r = 1
    while (r + 1) ** M <= k:
        r += 1
    r = min(B, r)
    candidates = []
    for c in cats:
        order = sorted(range(B), key=lambda i: (-log_probs[i, c], i))
        candidates.append(order[:r])
    enumeration = [centers for centers in itertools.product(*candidates)
                   if len(set(centers)) == M]
    if not enumeration:
        raise ValueError(f"truncation at k={k} leaves no valid config")
    values = [brute_config_value(record, centers, log_probs)
              for centers in enumeration]
    total = _logsumexp(values)
    weights = np.array([math.exp(v - total) for v in values])
    config_set = LatentConfigSet(cats, np.array(enumeration))
    return PosteriorTable(record.image_id, config_set, weights / weights.sum())


def reference_posterior(record: ImageRecord, params: ScorerParams,
                        config: EmConfig) -> PosteriorTable:
    """The mode-matched reference table for comparing an e_step output."""
    if config.mode == "exact":
        return brute_posterior(record, params)
    if config.mode == "hard":
        centers = brute_hard_config(record, params)
        config_set = LatentConfigSet(_weak_label(record), np.array([centers]))
        return PosteriorTable(record.image_id, config_set, np.array([1.0]))
    return brute_truncated_posterior(record, params, config.k)
