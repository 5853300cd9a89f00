"""Latent label space over proposals built from center boxes.

A weak image only says which categories are present.  A latent configuration
picks one center proposal per present category; proposals whose IoU with a
center reaches ``CENTER_IOU`` take that center's category and everything else
is background.  This collapses the label space from Cceil(B) assignments to at
most B * (B - 1) * ... choices, which can be enumerated exactly at desk scale
or truncated per category for larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from emdet.geometry import Box, boxes_to_array, iou_matrix

# IoU at or above which a proposal joins a center's neighborhood.
CENTER_IOU = 0.5


class GuardError(RuntimeError):
    """Raised when an enumeration would exceed a configured size guard."""


def logsumexp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))); tolerates -inf entries."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("logsumexp of an empty array")
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(values - m).sum()))


@dataclass(frozen=True)
class ImageLabel:
    """The set of foreground categories present in an image, sorted ascending."""

    categories: tuple[int, ...]

    def __post_init__(self):
        if len(self.categories) == 0:
            raise ValueError("image label must contain at least one category")
        if any(c < 1 for c in self.categories):
            raise ValueError(f"category ids must be >= 1, got {self.categories}")
        if tuple(sorted(set(self.categories))) != self.categories:
            raise ValueError(f"categories must be sorted and distinct, got {self.categories}")

    def __iter__(self):
        return iter(self.categories)

    def __len__(self):
        return len(self.categories)

    def __contains__(self, category: int) -> bool:
        return category in self.categories


def as_label(z) -> ImageLabel:
    """Normalize a category collection into an ImageLabel."""
    if isinstance(z, ImageLabel):
        return z
    return ImageLabel(tuple(sorted(set(int(c) for c in z))))


@dataclass(frozen=True)
class LatentConfig:
    """One center proposal per present category.

    Stored as (category, proposal index) pairs sorted by category; center
    indices are pairwise distinct.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cats = [c for c, _ in self.pairs]
        idxs = [i for _, i in self.pairs]
        if not cats:
            raise ValueError("config must place at least one center")
        if sorted(set(cats)) != cats or any(c < 1 for c in cats):
            raise ValueError(f"config categories must be distinct foreground ids, got {cats}")
        if len(set(idxs)) != len(idxs) or any(i < 0 for i in idxs):
            raise ValueError(f"center indices must be distinct and non-negative, got {idxs}")

    @property
    def categories(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.pairs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for _, i in self.pairs)


@dataclass
class LatentConfigSet:
    """A batch of configs over one image, stored columnar.

    ``centers[n, m]`` is the center proposal index for the m-th category of
    ``categories`` in the n-th config.  ``mode`` records how the set was
    built: "exact" (full enumeration), "hard" (single argmax config), or
    "k_em" (per-category truncation).
    """

    categories: tuple[int, ...]
    centers: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in ("exact", "hard", "k_em"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.centers = np.asarray(self.centers, dtype=np.int64)
        if self.centers.ndim != 2 or self.centers.shape[1] != len(self.categories):
            raise ValueError(
                f"centers shape {self.centers.shape} does not match "
                f"{len(self.categories)} categories")
        if self.centers.shape[0] == 0:
            raise ValueError("config set is empty")
        if len(self.categories) > 1:
            rows = np.sort(self.centers, axis=1)
            if np.any(rows[:, 1:] == rows[:, :-1]):
                raise ValueError("a config reuses one proposal for two categories")

    def __len__(self) -> int:
        return self.centers.shape[0]

    def config_at(self, n: int) -> LatentConfig:
        return LatentConfig(tuple(zip(self.categories, (int(i) for i in self.centers[n]))))

    def __iter__(self):
        return (self.config_at(n) for n in range(len(self)))


# Config rows labelled per kernel pass; bounds the (rows, M, B) temporaries so
# kernel memory does not grow with the size of the config set.
LABEL_CHUNK = 1024


class CenterGeometry(NamedTuple):
    """The overlap data of the center-coverage rule for one image's proposals.

    ``covered[i, j]`` says proposal j joins center i's neighborhood (IoU at
    or above CENTER_IOU).  ``keys`` is the IoU with 2 added on the diagonal,
    so a center outranks every other center on its own proposal.  Both are
    symmetric, so row i describes center i.
    """

    covered: np.ndarray
    keys: np.ndarray


def center_geometry(proposals: list[Box]) -> CenterGeometry:
    """Build the per-image (B, B) coverage and keys from one IoU matrix."""
    overlap = iou_matrix(boxes_to_array(proposals))
    return CenterGeometry(overlap >= CENTER_IOU, overlap + 2.0 * np.eye(len(proposals)))


def _label_chunks(geometry: CenterGeometry, categories, centers: np.ndarray):
    """Yield (first row, (rows, B) labels) over the configs, LABEL_CHUNK at a time.

    Each proposal takes the category of the covering center with the highest
    key, ties going to the earliest slot (the lowest category id, because
    slots are sorted by category); uncovered proposals are background.
    """
    cats = np.asarray(categories, dtype=np.int64)
    for start in range(0, centers.shape[0], LABEL_CHUNK):
        rows = centers[start:start + LABEL_CHUNK]
        covered = geometry.covered[rows]  # (rows, M, B)
        slots = np.where(covered, geometry.keys[rows], -np.inf).argmax(axis=1)
        yield start, np.where(covered.any(axis=1), cats[slots], 0)


def config_labels(geometry: CenterGeometry, categories, centers: np.ndarray) -> np.ndarray:
    """Proposal labels of every config row: (N, B) ints, 0 = background."""
    centers = np.asarray(centers, dtype=np.int64)
    return np.concatenate([labels for _, labels in _label_chunks(geometry, categories, centers)])


def expand(config: LatentConfig, proposals: list[Box]) -> np.ndarray:
    """Proposal labels implied by a config: length-B int array, 0 = background.

    Center proposals keep their own category.  Any other proposal whose IoU
    with some center reaches CENTER_IOU takes the category of the
    highest-IoU center, ties resolved toward the lower category id.
    """
    if max(config.indices) >= len(proposals):
        raise ValueError(f"config centers {config.indices} exceed {len(proposals)} proposals")
    return config_labels(center_geometry(proposals), config.categories,
                         np.array([config.indices]))[0]


def _distinct_rows(centers: np.ndarray) -> np.ndarray:
    """Mask of rows whose entries are pairwise distinct."""
    if centers.shape[1] == 1:
        return np.ones(centers.shape[0], dtype=bool)
    rows = np.sort(centers, axis=1)
    return np.all(rows[:, 1:] != rows[:, :-1], axis=1)


def _index_grid(num_proposals: int, num_slots: int) -> np.ndarray:
    """All index tuples (n, M) in lexicographic order, duplicates included."""
    grid = np.indices((num_proposals,) * num_slots)
    return grid.reshape(num_slots, -1).T


def enumerate_exact(proposals: list[Box], z) -> LatentConfigSet:
    """Every config with distinct centers, one per category of z.

    Rows are ordered lexicographically by center index along ascending
    categories, so the set has a canonical order for tie-breaking.
    """
    label = as_label(z)
    B, M = len(proposals), len(label)
    if B < M:
        raise ValueError(f"need at least {M} proposals to place {M} centers, got {B}")
    rows = _index_grid(B, M)
    rows = rows[_distinct_rows(rows)]
    return LatentConfigSet(label.categories, rows, "exact")


def _check_scoring_inputs(categories, centers: np.ndarray, log_probs: np.ndarray,
                          proposals: list[Box]) -> None:
    if log_probs.shape[0] != len(proposals):
        raise ValueError(
            f"{log_probs.shape[0]} score rows for {len(proposals)} proposals")
    if max(categories) >= log_probs.shape[1]:
        raise ValueError(
            f"config categories {tuple(categories)} exceed {log_probs.shape[1]} columns")
    if not np.all(np.isfinite(log_probs)):
        raise ValueError("log probabilities must be finite")
    if centers.max() >= len(proposals):
        raise ValueError(f"config centers reach index {centers.max()} but there are "
                         f"only {len(proposals)} proposals")


def _config_scores(geometry: CenterGeometry, categories, centers: np.ndarray,
                   log_probs: np.ndarray) -> np.ndarray:
    """All-background baseline plus each config's foreground deltas, per row."""
    base = log_probs[:, 0].sum()
    delta = log_probs - log_probs[:, [0]]
    cols = np.arange(log_probs.shape[0])
    values = np.empty(centers.shape[0])
    for start, labels in _label_chunks(geometry, categories, centers):
        values[start:start + labels.shape[0]] = base + delta[cols, labels].sum(axis=1)
    return values


def config_log_likelihood(config: LatentConfig, log_probs: np.ndarray,
                          proposals: list[Box]) -> float:
    """Joint log-likelihood of the labels a config implies.

    Computed as the all-background baseline plus the per-proposal deltas of
    the foreground assignments.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    centers = np.array([config.indices], dtype=np.int64)
    _check_scoring_inputs(config.categories, centers, log_probs, proposals)
    return float(_config_scores(center_geometry(proposals), config.categories,
                                centers, log_probs)[0])


def score_config_set(config_set: LatentConfigSet, log_probs: np.ndarray,
                     proposals: list[Box]) -> np.ndarray:
    """Log-likelihood of each config in the set, aligned with its rows."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    _check_scoring_inputs(config_set.categories, config_set.centers, log_probs, proposals)
    return _config_scores(center_geometry(proposals), config_set.categories,
                          config_set.centers, log_probs)


def label_marginals(config_set: LatentConfigSet, weights: np.ndarray,
                    proposals: list[Box], num_categories: int) -> np.ndarray:
    """Per-proposal category distribution (B, C) under weights over the configs."""
    q = np.zeros((len(proposals), num_categories))
    present = (0, *config_set.categories)
    for start, labels in _label_chunks(center_geometry(proposals), config_set.categories,
                                       config_set.centers):
        w = weights[start:start + labels.shape[0]]
        for c in present:
            q[:, c] += w @ (labels == c)
    return q


def exact_log_likelihood_grid(proposals: list[Box], z,
                              log_probs: np.ndarray) -> np.ndarray:
    """Config log-likelihoods for the full enumeration as a (B,) * M array.

    Entry [j1, ..., jM] scores the config placing category z[m]'s center at
    proposal jm; entries with repeated indices are -inf.  Matches
    config_log_likelihood to float accumulation order.
    """
    label = as_label(z)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B, M = len(proposals), len(label)
    if B < M:
        raise ValueError(f"need at least {M} proposals to place {M} centers, got {B}")
    cats = np.array(label.categories, dtype=np.int64)

    if M > 3:
        # Rare at desk scale; score the distinct rows through the labelling kernel.
        grid = np.full((B,) * M, -np.inf)
        config_set = enumerate_exact(proposals, label)
        grid[tuple(config_set.centers.T)] = score_config_set(config_set, log_probs, proposals)
        return grid

    covered, keys = center_geometry(proposals)
    base = log_probs[:, 0].sum()
    delta = log_probs[:, cats] - log_probs[:, [0]]
    per_center = covered.T.astype(np.float64) @ delta  # (B, M)

    grid = np.full((B,) * M, base)
    for m in range(M):
        grid += per_center[:, m].reshape(_axis_shape(M, m, B))

    if M >= 2:
        # Where two neighborhoods share a proposal the plain sum counts both
        # categories; subtract the losing one for every pair of slots.
        both = covered[:, :, None] & covered[:, None, :]
        first_wins = keys[:, :, None] >= keys[:, None, :]
        for a in range(M):
            for b in range(a + 1, M):
                loser = np.where(first_wins, delta[:, b, None, None],
                                 delta[:, a, None, None])
                pair = np.einsum("ijk,ijk->jk", both.astype(np.float64), loser)
                grid -= pair.reshape(_pair_shape(M, a, b, B))

    if M == 3:
        # Proposals covered by all three chosen centers lost one delta too
        # many above; add back the bottom-ranked slot's delta.
        for i in range(B):
            cover = np.flatnonzero(covered[i])
            if cover.size == 0:
                continue
            k = keys[i, cover]
            ka, kb, kc = k[:, None, None], k[None, :, None], k[None, None, :]
            third_c = (ka >= kc) & (kb >= kc)
            third_b = (ka >= kb) & ~(kb >= kc)
            add = np.where(third_c, delta[i, 2], np.where(third_b, delta[i, 1], delta[i, 0]))
            grid[np.ix_(cover, cover, cover)] += add

    _mask_duplicate_entries(grid)
    return grid


def _axis_shape(M: int, axis: int, B: int) -> tuple[int, ...]:
    shape = [1] * M
    shape[axis] = B
    return tuple(shape)


def _pair_shape(M: int, a: int, b: int, B: int) -> tuple[int, ...]:
    shape = [1] * M
    shape[a] = B
    shape[b] = B
    return tuple(shape)


def _mask_duplicate_entries(grid: np.ndarray) -> None:
    """Set entries whose index tuple repeats a proposal to -inf, in place."""
    M = grid.ndim
    if M == 1:
        return
    B = grid.shape[0]
    idx = np.arange(B)
    for a in range(M):
        for b in range(a + 1, M):
            eq = idx.reshape(_axis_shape(M, a, B)) == idx.reshape(_axis_shape(M, b, B))
            grid[np.broadcast_to(eq, grid.shape)] = -np.inf


def exact_config_values(proposals: list[Box], z,
                        log_probs: np.ndarray) -> tuple[LatentConfigSet, np.ndarray]:
    """The exact enumeration plus its log-likelihoods, row-aligned."""
    config_set = enumerate_exact(proposals, z)
    grid = exact_log_likelihood_grid(proposals, config_set.categories, log_probs)
    return config_set, grid[tuple(config_set.centers.T)]


def _integer_root(k: int, m: int) -> int:
    """Largest r >= 1 with r ** m <= k."""
    r = max(1, int(round(k ** (1.0 / m))))
    while (r + 1) ** m <= k:
        r += 1
    while r > 1 and r ** m > k:
        r -= 1
    return r


def select_k(proposals: list[Box], z, log_probs: np.ndarray, k: int) -> LatentConfigSet:
    """Truncated config set with at most k entries.

    Each category keeps its min(B, floor(k ** (1/M))) highest-scoring
    proposals as candidate centers, ties to the lower index; the set is the
    Cartesian product of the candidate lists minus configs that reuse a
    proposal.
    """
    label = as_label(z)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B, M = len(proposals), len(label)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if B < M:
        raise ValueError(f"need at least {M} proposals to place {M} centers, got {B}")
    r = min(B, _integer_root(k, M))
    candidates = [np.argsort(-log_probs[:, c], kind="stable")[:r] for c in label.categories]
    rows = _index_grid(r, M)
    rows = np.stack([candidates[m][rows[:, m]] for m in range(M)], axis=1)
    keep = _distinct_rows(rows)
    if not np.any(keep):
        raise ValueError(
            f"all {rows.shape[0]} candidate combinations reuse a proposal; increase k={k}")
    return LatentConfigSet(label.categories, rows[keep], "k_em")
