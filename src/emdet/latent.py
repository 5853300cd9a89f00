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

from emdet.geometry import iou_matrix

# IoU at or above which a proposal joins a center's neighborhood.
CENTER_IOU = 0.5

# Largest number of configs (B ** M for an exact enumeration, r ** M for
# select_k's candidate product) built for one weak image.
OBJECTIVE_GUARD = 10 ** 6


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
    shifted = values - m
    np.exp(shifted, out=shifted)
    return float(m + np.log(shifted.sum()))


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


def _reuses_proposal(columns) -> np.ndarray:
    """True where two slots' centers are the same proposal, which no config may do.

    ``columns`` holds one center-index array per category slot, and they
    broadcast against each other: the columns of config rows (``centers.T``)
    give one flag per row, a sparse index grid one flag per grid entry.
    """
    repeated = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in columns)), dtype=bool)
    for a in range(len(columns)):
        for b in range(a + 1, len(columns)):
            repeated |= columns[a] == columns[b]
    return repeated


@dataclass
class LatentConfigSet:
    """A batch of configs over one image, stored columnar.

    ``centers[n, m]`` is the center proposal index for the m-th category of
    ``categories`` in the n-th config.
    """

    categories: tuple[int, ...]
    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.int64)
        if self.centers.ndim != 2 or self.centers.shape[1] != len(self.categories):
            raise ValueError(
                f"centers shape {self.centers.shape} does not match "
                f"{len(self.categories)} categories")
        if self.centers.shape[0] == 0:
            raise ValueError("config set is empty")
        if np.any(_reuses_proposal(self.centers.T)):
            raise ValueError("a config reuses one proposal for two categories")

    def __len__(self) -> int:
        return self.centers.shape[0]


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


def center_geometry(proposals: np.ndarray) -> CenterGeometry:
    """Build the per-image (B, B) coverage and keys from one IoU matrix of the
    (B, 4) proposal coordinates."""
    overlap = iou_matrix(proposals)
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


def expand(config_set: LatentConfigSet, proposals: np.ndarray) -> np.ndarray:
    """Proposal labels of every config in the set: (N, B) ints, 0 = background.

    Center proposals keep their own category.  Any other proposal whose IoU
    with some center reaches CENTER_IOU takes the category of the
    highest-IoU center, ties resolved toward the lower category id.
    """
    if config_set.centers.max() >= len(proposals):
        raise ValueError(f"config centers reach index {config_set.centers.max()} but there "
                         f"are only {len(proposals)} proposals")
    chunks = _label_chunks(center_geometry(proposals), config_set.categories,
                           config_set.centers)
    return np.concatenate([labels for _, labels in chunks])


def enumerate_exact(proposals: np.ndarray, z) -> LatentConfigSet:
    """Every config with distinct centers, one per category of z.

    Rows are ordered lexicographically by center index along ascending
    categories, so the set has a canonical order for tie-breaking.
    """
    label = as_label(z)
    B, M = len(proposals), len(label)
    if B < M:
        raise ValueError(f"need at least {M} proposals to place {M} centers, got {B}")
    rows = np.argwhere(~_reuses_proposal(np.indices((B,) * M, sparse=True)))
    return LatentConfigSet(label.categories, rows)


def _check_scoring_inputs(categories, centers: np.ndarray, log_probs: np.ndarray,
                          proposals: np.ndarray) -> None:
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


def score_config_set(config_set: LatentConfigSet, log_probs: np.ndarray,
                     proposals: np.ndarray) -> np.ndarray:
    """Log-likelihood of each config in the set, aligned with its rows."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    _check_scoring_inputs(config_set.categories, config_set.centers, log_probs, proposals)
    return _config_scores(center_geometry(proposals), config_set.categories,
                          config_set.centers, log_probs)


def label_marginals(config_set: LatentConfigSet, weights: np.ndarray,
                    proposals: np.ndarray, num_categories: int) -> np.ndarray:
    """Per-proposal category distribution (B, C) under weights over the configs."""
    q = np.zeros((len(proposals), num_categories))
    present = (0, *config_set.categories)
    for start, labels in _label_chunks(center_geometry(proposals), config_set.categories,
                                       config_set.centers):
        w = weights[start:start + labels.shape[0]]
        for c in present:
            q[:, c] += w @ (labels == c)
    return q


def exact_log_likelihood_grid(proposals: np.ndarray, z,
                              log_probs: np.ndarray) -> np.ndarray:
    """Config log-likelihoods for the full enumeration as a (B,) * M array.

    Entry [j1, ..., jM] scores the config placing category z[m]'s center at
    proposal jm; entries with repeated indices are -inf.  Matches
    score_config_set to float accumulation order.

    For M <= 3 the grid is built by inclusion-exclusion over neighborhoods.
    The dense part is ((base + u[j1]) + v[j2]) + w[j3], where base is the
    all-background sum and u, v, w each center's foreground deltas over the
    proposals it covers.  The overlap corrections are sparse: they come from
    the (i, j, k) entries where distinct centers j and k both cover proposal
    i, listed by i, then j, then k.  For each slot pair the losing slot's
    delta is summed per (j, k) in that order and subtracted only on the
    (j, k) lines it touches.  For M = 3, each proposal covered by all three
    centers then gets its bottom-ranked slot's delta added back, in order
    of i.  Entries never touched by a correction cost no work beyond the
    dense part.
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

    grid = base
    for m in range(M):
        grid = grid + per_center[:, m].reshape(_axis_shape(M, m, B))

    if M >= 2:
        # Where two neighborhoods share a proposal the plain sum counts both
        # categories; subtract the losing one for every pair of slots.  Only
        # proposals i covered by two distinct centers j, k contribute.
        rows, cols = np.nonzero(covered)
        counts = np.bincount(rows, minlength=B)
        entry, k = _cover_join(counts, cols, rows)
        i, j = rows[entry], cols[entry]
        keep = j != k
        i, j, k = i[keep], j[keep], k[keep]
        line = j * B + k
        touched = np.flatnonzero(np.bincount(line, minlength=B * B))
        first_wins = keys[i, j] >= keys[i, k]
        for a in range(M):
            for b in range(a + 1, M):
                loser = np.where(first_wins, delta[i, b], delta[i, a])
                pair = np.bincount(line, weights=loser, minlength=B * B)[touched]
                lines = np.moveaxis(grid, (a, b), (0, 1))
                lines[touched // B, touched % B] -= pair.reshape((-1,) + (1,) * (M - 2))

    if M == 3:
        # Proposals covered by all three chosen centers lost one delta too
        # many above; add back the bottom-ranked slot's delta.
        entry, l = _cover_join(counts, cols, i)
        i, j, k = i[entry], j[entry], k[entry]
        keep = (l != j) & (l != k)
        i, j, k, l = i[keep], j[keep], k[keep], l[keep]
        ka, kb, kc = keys[i, j], keys[i, k], keys[i, l]
        third_c = (ka >= kc) & (kb >= kc)
        third_b = (ka >= kb) & ~(kb >= kc)
        add = np.where(third_c, delta[i, 2], np.where(third_b, delta[i, 1], delta[i, 0]))
        np.add.at(grid, (j, k, l), add)

    grid[_reuses_proposal(np.indices(grid.shape, sparse=True))] = -np.inf
    return grid


def _cover_join(counts: np.ndarray, cols: np.ndarray, i: np.ndarray):
    """Pair each entry of i with every center covering proposal i.

    ``cols`` lists the covering centers of proposal 0, then 1, ..., and
    ``counts`` how many each has.  Returns the entry index of every pair and
    its center: entries keep their order, and each one's centers come in
    index order.
    """
    n = counts[i]
    entry = np.repeat(np.arange(i.size), n)
    offset = np.arange(entry.size) - np.repeat(np.cumsum(n) - n, n)
    first = np.cumsum(counts) - counts
    return entry, cols[first[i][entry] + offset]


def _axis_shape(M: int, axis: int, B: int) -> tuple[int, ...]:
    shape = [1] * M
    shape[axis] = B
    return tuple(shape)


def exact_config_values(proposals: np.ndarray, z,
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


def select_k(proposals: np.ndarray, z, log_probs: np.ndarray, k: int) -> LatentConfigSet:
    """Truncated config set with at most k entries.

    Each category keeps its min(B, floor(k ** (1/M))) highest-scoring
    proposals as candidate centers, ties to the lower index; the set is the
    Cartesian product of the candidate lists minus configs that reuse a
    proposal.  A product of more than OBJECTIVE_GUARD rows raises GuardError
    before anything is built.
    """
    label = as_label(z)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B, M = len(proposals), len(label)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if B < M:
        raise ValueError(f"need at least {M} proposals to place {M} centers, got {B}")
    r = min(B, _integer_root(k, M))
    if r ** M > OBJECTIVE_GUARD:
        raise GuardError(
            f"{B} proposals with {M} categories at k={k} give {r} ** {M} candidate "
            f"configs, which exceed the {OBJECTIVE_GUARD} config guard")
    candidates = [np.argsort(-log_probs[:, c], kind="stable")[:r] for c in label.categories]
    rows = np.stack([c.ravel() for c in np.meshgrid(*candidates, indexing="ij")], axis=1)
    keep = ~_reuses_proposal(rows.T)
    if not np.any(keep):
        raise ValueError(
            f"all {rows.shape[0]} candidate combinations reuse a proposal; increase k={k}")
    return LatentConfigSet(label.categories, rows[keep])
