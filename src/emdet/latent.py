"""Latent label space over proposals built from center boxes.

A weak image only says which categories are present.  A latent configuration
picks one center proposal per present category; proposals whose IoU with a
center reaches ``CENTER_IOU`` take that center's category and everything else
is background.  This collapses the label space from Cceil(B) assignments to at
most B * (B - 1) * ... choices, which can be enumerated exactly at desk scale
or truncated per category for larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from emdet.geometry import iou_matrix

# IoU at or above which a proposal joins a center's neighborhood.
CENTER_IOU = 0.5

# Largest config table built for one weak image: the B ** M rows of
# enumerate_exact or entries of exact_log_likelihood_grid, the B ** 2 pair
# factors of exact_log_partition for M = 3, and select_k's r ** M candidates.
OBJECTIVE_GUARD = 10 ** 6


class GuardError(RuntimeError):
    """Raised when an enumeration would exceed a configured size guard."""


def _check_table(B: int, M: int, entries: int) -> None:
    """ValueError for B < M proposals, GuardError for more than OBJECTIVE_GUARD entries."""
    if B < M:
        raise ValueError(f"need at least {M} proposals to place {M} centers, got {B}")
    if entries > OBJECTIVE_GUARD:
        raise GuardError(f"{B} proposals with {M} categories need {entries} table entries, "
                         f"which exceed the {OBJECTIVE_GUARD} config guard")


def check_enumeration(num_proposals: int, z) -> None:
    """Raise as enumerate_exact or the exact grid would for label z, building nothing."""
    M = len(as_label(z))
    _check_table(num_proposals, M, num_proposals ** M)


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


# Config rows labelled per kernel pass; bounds the (rows, B) label and key
# buffers so kernel memory does not grow with the size of the config set.
LABEL_CHUNK = 1024


@dataclass(eq=False, slots=True)
class CenterGeometry:
    """The center coverage of one image's proposals, and its co-coverage plan.

    Center i covers ``members[offsets[i]:offsets[i + 1]]``: the proposals
    whose IoU with it reaches CENTER_IOU, in ascending index order, itself
    included (compressed sparse rows; members are int32).  ``keys`` holds
    each member's IoU, plus 2 where the member is the center itself, so a
    center outranks every other center on its own proposal.  Coverage is
    symmetric, so the list of center i also names the centers covering
    proposal i.  The lists hold 12 bytes per covered pair plus the B + 1
    offsets; nothing B x B outlives center_geometry.

    The plan is the index work of the inclusion-exclusion terms that depends
    on coverage alone, never on a label or on scores: pair_plan for two or
    more categories, triple_plan for three.  Each is built on first use and
    then kept, so one geometry per image per run builds each at most once.
    The pair plan holds 9 bytes per co-covered (i, j, k) entry and 8 per
    touched (j, k) line; the triple plan 9 per triple-covered entry, 16 per
    config and 8 per line.
    """

    offsets: np.ndarray
    members: np.ndarray
    keys: np.ndarray
    _pairs: _PairPlan | None = field(default=None, init=False, repr=False)
    _triples: _TriplePlan | None = field(default=None, init=False, repr=False)

    @property
    def num_proposals(self) -> int:
        return len(self.offsets) - 1

    def pair_plan(self) -> _PairPlan:
        """The co-covered pair entries, built on the first call."""
        if self._pairs is None:
            self._pairs = _build_pair_plan(self)
        return self._pairs

    def triple_plan(self) -> _TriplePlan:
        """The triple-covered entries and their configs, built on the first call."""
        if self._triples is None:
            self._triples = _build_triple_plan(self)
        return self._triples


def center_geometry(proposals: np.ndarray) -> CenterGeometry:
    """Build one image's coverage from one IoU matrix of its (B, 4) proposals.

    Members come in np.nonzero order of the IoU >= CENTER_IOU mask, and each
    key is the IoU exactly as in ``overlap + 2 * eye(B)``.
    """
    overlap = iou_matrix(proposals)
    centers, members = np.nonzero(overlap >= CENTER_IOU)
    keys = overlap[centers, members]
    keys[centers == members] += 2.0
    offsets = np.zeros(len(proposals) + 1, dtype=np.int64)
    np.cumsum(np.bincount(centers, minlength=len(proposals)), out=offsets[1:])
    return CenterGeometry(offsets, members.astype(np.int32), keys)


def _member_positions(offsets: np.ndarray, centers: np.ndarray):
    """Every member of every listed center, as (index into centers, position).

    Positions index ``members`` and ``keys``; the listed centers keep their
    order, and each one's members come in index order.
    """
    start = offsets[centers]
    count = offsets[centers + 1] - start
    owner = np.repeat(np.arange(centers.size), count)
    return owner, np.arange(owner.size) + np.repeat(start - (np.cumsum(count) - count), count)


def _label_chunks(geometry: CenterGeometry, categories, centers: np.ndarray):
    """Yield (first row, (rows, B) labels) over the configs, LABEL_CHUNK at a time.

    Each proposal takes the category of the covering center with the highest
    key; uncovered proposals are background.  The slots' member lists are
    walked in slot order, and a member changes hands only on a key strictly
    above the best so far, so ties go to the earliest slot (the lowest
    category id, because slots are sorted by category), as an argmax over
    slots would.
    """
    cats = np.asarray(categories, dtype=np.int64)
    B = geometry.num_proposals
    for start in range(0, centers.shape[0], LABEL_CHUNK):
        rows = centers[start:start + LABEL_CHUNK]
        best = np.full(rows.shape[0] * B, -np.inf)
        labels = np.zeros(rows.shape[0] * B, dtype=np.int64)
        for m in range(rows.shape[1]):
            row, position = _member_positions(geometry.offsets, rows[:, m])
            cell = row * B + geometry.members[position]
            key = geometry.keys[position]
            wins = key > best[cell]
            cell, key = cell[wins], key[wins]
            best[cell] = key
            labels[cell] = cats[m]
        yield start, labels.reshape(-1, B)


def expand(config_set: LatentConfigSet, proposals: np.ndarray) -> np.ndarray:
    """Proposal labels of every config in the set: (N, B) ints, 0 = background.

    Center proposals keep their own category.  Any other proposal whose IoU
    with some center reaches CENTER_IOU takes the category of the
    highest-IoU center, ties resolved toward the lower category id.
    """
    _check_centers(config_set.centers, len(proposals))
    chunks = _label_chunks(center_geometry(proposals), config_set.categories,
                           config_set.centers)
    return np.concatenate([labels for _, labels in chunks])


def enumerate_exact(proposals: np.ndarray, z) -> LatentConfigSet:
    """Every config with distinct centers, one per category of z.

    Rows are ordered lexicographically by center index along ascending
    categories, so the set has a canonical order for tie-breaking.  More
    than OBJECTIVE_GUARD rows raise GuardError before any is built.
    """
    return _distinct_configs(len(proposals), as_label(z))


def _distinct_configs(B: int, label: ImageLabel) -> LatentConfigSet:
    """enumerate_exact's set over B proposals."""
    M = len(label)
    _check_table(B, M, B ** M)
    rows = np.argwhere(~_reuses_proposal(np.indices((B,) * M, sparse=True)))
    return LatentConfigSet(label.categories, rows)


def _check_scoring_inputs(categories, log_probs: np.ndarray,
                          geometry: CenterGeometry) -> None:
    """One finite score row per covered proposal, with a column for every category."""
    if log_probs.shape[0] != geometry.num_proposals:
        raise ValueError(
            f"{log_probs.shape[0]} score rows for {geometry.num_proposals} proposals")
    if max(categories) >= log_probs.shape[1]:
        raise ValueError(
            f"config categories {tuple(categories)} exceed {log_probs.shape[1]} columns")
    if not np.all(np.isfinite(log_probs)):
        raise ValueError("log probabilities must be finite")


def _check_centers(centers: np.ndarray, num_proposals: int) -> None:
    if centers.max() >= num_proposals:
        raise ValueError(f"config centers reach index {centers.max()} but there are "
                         f"only {num_proposals} proposals")


def score_config_set(config_set: LatentConfigSet, log_probs: np.ndarray,
                     geometry: CenterGeometry) -> np.ndarray:
    """Log-likelihood of each config in the set, aligned with its rows.

    ``geometry`` is the center_geometry of the image's proposals, and
    ``log_probs`` holds one row per proposal.  Each row is the
    all-background baseline plus the config's foreground deltas.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    _check_scoring_inputs(config_set.categories, log_probs, geometry)
    _check_centers(config_set.centers, geometry.num_proposals)
    base = log_probs[:, 0].sum()
    delta = log_probs - log_probs[:, [0]]
    cols = np.arange(log_probs.shape[0])
    values = np.empty(len(config_set))
    for start, labels in _label_chunks(geometry, config_set.categories, config_set.centers):
        values[start:start + labels.shape[0]] = base + delta[cols, labels].sum(axis=1)
    return values


def label_marginals(config_set: LatentConfigSet, weights: np.ndarray,
                    geometry: CenterGeometry, num_categories: int) -> np.ndarray:
    """Per-proposal category distribution (B, C) under weights over the configs.

    ``geometry`` is the center_geometry of the image's B proposals.
    """
    _check_centers(config_set.centers, geometry.num_proposals)
    q = np.zeros((geometry.num_proposals, num_categories))
    present = (0, *config_set.categories)
    for start, labels in _label_chunks(geometry, config_set.categories, config_set.centers):
        w = weights[start:start + labels.shape[0]]
        for c in present:
            q[:, c] += w @ (labels == c)
    return q


def exact_log_likelihood_grid(geometry: CenterGeometry, z,
                              log_probs: np.ndarray) -> np.ndarray:
    """Config log-likelihoods for the full enumeration as a (B,) * M array.

    Entry [j1, ..., jM] scores the config placing category z[m]'s center at
    proposal jm; entries with repeated indices are -inf.  Matches
    score_config_set to float accumulation order.  ``geometry`` is the
    center_geometry of the image's B proposals, and ``log_probs`` holds one
    finite row per proposal.  The hard and exact E-steps read the grid, and
    so does exact_log_partition for every label but three categories.  More
    than OBJECTIVE_GUARD entries raise GuardError before anything is built.

    For M <= 3 the grid is built by inclusion-exclusion over neighborhoods
    (see _overlap_terms).  The dense part is ((base + u[j1]) + v[j2]) + w[j3],
    where base is the all-background sum and u, v, w each center's
    foreground deltas over the proposals it covers.  Each slot pair's loser
    sums are subtracted only on the (j, k) lines they touch, and for M = 3
    each proposal covered by all three centers gets its bottom-ranked slot's
    delta added back, in order of the proposal.  Entries never touched by a
    correction cost no work beyond the dense part.
    """
    label = as_label(z)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B, M = geometry.num_proposals, len(label)
    _check_table(B, M, B ** M)
    _check_scoring_inputs(label.categories, log_probs, geometry)

    if M > 3:
        # Rare at desk scale; score the distinct rows through the labelling kernel.
        grid = np.full((B,) * M, -np.inf)
        config_set = _distinct_configs(B, label)
        grid[tuple(config_set.centers.T)] = score_config_set(config_set, log_probs, geometry)
        return grid

    terms = _overlap_terms(geometry, label.categories, log_probs)
    grid = terms.base
    for m in range(M):
        # (B, 1, ..., 1) with M - 1 - m trailing ones broadcasts along axis m.
        grid = grid + terms.per_center[:, m].reshape((B,) + (1,) * (M - 1 - m))
    if M >= 2:
        pairs = geometry.pair_plan()
        for (a, b), pair in terms.pairs.items():
            lines = np.moveaxis(grid, (a, b), (0, 1))
            lines[pairs.line_j, pairs.line_k] -= pair.reshape((-1,) + (1,) * (M - 2))
    if M == 3:
        triples = geometry.triple_plan()
        # The grid is a fresh C-ordered array, so its flat view takes one
        # index per entry: far cheaper for np.add.at than three.
        flat = (triples.j.astype(np.int64) * B + triples.k) * B + triples.l
        np.add.at(grid.reshape(-1), flat[triples.config], terms.add)
    # No config reuses a proposal: -inf wherever two slots share an index.
    same = np.arange(B)
    for a in range(M):
        for b in range(a + 1, M):
            np.moveaxis(grid, (a, b), (0, 1))[same, same] = -np.inf
    return grid


class _PairPlan(NamedTuple):
    """Every (i, j, k) where distinct centers j and k both cover proposal i.

    Entries are listed by i, then j, then k.  ``first_wins`` is True where
    j's key on i is at least k's, and ``line`` indexes the entry's (j, k)
    line in ``line_j``/``line_k``: the touched lines, unique and ascending.
    """

    i: np.ndarray
    first_wins: np.ndarray
    line: np.ndarray
    line_j: np.ndarray
    line_k: np.ndarray


class _TriplePlan(NamedTuple):
    """Every (i, j, k, l) where distinct centers j, k and l all cover proposal i.

    Entries are listed by i, then j, k and l.  ``bottom`` names the slot,
    0, 1 or 2, whose center ranks last on i by key, ties to the earlier slot
    winning, and ``config`` indexes the entry's (j, k, l) config.  Configs
    are unique and in ascending (j, k, l) order; ``line`` indexes each
    config's (j, k) line in ``line_j``/``line_k``, also unique and ascending.
    """

    i: np.ndarray
    bottom: np.ndarray
    config: np.ndarray
    j: np.ndarray
    k: np.ndarray
    l: np.ndarray
    line: np.ndarray
    line_j: np.ndarray
    line_k: np.ndarray


def _co_covered(geometry: CenterGeometry):
    """(i, position of (i, j), position of (i, k)) for distinct covering j and k.

    Listed by i, then j, then k.  Positions index the member lists, which by
    symmetry name the centers covering proposal i.
    """
    rows = np.repeat(np.arange(geometry.num_proposals), np.diff(geometry.offsets))
    at_j, at_k = _member_positions(geometry.offsets, rows)
    keep = geometry.members[at_j] != geometry.members[at_k]
    at_j, at_k = at_j[keep], at_k[keep]
    return rows[at_j], at_j, at_k


def _build_pair_plan(geometry: CenterGeometry) -> _PairPlan:
    """CenterGeometry.pair_plan, held as int32 indices and bool flags."""
    B = geometry.num_proposals
    i, at_j, at_k = _co_covered(geometry)
    j = geometry.members[at_j].astype(np.int64)
    lines, line = np.unique(j * B + geometry.members[at_k], return_inverse=True)
    line_j, line_k = np.divmod(lines, B)
    return _PairPlan(i.astype(np.int32), geometry.keys[at_j] >= geometry.keys[at_k],
                     *(a.astype(np.int32) for a in (line, line_j, line_k)))


def _build_triple_plan(geometry: CenterGeometry) -> _TriplePlan:
    """CenterGeometry.triple_plan, held as int32 indices and int8 slots."""
    B = geometry.num_proposals
    members, keys = geometry.members, geometry.keys
    i, at_j, at_k = _co_covered(geometry)
    entry, at_l = _member_positions(geometry.offsets, i)
    j, k, l = members[at_j][entry], members[at_k][entry], members[at_l]
    keep = (l != j) & (l != k)
    entry, at_l, j, k, l = entry[keep], at_l[keep], j[keep], k[keep], l[keep]
    ka, kb, kc = keys[at_j[entry]], keys[at_k[entry]], keys[at_l]
    third_c = (ka >= kc) & (kb >= kc)
    third_b = (ka >= kb) & ~(kb >= kc)
    bottom = np.where(third_c, 2, np.where(third_b, 1, 0)).astype(np.int8)
    flat, config = np.unique(np.ravel_multi_index((j, k, l), (B, B, B)), return_inverse=True)
    j, k, l = np.unravel_index(flat, (B, B, B))
    lines, line = np.unique(j * B + k, return_inverse=True)
    line_j, line_k = np.divmod(lines, B)
    return _TriplePlan(i[entry].astype(np.int32), bottom,
                       *(a.astype(np.int32) for a in (config, j, k, l, line, line_j, line_k)))


class _Overlaps(NamedTuple):
    """One image's inclusion-exclusion terms for M <= 3 category slots.

    The config with slot m's center at proposal j_m scores ``base`` plus
    ``per_center[j_m, m]`` for every slot, minus ``pairs[(a, b)]`` on the
    line (j_a, j_b) of the geometry's pair_plan for every slot pair, plus,
    for M = 3, the ``add`` of every entry of its triple_plan with config
    (j_0, j_1, j_2).  ``add`` is None for M < 3.
    """

    base: float
    per_center: np.ndarray
    pairs: dict[tuple[int, int], np.ndarray]
    add: np.ndarray | None


def _overlap_terms(geometry: CenterGeometry, categories, log_probs: np.ndarray) -> _Overlaps:
    """The dense and sparse terms of the config log-likelihoods of one image.

    ``base`` is the all-background sum and ``per_center`` each center's
    foreground deltas over the proposals it covers.  Where two neighborhoods
    share a proposal the plain sum counts both categories, so each slot pair
    subtracts the losing slot's delta, summed per (j, k) line over the
    entries of the pair plan in their order.  For M = 3 a proposal covered
    by all three chosen centers lost one delta too many, so its bottom slot's
    delta comes back once per entry of the triple plan.

    The plans hold every index; this reads only the log-probs.  Only
    ``per_center``, one matrix product, rebuilds a dense coverage.
    """
    B, M = geometry.num_proposals, len(categories)
    cats = np.array(categories, dtype=np.int64)
    base = log_probs[:, 0].sum()
    delta = log_probs[:, cats] - log_probs[:, [0]]
    cover = np.zeros((B, B))
    cover[np.repeat(np.arange(B), np.diff(geometry.offsets)), geometry.members] = 1.0
    per_center = cover.T @ delta  # (B, M)
    del cover
    pairs: dict[tuple[int, int], np.ndarray] = {}
    add = None

    if M >= 2:
        plan = geometry.pair_plan()
        covered = delta.take(plan.i, axis=0)
        for a in range(M):
            for b in range(a + 1, M):
                loser = np.where(plan.first_wins, covered[:, b], covered[:, a])
                pairs[(a, b)] = np.bincount(plan.line, weights=loser,
                                             minlength=plan.line_j.size)

    if M == 3:
        plan = geometry.triple_plan()
        add = delta.take(plan.i * M + plan.bottom)
    return _Overlaps(base, per_center, pairs, add)


def exact_log_partition(geometry: CenterGeometry, z, log_probs: np.ndarray) -> float:
    """log P(z | x): the log-sum-exp of every exact config's log-likelihood.

    ``geometry`` is the center_geometry of the image's B proposals, and
    ``log_probs`` holds one finite row per proposal.  For every M but 3 this
    is logsumexp(exact_log_likelihood_grid(...)), a table of B ** M entries.
    For M = 3 it equals the grid's log-sum-exp up to float rounding, but
    sums the terms of _overlap_terms over a pairwise factor graph instead of
    building the B ** 3 grid (variable elimination).  With u, v, w the
    per-center terms and P_ab a slot pair's loser sums (0 off its touched
    lines, +inf on the diagonal, so no config reuses a proposal),

        log Z = base + logsumexp over (j, k) of
                u_j + v_k - P01[j, k] + log inner[j, k],
        inner[j, k] = sum over l of exp(w_l - P02[j, l] - P12[k, l]),

    where inner is one (B, B) matrix product of two factors exponentiated
    with each row shifted by its own max: no exp overflows, and corrections
    hundreds of nats apart do not underflow every config, as one shift per
    factor would.  Configs with a triple-covered proposal are left out of
    inner on their (j, k) lines and added with their exact values, so only
    positive terms are summed.  The largest table built has B ** 2 entries
    for M = 3 and B ** M otherwise: more than OBJECTIVE_GUARD raise
    GuardError before anything is built.
    """
    label = as_label(z)
    if len(label) != 3:
        return logsumexp(exact_log_likelihood_grid(geometry, label, log_probs).reshape(-1))
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B = geometry.num_proposals
    _check_table(B, 3, B ** 2)
    _check_scoring_inputs(label.categories, log_probs, geometry)
    terms = _overlap_terms(geometry, label.categories, log_probs)
    pairs, triples = geometry.pair_plan(), geometry.triple_plan()
    # One row-major flat index per entry gathers and scatters far faster than
    # a pair of indexes.  B ** 2 is within the guard, so B <= 1000 and no int32
    # flat index (below B ** 3, for kept) overflows.
    # -pairs[(a, b)] on the touched lines, 0 elsewhere, -inf on the diagonal.
    minus = {}
    touched = pairs.line_j * B + pairs.line_k
    for pair, loser in terms.pairs.items():
        values = np.zeros((B, B))
        values.put(touched, -loser)
        np.fill_diagonal(values, -np.inf)
        minus[pair] = values
    u, v = terms.per_center[:, 0], terms.per_center[:, 1]
    outer = u[:, None] + v[None, :] + minus[(0, 1)]

    # inner[j, k] = sum over l of exp(w_l - P02[j, l] - P12[k, l]), with each
    # row of the two factors shifted by its own max.
    near = terms.per_center[:, 2] + minus[(0, 2)]
    far = minus[(1, 2)]
    near_top, far_top = near.max(axis=1), far.max(axis=1)
    near = np.exp(near - near_top[:, None])
    far = np.exp(far - far_top[:, None])
    inner = near @ far.T
    # Each triple config's corrections are summed once; its (j, k) line of
    # inner is recomputed without it, and its exact value is kept apart.
    bonus = np.bincount(triples.config, weights=terms.add, minlength=triples.j.size)
    kept = near[triples.line_j] * far[triples.line_k]
    kept.put(triples.line * B + triples.l, 0.0)
    inner.put(triples.line_j * B + triples.line_k, kept.sum(axis=1))
    with np.errstate(divide="ignore"):
        # A line whose every config is triple-covered sums to 0.
        dense = outer + near_top[:, None] + far_top[None, :] + np.log(inner)
    total = logsumexp(dense)
    if triples.j.size:
        j, k, l = triples.j, triples.k, triples.l
        exact = (outer.take(j * B + k) + terms.per_center[l, 2]
                 + minus[(0, 2)].take(j * B + l) + minus[(1, 2)].take(k * B + l) + bonus)
        total = np.logaddexp(total, logsumexp(exact))
    return float(terms.base + total)


def _integer_root(k: int, m: int) -> int:
    """Largest r >= 1 with r ** m <= k."""
    r = max(1, int(round(k ** (1.0 / m))))
    while (r + 1) ** m <= k:
        r += 1
    while r > 1 and r ** m > k:
        r -= 1
    return r


def select_k(proposals: np.ndarray, z, log_probs: np.ndarray, k: int) -> LatentConfigSet:
    """Truncated config set of at most k distinct configs.

    With r = min(B, floor(k ** (1/M))), each category keeps its max(r, M)
    highest-scoring proposals as candidate centers, ties to the lower index;
    the set is the Cartesian product of the candidate lists minus configs
    that reuse a proposal.  M candidates per category always leave a
    distinct config.  When r < M the product may exceed k, and only its k
    rows of highest summed log-score are kept, ties to the earlier row, in
    product order.  A product of more than OBJECTIVE_GUARD rows raises
    GuardError before anything is built.
    """
    label = as_label(z)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B, M = len(proposals), len(label)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    r = min(B, _integer_root(k, M))
    width = max(r, M)
    _check_table(B, M, width ** M)
    candidates = [np.argsort(-log_probs[:, c], kind="stable")[:width] for c in label.categories]
    rows = np.stack([c.ravel() for c in np.meshgrid(*candidates, indexing="ij")], axis=1)
    rows = rows[~_reuses_proposal(rows.T)]
    if len(rows) > k:
        score = log_probs[rows, np.array(label.categories)].sum(axis=1)
        rows = rows[np.sort(np.argsort(-score, kind="stable")[:k])]
    return LatentConfigSet(label.categories, rows)
