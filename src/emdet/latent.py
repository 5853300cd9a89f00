"""Latent label space over proposals built from center boxes.

A weak image only says which categories are present.  A latent configuration
picks one center proposal per present category; proposals whose IoU with a
center reaches ``CENTER_IOU`` take that center's category and everything else
is background.  This collapses the label space from C^B assignments to at
most B * (B - 1) * ... choices, which can be enumerated exactly at desk scale
or truncated per category for larger instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from emdet.geometry import iou_matrix

# IoU at or above which a proposal joins a center's neighborhood.
CENTER_IOU = 0.5

# Largest config table built for one weak image: the B ** M rows of
# enumerate_exact or entries of exact_log_likelihood_grid, the B ** 2 pair
# factors of exact_log_partition for M = 3, and select_k's max(r, M) ** M
# candidates.  Co-coverage plans are built only for B ** 2 within it.  Not
# bounded by it: the arrays of every slot order of every triple config that
# _overlap_terms returns and exact_log_partition sorts, which grow with the
# triple plan.
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


# Config rows labelled per kernel pass, and (j, k) lines of triple configs
# that exact_log_partition recomputes per pass; bounds the (rows, B) buffers
# so neither grows with the size of the config set.
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
    Both hold each co-covering pair and triple of centers once, not once per
    slot order, and the readers expand them to every slot order per call.
    The pair plan holds 3 bytes per co-covered (i, j < k) entry and 6 per
    touched (j, k) line; the triple plan 3 per triple-covered (i, j < k < l)
    entry and 8 per (j, k, l) config.
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

    For M <= 3 the grid materializes the factors of _overlap_terms, with u,
    v, w the per-center terms and P01, P02, P12 the pair factors:
    base + u for M = 1, G = ((base + u[j]) + v[k]) + P01[j, k] for M = 2,
    and for M = 3 (G[j, k] + (w[l] + P02[j, l])) + P12[k, l], plus the bonus
    of each triple config.  The pair factors' -inf diagonals mask every
    entry that repeats an index.
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
    grid = terms.base + terms.per_center[:, 0]
    if M == 1:
        return grid
    grid = (grid[:, None] + terms.per_center[:, 1]) + terms.minus[(0, 1)]
    if M == 3:
        grid = grid[:, :, None] + (terms.per_center[:, 2] + terms.minus[(0, 2)])[:, None, :]
        grid += terms.minus[(1, 2)]
        # Each slot order of a triple config is its own cell of the fresh grid.
        j, k, l, bonus = terms.triples
        grid.reshape(-1)[(j * B + k) * B + l] += bonus
    return grid


class _PairPlan(NamedTuple):
    """Every (i, j, k) where centers j < k both cover proposal i, each pair once.

    Entries are grouped by their (j, k) line: the touched ``lines``, unique
    and ascending columns (j, k), hold ``count`` entries each, in ascending
    i.  ``code`` compares j's key on i with k's (see _order_code).
    """

    i: np.ndarray
    code: np.ndarray
    lines: np.ndarray
    count: np.ndarray


class _TriplePlan(NamedTuple):
    """Every (i, j, k, l) where centers j < k < l all cover proposal i, each triple once.

    Entries are grouped by their (j, k, l) config: the ``configs``, unique
    and ascending columns (j, k, l), hold ``count`` entries each, in
    ascending i.  ``code`` orders the three centers' keys on i, ties
    included (see _order_code).
    """

    i: np.ndarray
    code: np.ndarray
    configs: np.ndarray
    count: np.ndarray


def _order_code(keys: np.ndarray) -> np.ndarray:
    """How the keys of n centers on one proposal compare, ties included, as int8.

    ``keys`` stacks one row per center, in ascending center order.  Each
    pair a < b of rows gives a base-3 digit, 0 where a's key is above b's, 1
    where they are equal and 2 where it is below; the first pair is the most
    significant digit.
    """
    code = np.zeros(keys.shape[1:], dtype=np.int8)
    for a, b in itertools.combinations(range(len(keys)), 2):
        code = code * 3 + (keys[a] <= keys[b]) + (keys[a] < keys[b])
    return code


def _bottom_slot(ka, kb, kc):
    """The slot, 0, 1 or 2, whose key ranks last, ties to the earlier slot winning."""
    third_c = (ka >= kc) & (kb >= kc)
    third_b = (ka >= kb) & ~(kb >= kc)
    return np.where(third_c, 2, np.where(third_b, 1, 0))


# The slot orders of a plan's pair (j < k) or triple (j < k < l) of centers:
# order p of n = 2 or 3 centers puts the plan's center _ORDERS[n][p][s]
# (0 for j, 1 for k, 2 for l) in slot s.
_ORDERS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 3)}


def _order_table(n: int, rule, dtype) -> np.ndarray:
    """rule(*slot keys) for every slot order (rows) and _order_code of n centers (columns).

    Keys drawn from range(n) take every order code, ties included.
    """
    keys = np.array(list(itertools.product(range(n), repeat=n))).T
    code = _order_code(keys)
    table = np.zeros((len(_ORDERS[n]), 3 ** (n * (n - 1) // 2)), dtype=dtype)
    for p, order in enumerate(_ORDERS[n]):
        table[p, code] = rule(*keys[order])
    return table


# _FIRST_WINS[p, code] is True where slot 0's key is at least slot 1's;
# _BOTTOM[p, code] is the slot that ranks last.  Ties go to the earlier slot,
# so both depend on the slot order.
_FIRST_WINS = _order_table(2, lambda ka, kb: ka >= kb, bool)
_BOTTOM = _order_table(3, _bottom_slot, np.intp)


def _co_covered(geometry: CenterGeometry):
    """(i, position of (i, j), position of (i, k)) for covering centers j < k.

    Listed by i, then j, then k.  Positions index the member lists, which by
    symmetry name the centers covering proposal i.  Plans are read only
    behind the B ** 2 <= OBJECTIVE_GUARD rule, so B <= 1000 and int16 holds
    every proposal and count; more raise GuardError before anything is built.
    """
    B = geometry.num_proposals
    if B ** 2 > OBJECTIVE_GUARD:
        raise GuardError(f"co-coverage plans over {B} proposals exceed the "
                         f"{OBJECTIVE_GUARD} config guard")
    rows = np.repeat(np.arange(B), np.diff(geometry.offsets))
    at_j, at_k = _member_positions(geometry.offsets, rows)
    keep = geometry.members[at_j] < geometry.members[at_k]
    at_j, at_k = at_j[keep], at_k[keep]
    return rows[at_j], at_j, at_k


def _grouped(i: np.ndarray, at: np.ndarray, geometry: CenterGeometry):
    """Entries grouped by their centers, in ascending i within each group.

    ``at`` stacks the member positions of each entry's centers, and entries
    come in ascending i.  Returns the entries' i and order code, the groups'
    centers (one row per slot) and the entries per group, all int16 but the
    int8 codes.
    """
    shape = (geometry.num_proposals,) * len(at)
    flat = np.ravel_multi_index(geometry.members[at], shape)
    order = np.argsort(flat, kind="stable")
    groups, count = np.unique(flat, return_counts=True)
    centers = np.stack(np.unravel_index(groups, shape))
    return (i[order].astype(np.int16), _order_code(geometry.keys[at])[order],
            centers.astype(np.int16), count.astype(np.int16))


def _build_pair_plan(geometry: CenterGeometry) -> _PairPlan:
    """CenterGeometry.pair_plan: 3 bytes per entry and 6 per line."""
    i, at_j, at_k = _co_covered(geometry)
    return _PairPlan(*_grouped(i, np.stack([at_j, at_k]), geometry))


def _build_triple_plan(geometry: CenterGeometry) -> _TriplePlan:
    """CenterGeometry.triple_plan: 3 bytes per entry and 8 per config."""
    i, at_j, at_k = _co_covered(geometry)
    entry, at_l = _member_positions(geometry.offsets, i)
    keep = geometry.members[at_l] > geometry.members[at_k[entry]]
    entry, at_l = entry[keep], at_l[keep]
    return _TriplePlan(*_grouped(i[entry], np.stack([at_j[entry], at_k[entry], at_l]),
                                 geometry))


class _Overlaps(NamedTuple):
    """One image's config log-likelihoods for M <= 3 category slots, as factors.

    The config with slot m's center at proposal j_m scores ``base`` plus
    ``per_center[j_m, m]`` for every slot plus ``minus[(a, b)][j_a, j_b]``
    for every slot pair a < b, plus for M = 3 the ``bonus`` of its
    (j_0, j_1, j_2) where that is one of the ``triples`` (j, k, l, bonus):
    every slot order of every triple config, each once, unsorted.  Each
    (B, B) pair factor is 0 off the lines the pair plan touches and -inf on
    its diagonal, so no config reuses a proposal.  ``minus`` is empty for
    M = 1 and ``triples`` None for M < 3.
    """

    base: float
    per_center: np.ndarray
    minus: dict[tuple[int, int], np.ndarray]
    triples: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


def _overlap_terms(geometry: CenterGeometry, categories, log_probs: np.ndarray) -> _Overlaps:
    """The inclusion-exclusion factors of the config log-likelihoods of one image.

    ``base`` is the all-background sum and ``per_center`` each center's
    foreground deltas over the proposals it covers.  Where two neighborhoods
    share a proposal the plain sum counts both categories, so each slot
    pair's factor holds the losing slot's delta, negated and summed per
    ordered line over the entries of the pair plan in ascending i.  For
    M = 3 a proposal covered by all three chosen centers lost one delta too
    many, so its bottom slot's delta comes back in its config's bonus.

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
    minus: dict[tuple[int, int], np.ndarray] = {}
    triples = None

    if M >= 2:
        plan = geometry.pair_plan()
        lost = -delta.take(plan.i, axis=0)
        first_wins = _FIRST_WINS.take(plan.code, axis=1)
        # Each entry's cell on its line in both slot orders, (j, k) then
        # (k, j); a bincount sums each cell's entries in ascending i.
        lines = plan.lines.astype(np.intp)
        cells = np.repeat(lines * B + lines[::-1], plan.count, axis=1).reshape(-1)
        for a, b in itertools.combinations(range(M), 2):
            loser = np.where(first_wins, lost[:, b], lost[:, a])
            # Over no cells bincount returns int64 zeros.
            factor = np.bincount(cells, weights=loser.reshape(-1), minlength=B * B)
            factor = factor.astype(np.float64, copy=False).reshape(B, B)
            np.fill_diagonal(factor, -np.inf)
            minus[(a, b)] = factor

    if M == 3:
        plan = geometry.triple_plan()
        # i < 1000 (see _co_covered), so M * i fits int16.
        add = delta.take(_BOTTOM.take(plan.code, axis=1) + M * plan.i)
        # Column p * configs + g puts config g's centers in slot order p and
        # sums its entries' bottom-slot deltas in ascending i.
        configs = plan.count.size
        bins = np.repeat(np.arange(6 * configs).reshape(6, configs), plan.count, axis=1)
        bonus = np.bincount(bins.reshape(-1), weights=add.reshape(-1), minlength=6 * configs)
        centers = plan.configs.astype(np.intp)[_ORDERS[3].T].reshape(3, -1)
        triples = (*centers, bonus)
    return _Overlaps(base, per_center, minus, triples)


def exact_log_partition(geometry: CenterGeometry, z, log_probs: np.ndarray) -> float:
    """log P(z | x): the log-sum-exp of every exact config's log-likelihood.

    ``geometry`` is the center_geometry of the image's B proposals, and
    ``log_probs`` holds one finite row per proposal.  For every M but 3 this
    is logsumexp(exact_log_likelihood_grid(...)), a table of B ** M entries.
    For M = 3 it equals the grid's log-sum-exp up to float rounding, but
    sums the factors of _overlap_terms, which the grid materializes, over
    the pairwise factor graph instead (variable elimination).  With u, v, w
    the per-center terms and P01, P02, P12 the pair factors,

        log Z = base + logsumexp over (j, k) of
                u_j + v_k + P01[j, k] + log inner[j, k],
        inner[j, k] = sum over l of exp(w_l + P02[j, l] + P12[k, l]),

    where inner is one (B, B) matrix product of two factors exponentiated
    with each row shifted by its own max: no exp overflows, and corrections
    hundreds of nats apart do not underflow every config, as one shift per
    factor would.  Configs with a triple-covered proposal are left out of
    inner on their (j, k) lines and added with their exact values, so only
    positive terms are summed; those lines are recomputed LABEL_CHUNK at a
    time.  The largest table built has B ** 2 entries for M = 3 and B ** M
    otherwise: more than OBJECTIVE_GUARD raise GuardError before anything is
    built.
    """
    label = as_label(z)
    if len(label) != 3:
        return logsumexp(exact_log_likelihood_grid(geometry, label, log_probs).reshape(-1))
    log_probs = np.asarray(log_probs, dtype=np.float64)
    B = geometry.num_proposals
    _check_table(B, 3, B ** 2)
    _check_scoring_inputs(label.categories, log_probs, geometry)
    base, per_center, minus, (j, k, l, bonus) = _overlap_terms(
        geometry, label.categories, log_probs)
    # The line grouping and the exact terms read the configs sorted by
    # (j, k, l).  Sorting (flat index, position) pairs packed into one int64
    # is far faster than an argsort; flat indexes stay below B ** 3 <= 2 ** 30.
    order = np.sort(((j * B + k) * B + l) << 32 | np.arange(j.size)) & 0xFFFFFFFF
    j, k, l, bonus = j.take(order), k.take(order), l.take(order), bonus.take(order)
    del order  # before the (B, B) tables, which would stack on it
    u, v, w = per_center.T
    outer = u[:, None] + v[None, :] + minus[(0, 1)]

    # inner[j, k] = sum over l of exp(w_l + P02[j, l] + P12[k, l]), with each
    # row of the two factors shifted by its own max.
    near = w + minus[(0, 2)]
    far = minus[(1, 2)]
    near_top, far_top = near.max(axis=1), far.max(axis=1)
    near = np.exp(near - near_top[:, None])
    far = np.exp(far - far_top[:, None])
    inner = near @ far.T
    # Each triple config's bonus is summed once; its (j, k) line of inner is
    # recomputed without it, and its exact value is kept apart.  One
    # row-major flat index per entry gathers and scatters far faster than a
    # pair of indexes.  The sorted configs of one (j, k) line are contiguous;
    # starts marks the first, and the configs of the n-th line are
    # bounds[n]:bounds[n + 1].
    line = j * B + k
    starts = np.ones(line.size, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=starts[1:])
    row = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    bounds = np.append(first, line.size)
    for s in range(0, first.size, LABEL_CHUNK):
        lines = first[s:s + LABEL_CHUNK]
        kept = near.take(j.take(lines), axis=0)
        kept *= far.take(k.take(lines), axis=0)
        configs = slice(bounds[s], bounds[s + lines.size])
        kept[row[configs] - s, l[configs]] = 0.0
        inner.put(line.take(lines), kept.sum(axis=1))
    with np.errstate(divide="ignore"):
        # A line whose every config is triple-covered sums to 0.
        dense = outer + near_top[:, None] + far_top[None, :] + np.log(inner)
    total = logsumexp(dense)
    if bonus.size:
        exact = (outer.take(line) + w.take(l)
                 + minus[(0, 2)].take(j * B + l) + minus[(1, 2)].take(k * B + l) + bonus)
        total = np.logaddexp(total, logsumexp(exact))
    return float(base + total)


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
