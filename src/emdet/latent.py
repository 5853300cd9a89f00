"""Latent label space over proposals built from center boxes.

A weak image only says which categories are present.  A latent configuration
picks one center proposal per present category; proposals whose IoU with a
center reaches ``CENTER_IOU`` take that center's category and everything else
is background.  This collapses the label space from C^B assignments to at
most B * (B - 1) * ... choices, which can be enumerated exactly at desk scale
or truncated per category for larger instances.

The exact log-partition log P(z | x), the exact grid of up to three
categories and its argmax take their inclusion-exclusion factors from one
kernel, _chunk_terms, which evaluates a chunk of images sharing a proposal
count and a label size (PartitionChunk) with one set of passes over stacked
arrays.  A chunk holds every index those passes read that depends on
coverage alone, stacked from the co-coverage plans each image keeps on its
CenterGeometry, so a caller that evaluates the same images again, as the
objective trace and the hard E-steps of a training run do, builds them once
(partition_chunks, then chunk_log_partition and chunk_argmax); the
per-image functions make a chunk of the one image they are given.
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
# bounded by it: the arrays of every slot order of every triple config that a
# partition chunk holds, which grow with the triple plan.
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


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a boolean is not one.

    The one rule for category ids in memory and for integers in JSON files.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ImageLabel:
    """The set of foreground categories present in an image, sorted ascending."""

    categories: tuple[int, ...]

    def __post_init__(self):
        if len(self.categories) == 0:
            raise ValueError("image label must contain at least one category")
        for c in self.categories:
            if not is_integer(c):
                raise ValueError(f"category id must be an integer, got {c!r}")
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
    for c in z:
        if not is_integer(c):
            raise ValueError(f"category id must be an integer, got {c!r}")
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
# that the log-partition recomputes per pass; bounds the (rows, B) buffers
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
    then kept, so one geometry per image per run builds each at most once;
    nothing else builds a plan, and a chunk of images stacks theirs.  Both
    hold each co-covering pair and triple of centers once, not once per slot
    order, and the chunk expands them to every slot order.
    The pair plan holds 3 bytes per co-covered (i, j < k) entry and 6 per
    touched (j, k) line; the triple plan 3 per triple-covered (i, j < k < l)
    entry and 8 per (j, k, l) config.
    """

    offsets: np.ndarray
    members: np.ndarray
    keys: np.ndarray
    _pairs: _Plan | None = field(default=None, init=False, repr=False)
    _triples: _Plan | None = field(default=None, init=False, repr=False)

    @property
    def num_proposals(self) -> int:
        return len(self.offsets) - 1

    def pair_plan(self) -> _Plan:
        """The co-covered pair entries, built on the first call."""
        if self._pairs is None:
            _check_plans(self.num_proposals)
            self._pairs = _build_pair_plan(self)
        return self._pairs

    def triple_plan(self) -> _Plan:
        """The triple-covered entries and their configs, built on the first call."""
        if self._triples is None:
            _check_plans(self.num_proposals)
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

    ``geometry`` is the center_geometry of the image's B proposals.  Each
    present category's column sums the weights of the configs that give a
    proposal that category.
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
    finite row per proposal.  The exact E-step reads the grid, and so do
    the per-image hard E-step and exact_log_partition for one category and
    for more than three.  More than OBJECTIVE_GUARD entries raise GuardError
    before anything is built.

    For M <= 3 the grid is _image_grid of the image as a chunk of its own,
    and has the bits of its grid in any chunk (chunk_argmax).
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

    chunk = _partition_chunk([geometry], [label.categories])
    return _image_grid(chunk, _chunk_terms(chunk, log_probs[None]), 0)


class _Plan(NamedTuple):
    """Every (i, j, k) where centers j < k both cover proposal i, each pair once,
    or every (i, j, k, l) where centers j < k < l all do, each triple once.

    Entries are grouped by their centers: the ``centers``, unique and
    ascending columns (j, k) or (j, k, l), hold ``count`` entries each, in
    ascending i.  ``code`` orders the centers' keys on i, ties included (see
    _order_code).
    """

    i: np.ndarray
    code: np.ndarray
    centers: np.ndarray
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
_BOTTOM = _order_table(3, _bottom_slot, np.int8)


def _check_plans(B: int) -> None:
    """GuardError for the co-coverage plans of an image past the B ** 2 config guard."""
    if B ** 2 > OBJECTIVE_GUARD:
        raise GuardError(f"co-coverage plans over {B} proposals exceed the "
                         f"{OBJECTIVE_GUARD} config guard")


def _co_covered(geometry: CenterGeometry):
    """(i, position of (i, j), position of (i, k)) for covering centers j < k.

    Listed by i, then j, then k.  Positions index the member lists, which by
    symmetry name the centers covering proposal i.  An image's plans are
    read only behind the B ** 2 <= OBJECTIVE_GUARD rule (_check_plans), so
    B <= 1000, and a stack of images has fewer than 2 ** 15 proposals
    (_partition_chunk): int16 holds every proposal and count.
    """
    B = geometry.num_proposals
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


def _build_pair_plan(geometry: CenterGeometry) -> _Plan:
    """CenterGeometry.pair_plan: 3 bytes per entry and 6 per line."""
    i, at_j, at_k = _co_covered(geometry)
    return _Plan(*_grouped(i, np.stack([at_j, at_k]), geometry))


def _build_triple_plan(geometry: CenterGeometry) -> _Plan:
    """CenterGeometry.triple_plan: 3 bytes per entry and 8 per config."""
    i, at_j, at_k = _co_covered(geometry)
    entry, at_l = _member_positions(geometry.offsets, i)
    keep = geometry.members[at_l] > geometry.members[at_k[entry]]
    entry, at_l = entry[keep], at_l[keep]
    return _Plan(*_grouped(i[entry], np.stack([at_j[entry], at_k[entry], at_l]), geometry))


# Cells of the (B, B) tables that one partition chunk stacks: the weak images
# of one proposal count B and label size M are evaluated
# max(1, PARTITION_CELLS // B ** 2) at a time, so the chunk's float tables
# hold at most this many cells each, and from B = 182 on a chunk is one image.
PARTITION_CELLS = 1 << 15


@dataclass(eq=False, slots=True)
class PartitionChunk:
    """The label-independent index work of the exact log-partition of a few images.

    The images share a proposal count B and a label size M <= 3, and
    ``categories`` holds their labels, one row per image.  Stacked, proposal
    i of image a is row a * B + i, and cell (j, k) of its (B, B) tables is
    flat cell (a * B + j) * B + k.  A chunk keeps every index in int16 when
    it has at most 2 ** 15 cells and fewer slot-ordered triple configs, and
    in int32 otherwise.

    - ``cover``: the cell (center, member) of every covered pair.
    - Pairs (M >= 2), one entry per pair-plan entry: its proposal's row
      ``pair_rows``, its _FIRST_WINS flags in both slot orders ``pair_first``
      (2, entries), and the cells its loser's delta is summed into,
      (j, k) then (k, j), ``pair_cells`` (2 * entries).
    - Triples (M = 3): ``triple_configs`` holds the rows (j, k, l) of every
      slot order of every triple config (3, configs), sorted by (a, j, k, l).
      Per slot order, each triple-plan entry's bottom-slot delta is
      ``triple_take`` into the stacked (rows, 3) deltas and goes to bin
      ``triple_bins``, its config's column (both (6, entries)).  The (j, k)
      line starting at config ``line_bounds[n]`` ends at
      ``line_bounds[n + 1]``, and image a's configs are
      ``image_bounds[a]:image_bounds[a + 1]``.
    """

    num_proposals: int
    categories: np.ndarray
    cover: np.ndarray
    pair_rows: np.ndarray | None = None
    pair_first: np.ndarray | None = None
    pair_cells: np.ndarray | None = None
    triple_take: np.ndarray | None = None
    triple_bins: np.ndarray | None = None
    triple_configs: np.ndarray | None = None
    line_bounds: np.ndarray | None = None
    image_bounds: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of the index arrays."""
        return sum(getattr(self, name).nbytes for name in self.__slots__
                   if isinstance(getattr(self, name), np.ndarray))


def _stacked_plan(plans: list[_Plan], B: int) -> _Plan:
    """The plan of images of B proposals side by side: image a's i and centers go up by a * B.

    No center covers a proposal of another image, so the stack lists each
    image's groups in turn, as a plan of the stacked coverage would.  The
    caller keeps the stack below 2 ** 15 proposals, which int16 holds.
    """
    if len(plans) == 1:
        return plans[0]
    shift = np.arange(len(plans), dtype=np.int16) * B
    i, code, centers, count = (np.concatenate(parts, axis=-1) for parts in zip(*plans))
    i += np.repeat(shift, [plan.i.size for plan in plans])
    centers += np.repeat(shift, [plan.count.size for plan in plans])
    return _Plan(i, code, centers, count)


def _partition_chunk(geometries: list[CenterGeometry], categories) -> PartitionChunk:
    """The PartitionChunk of images of one proposal count with one label size each.

    ``categories`` holds one label per geometry, all of one size M <= 3.
    The chunk stacks the co-coverage plans each image keeps on its geometry.
    Each index is built in its final dtype, so the build holds few
    temporaries of 8 bytes per triple-plan entry or config.
    """
    cats = np.array(categories, dtype=np.int64).reshape(len(geometries), -1)
    n, M = cats.shape
    B = geometries[0].num_proposals
    if n * B >= 1 << 15:
        raise ValueError(f"{n} images of {B} proposals are too many to stack")
    triples = _stacked_plan([g.triple_plan() for g in geometries], B) if M == 3 else None
    configs = 0 if triples is None else 6 * triples.count.size
    # cells lie below n * B ** 2, and config columns and bounds reach the configs
    dtype = np.int16 if max(n * B * B - 1, configs) < 1 << 15 else np.int32
    rows = np.repeat(np.arange(n * B, dtype=dtype),
                     np.concatenate([np.diff(g.offsets) for g in geometries]))
    index = {"cover": rows * B + np.concatenate([g.members for g in geometries]).astype(dtype)}
    if M >= 2:
        plan = _stacked_plan([g.pair_plan() for g in geometries], B)
        lines = plan.centers.astype(dtype)
        # cell (j, k) of a line is j's row * B + k, and (k, j) is k's row * B + j
        cells = lines * B + lines[::-1] % B
        index["pair_rows"] = plan.i
        index["pair_cells"] = np.repeat(cells, plan.count, axis=1).reshape(-1)
        index["pair_first"] = _FIRST_WINS.take(plan.code, axis=1)
    if M == 3:
        index["triple_take"] = _BOTTOM.take(triples.code, axis=1) + 3 * triples.i.astype(dtype)
        # Column p * count + g puts config g's centers in slot order p.
        centers = triples.centers.astype(dtype)[_ORDERS[3].T].reshape(3, -1)
        key = centers[0].astype(np.int64) * B + centers[1] % B
        key *= B
        key += centers[2] % B
        order = np.argsort(key)
        del key
        column = np.empty(configs, dtype=dtype)
        column[order] = np.arange(configs, dtype=dtype)
        centers = centers[:, order]
        del order
        starts = np.ones(configs, dtype=bool)
        starts[1:] = np.any(centers[:2, 1:] != centers[:2, :-1], axis=0)
        index["line_bounds"] = np.append(np.flatnonzero(starts), configs).astype(dtype)
        index["image_bounds"] = np.searchsorted(centers[0], np.arange(n + 1) * B).astype(dtype)
        index["triple_bins"] = np.repeat(column.reshape(6, -1), triples.count, axis=1)
        index["triple_configs"] = centers
    return PartitionChunk(B, cats, **index)


def partition_chunks(geometries: list[CenterGeometry], labels: list):
    """The images with two or three categories, as (positions, PartitionChunk) pairs.

    ``geometries`` and ``labels`` list the images; each chunk holds images of
    one proposal count B and label size, in list order, at most
    max(1, PARTITION_CELLS // B ** 2) of them.  Each image's table must be
    within the guard (check_partition); nothing is checked here.  A chunk is
    read by chunk_log_partition, for the log-partition of its images, and by
    chunk_argmax, for their most likely configs.  Images of one category are
    left to exact_log_partition and exact_log_likelihood_grid, which read
    their grid: the benchmark's k_em workloads count that grid's work
    (perfbench/test_perfbench.py requires it).
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for position, (geometry, label) in enumerate(zip(geometries, labels)):
        if len(label) in (2, 3):
            groups.setdefault((geometry.num_proposals, len(label)), []).append(position)
    chunks = []
    for (B, _), positions in groups.items():
        size = max(1, PARTITION_CELLS // B ** 2)
        for start in range(0, len(positions), size):
            part = positions[start:start + size]
            chunks.append((part, _partition_chunk([geometries[p] for p in part],
                                                  [as_label(labels[p]).categories
                                                   for p in part])))
    return chunks


class _ChunkTerms(NamedTuple):
    """The factors of the config log-likelihoods of every image of a chunk.

    Image a's config with slot m's center at proposal j_m scores ``base[a]``
    plus ``per_center[a, j_m, m]`` for every slot plus
    ``minus[(s, t)][a, j_s, j_t]`` for every slot pair s < t, plus for M = 3
    the ``bonus`` of its (j_0, j_1, j_2) where that is a triple config of the
    chunk (in the chunk's sorted order).  Each (B, B) pair factor is 0 off the
    lines the pair plan touches and -inf on its diagonal, so no config reuses
    a proposal.  ``minus`` is empty for M = 1 and ``bonus`` None for M < 3.
    """

    base: np.ndarray
    per_center: np.ndarray
    minus: dict[tuple[int, int], np.ndarray]
    bonus: np.ndarray | None


def _chunk_terms(chunk: PartitionChunk, log_probs: np.ndarray) -> _ChunkTerms:
    """The inclusion-exclusion factors of a chunk, from its stacked (n, B, C) log-probs.

    ``base`` is each image's all-background sum and ``per_center`` each
    center's foreground deltas over the proposals it covers, one batched
    matrix product with the dense coverage.  Where two neighborhoods share a
    proposal the plain sum counts both categories, so each slot pair's factor
    holds the losing slot's delta, negated and summed per ordered line over
    the pair-plan entries in ascending i: one bincount over the chunk.  For
    M = 3 a proposal covered by all three chosen centers lost one delta too
    many, so its bottom slot's delta comes back in its config's bonus.
    """
    n, M = chunk.categories.shape
    B = chunk.num_proposals
    base = log_probs[:, :, 0].sum(axis=1)
    labelled = log_probs[np.arange(n)[:, None, None], np.arange(B)[:, None],
                         chunk.categories[:, None, :]]
    delta = labelled - log_probs[:, :, [0]]
    cover = np.zeros((n, B, B))
    cover.reshape(-1)[chunk.cover] = 1.0
    per_center = np.matmul(cover.transpose(0, 2, 1), delta)  # (n, B, M)
    del cover
    minus: dict[tuple[int, int], np.ndarray] = {}
    bonus = None

    if M >= 2:
        lost = -delta.reshape(n * B, M).take(chunk.pair_rows, axis=0)
        for a, b in itertools.combinations(range(M), 2):
            loser = np.where(chunk.pair_first, lost[:, b], lost[:, a])
            # Over no cells bincount returns int64 zeros.
            factor = np.bincount(chunk.pair_cells, weights=loser.reshape(-1),
                                 minlength=n * B * B).astype(np.float64, copy=False)
            factor.reshape(n, B * B)[:, ::B + 1] = -np.inf
            minus[(a, b)] = factor.reshape(n, B, B)

    if M == 3:
        # Each config's bin sums its entries' bottom-slot deltas in ascending i.
        bonus = np.bincount(chunk.triple_bins.reshape(-1),
                            weights=delta.reshape(-1).take(chunk.triple_take).reshape(-1),
                            minlength=chunk.triple_configs.shape[1])
    return _ChunkTerms(base, per_center, minus, bonus)


def _pair_grid(base: np.ndarray, per_center: np.ndarray, p01: np.ndarray | None) -> np.ndarray:
    """_chunk_terms' (n, B) base + u for M = 1, else ((base + u[j]) + v[k]) + P01[j, k].

    Over the first two slots for M >= 2: (n, B, B).  ``p01`` is None for M = 1.
    """
    grid = base[:, None] + per_center[:, :, 0]
    if p01 is None:
        return grid
    grid = grid[:, :, None] + per_center[:, None, :, 1]
    grid += p01
    return grid


def _image_grid(chunk: PartitionChunk, terms: _ChunkTerms, a: int) -> np.ndarray:
    """Image a's config log-likelihoods (B,) * M, from its chunk's _chunk_terms.

    With u, v, w the per-center terms and P01, P02, P12 the pair factors,
    the grid G is _pair_grid for M <= 2, and for M = 3
    (G[j, k] + (w[l] + P02[j, l])) + P12[k, l], plus the bonus of each of
    the image's triple configs (``image_bounds[a]:image_bounds[a + 1]``,
    stacked rows taken % B).  The pair factors' -inf diagonals mask every
    entry that repeats an index.  Each of an image's entries has the same
    bits in a chunk of any size.
    """
    base, per_center, minus, bonus = terms
    B, M = chunk.num_proposals, chunk.categories.shape[1]
    grid = _pair_grid(base[a:a + 1], per_center[a:a + 1],
                      minus[(0, 1)][a:a + 1] if M > 1 else None)[0]
    if M == 3:
        grid = grid[:, :, None] + (per_center[a, :, 2] + minus[(0, 2)][a])[:, None, :]
        grid += minus[(1, 2)][a]
        # Each slot order of a triple config is its own cell of the fresh grid,
        # so the scatter does not depend on the order of the configs.
        first, last = chunk.image_bounds[a:a + 2]
        j, k, l = chunk.triple_configs[:, first:last].astype(np.intp) % B
        grid.reshape(-1)[(j * B + k) * B + l] += bonus[first:last]
    return grid


def _row_logsumexp(values: np.ndarray) -> np.ndarray:
    """logsumexp of each row of a 2-D array, to the bit; ``values`` is overwritten."""
    top = values.max(axis=1)
    with np.errstate(invalid="ignore"):
        values -= top[:, None]
        np.exp(values, out=values)
        total = top + np.log(values.sum(axis=1))
    return np.where(np.isfinite(top), total, top)


def _segment_logsumexp(values: np.ndarray, bounds: np.ndarray):
    """(segments, logsumexp of each) over the nonempty values[bounds[a]:bounds[a + 1]].

    Each to the bit of logsumexp of its segment alone, for finite values;
    ``values`` is overwritten.  numpy's reduceat sums a segment in another
    order than sum, so each segment is summed by itself.
    """
    some = np.flatnonzero(bounds[1:] > bounds[:-1])
    top = np.maximum.reduceat(values, bounds[some])
    values -= np.repeat(top, bounds[some + 1] - bounds[some])
    np.exp(values, out=values)
    sums = np.array([values[bounds[a]:bounds[a + 1]].sum() for a in some.tolist()])
    return some, top + np.log(sums)


def _chunk_log_partition(chunk: PartitionChunk, log_probs: np.ndarray) -> np.ndarray:
    """log P(z | x) of every image of a chunk, from its stacked, checked log-probs.

    For M <= 2 this is each image's log-sum-exp over its grid (see
    exact_log_likelihood_grid).  For M = 3 it sums the factors of
    _chunk_terms over the pairwise factor graph instead (variable
    elimination).  With u, v, w the per-center terms and P01, P02, P12 the
    pair factors,

        log Z = base + logsumexp over (j, k) of
                u_j + v_k + P01[j, k] + log inner[j, k],
        inner[j, k] = sum over l of exp(w_l + P02[j, l] + P12[k, l]),

    where inner is one (B, B) matrix product per image of two factors
    exponentiated with each row shifted by its own max: no exp overflows,
    and corrections hundreds of nats apart do not underflow every config,
    as one shift per factor would.  Configs with a triple-covered proposal
    are left out of inner on their (j, k) lines and added with their exact
    values, so only positive terms are summed; those lines are recomputed
    LABEL_CHUNK at a time.
    """
    n, M = chunk.categories.shape
    B = chunk.num_proposals
    base, per_center, minus, bonus = _chunk_terms(chunk, log_probs)
    # The (n, B, B) tables are updated in place where the bits allow it (a + b
    # is b + a), so a chunk holds a few of them at a time.
    if M < 3:
        return _row_logsumexp(_pair_grid(base, per_center, minus.pop((0, 1), None)).reshape(n, -1))

    u, v, w = per_center.transpose(2, 0, 1)
    outer = u[:, :, None] + v[:, None, :]
    outer += minus.pop((0, 1))
    near, far = minus.pop((0, 2)), minus.pop((1, 2))
    j, k, rows = chunk.triple_configs
    l = rows % B
    if bonus.size:
        # Each triple config's bonus is summed once, with its exact value.
        exact = (outer.reshape(-1).take(j * B + k % B) + w.reshape(-1).take(rows)
                 + near.reshape(-1).take(j * B + l) + far.reshape(-1).take(k * B + l) + bonus)
        some, terms = _segment_logsumexp(exact, chunk.image_bounds)
    near += w[:, None, :]
    near_top, far_top = near.max(axis=2), far.max(axis=2)
    near -= near_top[:, :, None]
    far -= far_top[:, :, None]
    np.exp(near, out=near)
    np.exp(far, out=far)
    inner = np.matmul(near, far.transpose(0, 2, 1))
    # The (j, k) line of inner of each triple config is recomputed without it.
    near, far, flat = near.reshape(n * B, B), far.reshape(n * B, B), inner.reshape(-1)
    bounds = chunk.line_bounds
    line_j, line_k = j.take(bounds[:-1]), k.take(bounds[:-1])
    line_cells = line_j * B + line_k % B
    for s in range(0, line_cells.size, LABEL_CHUNK):
        e = min(s + LABEL_CHUNK, line_cells.size)
        kept = near.take(line_j[s:e], axis=0)
        kept *= far.take(line_k[s:e], axis=0)
        line = np.repeat(np.arange(e - s), np.diff(bounds[s:e + 1]))
        kept[line, l[bounds[s]:bounds[e]]] = 0.0
        flat.put(line_cells[s:e], kept.sum(axis=1))
    near = far = kept = None
    outer += near_top[:, :, None]
    outer += far_top[:, None, :]
    with np.errstate(divide="ignore"):
        # A line whose every config is triple-covered sums to 0.
        outer += np.log(inner, out=inner)
    del inner
    total = _row_logsumexp(outer.reshape(n, -1))
    if bonus.size:
        total[some] = np.logaddexp(total[some], terms)
    return base + total


def _stacked(chunk: PartitionChunk, log_probs: list) -> np.ndarray:
    """The chunk's (n, B, C) log-probs from one matrix per image, checked."""
    stacked = np.stack(log_probs).astype(np.float64, copy=False)
    if (stacked.shape[:2] != (len(chunk.categories), chunk.num_proposals) or stacked.ndim != 3
            or chunk.categories.max() >= stacked.shape[2]):
        raise ValueError(f"log-prob matrices of shape {stacked.shape[1:]} do not fit a "
                         f"chunk of {chunk.num_proposals} proposals and categories up to "
                         f"{chunk.categories.max()}")
    if not np.isfinite(stacked).all():
        raise ValueError("log probabilities must be finite")
    return stacked


def chunk_log_partition(chunk: PartitionChunk, log_probs: list) -> np.ndarray:
    """log P(z | x) of every image of a chunk, in chunk order.

    ``log_probs`` lists one (B, C) matrix per image.  Matrices of another
    shape, too few columns for a label, or non-finite entries raise
    ValueError.  Each value has the bits of exact_log_partition of its image.
    """
    return _chunk_log_partition(chunk, _stacked(chunk, log_probs))


def chunk_argmax(chunk: PartitionChunk, log_probs: list) -> tuple[np.ndarray, np.ndarray]:
    """The most likely config of every image of a chunk, and its log-likelihood.

    Returns (n, M) centers and (n,) values in chunk order: row a is the
    first maximum, in C order, of image a's exact_log_likelihood_grid, which
    np.argmax of that grid finds, and a zero likelihood reads as a value
    that is not finite.  The chunk's factors are built once, and one
    image's B ** M grid exists at a time.  ``log_probs`` is read and checked
    as by chunk_log_partition.
    """
    terms = _chunk_terms(chunk, _stacked(chunk, log_probs))
    n, M = chunk.categories.shape
    centers = np.empty((n, M), dtype=np.int64)
    best = np.empty(n)
    for a in range(n):
        grid = _image_grid(chunk, terms, a).reshape(-1)
        flat = int(np.argmax(grid))
        centers[a] = np.unravel_index(flat, (chunk.num_proposals,) * M)
        best[a] = grid[flat]
        del grid  # freed before the next image's grid is built
    return centers, best


def check_partition(num_proposals: int, z) -> None:
    """Raise as exact_log_partition would for label z, building nothing."""
    M = len(as_label(z))
    _check_table(num_proposals, M, num_proposals ** (2 if M == 3 else M))


def exact_log_partition(geometry: CenterGeometry, z, log_probs: np.ndarray) -> float:
    """log P(z | x): the log-sum-exp of every exact config's log-likelihood.

    ``geometry`` is the center_geometry of the image's B proposals, and
    ``log_probs`` holds one finite row per proposal.  For one category or
    more than three this is logsumexp(exact_log_likelihood_grid(...)); for
    two and three the image is a chunk of its own (_chunk_log_partition),
    which for three categories equals the grid's log-sum-exp up to float
    rounding without building it.  The largest table built has B ** 2
    entries for M = 3 and B ** M otherwise: more than OBJECTIVE_GUARD raise
    GuardError before anything is built.
    """
    label = as_label(z)
    if len(label) not in (2, 3):
        return logsumexp(exact_log_likelihood_grid(geometry, label, log_probs).reshape(-1))
    log_probs = np.asarray(log_probs, dtype=np.float64)
    check_partition(geometry.num_proposals, label)
    _check_scoring_inputs(label.categories, log_probs, geometry)
    chunk = _partition_chunk([geometry], [label.categories])
    return float(_chunk_log_partition(chunk, log_probs[None])[0])


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
    # column m of candidates lists category m's candidates, best first; the
    # template's rows are positions in those lists, in the raveled order of
    # np.meshgrid(..., indexing="ij")
    candidates = np.argsort(-log_probs[:, label.categories], axis=0, kind="stable")[:width]
    template = np.indices((width,) * M).reshape(M, -1).T
    rows = candidates[template, np.arange(M)]
    rows = rows[~_reuses_proposal(rows.T)]
    if len(rows) > k:
        score = log_probs[rows, np.array(label.categories)].sum(axis=1)
        rows = rows[np.sort(np.argsort(-score, kind="stable")[:k])]
    return LatentConfigSet(label.categories, rows)
