"""EM training of the proposal scorer from weak, strong, or mixed labels.

The objective being climbed is

    J(theta) = sum over strong images of log P(y | x; theta)
             + sum over weak images of log P(z | x; theta)

where P(y | x) factorizes over proposals and P(z | x) sums P(y | x) over the
latent center-box configs compatible with the image label z.  The E-step
turns the current scorer into per-image posteriors over configs (exact,
argmax-only, or per-category truncated); the M-step fits the scorer to the
soft proposal labels those posteriors imply.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from emdet.data import Dataset, ImageRecord, positive_categories
from emdet.geometry import boxes_to_array, iou_matrix
from emdet.latent import (
    CENTER_IOU,
    CenterGeometry,
    GuardError,
    LatentConfigSet,
    center_geometry,
    check_enumeration,
    enumerate_exact,
    exact_log_likelihood_grid,
    exact_log_partition,
    label_marginals,
    logsumexp,
    score_config_set,
    select_k,
)
from emdet.scorer import (
    OptimizerState,
    ScorerParams,
    ce_gradient,
    check_soft_labels,
    log_prob_matrix,
    sgd_step,
    weighted_ce_gradient,
)

logger = logging.getLogger(__name__)


@dataclass
class EmConfig:
    """Training configuration.

    ``mode`` picks the E-step: "exact" enumerates every config, "hard" keeps
    only the most likely one, "k_em" keeps a per-category truncation of at
    most ``k`` configs.  The learning rate is ``lr_initial`` until the global
    SGD step counter reaches ``lr_drop_step`` and ``lr_dropped`` afterwards;
    the counter runs across M-steps.  ``full_batch`` swaps the sampled SGD
    M-step for deterministic full-batch gradient descent with backtracking,
    which is what the monotonicity guarantees are stated for.
    """

    mode: str = "k_em"
    k: int = 100
    em_iterations: int = 3
    num_categories: int | None = None
    sgd_steps_per_m_step: int = 4000
    lr_initial: float = 0.01
    lr_drop_step: int = 3000
    lr_dropped: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    l2: float = 0.0
    fg_per_image: int = 16
    bg_per_image: int = 48
    seed: int = 0
    full_batch: bool = False
    full_batch_lr: float = 1.0
    record_trace: bool = True

    def __post_init__(self):
        if self.mode not in ("exact", "hard", "k_em"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.num_categories is not None and self.num_categories < 2:
            raise ValueError(f"num_categories must be >= 2 or None, got {self.num_categories}")
        if self.em_iterations < 0:
            raise ValueError("em_iterations must be >= 0")
        if self.sgd_steps_per_m_step < 0:
            raise ValueError("sgd_steps_per_m_step must be >= 0")
        for name in ("fg_per_image", "bg_per_image"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fg_per_image + self.bg_per_image < 1:
            raise ValueError("mini-batches need at least one proposal per image")


@dataclass
class PosteriorTable:
    """Posterior weights over one weak image's config set; weights sum to 1."""

    image_id: str
    config_set: LatentConfigSet
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.config_set),):
            raise ValueError(
                f"{self.weights.shape} weights for {len(self.config_set)} configs")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise ValueError("posterior weights must be finite and non-negative")
        if not abs(self.weights.sum() - 1.0) <= 1e-9:
            raise ValueError(f"posterior weights sum to {self.weights.sum()}, not 1")


@dataclass
class SoftLabels:
    """Per-proposal category distribution implied by a posterior, (B, C)."""

    image_id: str
    q: np.ndarray


@dataclass(frozen=True)
class ObjectiveValue:
    strong_term: float
    weak_term: float

    @property
    def total(self) -> float:
        return self.strong_term + self.weak_term


@dataclass
class EmResult:
    params: ScorerParams
    trace: list[ObjectiveValue]


def infer_num_categories(dataset: Dataset) -> int:
    """Categories including background, from the largest annotated id."""
    return dataset.max_category() + 1


def strong_label_vector(record: ImageRecord, num_categories: int) -> np.ndarray:
    """Hard per-proposal labels for a strong image.

    A proposal takes the category of its highest-IoU ground-truth box when
    that IoU reaches CENTER_IOU, ties going to the earlier box in the
    annotation; everything else is background.
    """
    if record.is_weak:
        raise ValueError(f"image {record.image_id} has no ground truth")
    labels = np.zeros(record.num_proposals, dtype=np.int64)
    objects = record.annotation.objects
    if objects:
        cats = np.array([g.category for g in objects], dtype=np.int64)
        if cats.max() >= num_categories:
            raise ValueError(
                f"image {record.image_id} has category {cats.max()} but the scorer "
                f"only covers {num_categories} categories")
        overlap = iou_matrix(record.proposals, boxes_to_array([g.box for g in objects]))
        best = overlap.argmax(axis=1)
        best_iou = overlap[np.arange(len(labels)), best]
        labels = np.where(best_iou >= CENTER_IOU, cats[best], 0)
    return labels


def _weak_label(record: ImageRecord):
    if not record.is_weak:
        raise ValueError(f"image {record.image_id} is strongly annotated")
    return record.annotation.label


@contextlib.contextmanager
def _naming(record: ImageRecord):
    """Prefix the image id to a GuardError raised inside the block."""
    try:
        yield
    except GuardError as err:
        raise GuardError(f"image {record.image_id}: {err}") from None


def _normalized(values: np.ndarray) -> np.ndarray:
    total = logsumexp(values)
    if not np.isfinite(total):
        raise ValueError("cannot normalize a zero-likelihood config set")
    return np.exp(values - total)


def e_step(record: ImageRecord, log_probs: np.ndarray, config: EmConfig,
           geometry: CenterGeometry) -> PosteriorTable:
    """Posterior over latent configs for one weak image under the scorer.

    ``log_probs`` is the scorer's log_prob_matrix of the record's features,
    ``geometry`` the center_geometry of its proposals; the caller builds both.

    "exact" weighs enumerate_exact's rows by their entries of the exact
    grid.  In "hard" mode the one config kept is the argmax of that grid;
    scorer likelihoods are no product of per-center terms, so the truncation
    of e_step_from_scores does not apply.
    Configs that label every proposal alike (a center absorbed by another
    center's neighborhood, or duplicate proposals) have equal likelihoods,
    but the grid's factor sums can differ in the last bits between them,
    so such ties go by rounding, not by index order.  The labels, and so
    training, do not depend on which tied config is kept.
    """
    label = _weak_label(record)
    if max(label.categories) >= log_probs.shape[1]:
        raise ValueError(
            f"image {record.image_id} mentions category {max(label.categories)} but "
            f"the scorer only covers {log_probs.shape[1]} categories")

    if config.mode == "k_em":
        config_set = select_k(record.proposals, label, log_probs, config.k)
        values = score_config_set(config_set, log_probs, geometry)
        return PosteriorTable(record.image_id, config_set, _normalized(values))

    grid = exact_log_likelihood_grid(geometry, label, log_probs)
    if config.mode == "hard":
        flat = int(np.argmax(grid))
        if not np.isfinite(grid.flat[flat]):
            raise ValueError(
                f"image {record.image_id} has zero likelihood under the scorer")
        centers = np.array(np.unravel_index(flat, grid.shape)).reshape(1, -1)
        config_set = LatentConfigSet(label.categories, centers)
        return PosteriorTable(record.image_id, config_set, np.array([1.0]))

    config_set = enumerate_exact(record.proposals, label)
    values = grid[tuple(config_set.centers.T)]
    return PosteriorTable(record.image_id, config_set, _normalized(values))


def e_step_from_scores(record: ImageRecord, scores: np.ndarray,
                       config: EmConfig) -> PosteriorTable:
    """First-round posterior built from external per-proposal scores.

    Config weights are proportional to the product of each center's score
    for its category; a zero-mass set falls back to uniform weights.  "hard"
    keeps the lexicographically smallest config of largest product, which
    lies among each category's M best-ranked proposals (select_k at
    k = M ** M): a center outside them leaves one of them unused, and
    swapping that one in scores at least as much, with a lower index on a
    tie.  (Unequal scores whose products round equal may break a tie toward
    a later config.)  With zero mass all tie, and (0, 1, ..., M - 1) is kept.
    """
    label = _weak_label(record)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != record.num_proposals:
        raise ValueError(
            f"image {record.image_id}: score shape {scores.shape} does not cover "
            f"{record.num_proposals} proposals")
    if max(label.categories) > scores.shape[1]:
        raise ValueError(
            f"image {record.image_id}: scores cover {scores.shape[1]} foreground "
            f"categories but the label mentions {max(label.categories)}")
    if not np.all(np.isfinite(scores)) or np.any(scores < 0):
        raise ValueError(
            f"image {record.image_id}: init scores must be finite and non-negative")

    if config.mode != "k_em":
        with _naming(record):
            check_enumeration(record.num_proposals, label)
    if config.mode == "exact":
        config_set = enumerate_exact(record.proposals, label)
    else:
        k = config.k if config.mode == "k_em" else len(label) ** len(label)
        config_set = select_k(record.proposals, label, _score_log_columns(scores), k)
    # Each label column is scaled by the power of two that puts its top in [0.5, 1):
    # exact, so ratios and ties keep their bits, and no scale over- or underflows a product.
    columns = scores[:, np.array(label.categories) - 1]
    scaled = np.ldexp(columns, -np.frexp(columns.max(axis=0))[1])
    mass = np.prod(scaled[config_set.centers, np.arange(len(label))], axis=1)
    total = mass.sum()
    if total <= 0.0:
        logger.warning("image %s: init scores give zero mass; using uniform weights",
                       record.image_id)
    if config.mode == "hard":
        if total <= 0.0:
            best = tuple(range(len(label)))
        else:
            best = min(map(tuple, config_set.centers[mass == mass.max()].tolist()))
        config_set = LatentConfigSet(label.categories, np.array([best]))
        return PosteriorTable(record.image_id, config_set, np.array([1.0]))
    weights = mass / total if total > 0.0 else np.full(len(config_set), 1.0 / len(config_set))
    return PosteriorTable(record.image_id, config_set, weights)


def _score_log_columns(scores: np.ndarray) -> np.ndarray:
    """Prepend a background column so score matrices rank like log-prob ones."""
    with np.errstate(divide="ignore"):
        logs = np.log(scores)
    return np.concatenate([np.full((scores.shape[0], 1), -np.inf), logs], axis=1)


def soft_labels(post: PosteriorTable, record: ImageRecord, num_categories: int,
                geometry: CenterGeometry) -> SoftLabels:
    """Marginal per-proposal label distribution under a config posterior.

    ``geometry`` is the center coverage of the record's proposals.  A
    posterior of another image, one whose centers lie past the record's
    proposals, or a coverage of another proposal count is rejected.
    """
    if post.image_id != record.image_id:
        raise ValueError(f"posterior of image {post.image_id} passed with image "
                         f"{record.image_id}")
    if geometry.num_proposals != record.num_proposals:
        raise ValueError(f"geometry covers {geometry.num_proposals} proposals, not the "
                         f"{record.num_proposals} of image {record.image_id}")
    top = max(post.config_set.categories)
    if top >= num_categories:
        raise ValueError(
            f"posterior mentions category {top} but only "
            f"{num_categories} categories exist")
    q = label_marginals(post.config_set, post.weights, geometry, num_categories)
    return SoftLabels(record.image_id, q)


def objective(dataset: Dataset, log_probs: dict[str, np.ndarray],
              geometries: dict[str, CenterGeometry],
              strong_vectors: dict[str, np.ndarray]) -> ObjectiveValue:
    """The true mixed-supervision log-likelihood J at the given scorer.

    Weak terms are always exact: exact_log_partition sums every config, for
    three categories without building the B ** 3 grid.  The objective has no
    truncated form, so an image past that function's config guard raises a
    GuardError that names the image.  ``log_probs``, ``geometries`` and
    ``strong_vectors`` map image ids to their log_prob_matrix, weak center
    coverage and strong_label_vector; the caller builds all three.
    """
    strong_term = 0.0
    weak_term = 0.0
    for record in dataset:
        values = log_probs[record.image_id]
        if record.is_weak:
            with _naming(record):
                weak_term += exact_log_partition(geometries[record.image_id],
                                                 _weak_label(record), values)
        else:
            labels = strong_vectors[record.image_id]
            strong_term += float(values[np.arange(len(labels)), labels].sum())
    return ObjectiveValue(strong_term, weak_term)


def surrogate_value(dataset: Dataset, posteriors: dict[str, PosteriorTable],
                    params: ScorerParams) -> float:
    """The EM minorant Q~(theta; theta') for posteriors computed at theta'.

    Strong images contribute their exact log-likelihood; weak images the
    posterior-weighted expected config log-likelihood, evaluated through the
    per-proposal soft labels (the two forms are equal by linearity).
    """
    total = 0.0
    for record in dataset:
        log_probs = log_prob_matrix(params, record.features)
        if record.is_weak:
            q = soft_labels(posteriors[record.image_id], record, params.num_categories,
                            center_geometry(record.proposals)).q
            total += float((q * log_probs).sum())
        else:
            labels = strong_label_vector(record, params.num_categories)
            total += float(log_probs[np.arange(len(labels)), labels].sum())
    return total


def learning_rate(config: EmConfig, step: int) -> float:
    return config.lr_initial if step < config.lr_drop_step else config.lr_dropped


def _draw_plan(fg_size: int, bg_size: int, config: EmConfig) -> tuple:
    """The generator calls of one mini-batch, as ``(low, high, size, replace)``
    over positions in an image's row order (foreground-eligible rows first).

    A mini-batch draws the foreground quota, the background quota, then both
    again.  A quota is drawn with replacement only when its pool is shorter
    than it; an empty pool or a zero quota draws nothing.  A draw without
    replacement is ``low + rng.choice(high - low, size, replace=False)``,
    one with replacement ``rng.integers(low, high, size)``: the rows and
    generator state of ``rng.choice`` on the pool itself.  The plan depends
    on the pool sizes only.
    """
    quotas = ((0, fg_size, config.fg_per_image), (fg_size, bg_size, config.bg_per_image))
    return tuple((start, start + size, count, size < count)
                 for start, size, count in quotas * 2 if size and count)


def _batch_rows(rng: np.random.Generator, order: np.ndarray, plan: tuple) -> np.ndarray:
    """One mini-batch of rows: the calls of a _draw_plan in order, then one
    gather from the row order."""
    positions = [rng.integers(low, high, size) if replace
                 else low + rng.choice(high - low, size, replace=False)
                 for low, high, size, replace in plan]
    return order.take(np.concatenate(positions))


# Cells one chunk of pre-drawn M-step steps may fill: each step takes a cell
# per generator word and per row, and one per four seen flags of its
# without-replacement draws.  Bounds the row table's memory, as LABEL_CHUNK
# bounds the labelling kernel's.
DRAW_CHUNK = 1 << 16


class _RowTable(NamedTuple):
    """Every image's _draw_plan as word records, for drawing many steps at once.

    A record is one draw: ``(first row, first word, low, pool, quota,
    without replacement)``, its row and word offsets within the step;
    ``records`` pads each image's records with quota 0.  ``words`` is None
    for an image whose plan the table does not reproduce.
    """

    words: list      # per image: generator words of one mini-batch, or None
    cells: list      # per image: DRAW_CHUNK cells of one step, pick word included
    rows: np.ndarray  # per image: rows of one mini-batch
    records: np.ndarray  # (images, most records per plan, 6) int64
    fetch: int       # words that fill DRAW_CHUNK cells with the most word-heavy plan
    keys: list       # the (quota, without replacement) pairs of the records


def _plan_records(plan: tuple):
    """One _draw_plan as word records, with the words, rows and seen flags of a
    step; None when a call leaves Floyd's algorithm.

    A with-replacement draw takes one word per row, none from a one-row pool.
    ``rng.choice(n, k, replace=False)`` takes Floyd's words for
    j = n - k, ..., n - 1 (none for j = 0, a pool exactly its quota), then
    k - 1 Fisher-Yates words; with n > 10,000 and k > n // 50 it shuffles a
    tail instead, which the table does not reproduce.
    """
    records = []
    row = word = seen = 0
    for low, high, count, replace in plan:
        pool = high - low
        if replace:
            words = count if pool > 1 else 0
        elif pool > 10_000 and count > pool // 50:
            return None
        else:
            words = 2 * count - 1 - (pool == count)
            seen += pool
        records.append((row, word, low, pool, count, not replace))
        row += count
        word += words
    return records, word, row, seen


def _row_table(plans: list) -> _RowTable:
    """The row table of per-image _draw_plans; images sharing a plan object
    share its records."""
    compiled = {}
    for plan in plans:
        if id(plan) not in compiled:
            compiled[id(plan)] = _plan_records(plan)
    per_image = [compiled[id(plan)] for plan in plans]
    kept = [c for c in per_image if c is not None]
    pick = int(len(plans) > 1)
    records = np.zeros((len(plans), max([len(c[0]) for c in kept] + [1]), 6), dtype=np.int64)
    words, cells, rows = [], [], []
    for image, compiled_plan in enumerate(per_image):
        if compiled_plan is None:
            words.append(None)
            cells.append(None)
            rows.append(0)
            continue
        plan_records, plan_words, plan_rows, seen = compiled_plan
        if plan_records:
            records[image, :len(plan_records)] = plan_records
        words.append(plan_words)
        cells.append(pick + plan_words + plan_rows + seen // 4)
        rows.append(plan_rows)
    return _RowTable(words, cells, np.array(rows, dtype=np.int64), records,
                     fetch=max([DRAW_CHUNK * (pick + w) // c + 1
                                for w, c in zip(words, cells) if c] + [1]),
                     keys=sorted({(r[4], r[5]) for c in kept for r in c[0]}))


def _lemire(words: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw from 32-bit words: ``(word * bound) >> 32`` in
    [0, bound), and whether each word is one it rejects and draws again for
    (Lemire 2019).  A bound of 1 takes no word; any word gives 0 unrejected."""
    bounds = np.asarray(bounds, dtype=np.int64).view(np.uint64)  # bounds are positive
    product = words * bounds
    # The rejection threshold (2 ** 32 - bound) % bound lies below the bound,
    # so it is computed only where the low half does (rarely).
    rejected = (product & 0xFFFFFFFF) < bounds
    if rejected.any():
        bounds = np.broadcast_to(bounds, product.shape)[rejected]
        rejected[rejected] = (product[rejected] & 0xFFFFFFFF) < (2 ** 32 - bounds) % bounds
    product >>= 32
    return product.view(np.int64), rejected


def _with_replacement(words, first, pools, quota):
    """``rng.integers(pool, size=quota)`` per record, as (quota, records), and
    whether a record's words hold a rejected one."""
    values, rejected = _lemire(words.take(first + np.arange(quota)[:, None], mode="clip"),
                               pools)
    return values, rejected.any(axis=0)


def _without_replacement(words, first, pools, quota):
    """``rng.choice(pool, quota, replace=False)`` per record, as (quota,
    records), and whether a record's words hold a rejected one.

    Floyd's picks are deduplicated against per-record seen flags, then
    shuffled by Fisher-Yates, each one quota position at a time across all
    records."""
    position = np.arange(quota)[:, None]
    skip = (pools == quota).astype(np.int64)  # Floyd's bound j + 1 = 1 takes no word
    top = pools - quota + position  # Floyd's j at each position
    picks, rejected = _lemire(words.take(first - skip + position, mode="clip"), top + 1)
    base = np.cumsum(pools) - pools  # each record's run of seen flags
    picks += base
    top += base
    seen = np.zeros(int(pools.sum()), dtype=bool)
    for pick, j in zip(picks, top):
        np.copyto(pick, j, where=seen[pick])
        seen[pick] = True
    picks -= base
    # Fisher-Yates swaps position i with one drawn below i + 1, for i = quota - 1, ..., 1.
    swaps, late = _lemire(words.take(first + quota - skip + position[:-1], mode="clip"),
                          quota - position[:-1])
    swaps *= len(pools)
    swaps += np.arange(len(pools))
    flat = picks.reshape(-1)
    for i, at in zip(range(quota - 1, 0, -1), swaps):
        held = flat[at]
        flat[at] = picks[i]
        picks[i] = held
    return picks, rejected.any(axis=0) | late.any(axis=0)


def _draw_rows(words: np.ndarray, table: _RowTable, steps: int) -> tuple:
    """Image picks and mini-batch rows of up to ``steps`` M-step steps, read
    from a generator's 32-bit words as the per-step draws would take them.

    Each step is one pick ``rng.integers(len(images))`` (no word for one
    image) and the draws of the picked image's plan; a plan's word count is
    fixed, so one scan over the picks places every step's words.  Returns
    ``(picks, positions, ends, used, stuck)``: step s of ``picks`` takes
    positions ``positions[ends[s - 1]:ends[s]]`` in its image's row order;
    ``used`` counts the words those steps take.  Drawing stops at
    ``steps``, at DRAW_CHUNK cells, at the end of ``words``, or before a step
    the table does not reproduce: a rejected word, a plan it leaves to
    _batch_rows, or one step past DRAW_CHUNK by itself.  In those last cases
    ``stuck`` is true and that step is the caller's to draw.
    """
    images = len(table.words)
    pick = int(images > 1)
    threshold = (2 ** 32 - images) % images
    stream = memoryview(words)  # Python ints at scalar speed
    picks, starts = [], []
    pos = filled = 0
    stuck = False
    while len(picks) < steps and pos + pick <= len(stream):
        image = 0
        if pick:
            product = stream[pos] * images
            if (product & 0xFFFFFFFF) < threshold:
                stuck = True
                break
            image = product >> 32
        need = table.words[image]
        if need is None:
            stuck = True
            break
        if pos + pick + need > len(stream) or filled + table.cells[image] > DRAW_CHUNK:
            break
        picks.append(image)
        starts.append(pos + pick)
        pos += pick + need
        filled += table.cells[image]
    picks, starts = np.array(picks, dtype=np.int64), np.array(starts, dtype=np.int64)
    if not picks.size:
        return picks, np.empty(0, dtype=np.int32), picks, 0, True
    sizes = table.rows[picks]
    ends = np.cumsum(sizes)
    positions = np.empty(int(ends[-1]), dtype=np.int32)
    step = np.repeat(np.arange(picks.size), table.records.shape[1])
    records = table.records[picks].reshape(-1, 6)
    live = records[:, 4] > 0
    step, records = step[live], records[live]
    first_row = records[:, 0] + (ends - sizes)[step]
    first_word = records[:, 1] + starts[step]
    bad = picks.size  # the first step holding a rejected word
    for quota, choice in table.keys:
        group = np.flatnonzero((records[:, 4] == quota) & (records[:, 5] == choice))
        if not group.size:
            continue
        draw = _without_replacement if choice else _with_replacement
        values, rejected = draw(words, first_word[group], records[group, 3], quota)
        positions[first_row[group] + np.arange(quota)[:, None]] = records[group, 2] + values
        if rejected.any():
            bad = min(bad, int(step[group][rejected].min()))
    if bad < picks.size:
        return picks[:bad], positions, ends[:bad], int(starts[bad]) - pick, True
    return picks, positions, ends, pos, stuck


def _next_words(bit_generator: np.random.PCG64, count: int) -> tuple[np.ndarray, dict]:
    """The generator's next ``count`` or more 32-bit words, and the state they
    start from.  PCG64 hands out each 64-bit output low half first, and a
    buffered high half (``has_uint32``) comes before them."""
    state = bit_generator.state
    buffered = state["has_uint32"]
    raw = bit_generator.random_raw(max(count - buffered + 1, 2) // 2)
    halves = raw.astype("<u8", copy=False).view("<u4").astype(np.uint32, copy=False)
    if not buffered:
        return halves, state
    return np.concatenate([np.array([state["uinteger"]], dtype=np.uint32), halves]), state


def _skip_words(bit_generator: np.random.PCG64, state: dict, words: np.ndarray,
                used: int) -> None:
    """Leave the generator where its 32-bit draws from ``state`` leave it after
    taking the first ``used`` of ``words``, buffered half and all."""
    bit_generator.state = state
    fresh = used - state["has_uint32"]
    if fresh > 0:
        outputs = (fresh + 1) // 2
        bit_generator.advance(outputs)
        bit_generator.state = {**bit_generator.state, "has_uint32": fresh % 2,
                               "uinteger": int(words[used - fresh + 2 * outputs - 1])}
    elif used:  # the buffered half only
        bit_generator.state = {**state, "has_uint32": 0}


def _minibatches(rng: np.random.Generator, images: list, steps: int):
    """Yield each step's _sgd_image inputs and mini-batch rows.

    The rows are those of a per-step loop that picks ``rng.integers(len(images))``
    and draws _batch_rows, and the generator ends in the same state.  With a
    PCG64 generator they are pre-drawn a chunk of steps at a time
    (_draw_rows), which the pools allow because they are fixed within an
    M-step; a step the table does not reproduce goes through _batch_rows.
    """
    bit_generator = rng.bit_generator
    table = (_row_table([plan for *_, plan in images])
             if images and type(bit_generator) is np.random.PCG64 else None)
    done = 0
    while done < steps:
        stuck = True
        if table is not None:
            words, state = _next_words(bit_generator, table.fetch)
            picks, positions, ends, used, stuck = _draw_rows(words, table, steps - done)
            _skip_words(bit_generator, state, words, used)
            start = 0
            for image, end in zip(picks.tolist(), ends.tolist()):
                inputs = images[image]
                yield inputs, inputs[2].take(positions[start:end])
                start = end
            done += picks.size
        if stuck and done < steps:
            inputs = images[int(rng.integers(len(images)))]
            plan = inputs[-1]
            yield inputs, _batch_rows(rng, inputs[2], plan) if plan else inputs[2][:0]
            done += 1


def _sgd_image(record: ImageRecord, q: np.ndarray, params: ScorerParams,
               config: EmConfig, plans: dict) -> tuple:
    """One image's M-step inputs: features, checked soft labels, the row order
    (foreground-eligible rows, argmax not background, first), the foreground
    row count, and the _draw_plan, shared through ``plans`` by pool sizes."""
    q = np.asarray(q, dtype=np.float64)
    check_soft_labels(q, record.num_proposals, params.num_categories)
    fg = q.argmax(axis=1) != 0
    fg_rows = np.flatnonzero(fg)
    order = np.concatenate([fg_rows, np.flatnonzero(~fg)])
    sizes = (fg_rows.size, order.size - fg_rows.size)
    if sizes not in plans:
        plans[sizes] = _draw_plan(*sizes, config)
    return record.features, q, order, fg_rows.size, plans[sizes]


def m_step(dataset: Dataset, labels: dict[str, np.ndarray], params: ScorerParams,
           state: OptimizerState, config: EmConfig, rng: np.random.Generator,
           start_step: int = 0) -> int:
    """Sampled SGD M-step; returns the global step counter after the run.

    Each mini-batch takes one uniformly chosen image and samples its
    foreground and background quotas twice (_draw_plan), so one step sees
    two independent draws of the same image's proposals.  The gradient is
    the per-sample mean, keeping the learning-rate scale independent of
    batch size.  Soft labels are checked once per image up front, with the
    checks of weighted_ce_gradient.  An image with nothing to draw still
    takes its pick but makes no step.  The picks and rows of a chunk of
    steps are pre-drawn before its first gradient (_minibatches); they are
    the same as drawing them step by step, and so is the generator state.
    """
    records = dataset.records
    plans: dict[tuple[int, int], tuple] = {}
    images = [_sgd_image(r, labels[r.image_id], params, config, plans) for r in records]
    background_only = sum(fg_size == 0 for *_, fg_size, _ in images)
    if background_only and config.fg_per_image > 0:
        logger.info("%d of %d images have no foreground-eligible proposals "
                    "and contribute background samples only",
                    background_only, len(records))
    # Mini-batch rows are gathered into one reused buffer whose last column
    # stays 1, the bias input; per-image augmented copies would raise peak memory.
    batch = np.ones((2 * (config.fg_per_image + config.bg_per_image), params.feature_dim + 1))
    steps = _minibatches(rng, images, config.sgd_steps_per_m_step)
    for n, ((features, q, *_), rows) in enumerate(steps):
        state.learning_rate = learning_rate(config, start_step + n)
        if not rows.size:
            continue
        augmented = batch[:rows.size]
        augmented[:, :-1] = features.take(rows, axis=0)
        _, grad = ce_gradient(params, augmented, q.take(rows, axis=0), config.l2)
        grad /= rows.size
        sgd_step(params, state, grad)
    return start_step + config.sgd_steps_per_m_step


def full_batch_gradient_descent(params: ScorerParams, features: np.ndarray,
                                soft: np.ndarray, steps: int, lr: float,
                                l2: float = 0.0) -> float:
    """Gradient descent on the weighted CE loss; returns the final loss.

    The step size halves until the loss strictly decreases, so the loss
    never goes up.
    """
    loss, grad = weighted_ce_gradient(params, features, soft, l2)
    for _ in range(steps):
        accepted = False
        for _ in range(60):
            candidate = ScorerParams(params.weights - lr * grad)
            new_loss, new_grad = weighted_ce_gradient(candidate, features, soft, l2)
            if new_loss < loss:
                params.weights[:] = candidate.weights
                loss, grad = new_loss, new_grad
                lr = min(lr * 2.0, 1e6)
                accepted = True
                break
            lr /= 2.0
        if not accepted:
            break
    return loss


def full_batch_m_step(dataset: Dataset, labels: dict[str, np.ndarray],
                      params: ScorerParams, config: EmConfig) -> None:
    """Deterministic M-step over every proposal of every image."""
    features = np.concatenate([r.features for r in dataset], axis=0)
    soft = np.concatenate([labels[r.image_id] for r in dataset], axis=0)
    full_batch_gradient_descent(params, features, soft,
                                config.sgd_steps_per_m_step,
                                config.full_batch_lr, config.l2)


def run_em(dataset: Dataset, config: EmConfig,
           init_params: ScorerParams | None = None,
           init_scores: dict[str, np.ndarray] | None = None) -> EmResult:
    """Alternate E- and M-steps for config.em_iterations rounds.

    Initialization is either explicit scorer parameters, external init
    scores that seed the first posteriors (parameters start at zero), or
    nothing (zero parameters, so the first posteriors are uniform over the
    enumerated sets).  The trace holds the objective at initialization and
    after every M-step.  Each of the em_iterations + 1 passes runs an M-step
    (but the first), scores once every image that the trace or a following
    E-step reads, and turns each posterior into soft labels at once.

    Each weak image's center coverage is built once per run, after the
    exact and hard enumeration guards have passed, and read by every E-step,
    soft-label pass and objective of the run; so is each strong image's
    label vector.  Nothing outlives the run.
    """
    if init_params is not None and init_scores is not None:
        raise ValueError("pass at most one of init_params and init_scores")
    num_categories = config.num_categories or infer_num_categories(dataset)
    top = max((c for r in dataset for c in positive_categories(r)), default=0)
    if top >= num_categories:
        raise ValueError(f"config covers {num_categories} categories, dataset needs {top + 1}")
    if init_params is not None:
        if init_params.feature_dim != dataset.feature_dim:
            raise ValueError(
                f"checkpoint expects {init_params.feature_dim}-dim features, "
                f"dataset provides {dataset.feature_dim}")
        if init_params.num_categories < num_categories:
            raise ValueError(
                f"checkpoint covers {init_params.num_categories} categories, "
                f"dataset needs {num_categories}")
        params = init_params.copy()
    else:
        params = ScorerParams.zeros(num_categories, dataset.feature_dim)

    weak_records = [r for r in dataset if r.is_weak]
    for record in (weak_records if init_scores is not None else ()):
        if record.image_id not in init_scores:
            raise ValueError(f"no init scores for image {record.image_id}")
    strong_vectors = {r.image_id: strong_label_vector(r, params.num_categories)
                      for r in dataset if not r.is_weak}
    if config.mode != "k_em":
        # Fail before the B x B IoU matrices below are built.
        for record in weak_records:
            with _naming(record):
                check_enumeration(record.num_proposals, _weak_label(record))
    geometries = {r.image_id: center_geometry(r.proposals) for r in weak_records}

    labels = {image_id: np.eye(params.num_categories)[vector]
              for image_id, vector in strong_vectors.items()}
    trace: list[ObjectiveValue] = []
    state = OptimizerState.for_params(params, config.lr_initial,
                                      config.momentum, config.weight_decay)
    rng = np.random.default_rng(config.seed)
    step = 0
    for it in range(config.em_iterations + 1):
        if it and config.full_batch:
            full_batch_m_step(dataset, labels, params, config)
        elif it:
            step = m_step(dataset, labels, params, state, config, rng, step)
        last = it == config.em_iterations
        from_scores = it == 0 and init_scores is not None
        log_probs = {r.image_id: log_prob_matrix(params, r.features) for r in dataset
                     if config.record_trace or (r.is_weak and not (last or from_scores))}
        if config.record_trace:
            trace.append(objective(dataset, log_probs, geometries, strong_vectors))
        if last:
            break
        for record in weak_records:
            image, geometry = record.image_id, geometries[record.image_id]
            post = (e_step_from_scores(record, init_scores[image], config) if from_scores
                    else e_step(record, log_probs[image], config, geometry))
            labels[image] = soft_labels(post, record, params.num_categories, geometry).q
    return EmResult(params, trace)
