"""EM training of the proposal scorer from weak, strong, or mixed labels.

The objective being climbed is

    J(theta) = sum over strong images of log P(y | x; theta)
             + sum over weak images of log P(z | x; theta)

where P(y | x) factorizes over proposals and P(z | x) sums P(y | x) over the
latent center-box configs compatible with the image label z.  The E-step
turns the current scorer into per-image posteriors over configs (exact,
argmax-only, or per-category truncated); the M-step fits the scorer to the
soft proposal labels those posteriors imply.

A run that records the objective trace, or takes hard E-steps, plans it
once (objective_plan): the weak images with two or three categories fall
into chunks of one proposal count and label size, whose index work latent
stacks once for the whole run from the co-coverage plans of each image's
coverage (which the exact E-step's grids read too).  Each trace point
evaluates a chunk's exact terms in one set of batched passes, then adds
every image's term in record order, and each hard E-step pass takes every
image's most likely config from the same chunks' terms (_hard_e_steps).
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from emdet.data import Dataset, ImageRecord, positive_categories
from emdet.geometry import iou_matrix
from emdet.latent import (
    CENTER_IOU,
    CenterGeometry,
    GuardError,
    LatentConfigSet,
    center_geometry,
    check_enumeration,
    check_partition,
    chunk_argmax,
    chunk_log_partition,
    enumerate_exact,
    exact_log_likelihood_grid,
    exact_log_partition,
    label_marginals,
    logsumexp,
    partition_chunks,
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
        for name in ("fg_per_image", "bg_per_image", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fg_per_image + self.bg_per_image < 1:
            raise ValueError("mini-batches need at least one proposal per image")
        for name in ("lr_initial", "lr_dropped", "momentum", "weight_decay", "l2",
                     "full_batch_lr"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
    cats = record.annotation.categories
    if cats.max(initial=0) >= num_categories:
        raise ValueError(f"image {record.image_id} has category {cats.max()} but the scorer "
                         f"only covers {num_categories} categories")
    if not len(cats):
        return np.zeros(record.num_proposals, dtype=np.int64)
    overlap = iou_matrix(record.proposals, record.annotation.boxes)
    return np.where(overlap.max(axis=1) >= CENTER_IOU, cats[overlap.argmax(axis=1)], 0)


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
    This is the per-image form: run_em takes the hard E-step of the images
    its plan holds a chunk at a time (_hard_e_steps), to the same config.

    "exact" weighs enumerate_exact's rows by their entries of the exact
    grid.  In "hard" mode the one config kept is the first argmax of that
    grid; scorer likelihoods are no product of per-center terms, so the
    truncation of e_step_from_scores does not apply.
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
        return _hard_posterior(record, np.unravel_index(flat, grid.shape), grid.flat[flat])

    config_set = enumerate_exact(record.proposals, label)
    values = grid[tuple(config_set.centers.T)]
    return PosteriorTable(record.image_id, config_set, _normalized(values))


def _hard_posterior(record: ImageRecord, centers, value: float) -> PosteriorTable:
    """The one config a hard E-step keeps, of log-likelihood ``value``; a value
    that is not finite means the image has zero likelihood."""
    if not np.isfinite(value):
        raise ValueError(f"image {record.image_id} has zero likelihood under the scorer")
    config_set = LatentConfigSet(_weak_label(record).categories, np.reshape(centers, (1, -1)))
    return PosteriorTable(record.image_id, config_set, np.array([1.0]))


def _hard_e_steps(weak: list[ImageRecord], log_probs: dict[str, np.ndarray], config: EmConfig,
                 geometries: dict[str, CenterGeometry], plan: list):
    """Yield the hard-mode e_step of every weak image, in record order.

    ``plan`` is objective_plan of the same weak images and geometries.  Its
    images take their configs a chunk at a time (latent.chunk_argmax), each
    the one its own e_step keeps; the others, of one category or of more
    than three, call e_step.  Faulty scores or a zero likelihood raise what
    the first such image in record order raises alone.
    """
    found: dict[int, tuple] = {}
    try:
        for positions, chunk in plan:
            centers, best = chunk_argmax(chunk, [log_probs[weak[p].image_id] for p in positions])
            found.update(zip(positions, zip(centers, best.tolist())))
    except ValueError:
        # Some image's scores are at fault: raise what the first of them in
        # record order raises alone, whichever chunk met one first.
        for record in weak:
            e_step(record, log_probs[record.image_id], config, geometries[record.image_id])
        raise
    for position, record in enumerate(weak):
        image = record.image_id
        yield (_hard_posterior(record, *found[position]) if position in found
               else e_step(record, log_probs[image], config, geometries[image]))


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
                geometry: CenterGeometry) -> np.ndarray:
    """Marginal per-proposal label distribution under a config posterior, (B, C).

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
    return label_marginals(post.config_set, post.weights, geometry, num_categories)


def objective_plan(dataset: Dataset, geometries: dict[str, CenterGeometry]) -> list:
    """The partition chunks of the dataset's weak images, for objective.

    Images with two or three categories are grouped by proposal count and
    label size into latent.partition_chunks, each a (positions, chunk) pair
    whose positions count weak images in record order.  Every image is first
    checked against the partition's config guard in record order, so a
    GuardError names the first image past it.  ``geometries`` maps weak image
    ids to their center coverage.
    """
    weak = [r for r in dataset if r.is_weak]
    for record in weak:
        with _naming(record):
            check_partition(record.num_proposals, _weak_label(record))
    return partition_chunks([geometries[r.image_id] for r in weak],
                            [_weak_label(r) for r in weak])


def _weak_terms(weak: list[ImageRecord], log_probs: dict[str, np.ndarray],
                geometries: dict[str, CenterGeometry], plan: list) -> list[float]:
    """exact_log_partition of every weak image, chunk by chunk where the plan has one."""
    terms: dict[int, float] = {}
    for positions, chunk in plan:
        values = chunk_log_partition(chunk, [log_probs[weak[p].image_id] for p in positions])
        terms.update(zip(positions, values.tolist()))
    return [terms[p] if p in terms else
            exact_log_partition(geometries[r.image_id], _weak_label(r), log_probs[r.image_id])
            for p, r in enumerate(weak)]


def objective(dataset: Dataset, log_probs: dict[str, np.ndarray],
              geometries: dict[str, CenterGeometry],
              strong_vectors: dict[str, np.ndarray], plan: list | None = None) -> ObjectiveValue:
    """The true mixed-supervision log-likelihood J at the given scorer.

    Weak terms are always exact.  The weak images with two or three
    categories are evaluated a chunk at a time (``plan``, from
    objective_plan of the same dataset and geometries, or built here), each
    image to the bits of its own exact_log_partition; the others call
    exact_log_partition one by one.  The terms are then added in record
    order.  The objective has no truncated form, so an image past the
    partition's config guard raises a GuardError that names the image, and
    faulty scores raise what the first faulty image in record order raises
    alone.  ``log_probs``, ``geometries`` and ``strong_vectors`` map image
    ids to their log_prob_matrix, weak center coverage and
    strong_label_vector; the caller builds all three.
    """
    weak = [r for r in dataset if r.is_weak]
    if plan is None:
        plan = objective_plan(dataset, geometries)
    try:
        terms = iter(_weak_terms(weak, log_probs, geometries, plan))
    except ValueError:
        # Some image's scores are at fault: raise what the first of them in
        # record order raises alone, whichever chunk met one first.
        for record in weak:
            exact_log_partition(geometries[record.image_id], _weak_label(record),
                                log_probs[record.image_id])
        raise
    strong_term = 0.0
    weak_term = 0.0
    for record in dataset:
        if record.is_weak:
            weak_term += next(terms)
        else:
            labels = strong_vectors[record.image_id]
            values = log_probs[record.image_id]
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
                            center_geometry(record.proposals))
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


# Draws per M-step chunk (one generator call), plus an eighth per seen flag of
# its without-replacement calls: bounds a chunk's memory, as LABEL_CHUNK bounds
# the labelling kernel's.  A chunk holds at least one step, however large.
DRAW_CHUNK = 1 << 16
# Rows per M-step gather block: a block of steps takes its feature rows and soft
# labels from the M-step's tables in one call each.  A block holds at least one step.
GATHER_ROWS = 1 << 12


def _step_draws(plan: tuple, images: int):
    """The bounds of a step's draws, in numpy's order: the pick below
    ``images``, then ``plan``'s calls.  ``rng.integers(low, high, size)``
    draws ``size`` times below the pool size; ``rng.choice(n, k,
    replace=False)`` below j + 1 for j = n - k, ..., n - 1 (Floyd), then
    below i + 1 for i = k - 1, ..., 1 (Fisher-Yates).  A draw below 1 takes
    no word.  Also returns the calls as ``(first draw, first row, low, pool,
    quota, without replacement)`` and the step's size against DRAW_CHUNK;
    None when ``rng.choice`` shuffles a tail instead (n > 10,000, k > n // 50).
    """
    bounds, calls, rows, seen = [images], [], 0, 0
    for low, high, quota, replace in plan:
        pool = high - low
        calls.append((len(bounds), rows, low, pool, quota, not replace))
        if replace:
            bounds += [pool] * quota
        elif pool > 10_000 and quota > pool // 50:
            return None
        else:
            bounds += [*range(pool - quota + 1, pool + 1), *range(quota, 1, -1)]
            seen += pool
        rows += quota
    return np.array(bounds, dtype=np.int64), calls, len(bounds) + seen // 8


def _without_replacement(values, first, pools, quota):
    """``rng.choice(pool, quota, replace=False)`` per call, as (quota, calls),
    from the values numpy drew for it from ``first`` on: Floyd's picks
    deduplicated against per-call seen flags, then shuffled by Fisher-Yates,
    each one quota position at a time across all calls."""
    draws = np.ascontiguousarray(sliding_window_view(values, 2 * quota - 1)[first].T)
    picks, swaps = draws[:quota], draws[quota:]
    base = np.cumsum(pools) - pools  # each call's run of seen flags
    top = base + pools - quota + np.arange(quota)[:, None]  # Floyd's j at each position
    picks += base
    seen = np.zeros(int(pools.sum()), dtype=bool)
    for pick, j in zip(picks, top):
        np.copyto(pick, j, where=seen[pick])
        seen[pick] = True
    picks -= base
    # Fisher-Yates swaps position i with one drawn below i + 1, for i = quota - 1, ..., 1.
    swaps *= len(pools)
    swaps += np.arange(len(pools))
    flat = picks.reshape(-1)
    for i, at in zip(range(quota - 1, 0, -1), swaps):
        held = flat[at]
        flat[at] = picks[i]
        picks[i] = held
    return picks


def _read_ahead(rng: np.random.Generator, count: int) -> tuple[np.ndarray, dict]:
    """The generator's next ``count`` 32-bit words, read in place, and its state."""
    state = rng.bit_generator.state
    words = rng.integers(0, 2 ** 32, count, dtype=np.uint32)
    rng.bit_generator.state = state
    return words, state


class _Chunks:
    """The M-step's images as fixed runs of bounded draws, one run per step
    once its pick is known, for drawing a chunk of steps in one call."""

    def __init__(self, images: list):
        compiled = {plan: _step_draws(plan, len(images)) for plan in {i[-1] for i in images}}
        steps = [compiled[plan] for *_, plan in images]
        self.bounds = [step and step[0] for step in steps]
        # the words of each image's run when numpy rejects none; None for a run left out
        self.words = [step and int(np.count_nonzero(step[0] > 1)) for step in steps]
        self.sizes = [step and step[2] for step in steps]
        # one row order for all images, each call's low moved into its image's part
        orders = [order for _, _, order, *_ in images]
        self.order = np.concatenate(orders + [np.empty(0, dtype=np.int64)])
        self.calls = np.array([((step[1] if step else []) + [(0,) * 6] * 4)[:4]
                               for step in steps], dtype=np.int64).reshape(-1, 4, 6)
        self.calls[..., 2] += np.cumsum([0] + list(map(len, orders)))[:-1, None]
        self.rows = self.calls[..., 4].sum(axis=1)
        self.keys = sorted({(quota, choice) for quota, choice
                            in self.calls[..., 4:].reshape(-1, 2).tolist() if quota})

    def draw(self, rng: np.random.Generator, steps: int):
        """Picks and mini-batch rows of up to ``steps`` steps, from one
        ``rng.integers(0, bounds)`` call over the picked runs; no step when
        the first is left to the caller.  Step s of ``picks`` takes
        ``rows[ends[s - 1]:ends[s]]``.

        Each pick is read ahead as ``word * images >> 32``, the bounded draw
        of a word numpy does not reject, past each picked run's words, up to
        DRAW_CHUNK draws or a run left out.  The call's own pick values are
        checked against them: the runs before the first that differs are
        the per-step loop's, so their steps are kept and the generator is
        set back and made to draw those runs alone.
        """
        ahead, state = _read_ahead(rng, DRAW_CHUNK)
        ahead = memoryview(ahead)  # Python ints at scalar speed
        picks, starts = [], []
        pos = drawn = filled = 0
        while len(picks) < steps and pos < len(ahead):
            image = ahead[pos] * len(self.words) >> 32  # 0 for one image, whose pick takes no word
            if self.words[image] is None or (picks and filled + self.sizes[image] > DRAW_CHUNK):
                break
            picks.append(image)
            starts.append(drawn)
            pos += self.words[image]
            drawn += len(self.bounds[image])
            filled += self.sizes[image]
        del ahead
        if not picks:
            return [], None, []
        bounds = np.concatenate([self.bounds[image] for image in picks])
        values = rng.integers(0, bounds)
        picks, starts = np.array(picks), np.array(starts)
        wrong = np.flatnonzero(values[starts] != picks)
        if wrong.size:
            rng.bit_generator.state = state
            rng.integers(0, bounds[:starts[wrong[0]]])
            picks, starts = picks[:wrong[0]], starts[:wrong[0]]
        del bounds
        sizes = self.rows[picks]
        ends = np.cumsum(sizes)
        positions = np.empty(int(sizes.sum()), dtype=np.int64)
        chunk = self.calls[picks]
        chunk[..., 0] += starts[:, None]
        chunk[..., 1] += (ends - sizes)[:, None]
        chunk = chunk.reshape(-1, 6)
        for quota, choice in self.keys:
            first, row, low, pools = chunk[(chunk[:, 4] == quota) & (chunk[:, 5] == choice), :4].T
            if first.size:  # a window of each call's draws and of its rows
                chosen = (_without_replacement(values, first, pools, quota).T if choice
                          else sliding_window_view(values, quota)[first])
                sliding_window_view(positions, quota, writeable=True)[row] = chosen + low[:, None]
        return picks.tolist(), self.order.take(positions), ends.tolist()


def _minibatches(rng: np.random.Generator, images: list, steps: int):
    """Yield the ``steps`` steps' picks and mini-batch rows a draw chunk at a time.

    A chunk is ``(picks, rows, ends)``: step s of it picks ``images[picks[s]]``
    and takes ``rows[ends[s - 1]:ends[s]]``, from 0 for s = 0.  The picks and
    rows are those of a per-step loop that picks ``rng.integers(len(images))``
    and draws _batch_rows, and the generator ends in the same state, for any
    bit generator.  The pools are fixed within an M-step, so once its pick
    is known a step is a fixed run of numpy's bounded draws, and a chunk of
    steps is drawn in one checked call (_Chunks.draw).  A step the chunk
    leaves out goes through _batch_rows and comes as a chunk of one.
    """
    chunks = _Chunks(images)
    done = 0
    while done < steps:
        picks, rows, ends = chunks.draw(rng, steps - done) if images else ([], None, [])
        if not picks:
            picks = [int(rng.integers(len(images)))]
            _, _, order, _, plan = images[picks[0]]
            rows = _batch_rows(rng, order, plan) if plan else order[:0]
            ends = [rows.size]
        yield picks, rows, ends
        done += len(picks)


def _sgd_image(record: ImageRecord, q: np.ndarray, params: ScorerParams,
               config: EmConfig) -> tuple:
    """One image's M-step inputs: features, checked soft labels, the row order
    (foreground-eligible rows, argmax not background, first), the foreground
    row count, and the _draw_plan of its pool sizes."""
    q = np.asarray(q, dtype=np.float64)
    check_soft_labels(q, record.num_proposals, params.num_categories)
    fg = q.argmax(axis=1) != 0
    fg_rows = np.flatnonzero(fg)
    order = np.concatenate([fg_rows, np.flatnonzero(~fg)])
    plan = _draw_plan(fg_rows.size, order.size - fg_rows.size, config)
    return record.features, q, order, fg_rows.size, plan


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
    takes its pick but makes no step.  A chunk of steps draws its picks and
    rows in one checked call before its first gradient (_minibatches); they
    and the generator state are those of drawing step by step.

    Every image's bias-augmented feature rows and transposed soft labels are
    copied into one table each, and each image's row order points at its own
    rows there.  Each draw chunk's rows, in step order, are then taken from
    both tables a block of steps of at most GATHER_ROWS rows at a time, one
    ``take`` per table, and each step reads views of its block.
    """
    records = dataset.records
    images = [_sgd_image(r, labels[r.image_id], params, config) for r in records]
    background_only = sum(fg_size == 0 for *_, fg_size, _ in images)
    if background_only and config.fg_per_image > 0:
        logger.info("%d of %d images have no foreground-eligible proposals "
                    "and contribute background samples only",
                    background_only, len(records))
    starts = np.cumsum([0] + [r.num_proposals for r in records])
    table = np.ones((starts[-1], params.feature_dim + 1))  # the last column is the bias input
    labels_t = np.empty((params.num_categories, starts[-1]))
    for (features, q, *_), start, end in zip(images, starts, starts[1:]):
        table[start:end, :-1] = features
        labels_t[:, start:end] = q.T
    images = [(features, q, order + start, *rest)
              for (features, q, order, *rest), start in zip(images, starts)]

    per_block = max(1, GATHER_ROWS // (2 * (config.fg_per_image + config.bg_per_image)))
    if config.sgd_steps_per_m_step:
        state.learning_rate = learning_rate(config, start_step)
    step = start_step
    for _, rows, ends in _minibatches(rng, images, config.sgd_steps_per_m_step):
        for first in range(0, len(ends), per_block):
            # the block's rows start where the step before it ends
            offset = ends[first - 1] if first else 0
            block = ends[first:first + per_block]
            held = rows[offset:block[-1]]
            gathered, gathered_t = table.take(held, axis=0), labels_t.take(held, axis=1)
            start = 0
            for end in block:
                end -= offset
                if step == config.lr_drop_step:
                    state.learning_rate = config.lr_dropped
                step += 1
                if end > start:
                    _, grad = ce_gradient(params, gathered[start:end],
                                          gathered_t[:, start:end].T, config.l2)
                    grad /= end - start
                    sgd_step(params, state, grad)
                start = end
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
    E-step reads, and turns each posterior into soft labels at once.  The
    pass's log-probs are dropped after its E-steps, before the next M-step.

    Each weak image's center coverage is built once per run, after the
    exact and hard enumeration guards have passed, and read by every E-step,
    soft-label pass and objective of the run; so is each strong image's
    label vector.  The objective's plan is built at the start of the run
    with the trace on, and otherwise at the first hard E-step that reads it
    (never in k_em or exact mode with the trace off), then kept: every
    hard E-step pass reads its chunks.  Nothing outlives the run.
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
    plan = objective_plan(dataset, geometries) if config.record_trace else None

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
            trace.append(objective(dataset, log_probs, geometries, strong_vectors, plan))
        if last:
            break
        if from_scores:
            posts = (e_step_from_scores(r, init_scores[r.image_id], config)
                     for r in weak_records)
        elif config.mode == "hard":
            if plan is None:
                plan = objective_plan(dataset, geometries)
            posts = _hard_e_steps(weak_records, log_probs, config, geometries, plan)
        else:
            posts = (e_step(r, log_probs[r.image_id], config, geometries[r.image_id])
                     for r in weak_records)
        for record, post in zip(weak_records, posts):
            labels[record.image_id] = soft_labels(post, record, params.num_categories,
                                                  geometries[record.image_id])
        # Read by nothing after the E-steps: freed before the M-step.  zip stops
        # at the last record, so the hard pass's generator is left suspended,
        # holding the log-prob matrices, until it is dropped.
        del log_probs, posts
    return EmResult(params, trace)
