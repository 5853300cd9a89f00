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

import logging
from dataclasses import dataclass

import numpy as np

from emdet.data import Dataset, ImageRecord
from emdet.geometry import boxes_to_array, iou_matrix
from emdet.latent import (
    CENTER_IOU,
    OBJECTIVE_GUARD,
    GuardError,
    LatentConfigSet,
    enumerate_exact,
    exact_config_values,
    exact_log_likelihood_grid,
    label_marginals,
    logsumexp,
    score_config_set,
    select_k,
)
from emdet.scorer import (
    OptimizerState,
    ScorerParams,
    ce_loss_and_gradient,
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
        if self.em_iterations < 0:
            raise ValueError("em_iterations must be >= 0")
        if self.sgd_steps_per_m_step < 0:
            raise ValueError("sgd_steps_per_m_step must be >= 0")
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


def strong_labels(record: ImageRecord, num_categories: int) -> np.ndarray:
    """One-hot (B, C) label matrix for a strong image."""
    labels = strong_label_vector(record, num_categories)
    q = np.zeros((record.num_proposals, num_categories))
    q[np.arange(len(labels)), labels] = 1.0
    return q


def _weak_label(record: ImageRecord):
    if not record.is_weak:
        raise ValueError(f"image {record.image_id} is strongly annotated")
    return record.annotation.label


def _check_enumeration_size(record: ImageRecord, label) -> None:
    """Raise GuardError before an exact enumeration would exceed OBJECTIVE_GUARD."""
    if record.num_proposals ** len(label) > OBJECTIVE_GUARD:
        raise GuardError(
            f"image {record.image_id}: {record.num_proposals} proposals with "
            f"{len(label)} categories exceed the {OBJECTIVE_GUARD} config guard "
            f"of exact enumeration")


def _normalized(values: np.ndarray) -> np.ndarray:
    total = logsumexp(values)
    if not np.isfinite(total):
        raise ValueError("cannot normalize a zero-likelihood config set")
    return np.exp(values - total)


def e_step(record: ImageRecord, params: ScorerParams, config: EmConfig) -> PosteriorTable:
    """Posterior over latent configs for one weak image under the scorer.

    In "hard" mode the one config kept is the argmax of the exact grid.
    Configs that label every proposal alike (a center absorbed by another
    center's neighborhood, or duplicate proposals) have equal likelihoods,
    but the grid's inclusion-exclusion sums can differ in the last bits
    between them, so such ties go by rounding, not by index order.  The
    labels, and so training, do not depend on which tied config is kept.
    """
    label = _weak_label(record)
    log_probs = log_prob_matrix(params, record.features)
    if max(label.categories) >= params.num_categories:
        raise ValueError(
            f"image {record.image_id} mentions category {max(label.categories)} but "
            f"the scorer only covers {params.num_categories} categories")

    if config.mode == "k_em":
        config_set = select_k(record.proposals, label, log_probs, config.k)
        values = score_config_set(config_set, log_probs, record.proposals)
        return PosteriorTable(record.image_id, config_set, _normalized(values))

    _check_enumeration_size(record, label)
    if config.mode == "hard":
        grid = exact_log_likelihood_grid(record.proposals, label, log_probs)
        flat = int(np.argmax(grid))
        if not np.isfinite(grid.flat[flat]):
            raise ValueError(
                f"image {record.image_id} has zero likelihood under the scorer")
        centers = np.array(np.unravel_index(flat, grid.shape)).reshape(1, -1)
        config_set = LatentConfigSet(label.categories, centers)
        return PosteriorTable(record.image_id, config_set, np.array([1.0]))

    config_set, values = exact_config_values(record.proposals, label, log_probs)
    return PosteriorTable(record.image_id, config_set, _normalized(values))


def e_step_from_scores(record: ImageRecord, scores: np.ndarray,
                       config: EmConfig) -> PosteriorTable:
    """First-round posterior built from external per-proposal scores.

    Config weights are proportional to the product of each center's score for
    its category; a zero-mass enumeration falls back to uniform weights.
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

    if config.mode == "k_em":
        # Rank candidates by the external score column instead of the scorer.
        config_set = select_k(record.proposals, label, _score_log_columns(scores),
                              config.k)
    else:
        _check_enumeration_size(record, label)
        config_set = enumerate_exact(record.proposals, label)

    cols = np.array(label.categories) - 1
    mass = np.prod(scores[config_set.centers, cols[None, :]], axis=1)
    total = mass.sum()
    if total <= 0.0:
        logger.warning("image %s: init scores give zero mass; using uniform weights",
                       record.image_id)
        weights = np.full(len(config_set), 1.0 / len(config_set))
    else:
        weights = mass / total

    if config.mode == "hard":
        best = int(np.argmax(weights))
        # A copy, not a view: a view would keep the whole enumeration alive.
        config_set = LatentConfigSet(label.categories, config_set.centers[best:best + 1].copy())
        weights = np.array([1.0])
    return PosteriorTable(record.image_id, config_set, weights)


def _score_log_columns(scores: np.ndarray) -> np.ndarray:
    """Prepend a background column so score matrices rank like log-prob ones."""
    with np.errstate(divide="ignore"):
        logs = np.log(scores)
    return np.concatenate([np.full((scores.shape[0], 1), -np.inf), logs], axis=1)


def soft_labels(post: PosteriorTable, record: ImageRecord,
                num_categories: int) -> SoftLabels:
    """Marginal per-proposal label distribution under a config posterior."""
    top = max(post.config_set.categories)
    if top >= num_categories:
        raise ValueError(
            f"posterior mentions category {top} but only "
            f"{num_categories} categories exist")
    q = label_marginals(post.config_set, post.weights, record.proposals, num_categories)
    return SoftLabels(record.image_id, q)


def objective(dataset: Dataset, params: ScorerParams) -> ObjectiveValue:
    """The true mixed-supervision log-likelihood J at the given scorer.

    Weak terms always use the exact enumeration; images too large for it
    raise GuardError (use truncated E-steps for training, but the objective
    itself has no truncated form).
    """
    strong_term = 0.0
    weak_term = 0.0
    for record in dataset:
        log_probs = log_prob_matrix(params, record.features)
        if record.is_weak:
            label = _weak_label(record)
            _check_enumeration_size(record, label)
            grid = exact_log_likelihood_grid(record.proposals, label, log_probs)
            weak_term += logsumexp(grid.reshape(-1))
        else:
            labels = strong_label_vector(record, params.num_categories)
            strong_term += float(log_probs[np.arange(len(labels)), labels].sum())
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
            q = soft_labels(posteriors[record.image_id], record,
                            params.num_categories).q
            total += float((q * log_probs).sum())
        else:
            labels = strong_label_vector(record, params.num_categories)
            total += float(log_probs[np.arange(len(labels)), labels].sum())
    return total


def learning_rate(config: EmConfig, step: int) -> float:
    return config.lr_initial if step < config.lr_drop_step else config.lr_dropped


def _sample_rows(rng: np.random.Generator, pool: np.ndarray, count: int) -> np.ndarray:
    if pool.size == 0 or count == 0:
        return np.empty(0, dtype=np.int64)
    if pool.size < count:
        # The draws and generator state of rng.choice(..., replace=True),
        # without its per-call checks.
        return pool[rng.integers(pool.size, size=count)]
    return rng.choice(pool, size=count, replace=False)


def _pools(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Foreground- and background-eligible rows, by the soft-label argmax."""
    fg = q.argmax(axis=1) != 0
    return np.flatnonzero(fg), np.flatnonzero(~fg)


def _minibatch_rows(rng: np.random.Generator, fg_pool: np.ndarray, bg_pool: np.ndarray,
                    config: EmConfig) -> np.ndarray:
    """Sample row indices for one image: fg_per_image + bg_per_image.

    The pools come from _pools; a pool shorter than its quota is sampled
    with replacement, an empty pool contributes nothing.
    """
    return np.concatenate([
        _sample_rows(rng, fg_pool, config.fg_per_image),
        _sample_rows(rng, bg_pool, config.bg_per_image),
    ])


def _sgd_image(record: ImageRecord, q: np.ndarray, params: ScorerParams):
    """One image's M-step inputs: features, checked soft labels, sampling pools."""
    q = np.asarray(q, dtype=np.float64)
    check_soft_labels(q, record.num_proposals, params.num_categories)
    return record.features, q, *_pools(q)


def m_step(dataset: Dataset, labels: dict[str, np.ndarray], params: ScorerParams,
           state: OptimizerState, config: EmConfig, rng: np.random.Generator,
           start_step: int = 0) -> int:
    """Sampled SGD M-step; returns the global step counter after the run.

    Each mini-batch takes one uniformly chosen image and samples its
    foreground and background quotas twice, so one step sees two independent
    draws of the same image's proposals.  The gradient is the per-sample
    mean, keeping the learning-rate scale independent of batch size.  Soft
    labels are checked once per image up front, with the checks of
    weighted_ce_gradient.
    """
    records = dataset.records
    images = [_sgd_image(r, labels[r.image_id], params) for r in records]
    # Mini-batch rows are gathered into one reused buffer whose last column
    # stays 1, the bias input; per-image augmented copies would raise peak memory.
    batch = np.ones((2 * (config.fg_per_image + config.bg_per_image), params.feature_dim + 1))
    background_only: set[str] = set()
    for n in range(config.sgd_steps_per_m_step):
        state.learning_rate = learning_rate(config, start_step + n)
        index = int(rng.integers(len(records)))
        features, q, fg_pool, bg_pool = images[index]
        rows = np.concatenate([_minibatch_rows(rng, fg_pool, bg_pool, config),
                               _minibatch_rows(rng, fg_pool, bg_pool, config)])
        if rows.size == 0:
            continue
        image_id = records[index].image_id
        if config.fg_per_image > 0 and fg_pool.size == 0 \
                and image_id not in background_only:
            logger.debug("image %s has no foreground-eligible proposals; "
                         "contributing background only", image_id)
            background_only.add(image_id)
        augmented = batch[:rows.size]
        augmented[:, :-1] = features[rows]
        _, grad = ce_loss_and_gradient(params, augmented, q[rows], config.l2)
        grad /= rows.size
        sgd_step(params, state, grad)
    if background_only:
        logger.info("%d of %d images had no foreground-eligible proposals "
                    "and contributed background samples only",
                    len(background_only), len(records))
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
    after every M-step.
    """
    if init_params is not None and init_scores is not None:
        raise ValueError("pass at most one of init_params and init_scores")
    num_categories = config.num_categories or infer_num_categories(dataset)
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
    strong_rows = {r.image_id: strong_labels(r, params.num_categories)
                   for r in dataset if not r.is_weak}

    posteriors: dict[str, PosteriorTable] = {}
    for record in weak_records:
        if init_scores is not None:
            if record.image_id not in init_scores:
                raise ValueError(f"no init scores for image {record.image_id}")
            posteriors[record.image_id] = e_step_from_scores(
                record, init_scores[record.image_id], config)
        else:
            posteriors[record.image_id] = e_step(record, params, config)

    trace: list[ObjectiveValue] = []
    if config.record_trace:
        trace.append(objective(dataset, params))

    state = OptimizerState.for_params(params, config.lr_initial,
                                      config.momentum, config.weight_decay)
    rng = np.random.default_rng(config.seed)
    step = 0
    for it in range(config.em_iterations):
        labels = dict(strong_rows)
        for record in weak_records:
            labels[record.image_id] = soft_labels(
                posteriors[record.image_id], record, params.num_categories).q
        if config.full_batch:
            full_batch_m_step(dataset, labels, params, config)
        else:
            step = m_step(dataset, labels, params, state, config, rng, step)
        if config.record_trace:
            trace.append(objective(dataset, params))
        if it + 1 < config.em_iterations:
            for record in weak_records:
                posteriors[record.image_id] = e_step(record, params, config)
    return EmResult(params, trace)
