"""Linear softmax proposal scorer with momentum SGD and checkpoint IO.

The scorer replaces a convolutional backbone at desk scale: each proposal is
described by a precomputed feature vector and scored by a single linear layer
followed by softmax over C categories (category 0 is background).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emdet.data import SchemaError, is_integer


@dataclass
class ScorerParams:
    """Weight matrix of shape (C, d + 1); the last column is the bias."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[1] < 2:
            raise ValueError(f"weights must be (C, d + 1), got {self.weights.shape}")

    @property
    def num_categories(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1] - 1

    @classmethod
    def zeros(cls, num_categories: int, feature_dim: int) -> "ScorerParams":
        return cls(np.zeros((num_categories, feature_dim + 1)))

    def copy(self) -> "ScorerParams":
        return ScorerParams(self.weights.copy())


@dataclass
class OptimizerState:
    """Momentum SGD state; velocity has the same shape as the weights."""

    velocity: np.ndarray
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    @classmethod
    def for_params(cls, params: ScorerParams, learning_rate: float,
                   momentum: float = 0.9, weight_decay: float = 0.0) -> "OptimizerState":
        return cls(np.zeros_like(params.weights), learning_rate, momentum, weight_decay)


def _augment(features: np.ndarray) -> np.ndarray:
    """Append the constant 1 column that multiplies the bias."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    ones = np.ones((features.shape[0], 1))
    return np.concatenate([features, ones], axis=1)


def _row_log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax of each row, shifted by the row max so exp cannot overflow.

    The row max is taken over a contiguous (C, n) copy, where it is one
    vectorized pass instead of a short reduction per row; max is exact in any
    order.  The row sums keep the (n, C) layout, whose summation order is
    that of ``.sum(axis=1)``, and call the ufunc ``.sum`` wraps.  So the
    result equals the plain ``max``/``sum`` form bit for bit.
    """
    shifted = logits - np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def log_prob_matrix(params: ScorerParams, features: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax scores for an (n, d) feature matrix, shape (n, C)."""
    if features.shape[-1] != params.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match scorer dim {params.feature_dim}")
    return _row_log_softmax(_augment(features) @ params.weights.T)


def check_soft_labels(soft_labels: np.ndarray, num_rows: int, num_categories: int) -> None:
    """Reject a soft-label matrix that weighted_ce_gradient cannot train on."""
    if num_rows != soft_labels.shape[0]:
        raise ValueError(
            f"{num_rows} feature rows vs {soft_labels.shape[0]} label rows")
    if soft_labels.shape[1] != num_categories:
        raise ValueError(
            f"soft labels have {soft_labels.shape[1]} columns, scorer has "
            f"{num_categories} categories")
    if np.any(soft_labels < 0.0):
        raise ValueError("soft labels must be non-negative")
    sums = soft_labels.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("soft label rows must sum to 1")


def _without_bias(weights: np.ndarray) -> np.ndarray:
    """A copy of the weights with the bias column zeroed: the L2-penalized part."""
    penalized = weights.copy()
    penalized[:, -1] = 0.0
    return penalized


def ce_gradient(params: ScorerParams, augmented: np.ndarray, soft_labels: np.ndarray,
                l2: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of weighted_ce_gradient's loss on bias-augmented rows, unchecked.

    Returns ((n, C) log-probabilities of the rows, gradient); the loss itself
    is not computed.  The L2 term is added only when ``l2`` is nonzero.

    The logits are ``W @ A.T``, in (C, n) layout, so each row's max and sum
    over categories are axis-0 reductions of one contiguous array.  Its
    gradient factor is copied to Fortran order, the (n, C) layout, before
    the product, whose bits depend on the operands' layout.  Below 8
    categories the sum adds category after category, as
    ``_row_log_softmax``'s row sum does, so the result equals the (n, C)
    form bit for bit.  From 8 on, numpy sums a contiguous row pairwise; this
    form still adds left to right, so the last bits may differ from
    log_prob_matrix's.  Both products are ``np.dot``, the same BLAS call as
    ``@`` on these 2-D operands at less call cost.
    """
    logp = np.dot(params.weights, augmented.T)
    logp -= np.maximum.reduce(logp, axis=0)
    logp -= np.log(np.add.reduce(np.exp(logp), axis=0))
    residual = np.exp(logp)
    residual -= soft_labels.T
    grad = np.dot(residual.copy(order="F"), augmented)
    if l2:
        grad += l2 * _without_bias(params.weights)
    return logp.T, grad


def weighted_ce_gradient(params: ScorerParams, features: np.ndarray,
                         soft_labels: np.ndarray, l2: float = 0.0):
    """Soft-label cross-entropy loss and its exact gradient.

    loss = -sum_n sum_c q[n, c] * log_prob_matrix(params, x)[n, c]
           + (l2 / 2) * ||W||_F^2   (bias column excluded from the penalty)

    Returns (loss, gradient) where gradient has the shape of the weights.
    Soft-label rows must be non-negative and sum to 1.
    """
    features = np.asarray(features, dtype=np.float64)
    soft_labels = np.asarray(soft_labels, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    if soft_labels.ndim == 1:
        soft_labels = soft_labels[None, :]
    check_soft_labels(soft_labels, features.shape[0], params.num_categories)
    logp, grad = ce_gradient(params, _augment(features), soft_labels, l2)
    loss = -(soft_labels * logp).sum() + 0.5 * l2 * (_without_bias(params.weights) ** 2).sum()
    return loss, grad


def sgd_step(params: ScorerParams, state: OptimizerState,
             gradient: np.ndarray) -> tuple[ScorerParams, OptimizerState]:
    """One momentum SGD update, in place.

    velocity <- momentum * velocity - lr * (gradient + weight_decay * weights)
    weights  <- weights + velocity

    Weight decay skips the bias column.  The gradient is left unchanged;
    the decayed step is built in one scratch array.  Not thread safe: callers
    must serialize updates to a given (params, state) pair.
    """
    decayed = state.weight_decay * params.weights
    decayed += gradient
    decayed[:, -1] = gradient[:, -1]
    state.velocity *= state.momentum
    decayed *= state.learning_rate
    state.velocity -= decayed
    params.weights += state.velocity
    return params, state


def save_checkpoint(params: ScorerParams, path: str | Path, meta: dict | None = None) -> None:
    """Write the scorer weights as a small JSON checkpoint."""
    payload = {
        "c": params.num_categories,
        "d": params.feature_dim,
        "weights": [float(v) for v in params.weights.reshape(-1)],
        "meta": meta if meta is not None else {},
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_checkpoint(path: str | Path) -> tuple[ScorerParams, dict]:
    """Read a checkpoint written by save_checkpoint; returns (params, meta)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object")
    for key in ("c", "d", "weights"):
        if key not in payload:
            raise ValueError(f"checkpoint {path} is missing key {key!r}")
    for key in ("c", "d"):
        value = payload[key]
        if not is_integer(value) or value < 1:
            raise SchemaError(f"checkpoint {path}: {key!r} must be an integer >= 1, "
                              f"got {json.dumps(value)}")
    c, d = payload["c"], payload["d"]
    flat = np.asarray(payload["weights"], dtype=np.float64)
    if flat.size != c * (d + 1):
        raise ValueError(
            f"checkpoint {path} has {flat.size} weights, expected {c}x{d + 1}")
    if not np.all(np.isfinite(flat)):
        raise SchemaError(f"checkpoint {path}: weights must be finite")
    return ScorerParams(flat.reshape(c, d + 1)), payload.get("meta", {})
