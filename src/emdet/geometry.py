"""Boxes, the one IoU rule, and greedy non-maximum suppression.

Coordinates are continuous: a box (x1, y1, x2, y2) has width x2 - x1, with no
pixel-grid +1 correction anywhere.  Every overlap in the package is read from
iou_matrix; the scalar iou in oracle is its referee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box with strictly positive width and height."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise ValueError(f"box coordinates must be finite, got {self}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box: {self}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def to_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True, slots=True)
class ScoredBox:
    """A box with a foreground category id (>= 1) and a score in (0, 1]."""

    box: Box
    category: int
    score: float

    def __post_init__(self):
        if self.category < 1:
            raise ValueError(f"category must be a foreground id >= 1, got {self.category}")
        if not (math.isfinite(self.score) and 0.0 < self.score <= 1.0):
            raise ValueError(f"score must be in (0, 1], got {self.score}")


def boxes_to_array(boxes: list[Box]) -> np.ndarray:
    """Stack boxes into an (n, 4) float64 array."""
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise IoU between (..., n, 4) and (..., m, 4) coordinate arrays.

    Leading dimensions broadcast, so a stack of images gives one (..., n, m)
    matrix per image, each equal bit for bit to its own 2-D call.  With
    b=None the result is (..., n, n).
    """
    if b is None:
        b = a
    a, b = a[..., :, None, :], b[..., None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def nms(dets: list[ScoredBox], threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression over a single category.

    Detections are visited in descending score order (ties broken by lower
    input index); each kept detection suppresses later ones whose IoU with it
    is strictly greater than the threshold.  The kept list preserves that
    visiting order.  Each call builds the (n, n) IoU matrix of its n boxes;
    detection passes n <= B per image and category, and center_geometry
    already builds a B x B one per weak image.
    """
    if not dets:
        return []
    cats = {d.category for d in dets}
    if len(cats) > 1:
        raise ValueError(f"nms input mixes categories {sorted(cats)}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    overlap = iou_matrix(boxes_to_array([dets[i].box for i in order]))
    suppressed = np.zeros(len(order), dtype=bool)
    kept: list[ScoredBox] = []
    for n, i in enumerate(order):
        if not suppressed[n]:
            kept.append(dets[i])
            suppressed[n + 1:] |= overlap[n, n + 1:] > threshold
    return kept
