"""Boxes, overlap measures, and greedy non-maximum suppression.

Coordinates are continuous: a box (x1, y1, x2, y2) has width x2 - x1, with no
pixel-grid +1 correction anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 when they are disjoint."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def boxes_to_array(boxes: list[Box]) -> np.ndarray:
    """Stack boxes into an (n, 4) float64 array."""
    return np.array([[b.x1, b.y1, b.x2, b.y2] for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Pairwise IoU between two (n, 4) coordinate arrays; (n, n) with b=None."""
    if b is None:
        b = a
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def nms(dets: list[ScoredBox], threshold: float) -> list[ScoredBox]:
    """Greedy non-maximum suppression over a single category.

    Detections are visited in descending score order (ties broken by lower
    input index); each kept detection suppresses later ones whose IoU with it
    is strictly greater than the threshold.  The kept list preserves that
    visiting order.
    """
    if not dets:
        return []
    cats = {d.category for d in dets}
    if len(cats) > 1:
        raise ValueError(f"nms input mixes categories {sorted(cats)}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[ScoredBox] = []
    for i in order:
        if all(iou(dets[i].box, k.box) <= threshold for k in kept):
            kept.append(dets[i])
    return kept
