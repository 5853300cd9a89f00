"""Referees that only the tests run, each a plain copy of a fast path's rule.

naive_nms and naive_match_category scan boxes pair by pair with the oracle's
scalar iou, as the referees for geometry.nms and metrics' AP matching.
naive_generate builds the synthetic benchmark box by box, one scalar uniform
per coordinate, as the referee for data.generate's block draws, and
naive_init_scores scores one image at a time as the referee for
data.make_init_scores' chunks.  ordered_pair_plan and ordered_triple_plan
list every co-covering pair and triple of centers once per slot order, as
the referee for the plans a CenterGeometry holds once per unordered pair and
triple.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from emdet.data import Dataset, GeneratorConfig, ImageRecord, StrongAnnotation
from emdet.geometry import Box, ScoredBox, boxes_to_array, iou_matrix
from emdet.latent import CENTER_IOU, CenterGeometry
from emdet.metrics import Detection
from emdet.oracle import iou


def naive_nms(dets: list[ScoredBox], threshold: float) -> list[ScoredBox]:
    """Reference for geometry.nms: each detection, in score order with ties to the
    lower index, is kept unless its IoU with a kept one exceeds the threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[ScoredBox] = []
    for i in order:
        if all(iou(dets[i].box, k.box) <= threshold for k in kept):
            kept.append(dets[i])
    return kept


def naive_match_category(dataset: Dataset, detections: list[Detection], category: int,
                         iou_threshold: float) -> tuple[np.ndarray, int]:
    """Reference for metrics' AP matching: each ranked detection scans the
    unclaimed ground-truth boxes of its image and claims the first of highest
    positive IoU that reaches the threshold."""
    gt = {r.image_id: [Box(*row) for row, c in zip(r.annotation.boxes.tolist(),
                                                    r.annotation.categories.tolist())
                       if c == category]
          for r in dataset if not r.is_weak}
    claimed = {image_id: [False] * len(boxes) for image_id, boxes in gt.items()}
    dets = sorted((d for d in detections if d.category == category),
                  key=lambda d: (-d.score, d.image_id))
    flags = np.zeros(len(dets), dtype=bool)
    for n, det in enumerate(dets):
        best, best_iou = -1, 0.0
        for g, box in enumerate(gt.get(det.image_id, [])):
            if claimed[det.image_id][g]:
                continue
            value = iou(det.box, box)
            if value > best_iou:
                best, best_iou = g, value
        if best >= 0 and best_iou >= iou_threshold:
            claimed[det.image_id][best] = True
            flags[n] = True
    return flags, sum(len(boxes) for boxes in gt.values())


def _random_box(rng: np.random.Generator, cfg: GeneratorConfig) -> Box:
    w = rng.uniform(cfg.min_object_size, cfg.max_object_size)
    h = rng.uniform(cfg.min_object_size, cfg.max_object_size)
    x1 = rng.uniform(0.0, cfg.canvas_width - w)
    y1 = rng.uniform(0.0, cfg.canvas_height - h)
    return Box(x1, y1, x1 + w, y1 + h)


def _jittered_box(rng: np.random.Generator, gt: Box, magnitude: float,
                  cfg: GeneratorConfig) -> Box:
    """Shift and rescale a ground-truth box; IoU falls as magnitude grows."""
    w, h = gt.x2 - gt.x1, gt.y2 - gt.y1
    dx = rng.uniform(-magnitude, magnitude) * w
    dy = rng.uniform(-magnitude, magnitude) * h
    sw = w * (1.0 + rng.uniform(-magnitude, magnitude) * 0.5)
    sh = h * (1.0 + rng.uniform(-magnitude, magnitude) * 0.5)
    cx, cy = (gt.x1 + gt.x2) / 2 + dx, (gt.y1 + gt.y2) / 2 + dy
    x1 = np.clip(cx - sw / 2, 0.0, cfg.canvas_width - 2.0)
    y1 = np.clip(cy - sh / 2, 0.0, cfg.canvas_height - 2.0)
    x2 = np.clip(cx + sw / 2, x1 + 1.0, cfg.canvas_width)
    y2 = np.clip(cy + sh / 2, y1 + 1.0, cfg.canvas_height)
    return Box(float(x1), float(y1), float(x2), float(y2))


def naive_image(rng: np.random.Generator, cfg: GeneratorConfig,
                image_id: str, prototypes: np.ndarray) -> ImageRecord:
    """One synthetic image drawn box by box with scalar uniforms."""
    m = int(rng.integers(1, min(cfg.max_objects_per_image, cfg.num_fg_categories) + 1))
    cats = np.sort(rng.choice(cfg.num_fg_categories, size=m, replace=False) + 1)
    objects = [_random_box(rng, cfg) for _ in cats]

    boxes: list[Box] = []
    for gt in objects:
        for j in range(cfg.jitters_per_object):
            # Magnitudes from near-copies to loose context boxes.
            frac = j / max(cfg.jitters_per_object - 1, 1)
            boxes.append(_jittered_box(rng, gt, 0.03 + 0.55 * frac, cfg))
    while len(boxes) < cfg.proposals_per_image:
        boxes.append(_random_box(rng, cfg))
    proposals = boxes_to_array(boxes[:cfg.proposals_per_image])

    overlap = iou_matrix(proposals, boxes_to_array(objects))
    features = rng.normal(0.0, cfg.noise_sigma,
                          size=(len(proposals), cfg.feature_dim))
    for col, category in enumerate(cats):
        strong = overlap[:, col] >= CENTER_IOU
        features[strong] += overlap[strong, col:col + 1] * prototypes[category - 1]

    return ImageRecord(image_id, cfg.canvas_width, cfg.canvas_height, proposals, features,
                       StrongAnnotation(boxes_to_array(objects), cats))


def naive_generate(cfg: GeneratorConfig) -> tuple[Dataset, Dataset]:
    """Reference for data.generate: every image from naive_image, in the same order."""
    rng = np.random.default_rng(cfg.seed)
    prototypes = np.eye(cfg.num_fg_categories, cfg.feature_dim)
    train = [naive_image(rng, cfg, f"train_{n:04d}", prototypes)
             for n in range(cfg.n_train)]
    test = [naive_image(rng, cfg, f"test_{n:04d}", prototypes)
            for n in range(cfg.n_test)]
    return Dataset(train), Dataset(test)


def naive_init_scores(dataset: Dataset, noise_sigma: float = 0.4,
                      seed: int = 1, num_fg_categories: int | None = None) -> dict[str, np.ndarray]:
    """Reference for data.make_init_scores: one IoU matrix and one noise draw per image."""
    if num_fg_categories is None:
        num_fg_categories = dataset.max_category()
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for record in dataset:
        if record.is_weak:
            raise ValueError(
                f"image {record.image_id} lacks ground truth for score synthesis")
        base = np.zeros((record.num_proposals, num_fg_categories))
        categories = record.annotation.categories.tolist()
        if categories:
            overlap = iou_matrix(record.proposals, record.annotation.boxes)
            for col, category in enumerate(categories):
                base[:, category - 1] = np.maximum(base[:, category - 1], overlap[:, col])
        noisy = base + rng.normal(0.0, noise_sigma, size=base.shape)
        out[record.image_id] = np.clip(noisy, 0.0, None)
    return out


class OrderedPairPlan(NamedTuple):
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


class OrderedTriplePlan(NamedTuple):
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


def _covering(geometry: CenterGeometry, i: int) -> range:
    """Positions of center i's members, which by symmetry name the centers
    covering proposal i."""
    return range(geometry.offsets[i], geometry.offsets[i + 1])


def _co_covered(geometry: CenterGeometry):
    """(i, position of (i, j), position of (i, k)) for distinct covering j and k.

    Listed by i, then j, then k.  Positions index the member lists.
    """
    members = geometry.members
    entries = [(i, at_j, at_k) for i in range(geometry.num_proposals)
               for at_j in _covering(geometry, i) for at_k in _covering(geometry, i)
               if members[at_j] != members[at_k]]
    i, at_j, at_k = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return i, at_j, at_k


def ordered_pair_plan(geometry: CenterGeometry) -> OrderedPairPlan:
    """The pair plan in every slot order, held as int32 indices and bool flags."""
    B = geometry.num_proposals
    i, at_j, at_k = _co_covered(geometry)
    j = geometry.members[at_j].astype(np.int64)
    lines, line = np.unique(j * B + geometry.members[at_k], return_inverse=True)
    line_j, line_k = np.divmod(lines, B)
    return OrderedPairPlan(i.astype(np.int32), geometry.keys[at_j] >= geometry.keys[at_k],
                           *(a.astype(np.int32) for a in (line, line_j, line_k)))


def ordered_triple_plan(geometry: CenterGeometry) -> OrderedTriplePlan:
    """The triple plan in every slot order, held as int32 indices and int8 slots."""
    B = geometry.num_proposals
    members, keys = geometry.members, geometry.keys
    i, at_j, at_k = _co_covered(geometry)
    walk = [(n, at) for n, row in enumerate(i.tolist()) for at in _covering(geometry, row)]
    entry, at_l = np.array(walk, dtype=np.int64).reshape(-1, 2).T
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
    return OrderedTriplePlan(i[entry].astype(np.int32), bottom,
                             *(a.astype(np.int32) for a in (config, j, k, l, line, line_j,
                                                            line_k)))
