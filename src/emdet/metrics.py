"""Detection and evaluation: thresholded NMS detection, 11-point interpolated
average precision with greedy matching, and correct-localization scoring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emdet.data import (Dataset, ImageRecord, SchemaError, json_int, json_number,
                        positive_categories, read_jsonl)
from emdet.geometry import Box, ScoredBox, boxes_to_array, iou_matrix, nms
from emdet.scorer import ScorerParams, log_prob_matrix

DEFAULT_SCORE_THRESHOLD = 0.01
DEFAULT_NMS_IOU = 0.4
MATCH_IOU = 0.5


@dataclass(frozen=True, slots=True)
class Detection:
    image_id: str
    category: int
    box: Box
    score: float


@dataclass
class MetricsReport:
    """Per-category APs and CorLocs with their means and match counts.

    Categories without ground truth carry a null AP and are excluded from the
    mean; the same applies to CorLoc for categories without positive images.
    """

    ap: dict[int, float | None]
    mean_ap: float
    counts: dict[int, dict[str, int]]
    corloc: dict[int, float | None] | None = None
    mean_corloc: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "ap": {str(c): v for c, v in self.ap.items()},
            "mean_ap": self.mean_ap,
            "counts": {str(c): dict(v) for c, v in self.counts.items()},
            "corloc": None if self.corloc is None
            else {str(c): v for c, v in self.corloc.items()},
            "mean_corloc": self.mean_corloc,
        }


def _check_dims(dataset: Dataset, params: ScorerParams) -> None:
    if dataset.feature_dim != params.feature_dim:
        raise ValueError(
            f"checkpoint expects {params.feature_dim}-dim features, dataset "
            f"provides {dataset.feature_dim}-dim features")


def _threshold_nms(record: ImageRecord, category: int, scores: np.ndarray,
                   score_threshold: float, nms_threshold: float) -> list[Detection]:
    """One image's detections of one category: positive scores at or above
    the threshold, then greedy NMS."""
    rows = np.flatnonzero((scores >= score_threshold) & (scores > 0.0))
    scored = [ScoredBox(Box(*record.proposals[i].tolist()), category, float(scores[i]))
              for i in rows]
    return [Detection(record.image_id, category, kept.box, kept.score)
            for kept in nms(scored, nms_threshold)]


def detect(dataset: Dataset, params: ScorerParams,
           score_threshold: float = DEFAULT_SCORE_THRESHOLD,
           nms_threshold: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Per-category detections: softmax scores thresholded then suppressed."""
    _check_dims(dataset, params)
    detections: list[Detection] = []
    for record in dataset:
        probs = np.exp(log_prob_matrix(params, record.features))
        for category in range(1, params.num_categories):
            detections += _threshold_nms(record, category, probs[:, category],
                                         score_threshold, nms_threshold)
    return detections


def _ground_truth(dataset: Dataset) -> dict[int, dict[str, np.ndarray]]:
    """Per category, each strong image's boxes of it, (n, 4), in annotation order."""
    truth: dict[int, dict[str, np.ndarray]] = {}
    for record in dataset:
        for category in () if record.is_weak else positive_categories(record):
            boxes = record.annotation.boxes[record.annotation.categories == category]
            truth.setdefault(category, {})[record.image_id] = boxes
    return truth


def _match_category(truth: dict[int, dict[str, np.ndarray]], detections: list[Detection],
                    category: int, iou_threshold: float) -> tuple[np.ndarray, int]:
    """Greedy matching flags for one category, detections in rank order.

    ``truth`` is the _ground_truth of the evaluated images.  Detections are
    ranked by descending score, ties by lower image id then input order.
    Per image, from one IoU matrix of its ranked detections against its
    ground truth, each claims the first unclaimed box of highest IoU when
    that IoU is positive and reaches the threshold.  IoUs below the
    threshold are zeroed first: the highest IoU reaches it exactly when the
    highest qualifying one does, and ties at it qualify together.
    """
    gt = truth.get(category, {})
    num_gt = sum(len(boxes) for boxes in gt.values())
    dets = [d for d in detections if d.category == category]
    dets.sort(key=lambda d: (-d.score, d.image_id))
    ranks: dict[str, list[int]] = {}
    for n, det in enumerate(dets):
        ranks.setdefault(det.image_id, []).append(n)
    flags = np.zeros(len(dets), dtype=bool)
    for image_id, rows in ranks.items():
        if not len(gt.get(image_id, ())):
            continue
        overlap = iou_matrix(boxes_to_array([dets[n].box for n in rows]), gt[image_id])
        overlap[overlap < iou_threshold] = 0.0
        for r in np.flatnonzero(overlap.any(axis=1)):
            best = int(np.argmax(overlap[r]))
            if overlap[r, best] > 0.0:
                flags[rows[r]] = True
                overlap[:, best] = 0.0  # claimed: no later row can pick it
    return flags, num_gt


def eleven_point_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """Interpolated AP: mean over recall grid 0.0, 0.1, ..., 1.0 of the best
    precision at or beyond each recall level (0 where unreached)."""
    levels = np.arange(11) / 10.0
    total = 0.0
    for r in levels:
        reached = precisions[recalls >= r]
        total += reached.max() if reached.size else 0.0
    return total / 11.0


def evaluate_detections(dataset: Dataset, detections: list[Detection],
                        categories: list[int] | None = None,
                        iou_threshold: float = MATCH_IOU) -> MetricsReport:
    """AP per category plus match counts; mean over categories with ground truth."""
    truth = _ground_truth(dataset)
    if categories is None:
        categories = sorted(set(truth) | {d.category for d in detections})
    ap: dict[int, float | None] = {}
    counts: dict[int, dict[str, int]] = {}
    for category in categories:
        flags, num_gt = _match_category(truth, detections, category, iou_threshold)
        counts[category] = {"tp": int(flags.sum()),
                            "fp": int((~flags).sum()),
                            "gt": num_gt}
        if num_gt == 0:
            ap[category] = None
        elif flags.size == 0:
            ap[category] = 0.0
        else:
            tp = np.cumsum(flags)
            fp = np.cumsum(~flags)
            ap[category] = float(eleven_point_ap(tp / num_gt, tp / (tp + fp)))
    defined = [v for v in ap.values() if v is not None]
    mean_ap = float(np.mean(defined)) if defined else 0.0
    return MetricsReport(ap, mean_ap, counts)


def corloc(dataset: Dataset, params: ScorerParams,
           iou_threshold: float = MATCH_IOU) -> tuple[dict[int, float | None], float | None]:
    """Fraction of positive images whose top-scoring proposal hits a
    ground-truth box of the category at the IoU threshold."""
    _check_dims(dataset, params)
    probs = {r.image_id: np.exp(log_prob_matrix(params, r.features))[:, 1:] for r in dataset}
    return corloc_from_scores(dataset, probs, iou_threshold)


def _check_score_map(dataset: Dataset, score_map: dict[str, np.ndarray],
                     num_categories: int = 0) -> None:
    """Reject a score map without a finite, non-negative (B, >= num_categories)
    matrix for every image."""
    for record in dataset:
        mat = score_map.get(record.image_id)
        if mat is None:
            raise ValueError(f"no scores for image {record.image_id}")
        if mat.ndim != 2 or mat.shape[0] != record.num_proposals or mat.shape[1] < num_categories:
            raise ValueError(f"image {record.image_id}: score shape {mat.shape} does not cover "
                             f"{record.num_proposals} proposals and {num_categories} categories")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0):
            raise ValueError(f"image {record.image_id}: scores must be finite and non-negative")


def corloc_from_scores(dataset: Dataset, score_map: dict[str, np.ndarray],
                       iou_threshold: float = MATCH_IOU) -> tuple[dict[int, float | None], float | None]:
    """CorLoc of per-image (B, C - 1) foreground scores; column c - 1 scores category c.

    With raw external scores this is the init-score localization baseline.
    """
    if any(r.is_weak for r in dataset):
        raise ValueError("correct-localization scoring needs ground truth for "
                         "every image; pass the strong variant of the dataset")
    categories = sorted({c for r in dataset for c in positive_categories(r)})
    _check_score_map(dataset, score_map, max(categories, default=0))
    hits: dict[int, list[bool]] = {c: [] for c in categories}
    for record in dataset:
        present = record.annotation.categories
        cats = positive_categories(record)
        # each present category's top proposal, ties to the lower index
        tops = np.argmax(score_map[record.image_id][:, np.array(cats, dtype=np.int64) - 1], axis=0)
        overlap = iou_matrix(record.proposals[tops], record.annotation.boxes)
        for category, row in zip(cats, overlap):
            hits[category].append(bool(row[present == category].max() >= iou_threshold))
    result: dict[int, float | None] = {c: sum(h) / len(h) for c, h in hits.items()}
    mean = float(np.mean(list(result.values()))) if result else None
    return result, mean


def detections_from_scores(dataset: Dataset, score_map: dict[str, np.ndarray],
                           score_threshold: float = DEFAULT_SCORE_THRESHOLD,
                           nms_threshold: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Detections ranked by external scores, the init-score detection baseline.

    Scores are scaled per category by their maximum over the dataset's images
    so they behave like probabilities in (0, 1]; ranking within a category is
    unchanged.  Entries of ``score_map`` for other images are not read.
    """
    _check_score_map(dataset, score_map)
    mats = [score_map[record.image_id] for record in dataset]
    num_cats = min((mat.shape[1] for mat in mats), default=0)
    peaks = np.zeros(num_cats)
    for mat in mats:
        peaks = np.maximum(peaks, mat[:, :num_cats].max(axis=0))
    detections: list[Detection] = []
    for record in dataset:
        mat = score_map[record.image_id]
        for category in range(1, num_cats + 1):
            if peaks[category - 1] <= 0:
                continue
            detections += _threshold_nms(record, category,
                                         mat[:, category - 1] / peaks[category - 1],
                                         score_threshold, nms_threshold)
    return detections


def save_detections(detections: list[Detection], path: str | Path) -> None:
    with open(path, "w") as fh:
        for det in detections:
            fh.write(json.dumps({"id": det.image_id, "category": det.category,
                                 "box": det.box.to_list(),
                                 "score": det.score}) + "\n")


def load_detections(path: str | Path) -> list[Detection]:
    out: list[Detection] = []
    for where, obj in read_jsonl(path):
        try:
            category = json_int(obj["category"], "category")
            box = Box(*(json_number(v, "box coordinate") for v in obj["box"]))
            score = json_number(obj["score"], "score")
            if not math.isfinite(score):
                raise ValueError(f"score must be finite, got {json.dumps(score)}")
            out.append(Detection(str(obj["id"]), category, box, score))
        except (KeyError, TypeError, ValueError) as err:
            raise SchemaError(f"{where}: {err}") from None
    return out
