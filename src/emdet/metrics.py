"""Detection and evaluation: thresholded NMS detection, 11-point interpolated
average precision with greedy matching, and correct-localization scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emdet.data import Dataset, ImageRecord, SchemaError
from emdet.geometry import Box, ScoredBox, iou, nms
from emdet.scorer import ScorerParams, log_prob_matrix

DEFAULT_SCORE_THRESHOLD = 0.01
DEFAULT_NMS_IOU = 0.4
MATCH_IOU = 0.5


@dataclass(frozen=True)
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


def _category_ground_truth(dataset: Dataset, category: int) -> dict[str, list[Box]]:
    table: dict[str, list[Box]] = {}
    for record in dataset:
        if record.is_weak:
            continue
        boxes = [g.box for g in record.annotation.objects if g.category == category]
        if boxes:
            table[record.image_id] = boxes
    return table


def _match_category(dataset: Dataset, detections: list[Detection], category: int,
                    iou_threshold: float) -> tuple[np.ndarray, int]:
    """Greedy matching flags for one category, detections in rank order.

    Detections are ranked by descending score, ties by lower image id then
    input order; each claims the unmatched ground-truth box of its image
    with the highest IoU when that IoU reaches the threshold.
    """
    gt = _category_ground_truth(dataset, category)
    num_gt = sum(len(v) for v in gt.values())
    dets = [d for d in detections if d.category == category]
    dets.sort(key=lambda d: (-d.score, d.image_id))
    matched = {image_id: np.zeros(len(boxes), dtype=bool)
               for image_id, boxes in gt.items()}
    flags = np.zeros(len(dets), dtype=bool)
    for n, det in enumerate(dets):
        boxes = gt.get(det.image_id, [])
        best, best_iou = -1, 0.0
        for g, box in enumerate(boxes):
            if matched[det.image_id][g]:
                continue
            value = iou(det.box, box)
            if value > best_iou:
                best, best_iou = g, value
        if best >= 0 and best_iou >= iou_threshold:
            matched[det.image_id][best] = True
            flags[n] = True
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
    if categories is None:
        with_gt = {g.category for r in dataset if not r.is_weak
                   for g in r.annotation.objects}
        categories = sorted(with_gt | {d.category for d in detections})
    ap: dict[int, float | None] = {}
    counts: dict[int, dict[str, int]] = {}
    for category in categories:
        flags, num_gt = _match_category(dataset, detections, category, iou_threshold)
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


def corloc_from_scores(dataset: Dataset, score_map: dict[str, np.ndarray],
                       iou_threshold: float = MATCH_IOU) -> tuple[dict[int, float | None], float | None]:
    """CorLoc of per-image (B, C - 1) foreground scores; column c - 1 scores category c.

    With raw external scores this is the init-score localization baseline.
    """
    if any(r.is_weak for r in dataset):
        raise ValueError("correct-localization scoring needs ground truth for "
                         "every image; pass the strong variant of the dataset")
    categories = sorted({g.category for r in dataset for g in r.annotation.objects})
    result: dict[int, float | None] = {}
    for category in categories:
        positives = 0
        correct = 0
        for record in dataset:
            gt_boxes = [g.box for g in record.annotation.objects
                        if g.category == category]
            if not gt_boxes:
                continue
            positives += 1
            # ties to the lower index
            top = int(np.argmax(score_map[record.image_id][:, category - 1]))
            proposal = Box(*record.proposals[top].tolist())
            if max(iou(proposal, g) for g in gt_boxes) >= iou_threshold:
                correct += 1
        result[category] = correct / positives if positives else None
    defined = [v for v in result.values() if v is not None]
    mean = float(np.mean(defined)) if defined else None
    return result, mean


def detections_from_scores(dataset: Dataset, score_map: dict[str, np.ndarray],
                           score_threshold: float = DEFAULT_SCORE_THRESHOLD,
                           nms_threshold: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Detections ranked by external scores, the init-score detection baseline.

    Scores are scaled per category by their global maximum so they behave
    like probabilities in (0, 1]; ranking within a category is unchanged.
    """
    num_cats = min(mat.shape[1] for mat in score_map.values())
    peaks = np.zeros(num_cats)
    for mat in score_map.values():
        peaks = np.maximum(peaks, mat[:, :num_cats].max(axis=0))
    detections: list[Detection] = []
    for record in dataset:
        if record.image_id not in score_map:
            raise ValueError(f"no scores for image {record.image_id}")
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
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
                box = obj["box"]
                out.append(Detection(str(obj["id"]), int(obj["category"]),
                                     Box(*(float(v) for v in box)),
                                     float(obj["score"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                raise SchemaError(f"{where}: {err}") from None
    return out
