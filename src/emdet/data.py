"""Dataset records, synthetic benchmark generation, and JSONL IO.

An image record carries its proposals as one (B, 4) array of [x1, y1, x2, y2]
rows, with precomputed feature rows, plus either a strong annotation
(ground-truth boxes) or a weak one (the set of categories present).  The
synthetic generator plants one ground-truth box per sampled category,
surrounds it with jittered proposals, and derives features from a fixed
orthogonal prototype per category so a linear scorer can succeed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from emdet.geometry import Box, boxes_to_array, iou_matrix
from emdet.latent import CENTER_IOU, ImageLabel, as_label


class SchemaError(ValueError):
    """A dataset or score file violates the expected schema."""


@dataclass(frozen=True)
class GroundTruth:
    box: Box
    category: int

    def __post_init__(self):
        if self.category < 1:
            raise ValueError(f"ground-truth category must be >= 1, got {self.category}")


@dataclass(frozen=True)
class WeakAnnotation:
    label: ImageLabel


@dataclass(frozen=True)
class StrongAnnotation:
    objects: tuple[GroundTruth, ...]


@dataclass
class ImageRecord:
    image_id: str
    width: float
    height: float
    proposals: np.ndarray
    features: np.ndarray
    annotation: WeakAnnotation | StrongAnnotation

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image {self.image_id} has non-positive size")
        self.proposals = np.asarray(self.proposals, dtype=np.float64)
        if self.proposals.ndim != 2 or self.proposals.shape[1] != 4:
            raise ValueError(f"image {self.image_id}: proposals must be a (B, 4) array of "
                             f"[x1, y1, x2, y2] rows, got shape {self.proposals.shape}")
        if self.proposals.shape[0] == 0:
            raise ValueError(f"image {self.image_id} has no proposals")
        if not np.all(np.isfinite(self.proposals)):
            raise ValueError(f"image {self.image_id}: proposal coordinates must be finite")
        x1, y1, x2, y2 = self.proposals.T
        degenerate = np.flatnonzero(~((x1 < x2) & (y1 < y2)))
        if degenerate.size:
            raise ValueError(f"image {self.image_id}: degenerate proposal {degenerate[0]}: "
                             f"{self.proposals[degenerate[0]].tolist()}")
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.num_proposals:
            raise ValueError(
                f"image {self.image_id}: {self.features.shape} feature matrix for "
                f"{self.num_proposals} proposals")
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"image {self.image_id}: features must be finite")

    @property
    def num_proposals(self) -> int:
        return self.proposals.shape[0]

    @property
    def is_weak(self) -> bool:
        return isinstance(self.annotation, WeakAnnotation)


def positive_categories(record: ImageRecord) -> tuple[int, ...]:
    """Categories present in an image, from either annotation kind."""
    if isinstance(record.annotation, WeakAnnotation):
        return record.annotation.label.categories
    return tuple(sorted({g.category for g in record.annotation.objects}))


@dataclass
class Dataset:
    records: list[ImageRecord]

    def __post_init__(self):
        ids = [r.image_id for r in self.records]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate image ids: {dup}")
        dims = {r.features.shape[1] for r in self.records}
        if len(dims) > 1:
            raise ValueError(f"mixed feature dimensions in dataset: {sorted(dims)}")
        self._by_id = {r.image_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, n: int) -> ImageRecord:
        return self.records[n]

    def by_id(self, image_id: str) -> ImageRecord:
        return self._by_id[image_id]

    @property
    def feature_dim(self) -> int:
        if not self.records:
            raise ValueError("empty dataset has no feature dimension")
        return self.records[0].features.shape[1]

    def max_category(self) -> int:
        cats = [c for r in self.records for c in positive_categories(r)]
        if not cats:
            raise ValueError("dataset has no annotated categories")
        return max(cats)


# ---------------------------------------------------------------------------
# Synthetic benchmark generation


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic detection benchmark.

    Defaults give the desk-scale benchmark: 200 train / 100 test images,
    4 foreground categories, 50 proposals and 16 feature dims per image.
    """

    n_train: int = 200
    n_test: int = 100
    num_fg_categories: int = 4
    proposals_per_image: int = 50
    feature_dim: int = 16
    noise_sigma: float = 0.3
    seed: int = 0
    canvas_width: float = 100.0
    canvas_height: float = 100.0
    min_object_size: float = 15.0
    max_object_size: float = 40.0
    jitters_per_object: int = 8
    max_objects_per_image: int = 3

    def __post_init__(self):
        if self.num_fg_categories < 1:
            raise ValueError("need at least one foreground category")
        if self.proposals_per_image < 4:
            raise ValueError("need at least 4 proposals per image")
        if self.feature_dim < self.num_fg_categories + 1:
            raise ValueError(
                f"feature_dim {self.feature_dim} too small for "
                f"{self.num_fg_categories} categories plus background")
        if not (0 < self.min_object_size <= self.max_object_size):
            raise ValueError("object size range is empty")
        if self.max_object_size > min(self.canvas_width, self.canvas_height):
            raise ValueError("objects cannot exceed the canvas")
        if self.max_objects_per_image < 1:
            raise ValueError("need at least one object per image")


def config_hash(config: GeneratorConfig) -> str:
    """Stable hash of a generator config, for provenance manifests."""
    return hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode()).hexdigest()


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


def _synthesize_image(rng: np.random.Generator, cfg: GeneratorConfig,
                      image_id: str, prototypes: np.ndarray) -> ImageRecord:
    m = int(rng.integers(1, min(cfg.max_objects_per_image, cfg.num_fg_categories) + 1))
    cats = np.sort(rng.choice(cfg.num_fg_categories, size=m, replace=False) + 1)
    objects = tuple(GroundTruth(_random_box(rng, cfg), int(c)) for c in cats)

    boxes: list[Box] = []
    for gt in objects:
        for j in range(cfg.jitters_per_object):
            # Magnitudes from near-copies to loose context boxes.
            frac = j / max(cfg.jitters_per_object - 1, 1)
            boxes.append(_jittered_box(rng, gt.box, 0.03 + 0.55 * frac, cfg))
    while len(boxes) < cfg.proposals_per_image:
        boxes.append(_random_box(rng, cfg))
    proposals = boxes_to_array(boxes[:cfg.proposals_per_image])

    overlap = iou_matrix(proposals, boxes_to_array([g.box for g in objects]))
    features = rng.normal(0.0, cfg.noise_sigma,
                          size=(len(proposals), cfg.feature_dim))
    for col, gt in enumerate(objects):
        strong = overlap[:, col] >= CENTER_IOU
        features[strong] += overlap[strong, col:col + 1] * prototypes[gt.category - 1]

    return ImageRecord(image_id, cfg.canvas_width, cfg.canvas_height,
                       proposals, features, StrongAnnotation(objects))


def generate(cfg: GeneratorConfig) -> tuple[Dataset, Dataset]:
    """Deterministic synthetic benchmark: (train, test), both fully strong."""
    rng = np.random.default_rng(cfg.seed)
    # Orthogonal category prototypes: scaled standard basis vectors.
    prototypes = np.eye(cfg.num_fg_categories, cfg.feature_dim)
    train = [_synthesize_image(rng, cfg, f"train_{n:04d}", prototypes)
             for n in range(cfg.n_train)]
    test = [_synthesize_image(rng, cfg, f"test_{n:04d}", prototypes)
            for n in range(cfg.n_test)]
    return Dataset(train), Dataset(test)


# ---------------------------------------------------------------------------
# Weak/strong split management


def demote(record: ImageRecord) -> ImageRecord:
    """Replace a strong annotation with the image-level label it implies."""
    if record.is_weak:
        raise ValueError(f"image {record.image_id} is already weak")
    cats = positive_categories(record)
    if not cats:
        raise ValueError(
            f"image {record.image_id} has no objects; cannot form a weak label")
    return ImageRecord(record.image_id, record.width, record.height,
                       record.proposals, record.features,
                       WeakAnnotation(as_label(cats)))


def split_semi(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep a fraction of images strong, demote the rest to weak labels.

    The choice of strong images is uniform given the seed; record order is
    preserved.  The source must be fully strong.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if any(r.is_weak for r in dataset):
        raise ValueError("split_semi requires a fully strong source dataset")
    n_strong = int(round(fraction * len(dataset)))
    rng = np.random.default_rng(seed)
    strong = set(rng.choice(len(dataset), size=n_strong, replace=False).tolist())
    return Dataset([r if n in strong else demote(r)
                    for n, r in enumerate(dataset)])


# ---------------------------------------------------------------------------
# JSONL IO


def _record_to_json(record: ImageRecord) -> dict:
    if isinstance(record.annotation, WeakAnnotation):
        ann = {"type": "weak", "z": list(record.annotation.label.categories)}
    else:
        ann = {"type": "strong",
               "objects": [{"box": g.box.to_list(), "category": g.category}
                           for g in record.annotation.objects]}
    return {
        "id": record.image_id,
        "width": record.width,
        "height": record.height,
        "proposals": record.proposals.tolist(),
        "features": [[float(v) for v in row] for row in record.features],
        "annotation": ann,
    }


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """One JSON object per line; stable key order for reproducible bytes."""
    with open(path, "w") as fh:
        for record in dataset:
            fh.write(json.dumps(_record_to_json(record)) + "\n")


def _parse_box(raw, where: str) -> Box:
    if not (isinstance(raw, list) and len(raw) == 4):
        raise SchemaError(f"{where}: box must be [x1, y1, x2, y2], got {raw!r}")
    try:
        return Box(*(float(v) for v in raw))
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{where}: {err}") from None


def _parse_record(obj: dict, where: str) -> ImageRecord:
    for key in ("id", "width", "height", "proposals", "features", "annotation"):
        if key not in obj:
            raise SchemaError(f"{where}: missing key {key!r}")
    proposals, features = obj["proposals"], obj["features"]
    if not isinstance(proposals, list):
        raise SchemaError(f"{where}: proposals must be a list of [x1, y1, x2, y2] boxes")
    if not isinstance(features, list) or len(features) != len(proposals):
        raise SchemaError(
            f"{where}: {len(features) if isinstance(features, list) else 'no'} "
            f"feature rows for {len(proposals)} proposals")
    ann = obj["annotation"]
    kind = ann.get("type") if isinstance(ann, dict) else None
    if kind == "weak":
        try:
            annotation = WeakAnnotation(as_label(ann["z"]))
        except (KeyError, ValueError) as err:
            raise SchemaError(f"{where}: bad weak label: {err}") from None
    elif kind == "strong":
        try:
            annotation = StrongAnnotation(tuple(
                GroundTruth(_parse_box(g["box"], where), int(g["category"]))
                for g in ann["objects"]))
        except (KeyError, TypeError, ValueError) as err:
            raise SchemaError(f"{where}: bad strong annotation: {err}") from None
    else:
        raise SchemaError(f"{where}: unknown annotation type {kind!r}")
    try:
        return ImageRecord(str(obj["id"]), float(obj["width"]), float(obj["height"]),
                           proposals, np.asarray(features, dtype=np.float64), annotation)
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{where}: {err}") from None


def load_dataset(path: str | Path) -> Dataset:
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise SchemaError(f"{where}: invalid JSON: {err}") from None
            records.append(_parse_record(obj, where))
    try:
        return Dataset(records)
    except ValueError as err:
        raise SchemaError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Init scores


def make_init_scores(dataset: Dataset, noise_sigma: float = 0.4,
                     seed: int = 1, num_fg_categories: int | None = None) -> dict[str, np.ndarray]:
    """Noisy per-proposal category scores standing in for a weak detector.

    Each score is the proposal's best IoU with a ground-truth box of that
    category plus Gaussian noise, clipped at zero.  Requires strong
    annotations, so synthesize scores before demoting images.
    """
    if num_fg_categories is None:
        num_fg_categories = dataset.max_category()
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for record in dataset:
        if record.is_weak:
            raise ValueError(
                f"image {record.image_id} lacks ground truth for score synthesis")
        base = np.zeros((record.num_proposals, num_fg_categories))
        objects = record.annotation.objects
        if objects:
            overlap = iou_matrix(record.proposals, boxes_to_array([g.box for g in objects]))
            for col, gt in enumerate(objects):
                cat = gt.category - 1
                base[:, cat] = np.maximum(base[:, cat], overlap[:, col])
        noisy = base + rng.normal(0.0, noise_sigma, size=base.shape)
        out[record.image_id] = np.clip(noisy, 0.0, None)
    return out


def save_init_scores(scores: dict[str, np.ndarray], path: str | Path) -> None:
    with open(path, "w") as fh:
        for image_id, mat in scores.items():
            obj = {"id": image_id,
                   "scores": [[float(v) for v in row] for row in np.asarray(mat)]}
            fh.write(json.dumps(obj) + "\n")


def load_init_scores(path: str | Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise SchemaError(f"{where}: invalid JSON: {err}") from None
            if "id" not in obj or "scores" not in obj:
                raise SchemaError(f"{where}: need keys 'id' and 'scores'")
            mat = np.asarray(obj["scores"], dtype=np.float64)
            if mat.ndim != 2:
                raise SchemaError(f"{where}: scores must be a matrix")
            if not np.all(np.isfinite(mat)) or np.any(mat < 0):
                raise SchemaError(f"{where}: scores must be finite and non-negative")
            if obj["id"] in out:
                raise SchemaError(f"{where}: duplicate image id {obj['id']!r}")
            out[str(obj["id"])] = mat
    return out
