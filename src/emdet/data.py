"""Dataset records, synthetic benchmark generation, and JSONL IO.

An image record carries its proposals as one (B, 4) array of [x1, y1, x2, y2]
rows, with precomputed feature rows, plus either a strong annotation (its
(m, 4) ground-truth boxes and their (m,) category ids) or a weak one (the set
of categories present).  The synthetic generator plants one ground-truth box
per sampled category, surrounds it with jittered proposals, and derives
features from a fixed orthogonal prototype per category so a linear scorer
can succeed.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from emdet.geometry import iou_matrix
from emdet.latent import CENTER_IOU, ImageLabel, as_label


class SchemaError(ValueError):
    """A dataset or score file violates the expected schema."""


def _box_rows(boxes, name: str, rows: str, prefix: str = "") -> np.ndarray:
    """boxes as a float64 (n, 4) array of [x1, y1, x2, y2] rows, each finite
    with x1 < x2 and y1 < y2; a ValueError names the first row that is not."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"{prefix}{name}s must be a ({rows}, 4) array of [x1, y1, x2, y2] "
                         f"rows, got shape {boxes.shape}")
    if not np.isfinite(boxes).all():
        raise ValueError(f"{prefix}{name} coordinates must be finite")
    x1, y1, x2, y2 = boxes.T
    proper = (x1 < x2) & (y1 < y2)
    if not proper.all():
        first = np.flatnonzero(~proper)[0]
        raise ValueError(f"{prefix}degenerate {name} {first}: {boxes[first].tolist()}")
    return boxes


@dataclass(frozen=True)
class WeakAnnotation:
    label: ImageLabel


@dataclass(eq=False)
class StrongAnnotation:
    """Ground truth in annotation order: (m, 4) boxes, m >= 0, and (m,) ids >= 1."""

    boxes: np.ndarray
    categories: np.ndarray

    def __post_init__(self):
        self.boxes = _box_rows(self.boxes, "ground-truth object", "m")
        self.categories = np.asarray(self.categories, dtype=np.int64)
        if self.categories.shape != self.boxes.shape[:1]:
            raise ValueError(f"ground-truth categories of shape {self.categories.shape} "
                             f"for boxes of shape {self.boxes.shape}")
        if self.categories.min(initial=1) < 1:
            raise ValueError(f"ground-truth category must be >= 1, got {self.categories.min()}")


@dataclass
class ImageRecord:
    image_id: str
    width: float
    height: float
    proposals: np.ndarray
    features: np.ndarray
    annotation: WeakAnnotation | StrongAnnotation

    def __post_init__(self):
        # Written so that NaN fails too.
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"image {self.image_id} has a non-positive or non-finite "
                             f"size {self.width} x {self.height}")
        self.proposals = _box_rows(self.proposals, "proposal", "B", f"image {self.image_id}: ")
        if self.proposals.shape[0] == 0:
            raise ValueError(f"image {self.image_id} has no proposals")
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
    return tuple(sorted(set(record.annotation.categories.tolist())))


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
        for name in ("n_train", "n_test", "jitters_per_object", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        sizes = (self.canvas_width, self.canvas_height,
                 self.min_object_size, self.max_object_size)
        if not all(math.isfinite(v) for v in sizes):
            raise ValueError(f"canvas and object sizes must be finite, got {sizes}")
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
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def config_hash(config: GeneratorConfig) -> str:
    """Stable hash of a generator config, for provenance manifests."""
    return hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode()).hexdigest()


def _uniform(low, high, u: np.ndarray) -> np.ndarray:
    """Generator.uniform(low, high) on draws u of Generator.random, bit for bit:
    the scalar call computes low + (high - low) * u from the same double."""
    return low + (high - low) * u


def _random_boxes(u: np.ndarray, cfg: GeneratorConfig) -> np.ndarray:
    """(..., 4) boxes from (..., 4) uniforms, one (w, h, x1, y1) row per box."""
    lo, hi = float(cfg.min_object_size), float(cfg.max_object_size)
    w, h = _uniform(lo, hi, u[..., 0]), _uniform(lo, hi, u[..., 1])
    x1 = _uniform(0.0, float(cfg.canvas_width) - w, u[..., 2])
    y1 = _uniform(0.0, float(cfg.canvas_height) - h, u[..., 3])
    return np.stack([x1, y1, x1 + w, y1 + h], axis=-1)


def _jittered_boxes(u: np.ndarray, gt: np.ndarray, cfg: GeneratorConfig) -> np.ndarray:
    """(..., m, J, 4) boxes from (..., m, J, 4) uniforms, one (dx, dy, sw, sh)
    row each, around the (..., m, 4) ground-truth boxes.

    Jitter j of a ground-truth box shifts and rescales it at magnitude
    0.03 + 0.55 * j / max(J - 1, 1), from near-copies to loose context
    boxes; IoU falls as the magnitude grows.
    """
    J = u.shape[-2]
    magnitude = 0.03 + 0.55 * (np.arange(J) / max(J - 1, 1))
    gx1, gy1, gx2, gy2 = (gt[..., c, None] for c in range(4))
    w, h = gx2 - gx1, gy2 - gy1
    dx = _uniform(-magnitude, magnitude, u[..., 0]) * w
    dy = _uniform(-magnitude, magnitude, u[..., 1]) * h
    sw = w * (1.0 + _uniform(-magnitude, magnitude, u[..., 2]) * 0.5)
    sh = h * (1.0 + _uniform(-magnitude, magnitude, u[..., 3]) * 0.5)
    cx, cy = (gx1 + gx2) / 2 + dx, (gy1 + gy2) / 2 + dy
    width, height = float(cfg.canvas_width), float(cfg.canvas_height)
    # np.clip(a, lo, hi) is min(max(a, lo), hi), written out so x2 and y2 can
    # take the clipped x1 + 1 and y1 + 1 as their floor.
    x1 = np.minimum(np.maximum(cx - sw / 2, 0.0), width - 2.0)
    y1 = np.minimum(np.maximum(cy - sh / 2, 0.0), height - 2.0)
    x2 = np.minimum(np.maximum(cx + sw / 2, x1 + 1.0), width)
    y2 = np.minimum(np.maximum(cy + sh / 2, y1 + 1.0), height)
    return np.stack([x1, y1, x2, y2], axis=-1)


# Box rows that generate and make_init_scores build at once: proposals, and
# in generate also the ground truth and the jitters drawn past B.  Bounds the
# chunk's stacked draws, boxes, overlaps, features and scores, so their
# memory does not grow with the dataset.
IMAGE_CHUNK = 4096


class _ImageDraws(NamedTuple):
    """Every random number one synthetic image takes, in draw order."""

    image_id: str
    categories: np.ndarray  # (m,) sorted foreground ids
    uniforms: np.ndarray  # every box's uniforms, as laid out by _synthesize_image
    noise: np.ndarray  # (B, feature_dim) feature noise


def _synthesize_image(rng: np.random.Generator, cfg: GeneratorConfig,
                      image_id: str) -> _ImageDraws:
    """Draw one image; _build_images turns a chunk of draws into records."""
    m = int(rng.integers(1, min(cfg.max_objects_per_image, cfg.num_fg_categories) + 1))
    cats = np.sort(rng.choice(cfg.num_fg_categories, size=m, replace=False) + 1)
    B, J = cfg.proposals_per_image, cfg.jitters_per_object
    # One block holds every box's uniforms in the order of a box-by-box
    # generator: each object's (w, h, x1, y1), each jitter's (dx, dy, sw, sh),
    # then each fill box's (w, h, x1, y1).  Jitters past B are drawn and dropped.
    u = rng.random(4 * (m + m * J + max(B - m * J, 0)))
    noise = rng.normal(0.0, cfg.noise_sigma, size=(B, cfg.feature_dim))
    return _ImageDraws(image_id, cats, u, noise)


def _build_images(cfg: GeneratorConfig, draws: list[_ImageDraws],
                  prototypes: np.ndarray) -> list[ImageRecord]:
    """The records of a chunk of drawn images, in draw order.

    Images with the same object count m share a uniform layout, so each
    such group computes its boxes, overlaps and prototype offsets on
    stacked arrays.  Proposals covered by a ground-truth box at IoU >=
    CENTER_IOU get that IoU times the box's category prototype added to
    their noise, one object at a time.
    """
    B, J = cfg.proposals_per_image, cfg.jitters_per_object
    groups: dict[int, list[int]] = defaultdict(list)
    for n, d in enumerate(draws):
        groups[len(d.categories)].append(n)
    records: list[ImageRecord | None] = [None] * len(draws)
    for m, members in groups.items():
        g = len(members)
        u = np.stack([draws[n].uniforms for n in members])
        cats = np.stack([draws[n].categories for n in members])
        gt = _random_boxes(u[:, :4 * m].reshape(g, m, 4), cfg)
        jittered = _jittered_boxes(u[:, 4 * m:4 * m * (1 + J)].reshape(g, m, J, 4), gt, cfg)
        fill = _random_boxes(u[:, 4 * m * (1 + J):].reshape(g, -1, 4), cfg)
        proposals = np.concatenate([jittered.reshape(g, -1, 4)[:, :B], fill], axis=1)
        overlap = iou_matrix(proposals, gt)
        features = np.stack([draws[n].noise for n in members])
        for col in range(m):
            offset = overlap[:, :, col, None] * prototypes[cats[:, col] - 1][:, None, :]
            np.add(features, offset, out=features,
                   where=overlap[:, :, col, None] >= CENTER_IOU)
        for i, n in enumerate(members):
            records[n] = ImageRecord(draws[n].image_id, cfg.canvas_width, cfg.canvas_height,
                                     proposals[i].copy(), features[i].copy(),
                                     StrongAnnotation(gt[i], cats[i]))
    return records


def generate(cfg: GeneratorConfig) -> tuple[Dataset, Dataset]:
    """Deterministic synthetic benchmark: (train, test), both fully strong.

    Images are drawn one at a time, in order, and built IMAGE_CHUNK box
    rows at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    # Orthogonal category prototypes: scaled standard basis vectors.
    prototypes = np.eye(cfg.num_fg_categories, cfg.feature_dim)
    # The most boxes one image draws: its objects, then its jitters or B.
    M = min(cfg.max_objects_per_image, cfg.num_fg_categories)
    per_chunk = max(1, IMAGE_CHUNK // (M + max(M * cfg.jitters_per_object,
                                              cfg.proposals_per_image)))
    splits = []
    for prefix, count in (("train", cfg.n_train), ("test", cfg.n_test)):
        records: list[ImageRecord] = []
        for start in range(0, count, per_chunk):
            draws = [_synthesize_image(rng, cfg, f"{prefix}_{n:04d}")
                     for n in range(start, min(start + per_chunk, count))]
            records += _build_images(cfg, draws, prototypes)
        splits.append(Dataset(records))
    train, test = splits
    return train, test


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
    weak = copy.copy(record)  # shares the arrays, which were checked when record was built
    weak.annotation = WeakAnnotation(as_label(cats))
    return weak


def split_semi(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep a fraction of images strong, demote the rest to weak labels.

    The choice of strong images is uniform given the seed; record order is
    preserved.  The source must be fully strong.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if seed < 0:
        raise ValueError(f"split seed must be >= 0, got {seed}")
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
        boxes, categories = record.annotation.boxes, record.annotation.categories
        ann = {"type": "strong",
               "objects": [{"box": box, "category": category}
                           for box, category in zip(boxes.tolist(), categories.tolist())]}
    return {
        "id": record.image_id,
        "width": record.width,
        "height": record.height,
        "proposals": record.proposals.tolist(),
        "features": record.features.tolist(),
        "annotation": ann,
    }


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """One JSON object per line; stable key order for reproducible bytes."""
    with open(path, "w") as fh:
        for record in dataset:
            fh.write(json.dumps(_record_to_json(record)) + "\n")


def json_int(value, name: str) -> int:
    """value, if it is a JSON integer; a boolean is not one, as in the CLI's checks."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


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
    if kind not in ("weak", "strong"):
        raise SchemaError(f"{where}: unknown annotation type {kind!r}")
    try:
        if kind == "weak":
            z = ann["z"]
            if not isinstance(z, list):
                raise ValueError(f"z must be a list of integers, got {json.dumps(z)}")
            annotation = WeakAnnotation(as_label([json_int(c, "each z entry") for c in z]))
        else:
            objects = ann["objects"]
            annotation = StrongAnnotation(
                [g["box"] for g in objects] if objects else np.empty((0, 4)),
                [json_int(g["category"], "category") for g in objects])
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{where}: bad {kind} annotation: {err}") from None
    try:
        return ImageRecord(str(obj["id"]), float(obj["width"]), float(obj["height"]),
                           proposals, np.asarray(features, dtype=np.float64), annotation)
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{where}: {err}") from None


def read_jsonl(path: str | Path):
    """Yield (``path:line``, object) for every non-blank line of a JSONL file.

    A line that is not valid JSON, or whose value is not an object, raises
    SchemaError naming its position.
    """
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise SchemaError(f"{where}: invalid JSON: {err}") from None
            if not isinstance(obj, dict):
                raise SchemaError(f"{where}: expected a JSON object")
            yield where, obj


def load_dataset(path: str | Path) -> Dataset:
    records = [_parse_record(obj, where) for where, obj in read_jsonl(path)]
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
    annotations, so synthesize scores before demoting images.  Images are
    scored IMAGE_CHUNK proposal rows at a time, with one noise draw per
    chunk: the same stream, in record order, as one draw per image.
    """
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if num_fg_categories is None:
        num_fg_categories = dataset.max_category()
    if num_fg_categories < 1:
        raise ValueError(f"num_fg_categories must be >= 1, got {num_fg_categories}")
    for record in dataset:
        if record.is_weak:
            raise ValueError(
                f"image {record.image_id} lacks ground truth for score synthesis")
        top = record.annotation.categories.max(initial=0)
        if top > num_fg_categories:
            raise ValueError(
                f"image {record.image_id}: ground-truth category {top} "
                f"exceeds num_fg_categories={num_fg_categories}")
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for chunk in _row_chunks(dataset.records):
        rows = [0, *itertools.accumulate(r.num_proposals for r in chunk)]
        noise = rng.normal(0.0, noise_sigma, size=(rows[-1], num_fg_categories))
        base = np.zeros_like(noise)
        groups: dict[tuple[int, int], list[int]] = defaultdict(list)
        for n, record in enumerate(chunk):
            groups[record.num_proposals, len(record.annotation.categories)].append(n)
        for (B, m), members in groups.items():
            overlap = iou_matrix(np.stack([chunk[n].proposals for n in members]),
                                 np.stack([chunk[n].annotation.boxes for n in members]))
            cats = np.stack([chunk[n].annotation.categories for n in members]) - 1
            at = np.array([rows[n] for n in members])[:, None] + np.arange(B)
            for col in range(m):
                cat = cats[:, col, None]
                base[at, cat] = np.maximum(base[at, cat], overlap[:, :, col])
        noisy = np.clip(base + noise, 0.0, None)
        for n, record in enumerate(chunk):
            out[record.image_id] = noisy[rows[n]:rows[n + 1]]
    return out


def _row_chunks(records: list[ImageRecord]):
    """Consecutive runs of records with at most IMAGE_CHUNK proposal rows,
    or one record alone where it holds more."""
    chunk: list[ImageRecord] = []
    rows = 0
    for record in records:
        if chunk and rows + record.num_proposals > IMAGE_CHUNK:
            yield chunk
            chunk, rows = [], 0
        chunk.append(record)
        rows += record.num_proposals
    if chunk:
        yield chunk


def save_init_scores(scores: dict[str, np.ndarray], path: str | Path) -> None:
    with open(path, "w") as fh:
        for image_id, mat in scores.items():
            obj = {"id": image_id,
                   "scores": np.asarray(mat, dtype=np.float64).tolist()}
            fh.write(json.dumps(obj) + "\n")


def load_init_scores(path: str | Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for where, obj in read_jsonl(path):
        if "id" not in obj or "scores" not in obj:
            raise SchemaError(f"{where}: need keys 'id' and 'scores'")
        mat = np.asarray(obj["scores"], dtype=np.float64)
        if mat.ndim != 2:
            raise SchemaError(f"{where}: scores must be a matrix")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0):
            raise SchemaError(f"{where}: scores must be finite and non-negative")
        image_id = str(obj["id"])
        if image_id in out:
            raise SchemaError(f"{where}: duplicate image id {image_id!r}")
        out[image_id] = mat
    return out
