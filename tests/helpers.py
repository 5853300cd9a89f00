"""Builders for randomized and hand-laid test instances."""

import contextlib
import ctypes
import glob
from pathlib import Path

import numpy as np
import pytest

from emdet.data import (Dataset, GroundTruth, ImageRecord, StrongAnnotation,
                        WeakAnnotation)
from emdet.engine import objective, strong_label_vector
from emdet.geometry import Box, boxes_to_array
from emdet.latent import ImageLabel, center_geometry
from emdet.scorer import ScorerParams, log_prob_matrix


def random_box(rng, canvas=100.0, min_size=4.0, max_size=40.0):
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    x1 = rng.uniform(0.0, canvas - w)
    y1 = rng.uniform(0.0, canvas - h)
    return Box(x1, y1, x1 + w, y1 + h)


def random_boxes(rng, count):
    """(count, 4) proposals drawn one random_box at a time."""
    return boxes_to_array([random_box(rng) for _ in range(count)])


def isolated_boxes(count, size=5.0, gap=20.0):
    """(count, 4) proposals on a diagonal with zero pairwise overlap."""
    corner = gap * np.arange(count, dtype=np.float64)[:, None]
    return np.hstack([corner, corner, corner + size, corner + size])


def clustered_boxes(rng, count):
    """(count, 4) overlapping proposals that meet every case of the center-coverage rule.

    Unit shifts of one 10x10 box overlap at IoU >= 0.5 up to three units
    apart, so a box in the middle of the chain is covered by three or more
    other centers at once.  One box is duplicated, and a half box overlaps
    the first one at IoU exactly 0.5.
    """
    boxes = [Box(float(x), 0.0, float(x + 10), 10.0) for x in range(count - 2)]
    boxes.append(boxes[int(rng.integers(count - 2))])
    boxes.append(Box(0.0, 0.0, 5.0, 10.0))
    return boxes_to_array([boxes[int(i)] for i in rng.permutation(count)])


def random_weak_record(rng, image_id="img_0", num_proposals=6, num_fg=2,
                       feature_dim=5, num_present=None):
    if num_present is None:
        num_present = int(rng.integers(1, num_fg + 1))
    cats = np.sort(rng.choice(np.arange(1, num_fg + 1), size=num_present,
                              replace=False))
    boxes = random_boxes(rng, num_proposals)
    features = rng.normal(0.0, 1.0, size=(num_proposals, feature_dim))
    return ImageRecord(image_id, 100.0, 100.0, boxes, features,
                       WeakAnnotation(ImageLabel(tuple(int(c) for c in cats))))


def strong_record(image_id, proposals, features, objects):
    return ImageRecord(image_id, 100.0, 100.0, proposals, features,
                       StrongAnnotation(tuple(GroundTruth(b, c)
                                              for b, c in objects)))


def random_params(rng, num_categories, feature_dim, scale=0.5):
    return ScorerParams(rng.normal(0.0, scale,
                                   size=(num_categories, feature_dim + 1)))


def fg_log_probs(p_fg):
    """B x 2 log-prob rows [log(1-p), log(p)] from foreground probabilities."""
    p = np.asarray(p_fg, dtype=np.float64)
    return np.stack([np.log(1.0 - p), np.log(p)], axis=1)


def single_record_dataset(record):
    return Dataset([record])


def objective_of(dataset, params):
    """engine.objective with every log-prob matrix, weak coverage and strong label
    vector built here."""
    log_probs = {r.image_id: log_prob_matrix(params, r.features) for r in dataset}
    geometries = {r.image_id: center_geometry(r.proposals) for r in dataset if r.is_weak}
    strong = {r.image_id: strong_label_vector(r, params.num_categories)
              for r in dataset if not r.is_weak}
    return objective(dataset, log_probs, geometries, strong)


def weak_record(image_id, boxes, features, categories):
    return ImageRecord(image_id, 100.0, 100.0, boxes, features,
                       WeakAnnotation(ImageLabel(categories)))


def isolated_weak_record(image_id, count, categories, features=None, dim=4):
    boxes = isolated_boxes(count)
    if features is None:
        features = np.zeros((count, dim))
    return weak_record(image_id, boxes, features, categories)


def _openblas():
    """numpy's bundled OpenBLAS library, or None."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


@contextlib.contextmanager
def blas_threads(count):
    """Run the block with numpy's OpenBLAS on ``count`` threads; skip the test
    where that library cannot be told."""
    lib = _openblas()
    if lib is None:
        pytest.skip("numpy's BLAS does not expose its thread count")
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
