"""Training object detectors from image-level labels with expectation maximization.

The package trains a linear-softmax proposal scorer on precomputed box
features.  Images may carry only a set of present categories (weak), or full
box annotations (strong); any mix of the two is supported.  The latent space
over weak images assigns one center proposal per present category and labels
every proposal near a center with that center's category.
"""

from emdet.geometry import Box, ScoredBox, iou, nms
from emdet.latent import (
    ImageLabel,
    LatentConfig,
    LatentConfigSet,
    config_log_likelihood,
    enumerate_exact,
    expand,
    select_k,
)
from emdet.scorer import (
    OptimizerState,
    ScorerParams,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    weighted_ce_gradient,
)

__all__ = [
    "Box",
    "ScoredBox",
    "iou",
    "nms",
    "ImageLabel",
    "LatentConfig",
    "LatentConfigSet",
    "expand",
    "enumerate_exact",
    "config_log_likelihood",
    "select_k",
    "ScorerParams",
    "OptimizerState",
    "weighted_ce_gradient",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
]
