"""Gaussian semantic-occupancy toolkit.

Pixel-aligned Gaussian initialization from multi-view depth, grid-based
sampling, bounded positional refinement, probabilistic occupancy rendering,
objectives, metrics, and a deterministic synthetic harness.
"""

from .core import (
    NO_RETURN,
    S_MIN,
    CameraModel,
    DepthMap,
    GaussianSet,
    OccupancyGrid,
    VoxelGridSpec,
    quaternion_to_matrices,
)
from .attention import AttentionWeights, TokenSet, alternating_block, scaled_dot_attention
from .initialize import AttributeProvider, init_gaussians
from .sampling import sample_representatives, splitmix64, voxel_keys
from .refine import refine_positions
from .render import render_grid, render_grid_bruteforce
from .losses import (
    LossReport,
    compute_loss_report,
    cross_entropy_loss,
    depth_uncertainty_loss,
    lovasz_softmax_loss,
)
from .metrics import MetricReport, evaluate, init_quality, iou_miou, ray_iou
from .synth import SceneSpec, generate_scene, rasterize_gt_grid, render_depth_maps
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "NO_RETURN",
    "S_MIN",
    "AttentionWeights",
    "AttributeProvider",
    "CameraModel",
    "DepthMap",
    "GaussianSet",
    "LossReport",
    "MetricReport",
    "OccupancyGrid",
    "PipelineConfig",
    "SceneSpec",
    "TokenSet",
    "VoxelGridSpec",
    "alternating_block",
    "cross_entropy_loss",
    "compute_loss_report",
    "depth_uncertainty_loss",
    "evaluate",
    "generate_scene",
    "init_gaussians",
    "init_quality",
    "iou_miou",
    "lovasz_softmax_loss",
    "quaternion_to_matrices",
    "rasterize_gt_grid",
    "ray_iou",
    "refine_positions",
    "render_depth_maps",
    "render_grid",
    "render_grid_bruteforce",
    "run_pipeline",
    "sample_representatives",
    "scaled_dot_attention",
    "splitmix64",
    "voxel_keys",
]
