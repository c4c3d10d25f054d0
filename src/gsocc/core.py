"""Shared domain types and the covariance construction used by every stage.

Conventions fixed here and relied on everywhere else:
  * quaternions are stored (w, x, y, z) and must be unit-norm,
  * scales are per-axis standard deviations in meters, floored at S_MIN,
  * semantic features are raw logits; softmax happens at render time only,
  * all types are immutable value data once constructed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRotationError, ShapeError

logger = logging.getLogger(__name__)

# Scale floor in meters. Keeps every covariance invertible for the
# renderer's Mahalanobis evaluation.
S_MIN = 1e-3

# Unit-norm tolerance for quaternions and rotation matrices.
ROTATION_TOL = 1e-6


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion in (w, x, y, z) order.

    Raises InvalidRotationError if the norm deviates from 1 by more than
    ROTATION_TOL.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ShapeError(f"quaternion must have shape (4,), got {q.shape}")
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > ROTATION_TOL:
        raise InvalidRotationError(f"quaternion norm {norm} deviates from 1 beyond {ROTATION_TOL}")
    w, x, y, z = q / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def clamp_scales(scale: np.ndarray) -> np.ndarray:
    """Clamp scale components to the S_MIN floor, logging when any clamp fires."""
    scale = np.asarray(scale, dtype=np.float64)
    n_low = int(np.count_nonzero(scale < S_MIN))
    if n_low:
        logger.warning("clamped %d scale component(s) below s_min=%g", n_low, S_MIN)
        scale = np.maximum(scale, S_MIN)
    return scale


def covariance_of(scale: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Covariance Sigma = R diag(s)^2 R^T of one Gaussian primitive.

    `scale` holds per-axis standard deviations (clamped to S_MIN),
    `rotation` a unit quaternion (w, x, y, z). The result is symmetric
    positive definite with eigenvalues >= s_min^2 up to rounding.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (3,):
        raise ShapeError(f"scale must have shape (3,), got {scale.shape}")
    scale = clamp_scales(scale)
    rot = quaternion_to_matrix(rotation)
    cov = (rot * scale**2) @ rot.T
    # Exact symmetry; R s^2 R^T is symmetric up to rounding either way.
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class GaussianPrimitive:
    """One ellipsoidal primitive: position, shape, opacity and class logits."""

    mean: np.ndarray       # (3,) meters
    scale: np.ndarray      # (3,) per-axis std-dev, meters
    rotation: np.ndarray   # (4,) unit quaternion (w, x, y, z)
    opacity: float         # in [0, 1]
    semantics: np.ndarray  # (C,) raw logits

    def covariance(self) -> np.ndarray:
        return covariance_of(self.scale, self.rotation)


@dataclass(frozen=True)
class GaussianSet:
    """Ordered collection of Gaussians stored as parallel arrays.

    `source_index` records (view id, pixel row, pixel col) provenance,
    one row per primitive.
    """

    means: np.ndarray         # (P, 3) float64
    scales: np.ndarray        # (P, 3) float64
    rotations: np.ndarray     # (P, 4) float64
    opacities: np.ndarray     # (P,)   float64
    semantics: np.ndarray     # (P, C) float64
    source_index: np.ndarray  # (P, 3) uint32

    def __post_init__(self):
        p = self.means.shape[0] if self.means.ndim == 2 else -1
        if self.means.ndim != 2 or self.means.shape[1] != 3:
            raise ShapeError(f"means must be (P, 3), got {self.means.shape}")
        for name, arr, cols in (
            ("scales", self.scales, 3),
            ("rotations", self.rotations, 4),
        ):
            if arr.shape != (p, cols):
                raise ShapeError(f"{name} must be ({p}, {cols}), got {arr.shape}")
        if self.opacities.shape != (p,):
            raise ShapeError(f"opacities must be ({p},), got {self.opacities.shape}")
        if self.semantics.ndim != 2 or self.semantics.shape[0] != p:
            raise ShapeError(f"semantics must be ({p}, C), got {self.semantics.shape}")
        if self.source_index.shape != (p, 3):
            raise ShapeError(f"source_index must be ({p}, 3), got {self.source_index.shape}")

    @staticmethod
    def empty(num_classes: int) -> "GaussianSet":
        return GaussianSet(
            means=np.zeros((0, 3)),
            scales=np.zeros((0, 3)),
            rotations=np.zeros((0, 4)),
            opacities=np.zeros(0),
            semantics=np.zeros((0, num_classes)),
            source_index=np.zeros((0, 3), dtype=np.uint32),
        )

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def num_classes(self) -> int:
        return self.semantics.shape[1]

    def __getitem__(self, i: int) -> GaussianPrimitive:
        return GaussianPrimitive(
            mean=self.means[i].copy(),
            scale=self.scales[i].copy(),
            rotation=self.rotations[i].copy(),
            opacity=float(self.opacities[i]),
            semantics=self.semantics[i].copy(),
        )

    def take(self, indices: np.ndarray) -> "GaussianSet":
        """Subset in the given order; arrays are copied."""
        idx = np.asarray(indices)
        return GaussianSet(
            means=self.means[idx].copy(),
            scales=self.scales[idx].copy(),
            rotations=self.rotations[idx].copy(),
            opacities=self.opacities[idx].copy(),
            semantics=self.semantics[idx].copy(),
            source_index=self.source_index[idx].copy(),
        )

    def validate(self) -> None:
        """Check primitive invariants; raises on violation."""
        if len(self) == 0:
            return
        norms = np.linalg.norm(self.rotations, axis=1)
        bad = np.abs(norms - 1.0) > ROTATION_TOL
        if bad.any():
            raise InvalidRotationError(
                f"{int(bad.sum())} rotation(s) deviate from unit norm beyond {ROTATION_TOL}"
            )
        if (self.opacities < 0).any() or (self.opacities > 1).any():
            raise ValueError("opacities must lie in [0, 1]")
        if (self.scales < S_MIN).any():
            raise ValueError(f"scale components must be >= s_min={S_MIN}")


def concat_gaussian_sets(sets: list) -> GaussianSet:
    if not sets:
        raise ValueError("need at least one GaussianSet")
    return GaussianSet(
        means=np.concatenate([s.means for s in sets]),
        scales=np.concatenate([s.scales for s in sets]),
        rotations=np.concatenate([s.rotations for s in sets]),
        opacities=np.concatenate([s.opacities for s in sets]),
        semantics=np.concatenate([s.semantics for s in sets]),
        source_index=np.concatenate([s.source_index for s in sets]),
    )


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics in pixels plus a camera-to-world pose.

    The camera frame is x-right, y-down, z-forward. Pixel (row, col)
    covers [row, row+1) x [col, col+1); rays go through pixel centers
    at (row + 0.5, col + 0.5).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    height: int
    width: int
    rotation: np.ndarray     # (3, 3) camera-to-world
    translation: np.ndarray  # (3,) camera origin in world, meters

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        r = np.asarray(self.rotation, dtype=np.float64)
        if r.shape != (3, 3):
            raise ShapeError(f"rotation must be (3, 3), got {r.shape}")
        if not np.allclose(r @ r.T, np.eye(3), atol=ROTATION_TOL):
            raise InvalidRotationError("camera rotation is not orthonormal within 1e-6")
        if np.asarray(self.translation).shape != (3,):
            raise ShapeError("translation must be (3,)")

    @property
    def origin(self) -> np.ndarray:
        return np.asarray(self.translation, dtype=np.float64)

    def ray_directions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Unit world-space ray directions through the given pixel centers."""
        u = np.asarray(cols, dtype=np.float64) + 0.5
        v = np.asarray(rows, dtype=np.float64) + 0.5
        d = np.stack(
            [(u - self.cx) / self.fx, (v - self.cy) / self.fy, np.ones_like(u)], axis=-1
        )
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        return d @ np.asarray(self.rotation, dtype=np.float64).T

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """World points -> continuous (row, col) pixel coordinates plus camera-frame z.

        The returned coordinates are in pixel-center convention: a point on
        the ray of pixel (r, c) projects to (r + 0.5, c + 0.5).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        rot = np.asarray(self.rotation, dtype=np.float64)
        cam = (pts - self.origin) @ rot
        z = cam[:, 2]
        u = self.fx * cam[:, 0] / z + self.cx
        v = self.fy * cam[:, 1] / z + self.cy
        return v, u, z

    def scaled(self, factor: float) -> "CameraModel":
        """Same pose at a rescaled pixel grid (e.g. factor=0.5 halves resolution)."""
        return CameraModel(
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
            height=int(round(self.height * factor)),
            width=int(round(self.width * factor)),
            rotation=self.rotation,
            translation=self.translation,
        )


# Depth value marking a pixel with no surface return.
NO_RETURN = np.inf


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel along-ray depth plus positive uncertainty, both (H, W).

    Pixels without a surface return hold NO_RETURN (+inf) in `depth`.
    """

    depth: np.ndarray
    uncertainty: np.ndarray

    def __post_init__(self):
        if self.depth.ndim != 2:
            raise ShapeError(f"depth must be 2-D, got {self.depth.shape}")
        if self.uncertainty.shape != self.depth.shape:
            raise ShapeError("uncertainty shape must match depth")
        if not (self.uncertainty > 0).all():
            raise ValueError("uncertainty must be positive everywhere")
        finite = np.isfinite(self.depth)
        if (self.depth[finite] < 0).any():
            raise ValueError("depth must be >= 0 or the no-return sentinel")

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.depth)


@dataclass(frozen=True)
class OccupancyGrid:
    """Dense labeled voxel volume. Label `empty_id` marks free space."""

    dims: tuple          # (X, Y, Z) voxel counts
    origin: np.ndarray   # (3,) min corner, meters
    voxel_size: float
    labels: np.ndarray   # (X, Y, Z) small ints
    empty_id: int = 0

    def __post_init__(self):
        if self.labels.shape != tuple(self.dims):
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match dims {self.dims}"
            )
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")

    def voxel_centers(self) -> np.ndarray:
        """(X, Y, Z, 3) array of voxel center positions."""
        x, y, z = self.dims
        idx = np.stack(
            np.meshgrid(np.arange(x), np.arange(y), np.arange(z), indexing="ij"), axis=-1
        )
        return np.asarray(self.origin) + (idx + 0.5) * self.voxel_size

    def occupied_mask(self) -> np.ndarray:
        return self.labels != self.empty_id


@dataclass(frozen=True)
class VoxelGridSpec:
    """Geometry of the sampling grid: axis-aligned extents and cell size.

    Cells are half-open boxes [v*s_g, (v+1)*s_g) in each axis; integer
    coordinates come from floor(position / grid_size), so they can be
    negative. Keys are collision-free linear indices over the derived
    integer dims.
    """

    min_corner: np.ndarray  # (3,) meters
    max_corner: np.ndarray  # (3,) meters
    grid_size: float
    v_min: np.ndarray = field(init=False)  # (3,) int64
    dims: np.ndarray = field(init=False)   # (3,) int64

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64)
        hi = np.asarray(self.max_corner, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ShapeError("extents must be 3-vectors")
        if not (lo < hi).all():
            raise ValueError("extents min must be < max on all axes")
        if self.grid_size <= 0:
            raise ValueError("grid_size must be positive")
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        v_min = np.floor(lo / self.grid_size)
        v_end = np.ceil(hi / self.grid_size)
        # Keys are int64 linear indices below num_cells, which keeps the
        # reserved OUT_OF_BOUNDS key (2^64 - 1) unreachable.
        in_range = (np.abs([v_min, v_end]) < 2.0**63).all()
        if not in_range or math.prod(int(e) - int(m) for e, m in zip(v_end, v_min)) >= 2**63:
            raise ConfigError(f"grid_size {self.grid_size} is too fine for int64 voxel keys")
        v_min = v_min.astype(np.int64)
        object.__setattr__(self, "v_min", v_min)
        object.__setattr__(self, "dims", v_end.astype(np.int64) - v_min)

    @property
    def num_cells(self) -> int:
        return math.prod(int(d) for d in self.dims)
