"""Shared domain types and the rotation construction used by every stage.

Conventions fixed here and relied on everywhere else:
  * quaternions are stored (w, x, y, z) and must be unit-norm,
  * scales are per-axis standard deviations in meters, at least S_MIN,
  * semantic features are raw logits; softmax happens at render time only,
  * all types are immutable value data once constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRotationError, ShapeError

# Scale floor in meters. Keeps every covariance invertible for the
# renderer's Mahalanobis evaluation.
S_MIN = 1e-3

# Unit-norm tolerance for quaternions and rotation matrices.
ROTATION_TOL = 1e-6

# Largest magnitude of a float read from outside: a config float field or
# a scene number. Keeps every coordinate, depth and loss term far inside
# the f32 range of the file formats.
MAX_MAGNITUDE = 1e6


def quaternion_to_matrices(q: np.ndarray) -> np.ndarray:
    """(P, 3, 3) rotation matrices of P unit quaternions in (w, x, y, z) order.

    Raises InvalidRotationError if any norm deviates from 1 by more than
    ROTATION_TOL (a NaN norm included).
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ShapeError(f"quaternions must have shape (P, 4), got {q.shape}")
    norm = np.linalg.norm(q, axis=1)
    bad = ~(np.abs(norm - 1.0) <= ROTATION_TOL)
    if bad.any():
        raise InvalidRotationError(
            f"quaternion norm {norm[bad][0]} deviates from 1 beyond {ROTATION_TOL}"
        )
    w, x, y, z = (q / norm[:, None]).T
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(-1, 3, 3)


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

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def num_classes(self) -> int:
        return self.semantics.shape[1]

    def take(self, indices: np.ndarray) -> "GaussianSet":
        """Subset in the given order; arrays are copied."""
        idx = np.asarray(indices)
        return GaussianSet(
            means=self.means[idx],
            scales=self.scales[idx],
            rotations=self.rotations[idx],
            opacities=self.opacities[idx],
            semantics=self.semantics[idx],
            source_index=self.source_index[idx],
        )

    def validate(self) -> None:
        """Check primitive invariants; raises on violation, NaN and inf included."""
        check_gaussian_fields(
            self.means, self.scales, self.rotations, self.opacities, self.semantics
        )


def check_gaussian_fields(means, scales, rotations, opacities, semantics) -> None:
    """GaussianSet.validate() on the fields of a set, which may be float32:
    unit-norm rotations (InvalidRotationError), then finite means and
    semantic logits, opacities in [0, 1] and finite scales >= S_MIN
    (ValueError). Float32 fields pass exactly when their float64 widening
    does: the norms are taken in float64 and S_MIN is compared as float64."""
    if len(means) == 0:
        return
    norms = np.linalg.norm(np.asarray(rotations, dtype=np.float64), axis=1)
    bad = ~(np.abs(norms - 1.0) <= ROTATION_TOL)
    if bad.any():
        raise InvalidRotationError(
            f"{int(bad.sum())} rotation(s) deviate from unit norm beyond {ROTATION_TOL}"
        )
    for name, arr in (("means", means), ("semantic logits", semantics)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if not ((opacities >= 0) & (opacities <= 1)).all():
        raise ValueError("opacities must lie in [0, 1]")
    if not ((scales >= np.float64(S_MIN)) & np.isfinite(scales)).all():
        raise ValueError(f"scale components must be finite and >= s_min={S_MIN}")


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
        intrinsics = (self.fx, self.fy, self.cx, self.cy)
        if not (all(map(math.isfinite, intrinsics)) and self.fx > 0 and self.fy > 0):
            raise ValueError(
                f"intrinsics (fx, fy, cx, cy) = {intrinsics} must be finite, with"
                " positive focal lengths"
            )
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

    def ray_directions(self, rows, cols) -> np.ndarray:
        """Unit world-space ray directions through the pixel centers (rows,
        cols), of shape np.broadcast(rows, cols).shape + (3,). Rows and cols
        broadcast: (H, 1) rows and (W,) cols give the (H, W, 3) rays of a
        pixel grid, with x worked out once per column and y once per row."""
        x = (np.asarray(cols, dtype=np.float64) + 0.5 - self.cx) / self.fx
        y = (np.asarray(rows, dtype=np.float64) + 0.5 - self.cy) / self.fy
        # The camera-frame direction (x, y, 1) over its norm; the norm's
        # sum is ordered as np.linalg.norm's, so every bit is the same.
        norm = np.sqrt((x * x + y * y) + 1.0)
        d = np.empty(norm.shape + (3,))
        np.divide(x, norm, out=d[..., 0])
        np.divide(y, norm, out=d[..., 1])
        np.divide(1.0, norm, out=d[..., 2])
        # One (N, 3) operand for the rotation, so its bits do not depend on
        # the shape the pixels were given in.
        rotated = d.reshape(-1, 3) @ np.asarray(self.rotation, dtype=np.float64).T
        return rotated.reshape(d.shape)

    def pixel_rays(self, stride: int = 1) -> np.ndarray:
        """(N, 3) unit world-space ray directions through every stride-th
        pixel center of rows and columns, in row-major pixel order."""
        rows = np.arange(0, self.height, stride)[:, None]
        cols = np.arange(0, self.width, stride)
        return self.ray_directions(rows, cols).reshape(-1, 3)


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
        if not (np.isfinite(self.uncertainty) & (self.uncertainty > 0)).all():
            raise ValueError("uncertainty must be finite and positive everywhere")
        if not ((self.depth >= 0) | (self.depth == NO_RETURN)).all():
            raise ValueError("depth must be >= 0 or the no-return sentinel")

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.depth)


@dataclass(frozen=True)
class OccupancyGrid:
    """Dense labeled voxel volume. Label 0 marks free space and labels 1..C
    the classes; `probs`, when given, holds each voxel's probabilities
    [empty; C classes]. The renderers return `probs` as a strided view over
    channel-major (C+1, X, Y, Z) memory, so each channel probs[..., k] is
    contiguous; formats.read_occupancy returns a C-contiguous array."""

    origin: np.ndarray   # (3,) min corner, meters
    voxel_size: float
    labels: np.ndarray   # (X, Y, Z) small ints
    probs: np.ndarray | None = None  # (X, Y, Z, C+1)

    def __post_init__(self):
        if self.labels.ndim != 3:
            raise ShapeError(f"labels must be (X, Y, Z), got {self.labels.shape}")
        if self.probs is not None and self.probs.shape[:-1] != self.labels.shape:
            raise ShapeError(f"probs {self.probs.shape} do not match labels {self.labels.shape}")
        if not (np.isfinite(self.voxel_size) and self.voxel_size > 0):
            raise ValueError("voxel_size must be finite and positive")
        if not np.isfinite(self.origin).all():
            raise ValueError("origin must be finite")

    @property
    def dims(self) -> tuple:
        """(X, Y, Z) voxel counts."""
        return self.labels.shape


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
