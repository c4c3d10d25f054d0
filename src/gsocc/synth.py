"""Deterministic synthetic scenes: ground plane plus yaw-oriented boxes.

Provides the ground-truth occupancy grids and per-camera depth maps that
let the whole pipeline be verified end-to-end on a desk. Everything is a
pure function of (seed, config, cameras): box placement uses a seeded
generator, and depth noise is drawn per view from a spawned seed sequence
so no execution schedule can change results.

`generate_scene` and `surround_rig` take a pipeline.PipelineConfig, which
declares and checks the scene and rig parameters; they read them as
attributes and keep no defaults of their own. A scene read from JSON is
checked here, and holds at most MAX_BOXES boxes, as a generated one does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import MAX_MAGNITUDE, CameraModel, DepthMap, OccupancyGrid, row_norms
from .errors import ConfigError

# Most boxes in a scene, generated or read. Each box is one slab test per
# camera ray in the depth cast and one pass of the GT raster.
MAX_BOXES = 1 << 10

@dataclass(frozen=True)
class Box:
    """Solid box: center, half extents (meters) and yaw about +z."""

    center: np.ndarray
    half_extents: np.ndarray
    yaw: float
    class_id: int

    def _yaw_rotation(self) -> np.ndarray:
        """Rz(yaw): box-local axes to world."""
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def _to_local(self, points: np.ndarray) -> np.ndarray:
        # rows: Rz(-yaw) @ d
        return (np.atleast_2d(points) - self.center) @ self._yaw_rotation()

    def contains(self, points: np.ndarray) -> np.ndarray:
        local = self._to_local(points)
        return (np.abs(local) <= self.half_extents).all(axis=1)

    def nearest_surface(self, points: np.ndarray) -> np.ndarray:
        """Closest point on the box surface to each query point."""
        local = self._to_local(points)
        q = np.clip(local, -self.half_extents, self.half_extents)
        inside = (q == local).all(axis=1)
        if inside.any():
            gaps = self.half_extents - np.abs(local[inside])
            axis = gaps.argmin(axis=1)
            rows = np.arange(len(axis))
            snapped = local[inside].copy()
            snapped[rows, axis] = np.sign(snapped[rows, axis] + 0.0) * self.half_extents[axis]
            # A point dead on the box center has sign 0; push it to +face.
            zero = snapped[rows, axis] == 0.0
            snapped[rows[zero], axis[zero]] = self.half_extents[axis[zero]]
            q[inside] = snapped
        return q @ self._yaw_rotation().T + self.center

    def ray_hits(self, o: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Along-ray hit distance per direction, +inf where the ray misses."""
        rot = self._yaw_rotation()
        o_l = (o - self.center) @ rot
        d_l = dirs @ rot
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (-self.half_extents - o_l) / d_l
            t2 = (self.half_extents - o_l) / d_l
        t_lo = np.minimum(t1, t2)
        t_hi = np.maximum(t1, t2)
        # Parallel-axis rays: inside the slab -> unbounded, outside -> miss.
        par = d_l == 0.0
        inside_slab = np.broadcast_to(np.abs(o_l) <= self.half_extents, d_l.shape)
        t_lo[par] = np.where(inside_slab[par], -np.inf, np.inf)
        t_hi[par] = np.where(inside_slab[par], np.inf, -np.inf)
        t_near = t_lo.max(axis=1)
        t_far = t_hi.min(axis=1)
        hit = (t_near <= t_far) & (t_far > 0)
        t = np.where(t_near > 0, t_near, 0.0)
        return np.where(hit, t, np.inf)


@dataclass(frozen=True)
class SceneSpec:
    """Seeded scene description: boxes over a ground plane inside extents."""

    seed: int
    boxes: tuple
    ground_z: float
    ground_class: int
    extents_min: np.ndarray
    extents_max: np.ndarray

    def __post_init__(self):
        for b in self.boxes:
            reach = np.linalg.norm(b.half_extents)
            if ((b.center + reach) < self.extents_min).any() or (
                (b.center - reach) > self.extents_max
            ).any():
                raise ConfigError("box does not intersect the scene extents")

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "ground_z": self.ground_z,
            "ground_class": self.ground_class,
            "extents_min": list(map(float, self.extents_min)),
            "extents_max": list(map(float, self.extents_max)),
            "boxes": [
                {
                    "center": list(map(float, b.center)),
                    "half_extents": list(map(float, b.half_extents)),
                    "yaw": float(b.yaw),
                    "class_id": b.class_id,
                }
                for b in self.boxes
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str, num_classes: int) -> "SceneSpec":
        """Parse a document of the form to_json writes. Raises ConfigError
        for one that is not an object with exactly to_json's keys (each box
        too), a number that is not finite or of magnitude above
        MAX_MAGNITUDE, a seed outside [0, 2**64), more than MAX_BOXES
        boxes, a half extent <= 0, or a class id outside [1, num_classes]."""
        doc = _scene_object(json.loads(text), _SCENE_KEYS, "scene")
        if not isinstance(doc["boxes"], list):
            raise ConfigError("scene boxes must be a list")
        if len(doc["boxes"]) > MAX_BOXES:
            raise ConfigError(f"scene holds {len(doc['boxes'])} boxes; the limit is {MAX_BOXES}")
        boxes = []
        for b in doc["boxes"]:
            b = _scene_object(b, _BOX_KEYS, "scene box")
            box = Box(
                center=_scene_number(b, "center", 3),
                half_extents=_scene_number(b, "half_extents", 3),
                yaw=_scene_number(b, "yaw"),
                class_id=_scene_int(b, "class_id", 1, num_classes),
            )
            if not (box.half_extents > 0).all():
                raise ConfigError(f"scene box half extents must be > 0, got {b['half_extents']}")
            boxes.append(box)
        return SceneSpec(
            seed=_scene_int(doc, "seed", 0, 2**64 - 1),
            boxes=tuple(boxes),
            ground_z=_scene_number(doc, "ground_z"),
            ground_class=_scene_int(doc, "ground_class", 1, num_classes),
            extents_min=_scene_number(doc, "extents_min", 3),
            extents_max=_scene_number(doc, "extents_max", 3),
        )


_SCENE_KEYS = {"seed", "boxes", "ground_z", "ground_class", "extents_min", "extents_max"}
_BOX_KEYS = {"center", "half_extents", "yaw", "class_id"}


def _scene_object(doc, keys: set, what: str) -> dict:
    """`doc` if it is a JSON object with exactly the keys `keys`."""
    if not isinstance(doc, dict) or doc.keys() != keys:
        raise ConfigError(f"{what} must be an object with exactly the keys {sorted(keys)}")
    return doc


def _scene_number(doc: dict, key: str, n: int = 0):
    """doc[key] as a float (n = 0) or as a float64 vector of n entries; each
    must be a JSON number of magnitude <= MAX_MAGNITUDE."""
    items = doc[key] if n else [doc[key]]
    if not (
        isinstance(items, list)
        and len(items) == max(n, 1)
        and all(type(x) in (int, float) and abs(x) <= MAX_MAGNITUDE for x in items)
    ):
        raise ConfigError(
            f"scene {key} must be {n or 1} number(s) of magnitude <= {MAX_MAGNITUDE:g},"
            f" got {doc[key]!r}"
        )
    return np.array(items, dtype=np.float64) if n else float(items[0])


def _scene_int(doc: dict, key: str, lo: int, hi: int) -> int:
    """doc[key], which must be a JSON integer in [lo, hi]."""
    value = doc[key]
    if type(value) is not int or not lo <= value <= hi:
        raise ConfigError(f"scene {key} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


# Ranges of generated boxes, meters: center distance from the z axis and
# each half extent.
CENTER_RADIUS = (4.0, 13.0)
HALF_EXTENT_RANGE = (0.5, 2.0)


def generate_scene(config) -> SceneSpec:
    """Seeded placement of `config.num_boxes` boxes resting on the ground
    plane, drawn from `config.seed`; reads the box classes, ground plane and
    extents of `config`, a pipeline.PipelineConfig."""
    rng = np.random.default_rng(config.seed)
    boxes = []
    for _ in range(config.num_boxes):
        radius = rng.uniform(*CENTER_RADIUS)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        he = rng.uniform(*HALF_EXTENT_RANGE, size=3)
        yaw = rng.uniform(0.0, 2.0 * np.pi)
        cls = int(rng.choice(np.asarray(config.box_classes)))
        center = np.array(
            [radius * np.cos(angle), radius * np.sin(angle), config.ground_z + he[2]]
        )
        boxes.append(Box(center=center, half_extents=he, yaw=yaw, class_id=cls))
    return SceneSpec(
        seed=config.seed,
        boxes=tuple(boxes),
        ground_z=config.ground_z,
        ground_class=config.ground_class,
        extents_min=np.asarray(config.extents_min, dtype=np.float64),
        extents_max=np.asarray(config.extents_max, dtype=np.float64),
    )


def rasterize_gt_grid(scene: SceneSpec, dims, origin, voxel_size: float) -> OccupancyGrid:
    """Label voxels by containing solid: boxes override ground, later boxes
    override earlier ones. Ground claims the voxel layer whose z-extent
    contains the plane; boxes claim voxels by center containment."""
    dims = tuple(int(d) for d in dims)
    origin = np.asarray(origin, dtype=np.float64)
    labels = np.zeros(dims, dtype=np.uint8)
    k = int(np.floor((scene.ground_z - origin[2]) / voxel_size))
    if 0 <= k < dims[2]:
        labels[:, :, k] = scene.ground_class
    for box in scene.boxes:
        # Only voxels whose centers lie within the box's circumradius of its
        # center can be inside it.
        r = np.linalg.norm(box.half_extents)
        lo = np.clip(np.floor((box.center - r - origin) / voxel_size).astype(np.int64), 0, dims)
        hi = np.clip(np.ceil((box.center + r - origin) / voxel_size).astype(np.int64) + 1, 0, dims)
        idx = np.stack(
            np.meshgrid(*(np.arange(a, b) for a, b in zip(lo, hi)), indexing="ij"), axis=-1
        )
        inside = box.contains((origin + (idx + 0.5) * voxel_size).reshape(-1, 3))
        box_labels = labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
        box_labels[inside.reshape(box_labels.shape)] = box.class_id
    return OccupancyGrid(origin=origin, voxel_size=float(voxel_size), labels=labels)


# Slack on the cosine of a box's bounding cone, relative to |w| |d|: keeps
# rays whose angle to the cone axis rounds onto the far side of its edge.
_CONE_MARGIN = 1e-9


def ray_hit_classes(scene: SceneSpec, o: np.ndarray, dirs: np.ndarray):
    """(depths, class ids) of the nearest scene surface per ray.

    Misses get depth +inf and class 0. Each box is slab-tested only against
    the rays that can reach it: when the origin lies outside the box's
    bounding sphere, those are the rays inside the cone the sphere subtends
    from the origin, kept by one dot product per ray with a small
    conservative margin; when it lies inside, every ray. A culled ray would
    have missed the box, and the kept rays go through the same float
    operations as a full cast, so depths and classes are those of testing
    every ray against every box. Directions need not be unit length; a
    zero direction is always kept.
    """
    dirs = np.atleast_2d(dirs)
    best = np.full(dirs.shape[0], np.inf)
    cls = np.zeros(dirs.shape[0], dtype=np.int64)
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_plane = (scene.ground_z - o[2]) / dz
    # A subnormal dz overflows t_plane to inf: a miss, as for dz = 0.
    plane_hit = np.isfinite(t_plane) & (t_plane > 0)
    best[plane_hit] = t_plane[plane_hit]
    cls[plane_hit] = scene.ground_class
    norms = row_norms(dirs)
    for box in scene.boxes:
        w = box.center - o
        dist = np.linalg.norm(w)
        r = np.linalg.norm(box.half_extents)
        if dist > r:
            cos_cone = np.sqrt(1.0 - (r / dist) ** 2)
            idx = np.flatnonzero(dirs @ w >= (cos_cone - _CONE_MARGIN) * dist * norms)
        else:
            idx = np.arange(dirs.shape[0])
        t = box.ray_hits(o, dirs[idx])
        closer = t < best[idx]
        best[idx[closer]] = t[closer]
        cls[idx[closer]] = box.class_id
    return best, cls


def depth_map(seed: int, view: int, depth: np.ndarray, noise_std: float = 0.0) -> DepthMap:
    """DepthMap of view `view`'s noise-free (H, W) depths with optional
    seeded Gaussian noise on the finite ones.

    Uncertainty is max(noise_std, 1e-3) everywhere, held as one broadcast
    value. Noise seeding is per (scene seed, view), so results do not depend
    on execution order.
    """
    if noise_std < 0:
        raise ConfigError("noise_std must be >= 0")
    if noise_std > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(view,)))
        noise = noise_std * rng.standard_normal(depth.shape)
        depth = np.where(np.isfinite(depth), np.maximum(depth + noise, 0.0), depth)
    return DepthMap(depth=depth, uncertainty=np.broadcast_to(max(noise_std, 1e-3), depth.shape))


def render_depth_maps(scene: SceneSpec, cams: list, noise_std: float = 0.0) -> list:
    """Analytic depth per pixel with optional seeded Gaussian noise: each
    camera's pixel rays cast once by ray_hit_classes, then depth_map."""
    maps = []
    for view, cam in enumerate(cams):
        depth = ray_hit_classes(scene, cam.origin, cam.pixel_rays())[0]
        maps.append(depth_map(scene.seed, view, depth.reshape(cam.height, cam.width), noise_std))
    return maps


def nearest_surface_points(scene: SceneSpec, points: np.ndarray) -> np.ndarray:
    """Closest point on any scene surface (ground plane or box) per query."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    best = points.copy()
    best[:, 2] = scene.ground_z
    best_d = np.abs(points[:, 2] - scene.ground_z)
    for box in scene.boxes:
        cand = box.nearest_surface(points)
        d = np.linalg.norm(cand - points, axis=1)
        closer = d < best_d
        best[closer] = cand[closer]
        best_d = np.where(closer, d, best_d)
    return best


def look_rotation(forward: np.ndarray, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Camera-to-world rotation with +z along `forward` (x right, y down)."""
    f = np.asarray(forward, dtype=np.float64)
    f = f / np.linalg.norm(f)
    r = np.cross(f, np.asarray(up, dtype=np.float64))
    norm = np.linalg.norm(r)
    if norm < 1e-9:
        raise ConfigError("camera forward direction may not be parallel to up")
    r /= norm
    d = np.cross(f, r)
    return np.stack([r, d, f], axis=1)


def surround_rig(config) -> list:
    """Six-camera surround rig of `config` (a pipeline.PipelineConfig):
    cameras of `config.resolution` pixels and `config.focal` at
    (0, 0, config.cam_height), yaw-spaced at 60 degrees, pitched down by
    `config.pitch_deg`."""
    h, w = config.resolution
    pitch = np.deg2rad(config.pitch_deg)
    cams = []
    for k in range(6):
        yaw = k * np.pi / 3.0
        f = np.array(
            [np.cos(yaw) * np.cos(pitch), np.sin(yaw) * np.cos(pitch), -np.sin(pitch)]
        )
        cams.append(
            CameraModel(
                fx=config.focal,
                fy=config.focal,
                cx=w / 2.0,
                cy=h / 2.0,
                height=h,
                width=w,
                rotation=look_rotation(f),
                translation=np.array([0.0, 0.0, config.cam_height]),
            )
        )
    return cams
