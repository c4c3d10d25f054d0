"""Binary and JSON file formats.

All binary formats are little-endian:

  GSB1 (Gaussian set):
    8-byte magic b"GSB1\\0\\0\\0\\0", u32 count P, u32 class count C, then
    P records of (3+3+4+1+C) f32 in order mean, scale, rotation, opacity,
    semantics, followed by P provenance triples (u32 view, u32 row, u32 col).

  DPM1 (depth map):
    4-byte magic b"DPM1", u32 height, u32 width, f32 depths row-major,
    f32 uncertainties row-major. No-return pixels encode depth = +inf.

  OCC1 (occupancy grid):
    4-byte magic b"OCC1", u32 X, u32 Y, u32 Z, f32 origin x/y/z,
    f32 voxel_size, u32 class count C, u32 empty id, u8 has_probs,
    u8 labels in (X, Y, Z) C-order, then optionally f32 probabilities
    of shape (X, Y, Z, C+1) when has_probs is 1.

Readers raise ConfigError naming the file when its length differs from
what the header implies, and read_gaussian_set also when the set fails
GaussianSet.validate().

GSB1 additionally has a JSON mirror for debugging. Attention-weight
fixtures are flat f32 files with a JSON sidecar giving shapes and stage
labels; offset bases are plain JSON lists of 3-float rows.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .core import DepthMap, GaussianSet, OccupancyGrid
from .errors import ConfigError

GSB_MAGIC = b"GSB1\x00\x00\x00\x00"
DPM_MAGIC = b"DPM1"
OCC_MAGIC = b"OCC1"


def _unpack(f, path, fmt: str) -> tuple:
    """Read and unpack one struct `fmt` from `f`, or raise ConfigError."""
    buf = f.read(struct.calcsize(fmt))
    if len(buf) != struct.calcsize(fmt):
        raise ConfigError(f"{path}: truncated header")
    return struct.unpack(fmt, buf)


def _check_payload(f, path, expected: int) -> None:
    """Raise ConfigError unless exactly `expected` bytes follow the header."""
    found = os.fstat(f.fileno()).st_size - f.tell()
    if found != expected:
        raise ConfigError(f"{path}: header implies {expected} payload bytes, found {found}")


def write_gaussian_set(path, gs: GaussianSet) -> None:
    p, c = len(gs), gs.num_classes
    rec = np.concatenate(
        [gs.means, gs.scales, gs.rotations, gs.opacities[:, None], gs.semantics], axis=1
    ).astype("<f4")
    prov = gs.source_index.astype("<u4")
    with open(path, "wb") as f:
        f.write(GSB_MAGIC)
        f.write(struct.pack("<II", p, c))
        f.write(rec.tobytes())
        f.write(prov.tobytes())


def read_gaussian_set(path) -> GaussianSet:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != GSB_MAGIC:
            raise ConfigError(f"{path}: not a GSB1 file")
        p, c = _unpack(f, path, "<II")
        width = 3 + 3 + 4 + 1 + c
        _check_payload(f, path, p * (width + 3) * 4)
        rec = np.frombuffer(f.read(p * width * 4), dtype="<f4").reshape(p, width)
        prov = np.frombuffer(f.read(p * 3 * 4), dtype="<u4").reshape(p, 3)
    rec = rec.astype(np.float64)
    gs = GaussianSet(
        means=rec[:, 0:3],
        scales=rec[:, 3:6],
        rotations=rec[:, 6:10],
        opacities=rec[:, 10],
        semantics=rec[:, 11:],
        source_index=prov.astype(np.uint32),
    )
    try:
        gs.validate()
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return gs


def gaussian_set_to_json(gs: GaussianSet) -> str:
    doc = {
        "count": len(gs),
        "num_classes": gs.num_classes,
        "means": gs.means.tolist(),
        "scales": gs.scales.tolist(),
        "rotations": gs.rotations.tolist(),
        "opacities": gs.opacities.tolist(),
        "semantics": gs.semantics.tolist(),
        "source_index": gs.source_index.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def gaussian_set_from_json(text: str) -> GaussianSet:
    doc = json.loads(text)
    c = doc["num_classes"]
    return GaussianSet(
        means=np.array(doc["means"], dtype=np.float64).reshape(-1, 3),
        scales=np.array(doc["scales"], dtype=np.float64).reshape(-1, 3),
        rotations=np.array(doc["rotations"], dtype=np.float64).reshape(-1, 4),
        opacities=np.array(doc["opacities"], dtype=np.float64).reshape(-1),
        semantics=np.array(doc["semantics"], dtype=np.float64).reshape(-1, c),
        source_index=np.array(doc["source_index"], dtype=np.uint32).reshape(-1, 3),
    )


def write_depth_map(path, dm: DepthMap) -> None:
    h, w = dm.depth.shape
    with open(path, "wb") as f:
        f.write(DPM_MAGIC)
        f.write(struct.pack("<II", h, w))
        f.write(dm.depth.astype("<f4").tobytes())
        f.write(dm.uncertainty.astype("<f4").tobytes())


def read_depth_map(path) -> DepthMap:
    with open(path, "rb") as f:
        if f.read(4) != DPM_MAGIC:
            raise ConfigError(f"{path}: not a DPM1 file")
        h, w = _unpack(f, path, "<II")
        _check_payload(f, path, 2 * h * w * 4)
        depth = np.frombuffer(f.read(h * w * 4), dtype="<f4").reshape(h, w)
        unc = np.frombuffer(f.read(h * w * 4), dtype="<f4").reshape(h, w)
    return DepthMap(depth=depth.astype(np.float64), uncertainty=unc.astype(np.float64))


def write_occupancy(path, grid: OccupancyGrid, num_classes: int, probs=None) -> None:
    """Write an OCC1 file; `probs` is the optional (X, Y, Z, C+1) field dump."""
    x, y, z = grid.dims
    with open(path, "wb") as f:
        f.write(OCC_MAGIC)
        f.write(struct.pack("<III", x, y, z))
        f.write(np.asarray(grid.origin, dtype="<f4").tobytes())
        f.write(struct.pack("<f", grid.voxel_size))
        f.write(struct.pack("<IIB", num_classes, grid.empty_id, 1 if probs is not None else 0))
        f.write(np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes())
        if probs is not None:
            if probs.shape != (x, y, z, num_classes + 1):
                raise ConfigError("probability dump shape does not match grid")
            f.write(np.ascontiguousarray(probs, dtype="<f4").tobytes())


def read_occupancy(path):
    """Read an OCC1 file -> (OccupancyGrid, num_classes, probs-or-None)."""
    with open(path, "rb") as f:
        if f.read(4) != OCC_MAGIC:
            raise ConfigError(f"{path}: not an OCC1 file")
        x, y, z, ox, oy, oz, voxel_size, num_classes, empty_id, has_probs = _unpack(
            f, path, "<IIIffffIIB"
        )
        n = x * y * z * (num_classes + 1)
        _check_payload(f, path, x * y * z + (n * 4 if has_probs else 0))
        labels = np.frombuffer(f.read(x * y * z), dtype=np.uint8).reshape(x, y, z)
        probs = None
        if has_probs:
            probs = np.frombuffer(f.read(n * 4), dtype="<f4").reshape(
                x, y, z, num_classes + 1
            )
    grid = OccupancyGrid(
        dims=(x, y, z),
        origin=np.array([ox, oy, oz]),
        voxel_size=float(voxel_size),
        labels=labels.copy(),
        empty_id=empty_id,
    )
    return grid, num_classes, probs


def write_weight_fixture(path, arrays: dict) -> None:
    """Flat f32 file plus JSON sidecar mapping stage labels to shapes.

    `arrays` maps names like "in_frame.wq" to 2-D float arrays; entries are
    concatenated in sorted-name order.
    """
    names = sorted(arrays)
    sidecar = {name: list(arrays[name].shape) for name in names}
    path = Path(path)
    with open(path, "wb") as f:
        for name in names:
            f.write(np.ascontiguousarray(arrays[name], dtype="<f4").tobytes())
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, sort_keys=True))


def read_weight_fixture(path) -> dict:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    out = {}
    with open(path, "rb") as f:
        for name in sorted(sidecar):
            shape = tuple(sidecar[name])
            n = int(np.prod(shape))
            out[name] = np.frombuffer(f.read(n * 4), dtype="<f4").reshape(shape).astype(np.float64)
    return out


def write_basis_json(path, rows: np.ndarray) -> None:
    Path(path).write_text(json.dumps([list(map(float, r)) for r in rows]))


def read_basis_json(path) -> np.ndarray:
    rows = json.loads(Path(path).read_text())
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)
