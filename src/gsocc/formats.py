"""Binary file formats.

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

The GSB1 reader returns each field of the set as its own C-contiguous
float64 array, converted straight from the f32 records, so later passes
over means or semantics do not stride across whole records.

Readers raise ConfigError naming the file when its length differs from
what the header implies, its class count C lies outside [1, 255] (class
ids are u8 labels), or its content breaks the invariants of the type it
is read into: GaussianSet.validate(), the DepthMap and OccupancyGrid
checks, and for OCC1 also has_probs in {0, 1}, every label and the empty
id in [0, C], and probabilities finite in [0, 1]. No reader returns NaN.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .core import DepthMap, GaussianSet, OccupancyGrid
from .errors import ConfigError

GSB_MAGIC = b"GSB1\x00\x00\x00\x00"
DPM_MAGIC = b"DPM1"
OCC_MAGIC = b"OCC1"

# Class ids 1..C are stored as u8 OCC1 labels.
MAX_CLASSES = 255

# The f32 columns of each GaussianSet field in a GSB1 record.
_GSB_FIELDS = (
    ("means", slice(0, 3)),
    ("scales", slice(3, 6)),
    ("rotations", slice(6, 10)),
    ("opacities", 10),
    ("semantics", slice(11, None)),
)


def _unpack(f, path, fmt: str) -> tuple:
    """Read and unpack one struct `fmt` from `f`, or raise ConfigError."""
    buf = f.read(struct.calcsize(fmt))
    if len(buf) != struct.calcsize(fmt):
        raise ConfigError(f"{path}: truncated header")
    return struct.unpack(fmt, buf)


def _check_classes(path, c: int) -> None:
    """Raise ConfigError unless the class count `c` lies in [1, MAX_CLASSES]."""
    if not 1 <= c <= MAX_CLASSES:
        raise ConfigError(f"{path}: class count {c} outside [1, {MAX_CLASSES}]")


def _check_payload(f, path, expected: int) -> None:
    """Raise ConfigError unless exactly `expected` bytes follow the header."""
    found = os.fstat(f.fileno()).st_size - f.tell()
    if found != expected:
        raise ConfigError(f"{path}: header implies {expected} payload bytes, found {found}")


@contextmanager
def _invalid_content(path):
    """Re-raise a ValueError from building or checking a read object as a
    ConfigError naming `path`."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def write_gaussian_set(path, gs: GaussianSet) -> None:
    p, c = len(gs), gs.num_classes
    # Slice assignment rounds float64 to f32 as astype does; the arrays go
    # to the file through the buffer protocol, without a bytes copy.
    rec = np.empty((p, 11 + c), dtype="<f4")
    for name, cols in _GSB_FIELDS:
        rec[:, cols] = getattr(gs, name)
    with open(path, "wb") as f:
        f.write(GSB_MAGIC)
        f.write(struct.pack("<II", p, c))
        f.write(rec)
        f.write(np.ascontiguousarray(gs.source_index, dtype="<u4"))


def read_gaussian_set(path) -> GaussianSet:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != GSB_MAGIC:
            raise ConfigError(f"{path}: not a GSB1 file")
        p, c = _unpack(f, path, "<II")
        _check_classes(path, c)
        width = 11 + c
        _check_payload(f, path, p * (width + 3) * 4)
        rec = np.frombuffer(f.read(p * width * 4), dtype="<f4").reshape(p, width)
        prov = np.frombuffer(f.read(p * 3 * 4), dtype="<u4").reshape(p, 3)
    with np.errstate(invalid="ignore"):  # a signaling NaN; validate() rejects it
        fields = {
            name: np.ascontiguousarray(rec[:, cols], dtype=np.float64)
            for name, cols in _GSB_FIELDS
        }
    gs = GaussianSet(**fields, source_index=prov.astype(np.uint32))
    with _invalid_content(path):
        gs.validate()
    return gs


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
    with _invalid_content(path), np.errstate(invalid="ignore"):  # NaNs fail DepthMap's checks
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
        _check_classes(path, num_classes)
        if has_probs > 1:
            raise ConfigError(f"{path}: has_probs flag {has_probs} is neither 0 nor 1")
        n = x * y * z * (num_classes + 1)
        _check_payload(f, path, x * y * z + (n * 4 if has_probs else 0))
        labels = np.frombuffer(f.read(x * y * z), dtype=np.uint8).reshape(x, y, z)
        probs = None
        if has_probs:
            probs = np.frombuffer(f.read(n * 4), dtype="<f4").reshape(
                x, y, z, num_classes + 1
            )
    if empty_id > num_classes or (labels > num_classes).any():
        raise ConfigError(f"{path}: a label or the empty id exceeds the class count {num_classes}")
    if probs is not None and not ((probs >= 0) & (probs <= 1)).all():
        raise ConfigError(f"{path}: probabilities must be finite and lie in [0, 1]")
    with _invalid_content(path):
        grid = OccupancyGrid(
            dims=(x, y, z),
            origin=np.array([ox, oy, oz]),
            voxel_size=float(voxel_size),
            labels=labels.copy(),
            empty_id=empty_id,
        )
    return grid, num_classes, probs
