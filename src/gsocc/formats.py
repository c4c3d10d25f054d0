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
    f32 voxel_size, u32 class count C, u32 empty id (always 0), u8 has_probs,
    u8 labels in (X, Y, Z) C-order, then optionally f32 probabilities
    of shape (X, Y, Z, C+1) when has_probs is 1.

GSB1 is written by `gaussian_block_writer`, which appends blocks of rows in
call order and writes the header with the final row count when it closes,
so the bytes do not depend on how the rows are split into blocks. A block
is given as its means and a table of attribute rows (a record without its
mean) with the table row of each record, so a block whose records share a
few attribute rows is never built field by field. `write_gaussian_set`
writes a whole set as one block, one table row per record. Three readers:
`read_gaussian_set` returns the whole set, each field its own C-contiguous
float64 array converted straight from the f32 records; `read_gaussian_means`
checks every row in chunks of _ROWS but keeps only the f32 means (a
`GaussianFile`); `read_gaussian_rows` loads only the rows it is given.
`check_gaussian_rows` is their record check, on f32 means and attribute rows
held in memory.

`read_occupancy(path, num_classes)` returns one core.OccupancyGrid: the
labels, the f32 origin and voxel size widened to float64, and the f32
probabilities as its `probs` when has_probs is 1 (None otherwise).

Readers raise ConfigError naming the file when its length differs from
what the header implies, a GSB1 class count C lies outside [1, 255]
(class ids are u8 labels), an OCC1 class count is not the caller's
`num_classes`, an OCC1 grid dimension is 0, an OCC1 empty id is not 0
(label 0 is the only empty label), or its content breaks the invariants
of the type it is read into: GaussianSet.validate(), the DepthMap and
OccupancyGrid checks, and for OCC1 also has_probs in {0, 1}, every label
in [0, C], and probabilities finite in [0, 1]. No reader returns NaN.
"""

from __future__ import annotations

import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DepthMap, GaussianSet, OccupancyGrid, check_gaussian_fields
from .errors import ConfigError

GSB_MAGIC = b"GSB1\x00\x00\x00\x00"
DPM_MAGIC = b"DPM1"
OCC_MAGIC = b"OCC1"

# Class ids 1..C are stored as u8 OCC1 labels.
MAX_CLASSES = 255

# Rows per chunk of the GSB1 writer and of the readers that stream a file;
# each chunk's float64 fields take about 1 MiB with four classes.
_ROWS = 1 << 13

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


def _pwrite(fd: int, array: np.ndarray, offset: int) -> None:
    """Write the bytes of the C-contiguous `array` at `offset` of `fd`; the
    buffer goes to the file without a bytes copy."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


@contextmanager
def gaussian_block_writer(path, c: int):
    """Create the GSB1 file `path` of Gaussians with `c` classes and yield
    write(means, table, index, provenance), which appends n records after the
    rows already written: record i is the (n, 3) `means[i]` followed by row
    `index[i]` of the (K, 8 + c) attribute `table` (scale, rotation, opacity,
    logits), each rounded to f32, and `provenance[i]` is its (view, row, col)
    triple. The writer checks nothing, so it can write any record; `index`
    must lie in [0, K). The row count P is known only when the block exits, so
    the provenance triples, which follow all P records, and the header are
    written then, and only when no error left the block: the file of a
    failed writer starts with zeros, not the GSB1 magic."""
    # The triples wait in an unnamed file next to `path`, not in memory:
    # blocks held until the end would pin the heap that each block's
    # temporaries were freed to.
    with tempfile.TemporaryFile(dir=Path(path).parent) as prov:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            width = (11 + c) * 4
            p = 0

            def write(means, table, index, provenance) -> None:
                nonlocal p
                # Slice assignment rounds float64 to f32 as astype does: the
                # table once, each mean as it is placed in its record. The
                # records are built and written _ROWS at a time, so a block's
                # records are never all in memory.
                rows = np.zeros((len(table), 11 + c), dtype="<f4")
                rows[:, 3:] = table
                rec = np.empty((min(len(index), _ROWS), 11 + c), dtype="<f4")
                for lo in range(0, len(index), _ROWS):
                    chunk = rec[: len(index) - lo]
                    rows.take(index[lo : lo + _ROWS], axis=0, out=chunk)
                    chunk[:, 0:3] = means[lo : lo + _ROWS]
                    _pwrite(fd, chunk, 16 + (p + lo) * width)
                prov.write(np.ascontiguousarray(provenance, dtype="<u4"))
                p += len(index)

            yield write
            prov.seek(0)
            offset = 16 + p * width
            while chunk := prov.read(1 << 20):
                _pwrite(fd, np.frombuffer(chunk, dtype=np.uint8), offset)
                offset += len(chunk)
            os.pwrite(fd, GSB_MAGIC + struct.pack("<II", p, c), 0)
        finally:
            os.close(fd)


def write_gaussian_set(path, gs: GaussianSet) -> None:
    table = np.concatenate([gs.scales, gs.rotations, gs.opacities[:, None], gs.semantics], axis=1)
    with gaussian_block_writer(path, gs.num_classes) as write:
        write(gs.means, table, np.arange(len(gs)), gs.source_index)


def _gsb_header(f, path) -> tuple:
    """(P, C) of the open GSB1 file `f`, whose length must match them."""
    if f.read(8) != GSB_MAGIC:
        raise ConfigError(f"{path}: not a GSB1 file")
    p, c = _unpack(f, path, "<II")
    _check_classes(path, c)
    _check_payload(f, path, p * (11 + c + 3) * 4)
    return p, c


def _gsb_records(f, c: int, lo: int, hi: int) -> np.ndarray:
    """The f32 records of rows [lo, hi) of the open GSB1 file `f` with `c`
    classes."""
    width, n = 11 + c, hi - lo
    f.seek(16 + lo * width * 4)
    return np.frombuffer(f.read(n * width * 4), dtype="<f4").reshape(n, width)


def _gsb_provenance(f, p: int, c: int, lo: int, hi: int) -> np.ndarray:
    """The u32 provenance triples of rows [lo, hi) of the open GSB1 file `f`
    with `p` rows and `c` classes."""
    f.seek(16 + p * (11 + c) * 4 + lo * 12)
    return np.frombuffer(f.read((hi - lo) * 12), dtype="<u4").reshape(hi - lo, 3)


def _gaussian_set(path, rec: np.ndarray, prov: np.ndarray) -> GaussianSet:
    """The checked GaussianSet of GSB1 records `rec` and provenance `prov`."""
    with np.errstate(invalid="ignore"):  # a signaling NaN; validate() rejects it
        fields = {
            name: np.ascontiguousarray(rec[:, cols], dtype=np.float64)
            for name, cols in _GSB_FIELDS
        }
    gs = GaussianSet(**fields, source_index=prov.astype(np.uint32))
    with _invalid_content(path):
        gs.validate()
    return gs


def check_gaussian_rows(path, means: np.ndarray, rows: np.ndarray) -> None:
    """Raise ConfigError naming `path` unless the (n, 3) f32 `means` and the
    (K, 8 + C) f32 attribute rows `rows` (GSB1 records without their means)
    hold valid Gaussians: GaussianSet.validate()'s checks, in its order, on
    the f32 fields, with the verdicts of their float64 widening. Records
    built from them pass the same checks, whichever row each mean takes."""
    # Fields are checked as rows of the transposed attribute rows: over a
    # field's (K, k) columns numpy would loop k values at a time.
    cols = np.ascontiguousarray(rows.T)
    # A signaling NaN may raise the invalid flag where it is widened or
    # compared; the checks reject it.
    with _invalid_content(path), np.errstate(invalid="ignore"):
        check_gaussian_fields(means, cols[0:3].T, cols[3:7].T, cols[7], cols[8:].T)


def read_gaussian_set(path) -> GaussianSet:
    with open(path, "rb") as f:
        p, c = _gsb_header(f, path)
        rec, prov = _gsb_records(f, c, 0, p), _gsb_provenance(f, p, c, 0, p)
    return _gaussian_set(path, rec, prov)


@dataclass(frozen=True)
class GaussianFile:
    """The Gaussian set of a GSB1 file with only its (P, 3) f32 means, as
    the file stores them, in memory. len() and `num_classes` read as a
    GaussianSet's do, and `means` holds the same values in f32; take() loads
    the rows it is given from the file."""

    path: Path
    means: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return self.means.shape[0]

    def take(self, indices) -> GaussianSet:
        return read_gaussian_rows(self.path, indices)


def read_gaussian_means(path) -> GaussianFile:
    """The f32 means of the GSB1 file `path`. Every row is read and checked
    as read_gaussian_set checks it, one chunk of _ROWS rows at a time."""
    with open(path, "rb") as f:
        p, c = _gsb_header(f, path)
        means = np.empty((p, 3), dtype=np.float32)
        for lo in range(0, p, _ROWS):
            hi = min(lo + _ROWS, p)
            rec = _gsb_records(f, c, lo, hi)
            means[lo:hi] = rec[:, 0:3]
            check_gaussian_rows(path, means[lo:hi], rec[:, 3:])
    return GaussianFile(Path(path), means, c)


def read_gaussian_rows(path, rows) -> GaussianSet:
    """Rows `rows` of the GSB1 file `path`, in that order, checked as
    read_gaussian_set checks them. Only chunks of _ROWS rows that hold a
    wanted row are read."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    order = np.argsort(rows, kind="stable")
    wanted = rows[order]
    with open(path, "rb") as f:
        p, c = _gsb_header(f, path)
        if wanted.size and not 0 <= wanted[0] <= wanted[-1] < p:
            raise ConfigError(f"{path}: rows must lie in [0, {p})")
        rec = np.empty((rows.size, 11 + c), dtype="<f4")
        prov = np.empty((rows.size, 3), dtype="<u4")
        bounds = np.searchsorted(wanted, np.arange(0, p + _ROWS, _ROWS))
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if a < b:
                lo = k * _ROWS
                hi = min(lo + _ROWS, p)
                rec[order[a:b]] = _gsb_records(f, c, lo, hi)[wanted[a:b] - lo]
                prov[order[a:b]] = _gsb_provenance(f, p, c, lo, hi)[wanted[a:b] - lo]
    return _gaussian_set(path, rec, prov)


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
        f.write(struct.pack("<IIB", num_classes, 0, 1 if probs is not None else 0))
        f.write(np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes())
        if probs is not None:
            if probs.shape != (x, y, z, num_classes + 1):
                raise ConfigError("probability dump shape does not match grid")
            f.write(np.ascontiguousarray(probs, dtype="<f4").tobytes())


def read_occupancy(path, num_classes: int) -> OccupancyGrid:
    """Read an OCC1 file of `num_classes` classes into an OccupancyGrid,
    with the f32 probabilities attached when the file holds them."""
    with open(path, "rb") as f:
        if f.read(4) != OCC_MAGIC:
            raise ConfigError(f"{path}: not an OCC1 file")
        x, y, z, ox, oy, oz, voxel_size, c, empty, has_probs = _unpack(
            f, path, "<IIIffffIIB"
        )
        if c != num_classes:
            raise ConfigError(f"{path}: class count {c} is not num_classes {num_classes}")
        if 0 in (x, y, z):
            raise ConfigError(f"{path}: grid dimensions {x}x{y}x{z} must all be >= 1")
        if empty != 0:
            raise ConfigError(f"{path}: empty id {empty} is not 0")
        if has_probs > 1:
            raise ConfigError(f"{path}: has_probs flag {has_probs} is neither 0 nor 1")
        n = x * y * z * (c + 1)
        _check_payload(f, path, x * y * z + (n * 4 if has_probs else 0))
        labels = np.frombuffer(f.read(x * y * z), dtype=np.uint8).reshape(x, y, z)
        probs = None
        if has_probs:
            probs = np.frombuffer(f.read(n * 4), dtype="<f4").reshape(x, y, z, c + 1)
    if (labels > c).any():
        raise ConfigError(f"{path}: a label exceeds the class count {c}")
    if probs is not None and not ((probs >= 0) & (probs <= 1)).all():
        raise ConfigError(f"{path}: probabilities must be finite and lie in [0, 1]")
    with _invalid_content(path):
        return OccupancyGrid(
            origin=np.array([ox, oy, oz]),
            voxel_size=float(voxel_size),
            labels=labels.copy(),
            probs=probs,
        )
