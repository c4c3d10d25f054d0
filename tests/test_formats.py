import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsocc.core import ROTATION_TOL, S_MIN, DepthMap, GaussianSet, OccupancyGrid
from gsocc.errors import ConfigError, InvalidRotationError
from gsocc.formats import (
    GSB_MAGIC,
    gaussian_block_writer,
    read_depth_map,
    read_gaussian_means,
    read_gaussian_rows,
    read_gaussian_set,
    read_occupancy,
    write_depth_map,
    write_gaussian_set,
    write_occupancy,
)
from gsocc.pipeline import (
    GroundTruthClassAttributes,
    PipelineConfig,
    cast_views,
    write_cast,
    write_gaussians,
    write_scene,
)
from gsocc.sampling import sample_indices, sample_representatives

from conftest import init_oracle, random_gaussian_set


def attribute_rows(gs):
    """The (P, 8 + C) attribute rows of `gs`: its GSB1 records without the means."""
    return np.concatenate([gs.scales, gs.rotations, gs.opacities[:, None], gs.semantics], axis=1)


class TestGSB1:
    def test_roundtrip_exact_at_f32(self, tmp_path, rng):
        gs = random_gaussian_set(rng, 37, num_classes=5)
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, gs)
        back = read_gaussian_set(path)
        assert len(back) == 37 and back.num_classes == 5
        np.testing.assert_array_equal(back.means, gs.means.astype(np.float32))
        np.testing.assert_array_equal(back.semantics, gs.semantics.astype(np.float32))
        np.testing.assert_array_equal(back.source_index, gs.source_index)

    def test_header_layout(self, tmp_path, rng):
        gs = random_gaussian_set(rng, 3, num_classes=2)
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, gs)
        raw = path.read_bytes()
        assert raw[:8] == GSB_MAGIC
        p, c = struct.unpack_from("<II", raw, 8)
        assert (p, c) == (3, 2)
        record_floats = 3 + 3 + 4 + 1 + 2
        assert len(raw) == 16 + p * record_floats * 4 + p * 12

    def test_reader_returns_contiguous_unshared_fields(self, tmp_path, rng):
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, random_gaussian_set(rng, 50, num_classes=4))
        gs = read_gaussian_set(path)
        fields = [gs.means, gs.scales, gs.rotations, gs.opacities, gs.semantics, gs.source_index]
        for f in fields:
            assert f.flags.c_contiguous and f.flags.owndata
        assert all(f.dtype == np.float64 for f in fields[:5])
        for i, a in enumerate(fields):
            for b in fields[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("layout", ["views", "fortran", "empty"])
    def test_writer_bytes_equal_concatenated_records(self, tmp_path, rng, layout):
        p, c = (0, 3) if layout == "empty" else (41, 3)
        # Values that round in f32 (ties to even included), and signed zeros.
        big = rng.standard_normal((2 * p, 16)) * 10.0 ** rng.integers(-8, 8, (2 * p, 16))
        big[::5, ::3] = -0.0
        big[1::7, 1::4] = 1.0 + 2.0**-24
        prov = rng.integers(0, 2**32, size=(2 * p, 6), dtype=np.uint64).astype(np.uint32)
        if layout == "fortran":
            cols = [np.asfortranarray(big[:p, a:b]) for a, b in ((0, 3), (3, 6), (6, 10))]
            opac = big[:p, 10].copy()
            sem, src = np.asfortranarray(big[:p, 11:14]), np.asfortranarray(prov[:p, :3])
        else:
            cols = [big[::2, a:b] for a, b in ((0, 3), (3, 6), (6, 10))]
            opac, sem, src = big[::2, 10], big[::2, 11:14], prov[::2, ::2]
        gs = GaussianSet(*cols, opacities=opac, semantics=sem, source_index=src)
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, gs)
        old = (
            GSB_MAGIC
            + struct.pack("<II", p, c)
            + np.concatenate([*cols, opac[:, None], sem], axis=1).astype("<f4").tobytes()
            + src.astype("<u4").tobytes()
        )
        assert path.read_bytes() == old

    @pytest.mark.parametrize("blocks", [0, 2])
    def test_failed_writer_leaves_no_readable_file(self, tmp_path, rng, blocks):
        # The header is written only when the writer closes without an
        # error, so a stage that fails after whole blocks leaves no file
        # that reads as a smaller set, and no spooled provenance behind.
        path = tmp_path / "set.gsb"
        with pytest.raises(RuntimeError, match="stage failed"):
            with gaussian_block_writer(path, 3) as write:
                for _ in range(blocks):
                    gs = random_gaussian_set(rng, 5)
                    write(gs.means, attribute_rows(gs), np.arange(len(gs)), gs.source_index)
                raise RuntimeError("stage failed")
        assert list(tmp_path.iterdir()) == [path]
        with pytest.raises(ConfigError, match="not a GSB1 file"):
            read_gaussian_means(path)

    def test_pipeline_init_set_rewrites_identically(self, tmp_path):
        config = PipelineConfig.from_dict({"seed": 7, "resolution": [24, 32], "focal": 16.0})
        scene = write_scene(config, tmp_path / "scene.json")
        init_set, _ = write_cast(config, scene, lambda name: tmp_path / name)
        assert len(init_set) > 1000
        path = tmp_path / "gaussians_init.gsb"
        write_gaussian_set(tmp_path / "again.gsb", read_gaussian_set(path))
        assert (tmp_path / "again.gsb").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_streamed_init_equals_whole_set_written(self, tmp_path, workers):
        config = PipelineConfig.from_dict(
            {"seed": 7, "resolution": [24, 32], "focal": 16.0, "threads": workers})
        views = list(cast_views(config, write_scene(config, tmp_path / "scene.json")))
        streamed = write_gaussians(config, views, tmp_path / "streamed.gsb")
        attrs = [GroundTruthClassAttributes(v.classes, config.gauss_scale, config.gauss_opacity,
                                            config.num_classes) for v in views]
        # The oracle builds the rays of the valid pixels again; init reads
        # the cast's rays, and the bytes must not tell the two apart.
        gs = init_oracle(config.cameras(), [v.depth for v in views], attrs)
        write_gaussian_set(tmp_path / "whole.gsb", gs)
        assert (tmp_path / "streamed.gsb").read_bytes() == (tmp_path / "whole.gsb").read_bytes()
        np.testing.assert_array_equal(streamed.means, gs.means.astype(np.float32))
        # Provenance names each Gaussian, so equal source_index means equal rows.
        spec = config.sampling_spec()
        kept = sample_representatives(gs, spec, config.seed)
        rows = sample_indices(gs.means, spec, config.seed, n_workers=workers)
        np.testing.assert_array_equal(gs.source_index[rows], kept.source_index)
        from_file = sample_representatives(streamed, spec, config.seed, n_workers=workers)
        from_set = sample_representatives(read_gaussian_set(streamed.path), spec, config.seed)
        for name in ("means", "scales", "rotations", "opacities", "semantics", "source_index"):
            np.testing.assert_array_equal(getattr(from_file, name), getattr(from_set, name))

    def test_rows_reader_loads_rows_in_the_given_order(self, tmp_path, rng):
        path = tmp_path / "set.gsb"
        write_gaussian_set(path, random_gaussian_set(rng, 3 * (1 << 13) + 5))
        whole = read_gaussian_set(path)
        rows = rng.integers(0, len(whole), size=200)
        got = read_gaussian_rows(path, rows)
        for name in ("means", "scales", "rotations", "opacities", "semantics", "source_index"):
            np.testing.assert_array_equal(getattr(got, name), getattr(whole.take(rows), name))
        np.testing.assert_array_equal(read_gaussian_means(path).means, whole.means)
        with pytest.raises(ConfigError, match="rows must lie in"):
            read_gaussian_rows(path, [len(whole)])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.gsb"
        path.write_bytes(b"NOPE0000" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            read_gaussian_set(path)


class TestDPM1:
    def test_roundtrip_with_sentinel(self, tmp_path, rng):
        depth = rng.uniform(1, 9, size=(6, 7))
        depth[2, 3] = np.inf
        dm = DepthMap(depth=depth, uncertainty=np.full((6, 7), 0.25))
        path = tmp_path / "d.dpm"
        write_depth_map(path, dm)
        back = read_depth_map(path)
        assert np.isinf(back.depth[2, 3])
        np.testing.assert_array_equal(back.depth, depth.astype(np.float32))
        np.testing.assert_array_equal(back.uncertainty, np.float32(0.25) * np.ones((6, 7)))


class TestOCC1:
    def grid(self, rng):
        labels = rng.integers(0, 4, size=(5, 4, 3)).astype(np.uint8)
        return OccupancyGrid(origin=np.array([-1.0, 0.0, 2.0]), voxel_size=0.5, labels=labels)

    def test_roundtrip_labels_only(self, tmp_path, rng):
        grid = self.grid(rng)
        path = tmp_path / "g.occ"
        write_occupancy(path, grid, num_classes=3)
        back = read_occupancy(path, 3)
        assert back.probs is None
        assert back.dims == (5, 4, 3)
        assert back.voxel_size == 0.5
        np.testing.assert_array_equal(back.labels, grid.labels)
        np.testing.assert_allclose(back.origin, grid.origin, atol=1e-7)

    def test_roundtrip_with_probs(self, tmp_path, rng):
        grid = self.grid(rng)
        probs = rng.dirichlet(np.ones(4), size=(5, 4, 3))
        path = tmp_path / "g.occ"
        write_occupancy(path, grid, num_classes=3, probs=probs)
        back = read_occupancy(path, 3).probs
        np.testing.assert_array_equal(back, probs.astype(np.float32))

    @pytest.mark.parametrize("num_classes", [2, 4, 255])
    def test_other_class_count_rejected(self, tmp_path, rng, num_classes):
        path = tmp_path / "g.occ"
        write_occupancy(path, self.grid(rng), num_classes=3)
        with pytest.raises(ConfigError, match=f"class count 3 is not num_classes {num_classes}"):
            read_occupancy(path, num_classes)

    def test_prob_shape_validated(self, tmp_path, rng):
        grid = self.grid(rng)
        with pytest.raises(ConfigError):
            write_occupancy(tmp_path / "g.occ", grid, num_classes=3,
                            probs=np.zeros((5, 4, 3, 2)))


def _occ_with_probs(path, rng):
    labels = rng.integers(0, 3, size=(4, 4, 2)).astype(np.uint8)
    grid = OccupancyGrid(origin=np.zeros(3), voxel_size=0.5, labels=labels)
    write_occupancy(path, grid, num_classes=2, probs=rng.dirichlet(np.ones(3), size=(4, 4, 2)))


WRITERS = {
    "gsb": lambda path, rng: write_gaussian_set(path, random_gaussian_set(rng, 4)),
    "dpm": lambda path, rng: write_depth_map(
        path, DepthMap(depth=rng.uniform(1, 5, size=(3, 4)), uncertainty=np.ones((3, 4)))),
    "occ": _occ_with_probs,
}
READERS = {"gsb": read_gaussian_set, "dpm": read_depth_map,
           "occ": lambda path: read_occupancy(path, 2)}


# Values a GSB record can hold that no Gaussian may have: (field, value).
BAD_GAUSSIAN_VALUES = {
    "opacity-3.0": ("opacities", 3.0),
    "opacity-nan": ("opacities", np.nan),
    "scale-nan": ("scales", np.nan),
    "mean-nan": ("means", np.nan),
    "logit-inf": ("semantics", np.inf),
}


@pytest.mark.parametrize("fmt, damage", [
    pytest.param(fmt, damage, id=f"{fmt}-{damage}")
    for fmt in ("gsb", "dpm", "occ")
    for damage in ("truncated-payload", "trailing-bytes", "truncated-header")
] + [pytest.param("gsb", damage, id=f"gsb-{damage}") for damage in BAD_GAUSSIAN_VALUES] + [
    pytest.param("occ", "zero-dim", id="occ-zero-dim"),
])
def test_malformed_file_rejected_naming_it(tmp_path, rng, fmt, damage):
    path = tmp_path / f"bad.{fmt}"
    if damage in BAD_GAUSSIAN_VALUES:
        gs = random_gaussian_set(rng, 4)
        field, value = BAD_GAUSSIAN_VALUES[damage]
        getattr(gs, field)[1] = value
        write_gaussian_set(path, gs)
    else:
        WRITERS[fmt](path, rng)
        raw = path.read_bytes()
        # zero-dim: X = 0 and no payload, a length the header agrees with.
        path.write_bytes({"truncated-payload": raw[:-1], "trailing-bytes": raw + b"\0\0",
                          "truncated-header": raw[:10],
                          "zero-dim": raw[:4] + bytes(4) + raw[8:41]}[damage])
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        READERS[fmt](path)


# Byte patches that keep a file's length but put a value its type forbids
# into it: (format, byte offset, bytes). The OCC1 header is 41 bytes.
OUT_OF_RANGE_PATCHES = {
    "gsb-mean-signaling-nan": ("gsb", 16, struct.pack("<I", 0x7F800001)),
    "dpm-depth-nan": ("dpm", 12, struct.pack("<f", np.nan)),
    "dpm-depth-signaling-nan": ("dpm", 12, struct.pack("<I", 0x7F800001)),
    "dpm-depth-minus-inf": ("dpm", 12, struct.pack("<f", -np.inf)),
    "dpm-uncertainty-inf": ("dpm", 12 + 12 * 4, struct.pack("<f", np.inf)),
    "dpm-uncertainty-nan": ("dpm", 12 + 12 * 4, struct.pack("<f", np.nan)),
    "occ-origin-nan": ("occ", 16, struct.pack("<f", np.nan)),
    "occ-voxel-size-nan": ("occ", 28, struct.pack("<f", np.nan)),
    "occ-voxel-size-inf": ("occ", 28, struct.pack("<f", np.inf)),
    "occ-empty-id-above-classes": ("occ", 36, struct.pack("<I", 3)),
    "occ-empty-id-1": ("occ", 36, struct.pack("<I", 1)),
    "occ-has-probs-2": ("occ", 40, b"\x02"),
    "occ-label-above-classes": ("occ", 41, b"\x03"),
    "occ-prob-nan": ("occ", 41 + 32, struct.pack("<f", np.nan)),
    "occ-prob-above-1": ("occ", 41 + 32, struct.pack("<f", 2.0)),
}


@pytest.mark.parametrize("damage", sorted(OUT_OF_RANGE_PATCHES))
def test_out_of_range_value_rejected_naming_it(tmp_path, rng, damage):
    fmt, offset, patch = OUT_OF_RANGE_PATCHES[damage]
    path = tmp_path / f"bad.{fmt}"
    WRITERS[fmt](path, rng)
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        READERS[fmt](path)


@pytest.mark.parametrize("fmt, c", [("gsb", 2**31), ("gsb", 0), ("occ", 2**31), ("occ", 256)])
def test_class_count_outside_u8_labels_rejected(tmp_path, fmt, c):
    # An empty set or a label-only grid would otherwise declare any u32
    # class count, and rendering it allocates one field channel per class.
    path = tmp_path / f"wide.{fmt}"
    path.write_bytes(GSB_MAGIC + struct.pack("<II", 0, c) if fmt == "gsb" else
                     b"OCC1" + struct.pack("<IIIffffIIB", 1, 1, 1, 0, 0, 0, 0.5, c, 0, 0) + b"\0")
    with pytest.raises(ConfigError, match="class count"):
        READERS[fmt](path)


def _valid_file(fmt: str, seed: int, path) -> None:
    """A small valid file of format `fmt`, its content drawn from `seed`."""
    rng = np.random.default_rng(seed)
    if fmt.startswith("gsb"):
        write_gaussian_set(path, random_gaussian_set(rng, int(rng.integers(1, 5)),
                                                     num_classes=int(rng.integers(1, 4))))
    elif fmt == "dpm":
        depth = rng.uniform(0.0, 9.0, size=tuple(rng.integers(1, 5, size=2)))
        depth[rng.random(depth.shape) < 0.3] = np.inf
        write_depth_map(path, DepthMap(depth=depth, uncertainty=np.full(depth.shape, 0.05)))
    else:
        dims, c = tuple(int(d) for d in rng.integers(1, 4, size=3)), int(rng.integers(1, 4))
        grid = OccupancyGrid(origin=rng.uniform(-9, 9, size=3), voxel_size=0.5,
                             labels=rng.integers(0, c + 1, size=dims).astype(np.uint8))
        probs = rng.dirichlet(np.ones(c + 1), size=dims) if fmt == "occ-probs" else None
        write_occupancy(path, grid, num_classes=c, probs=probs)


def _occ_classes(path) -> int:
    """The class count in the header of the OCC1 file at `path`."""
    return struct.unpack_from("<I", path.read_bytes(), 32)[0]


def _damage_reader(fmt: str, path):
    """The reader the damage test calls for `fmt`. The GSB1 rows reader asks
    for the last row of the undamaged file at `path`, then the first; the
    OCC1 reader asks for the class count of the undamaged file."""
    if fmt.startswith("occ"):
        c = _occ_classes(path)
        return lambda p: read_occupancy(p, c)
    if fmt == "gsb-means":
        return read_gaussian_means
    if fmt == "gsb-rows":
        rows = [len(read_gaussian_set(path)) - 1, 0]
        return lambda p: read_gaussian_rows(p, rows)
    return READERS[fmt[:3]]


def _assert_valid_read(fmt: str, result, c=None) -> None:
    """What a reader returns must hold its type's invariants, with no NaN;
    an OCC1 grid those of `c` classes."""
    if fmt == "gsb-means":
        assert result.means.shape == (len(result), 3) and np.isfinite(result.means).all()
        assert 1 <= result.num_classes <= 255
    elif fmt.startswith("gsb"):
        result.validate()
        assert 1 <= result.num_classes <= 255
    elif fmt == "dpm":
        assert ((result.depth >= 0) | (result.depth == np.inf)).all()
        assert (np.isfinite(result.uncertainty) & (result.uncertainty > 0)).all()
    else:
        grid, probs = result, result.probs
        assert np.isfinite(grid.origin).all()
        assert np.isfinite(grid.voxel_size) and grid.voxel_size > 0
        assert (grid.labels <= c).all()
        if probs is not None:
            assert probs.shape == (*grid.dims, c + 1)
            assert ((probs >= 0) & (probs <= 1)).all()


@settings(max_examples=600, deadline=None)
@given(
    fmt=st.sampled_from(["gsb", "gsb-means", "gsb-rows", "dpm", "occ", "occ-probs"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_damaged_file_reads_valid_or_raises_config_error(fmt, seed, data):
    """Truncated, extended and bit-flipped files: a reader either returns a
    valid object or raises ConfigError, never another exception. The GSB1
    means reader checks every row, so it accepts what read_gaussian_set
    accepts and returns the same means."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.bin"
        _valid_file(fmt, seed, path)
        read = _damage_reader(fmt, path)
        c = _occ_classes(path) if fmt.startswith("occ") else None
        _assert_valid_read(fmt, read(path), c)
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(1, 3), label="damages")):
            damage = data.draw(st.sampled_from(["truncate", "extend", "flip"]), label="damage")
            if damage == "truncate":
                del raw[data.draw(st.integers(0, max(len(raw) - 1, 0)), label="keep"):]
            elif damage == "extend":
                raw += data.draw(st.binary(min_size=1, max_size=16), label="tail")
            elif raw:
                bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
                raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            result = read(path)
        except ConfigError:
            return
        _assert_valid_read(fmt, result, c)
        if fmt == "gsb-means":
            np.testing.assert_array_equal(result.means, read_gaussian_set(path).means)


def _f32_steps(x: float, n: int) -> np.float32:
    """The float32 `n` representable steps from float32(x) (down for n < 0)."""
    y = np.float32(x)
    for _ in range(abs(n)):
        y = np.nextafter(y, np.float32(np.inf if n > 0 else -np.inf))
    return y


# One GSB1 boundary file per case: {record column: f32 value} patches on
# rows of a valid set, and whether read_gaussian_set accepts the result.
# Columns: mean 0-2, scale 3-5, rotation 6-9 (w first), opacity 10, logits 11+.
_SNAN = np.array([0x7FA00000], dtype=np.uint32).view(np.float32)[0]
BOUNDARY_RECORDS = {
    "scale-below-s-min": ({4: _f32_steps(S_MIN, -1)}, False),
    "scale-at-f32-s-min": ({4: _f32_steps(S_MIN, 0)}, True),
    "scale-above-s-min": ({4: _f32_steps(S_MIN, 1)}, True),
    "opacity-one": ({10: np.float32(1.0)}, True),
    "opacity-one-plus-ulp": ({10: _f32_steps(1.0, 1)}, False),
    "opacity-zero": ({10: np.float32(0.0)}, True),
    "opacity-negative-zero": ({10: np.float32(-0.0)}, True),
    "opacity-below-zero": ({10: _f32_steps(0.0, -1)}, False),
    **{
        f"rotation-norm-1{'+' if n > 0 else '-'}{abs(n)}ulp": (
            {6: _f32_steps(1.0, n), 7: np.float32(0.0), 8: np.float32(0.0), 9: np.float32(0.0)},
            abs(float(_f32_steps(1.0, n)) - 1.0) <= ROTATION_TOL,
        )
        for n in (-17, -16, -9, -8, 8, 9)
    },
    **{
        f"{kind}-in-column-{col}": ({col: value}, False)
        for kind, value in (("nan", np.float32(np.nan)), ("snan", _SNAN),
                            ("inf", np.float32(np.inf)), ("-inf", np.float32(-np.inf)))
        for col in (0, 3, 6, 10, 12)
    },
    # Norm 1 + 1.013e-6 in float64, but 1 + 8 ulp (9.5e-7) if summed in f32.
    "rotation-norm-outside-only-in-float64": (
        dict(zip(range(6, 10), np.array([0.016505256295204163, 0.021785171702504158,
                                         -0.9928101301193237, -0.11654636263847351],
                                        dtype=np.float32))),
        False,
    ),
    # Two faults: the reader must report the one validate() checks first.
    "rotation-before-mean": ({6: np.float32(2.0), 1: np.float32(np.nan)}, False),
    "mean-before-logit": ({11: np.float32(np.inf), 2: np.float32(np.nan)}, False),
    "logit-before-opacity": ({10: np.float32(2.0), 11: np.float32(np.nan)}, False),
    "opacity-before-scale": ({5: np.float32(0.0), 10: np.float32(-1.0)}, False),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_RECORDS))
def test_means_reader_agrees_with_set_reader_on_boundary_records(tmp_path, rng, case):
    """read_gaussian_means checks the f32 records without widening them all;
    on records at the edge of every check it accepts exactly what
    read_gaussian_set accepts, with the same error and message, and returns
    the same means."""
    patches, valid = BOUNDARY_RECORDS[case]
    gs = random_gaussian_set(rng, 40, num_classes=2)
    rec = np.empty((len(gs), 13), dtype="<f4")
    for cols, name in ((slice(0, 3), "means"), (slice(3, 6), "scales"), (slice(6, 10), "rotations"),
                       (10, "opacities"), (slice(11, 13), "semantics")):
        rec[:, cols] = getattr(gs, name)
    for row in (0, 17, 39):
        for col, value in patches.items():
            rec[row, col] = value
    path = tmp_path / "edge.gsb"
    path.write_bytes(GSB_MAGIC + struct.pack("<II", len(gs), 2) + rec.tobytes()
                     + np.zeros((len(gs), 3), dtype="<u4").tobytes())
    outcomes = []
    for read in (read_gaussian_set, read_gaussian_means):
        try:
            outcomes.append(read(path).means)
        except ConfigError as e:
            outcomes.append((type(e.__cause__), str(e)))
    if valid:
        # The set reader widens its means to float64; the means reader keeps
        # the f32 the file holds.
        assert (outcomes[0].dtype, outcomes[1].dtype) == (np.float64, np.float32)
        np.testing.assert_array_equal(outcomes[0], outcomes[1])
        np.testing.assert_array_equal(outcomes[1], rec[:, 0:3])
    else:
        assert isinstance(outcomes[0], tuple) and outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (InvalidRotationError, ValueError)
