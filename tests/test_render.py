import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gsocc
from gsocc import render
from gsocc.core import S_MIN, GaussianSet, quaternion_to_matrices
from gsocc.render import render_grid, render_grid_bruteforce

from conftest import random_gaussian_set
from test_core import rotation_matrix_oracle


def make_set(means, scales, rotations, opacities, semantics):
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    n = means.shape[0]
    return GaussianSet(
        means=means,
        scales=np.atleast_2d(np.asarray(scales, dtype=np.float64)),
        rotations=np.atleast_2d(np.asarray(rotations, dtype=np.float64)),
        opacities=np.asarray(opacities, dtype=np.float64).reshape(n),
        semantics=np.atleast_2d(np.asarray(semantics, dtype=np.float64)),
        source_index=np.zeros((n, 3), dtype=np.uint32),
    )


IDENT_Q = [1.0, 0.0, 0.0, 0.0]


def probs_at(x, gs):
    """(C+1,) probability vector rendered at x: the single voxel of a 1x1x1
    grid of voxel size 1 whose center is x."""
    origin = np.asarray(x, dtype=np.float64) - 0.5
    return render_grid(gs, (1, 1, 1), origin, 1.0).probs[0, 0, 0]


def phi_at(x, mean, scale, q, opacity=0.5):
    """Kernel value of one Gaussian at x, read from the rendered occupancy
    alpha = opacity * phi."""
    gs = make_set(mean, scale, q, [opacity], [[0.0, 0.0]])
    return (1.0 - probs_at(x, gs)[0]) / opacity


class TestKernel:
    def test_value_one_at_mean(self):
        # Opacity 1: alpha is exactly 1 only if phi is exactly 1.
        mean = [1.0, 2.0, 3.0]
        assert phi_at(mean, mean, [0.3, 0.2, 0.1], IDENT_Q, opacity=1.0) == 1.0

    def test_unit_scale_closed_form(self):
        phi = phi_at([1.0, 0.0, 0.0], np.zeros(3), np.ones(3), IDENT_Q)
        assert phi == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_cutoff_at_three_sigma(self):
        args = (np.zeros(3), np.ones(3), IDENT_Q)
        assert phi_at([3.0001, 0.0, 0.0], *args) == 0.0
        assert phi_at([2.9999, 0.0, 0.0], *args) > 0.0
        # origin 2.5, voxel size 1: the voxel center is exactly 3.0, m = 3
        assert phi_at([3.0, 0.0, 0.0], *args) == pytest.approx(math.exp(-4.5))

    def test_matches_explicit_inverse_oracle(self, rng):
        for _ in range(30):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            scale = rng.uniform(0.1, 1.5, size=3)
            mean = rng.uniform(-2, 2, size=3)
            r = rotation_matrix_oracle(q)
            cov = r @ np.diag(scale**2) @ r.T
            inv = np.linalg.inv(cov)
            x = mean + rng.uniform(-1, 1, size=3)
            d = x - mean
            m2 = d @ inv @ d
            expected = math.exp(-0.5 * m2) if m2 <= 9.0 else 0.0
            assert phi_at(x, mean, scale, q, opacity=0.7) == pytest.approx(expected, abs=1e-7)


def alpha_at(x, gs):
    return 1.0 - probs_at(x, gs)[0]


class TestAlpha:
    def test_empty_set(self):
        gs = make_set(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)),
                      np.zeros(0), np.zeros((0, 2)))
        assert alpha_at(np.zeros(3), gs) == 0.0

    def test_single_gaussian_at_mean(self):
        gs = make_set([0, 0, 0], [1, 1, 1], IDENT_Q, [0.6], [[0.0, 0.0]])
        assert alpha_at(np.zeros(3), gs) == pytest.approx(0.6, abs=1e-12)

    def test_two_independent_contributions(self):
        gs = make_set([[0, 0, 0], [0, 0, 0]], [[1, 1, 1]] * 2, [IDENT_Q] * 2,
                      [0.5, 0.5], [[0.0, 0.0]] * 2)
        assert alpha_at(np.zeros(3), gs) == pytest.approx(0.75, abs=1e-12)

    def test_out_of_range_contributions_skipped(self):
        gs = make_set([[100, 0, 0]], [[1, 1, 1]], [IDENT_Q], [0.9], [[0.0, 0.0]])
        assert alpha_at(np.zeros(3), gs) == 0.0

    def test_full_opacity_at_mean_saturates(self):
        gs = make_set([0, 0, 0], [1, 1, 1], IDENT_Q, [1.0], [[0.0, 0.0]])
        assert alpha_at(np.zeros(3), gs) == 1.0


def semantics_at(x, gs):
    """Posterior-weighted class distribution at x: the class channels
    divided by the occupancy alpha."""
    probs = probs_at(x, gs)
    return probs[1:] / (1.0 - probs[0])


class TestExpectedSemantics:
    def test_single_gaussian_returns_its_softmax(self, rng):
        logits = np.array([0.3, -1.2, 2.0])
        gs = make_set([0.2, 0.1, 0.0], [0.5, 0.5, 0.5], IDENT_Q, [0.42], [logits])
        e = semantics_at(np.zeros(3), gs)
        z = np.exp(logits - logits.max())
        np.testing.assert_allclose(e, z / z.sum(), rtol=1e-15, atol=0)

    def test_symmetric_pair_averages_half_half(self):
        big = 40.0
        gs = make_set(
            [[-1, 0, 0], [1, 0, 0]],
            [[1, 1, 1]] * 2,
            [IDENT_Q] * 2,
            [0.7, 0.7],
            [[big, 0.0], [0.0, big]],
        )
        e = semantics_at(np.zeros(3), gs)
        np.testing.assert_allclose(e, [0.5, 0.5], atol=1e-9)

    def test_zero_denominator_returns_uniform(self):
        # No Gaussian in range: the voxel is empty with certainty.
        gs = make_set([[50, 0, 0]], [[1, 1, 1]], [IDENT_Q], [0.9], [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(probs_at(np.zeros(3), gs), [1, 0, 0, 0])

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            gs = random_gaussian_set(rng, 3, num_classes=4, lo=(-1.5, -1.5, -1.5),
                                     hi=(1.5, 1.5, 1.5), scale_range=(0.5, 1.5))
            x = rng.uniform(-1, 1, size=3)
            got = semantics_at(x, gs)
            num = [0.0] * 4
            den = 0.0
            for i in range(3):
                r = rotation_matrix_oracle(gs.rotations[i])
                d = x - gs.means[i]
                y = r.T @ d
                m2 = sum((y[a] / gs.scales[i][a]) ** 2 for a in range(3))
                phi = math.exp(-0.5 * m2) if m2 <= 9.0 else 0.0
                p = phi / ((2 * math.pi) ** 1.5 * gs.scales[i].prod())
                mx = gs.semantics[i].max()
                exps = [math.exp(v - mx) for v in gs.semantics[i]]
                soft = [v / sum(exps) for v in exps]
                for c in range(4):
                    num[c] += p * gs.opacities[i] * soft[c]
                den += p * gs.opacities[i]
            if den == 0:
                continue
            np.testing.assert_allclose(got, np.array(num) / den, atol=1e-7)


class TestRenderGrid:
    DIMS = (8, 8, 4)
    ORIGIN = np.array([-2.0, -2.0, -1.0])
    VOX = 0.5

    def test_empty_set_renders_all_empty(self):
        gs = make_set(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)),
                      np.zeros(0), np.zeros((0, 3)))
        field = render_grid(gs, self.DIMS, self.ORIGIN, self.VOX)
        np.testing.assert_array_equal(field.probs[..., 0], 1.0)
        np.testing.assert_array_equal(field.probs[..., 1:], 0.0)
        np.testing.assert_array_equal(field.labels, 0)

    def test_direct_vector_arithmetic(self):
        # two coincident a=0.5 Gaussians at a voxel center with equal-logit
        # (0.5, 0.5) semantics: o_hat = (0.25, 0.375, 0.375)
        center = self.ORIGIN + (np.array([4, 4, 2]) + 0.5) * self.VOX
        gs = make_set([center, center], [[0.2, 0.2, 0.2]] * 2, [IDENT_Q] * 2,
                      [0.5, 0.5], [[1.0, 1.0]] * 2)
        field = render_grid(gs, self.DIMS, self.ORIGIN, self.VOX)
        np.testing.assert_allclose(field.probs[4, 4, 2], [0.25, 0.375, 0.375], atol=1e-12)
        # Exact ties take the first channel, as argmax does: the two classes
        # here, and the empty channel against one class at alpha = 0.5.
        half = render_grid(make_set(center, [0.2, 0.2, 0.2], IDENT_Q, [0.5], [[0.0]]),
                           self.DIMS, self.ORIGIN, self.VOX)
        assert half.probs[4, 4, 2].tolist() == [0.5, 0.5]
        assert field.labels[4, 4, 2] == 1 and half.labels[4, 4, 2] == 0
        for f in (field, half):
            assert f.labels.dtype == np.uint8
            np.testing.assert_array_equal(f.labels, f.probs.argmax(axis=-1))

    def test_matches_bruteforce_oracle(self, rng):
        for trial in range(3):
            gs = random_gaussian_set(rng, 200, num_classes=3,
                                     lo=(-2, -2, -1), hi=(2, 2, 1))
            culled = render_grid(gs, self.DIMS, self.ORIGIN, self.VOX)
            brute = render_grid_bruteforce(gs, self.DIMS, self.ORIGIN, self.VOX)
            np.testing.assert_allclose(culled.probs, brute.probs, atol=1e-4)
            np.testing.assert_array_equal(culled.labels, brute.labels)

    def test_probability_vectors_normalized(self, rng):
        gs = random_gaussian_set(rng, 150, lo=(-2, -2, -1), hi=(2, 2, 1))
        field = render_grid(gs, self.DIMS, self.ORIGIN, self.VOX)
        np.testing.assert_allclose(field.probs.sum(axis=-1), 1.0, atol=1e-5)
        assert (field.probs >= 0).all() and (field.probs <= 1).all()

    def test_alpha_monotone_in_gaussians(self, rng):
        gs = random_gaussian_set(rng, 60, lo=(-2, -2, -1), hi=(2, 2, 1))
        sub = gs.take(np.arange(40))
        a_small = 1.0 - render_grid(sub, self.DIMS, self.ORIGIN, self.VOX).probs[..., 0]
        a_big = 1.0 - render_grid(gs, self.DIMS, self.ORIGIN, self.VOX).probs[..., 0]
        assert (a_big >= a_small - 1e-12).all()

    def test_order_invariance(self, rng):
        gs = random_gaussian_set(rng, 120, lo=(-2, -2, -1), hi=(2, 2, 1))
        field = render_grid(gs, self.DIMS, self.ORIGIN, self.VOX)
        perm = rng.permutation(len(gs))
        field_p = render_grid(gs.take(perm), self.DIMS, self.ORIGIN, self.VOX)
        assert np.abs(field.probs - field_p.probs).max() <= 1e-6


def _anisotropic(rng):
    return random_gaussian_set(rng, 80, lo=(-2, -2, -1), hi=(2, 2, 1), scale_range=(0.02, 1.2))


def _straddling_faces(rng):
    gs = random_gaussian_set(rng, 80, lo=(-2, -2, -1), hi=(2, 2, 1))
    axis = rng.integers(0, 3, size=80)
    face = np.where((rng.random(80) < 0.5)[:, None], TestRenderGrid.ORIGIN, -TestRenderGrid.ORIGIN)
    gs.means[np.arange(80), axis] = face[np.arange(80), axis] + rng.uniform(-0.3, 0.3, 80)
    return gs


def _outside_grid(rng):
    gs = random_gaussian_set(rng, 80, lo=(-6, -6, -5), hi=(6, 6, 5))
    gs.means[::2] += 20.0  # boxes entirely outside the grid
    return gs


def _oversized_box(rng):
    gs = random_gaussian_set(rng, 40, lo=(-2, -2, -1), hi=(2, 2, 1))
    gs.scales[17] = [3.0, 2.5, 2.0]  # its box is the whole grid, 256 pairs
    return gs


@pytest.mark.parametrize("make_set", [_anisotropic, _straddling_faces, _outside_grid,
                                      _oversized_box], ids=lambda f: f.__name__[1:])
def test_field_does_not_depend_on_pair_budget(rng, monkeypatch, make_set):
    # A budget of 64 pairs splits the set into many chunks, each mixing box
    # shapes, and leaves larger boxes in chunks of their own.
    gs = make_set(rng)
    grid = (TestRenderGrid.DIMS, TestRenderGrid.ORIGIN, TestRenderGrid.VOX)
    whole = render_grid(gs, *grid)
    monkeypatch.setattr(render, "_PAIR_BUDGET", 64)
    chunked = render_grid(gs, *grid)
    assert np.array_equal(chunked.probs, whole.probs)
    assert whole.probs[..., 0].min() < 1.0
    brute = render_grid_bruteforce(gs, *grid)
    np.testing.assert_allclose(chunked.probs, brute.probs, rtol=0, atol=1e-12)
    # The brute-force loop adds the same log1p(-a * phi) terms in the same
    # order, so the empty channel matches it bit for bit.
    assert np.array_equal(chunked.probs[..., 0], brute.probs[..., 0])


@pytest.mark.parametrize("budget", [64, render._PAIR_BUDGET])
@pytest.mark.parametrize("make_set", [_outside_grid, _oversized_box],
                         ids=lambda f: f.__name__[1:])
def test_chunks_bound_the_padded_pair_count(rng, monkeypatch, make_set, budget):
    # Each chunk is evaluated over its largest box shape, so the budget bounds
    # len(chunk) * prod(max extent), not the sum of the box sizes.
    chunks = []

    def recording_box_pairs(gs, rots, los, ext, idx, axes, dims):
        chunks.append((ext, idx.copy()))
        return box_pairs(gs, rots, los, ext, idx, axes, dims)

    box_pairs = render._box_pairs
    monkeypatch.setattr(render, "_box_pairs", recording_box_pairs)
    monkeypatch.setattr(render, "_PAIR_BUDGET", budget)
    render_grid(make_set(rng), TestRenderGrid.DIMS, TestRenderGrid.ORIGIN, TestRenderGrid.VOX)
    for ext, idx in chunks:
        assert len(idx) == 1 or len(idx) * ext[idx].max(axis=0).prod() <= budget
    # The chunks cover exactly the Gaussians whose box holds a voxel, in order.
    ext = chunks[0][0]
    assert np.array_equal(np.concatenate([idx for _, idx in chunks]),
                          np.flatnonzero(ext.all(axis=1)))


_H = math.sqrt(0.5)
# Quarter and half turns about each axis, each with both quaternion signs,
# and the two cyclic axis permutations. Quarter turns leave entries of about
# -2.2e-16 where the exact matrix has 0; the negated half turns give -0.0
# entries; the permutations have exact 0 and 1 entries only.
AXIS_ALIGNED_QUATS = np.array(
    [[_H, _H, 0, 0], [_H, 0, _H, 0], [_H, 0, 0, _H], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
     [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, -0.5, -0.5]]
)
# Negated as 0 - q, so that their zero components stay +0.
AXIS_ALIGNED_QUATS = np.concatenate([AXIS_ALIGNED_QUATS, 0.0 - AXIS_ALIGNED_QUATS, [IDENT_Q]])


def nine_term_pairs(gs, dims, origin, voxel_size):
    """(Gaussian, flat voxel index, m^2) of every pair with m^2 <= 9, in
    Gaussian then voxel order, with m^2 built from all nine rotation terms:
    y_k = ((d0 * R0k) / s_k + (d1 * R1k) / s_k) + (d2 * R2k) / s_k."""
    rots = quaternion_to_matrices(gs.rotations)
    centers = [origin[a] + (np.arange(dims[a]) + 0.5) * voxel_size for a in range(3)]
    out = []
    for i in range(len(gs)):
        d = np.meshgrid(*(centers[a] - gs.means[i, a] for a in range(3)), indexing="ij")
        r, s = rots[i], gs.scales[i]
        y = [((d[0] * r[0, k]) / s[k] + (d[1] * r[1, k]) / s[k]) + (d[2] * r[2, k]) / s[k]
             for k in range(3)]
        m2 = ((y[0] * y[0] + y[1] * y[1]) + y[2] * y[2]).reshape(-1)
        vox = np.flatnonzero(m2 <= 9.0)
        out.append((np.full(len(vox), i), vox, m2[vox]))
    return [np.concatenate(parts) for parts in zip(*out)]


def render_recording_pairs(gs, grid, monkeypatch):
    """render_grid(gs, *grid) and the (Gaussian, voxel, m^2) pairs and the
    (3, 3) non-zero rotation mask of each chunk it evaluated."""
    pairs, masks = [], []

    def recording_box_pairs(gs, rots, los, ext, idx, axes, dims):
        masks.append(rots[idx].any(axis=0))
        pairs.append(box_pairs(gs, rots, los, ext, idx, axes, dims))
        return pairs[-1]

    box_pairs = render._box_pairs
    with monkeypatch.context() as mp:
        mp.setattr(render, "_box_pairs", recording_box_pairs)
        field = render_grid(gs, *grid)
    return field, [np.concatenate(parts) for parts in zip(*pairs)], masks


def assert_bitwise_the_nine_term_render(gs, grid, monkeypatch):
    field, pairs, masks = render_recording_pairs(gs, grid, monkeypatch)
    for got, want in zip(pairs, nine_term_pairs(gs, *grid)):
        assert np.array_equal(got, want)
    brute = render_grid_bruteforce(gs, *grid)
    assert np.array_equal(field.probs[..., 0], brute.probs[..., 0])
    np.testing.assert_allclose(field.probs, brute.probs, rtol=0, atol=1e-12)
    return masks


def test_axis_aligned_rotations_render_bitwise_the_nine_terms(rng, monkeypatch):
    n = 4 * len(AXIS_ALIGNED_QUATS)
    gs = random_gaussian_set(rng, n, lo=(-2, -2, -1), hi=(2, 2, 1), scale_range=(0.05, 0.8))
    gs.rotations[:] = AXIS_ALIGNED_QUATS[np.arange(n) % len(AXIS_ALIGNED_QUATS)]
    grid = (TestRenderGrid.DIMS, TestRenderGrid.ORIGIN, TestRenderGrid.VOX)
    rots = quaternion_to_matrices(gs.rotations)
    assert (rots == 0).any() and np.signbit(rots[rots == 0]).any()
    for budget in (64, render._PAIR_BUDGET):
        monkeypatch.setattr(render, "_PAIR_BUDGET", budget)
        assert_bitwise_the_nine_term_render(gs, grid, monkeypatch)
        # One at a time, each Gaussian's chunk skips the terms its own zeros allow.
        for i in range(len(AXIS_ALIGNED_QUATS)):
            one = gs.take(np.array([i]))
            masks = assert_bitwise_the_nine_term_render(one, grid, monkeypatch)
            assert [m.tolist() for m in masks] == [(rots[i] != 0).tolist()]


def test_mixed_rotation_chunks_render_bitwise_the_nine_terms(rng, monkeypatch):
    # Runs of exactly axis-aligned Gaussians between generally rotated ones:
    # under a 64-pair budget some chunks skip six terms and some skip none.
    gs = random_gaussian_set(rng, 120, lo=(-2, -2, -1), hi=(2, 2, 1), scale_range=(0.05, 0.8))
    exact = AXIS_ALIGNED_QUATS[3:8]  # half turns and a permutation: 0 and +-1 only
    aligned = (np.arange(120) // 20) % 2 == 0
    gs.rotations[aligned] = exact[rng.integers(0, len(exact), aligned.sum())]
    monkeypatch.setattr(render, "_PAIR_BUDGET", 64)
    grid = (TestRenderGrid.DIMS, TestRenderGrid.ORIGIN, TestRenderGrid.VOX)
    masks = assert_bitwise_the_nine_term_render(gs, grid, monkeypatch)
    used = [int(m.sum()) for m in masks]
    assert 3 in used and 9 in used


@st.composite
def valid_gaussian_sets(draw, num_classes=3):
    n = draw(st.integers(1, 24))
    quats = draw(arrays(np.float64, (n, 4), elements=st.floats(-1.0, 1.0)).filter(
        lambda q: (np.linalg.norm(q, axis=1) > 0.1).all()))
    gs = GaussianSet(
        # The grid spans [-2, 2] x [-2, 2] x [-1, 1]: some means lie outside.
        means=draw(arrays(np.float64, (n, 3), elements=st.floats(-4.0, 4.0))),
        scales=draw(arrays(np.float64, (n, 3), elements=st.floats(S_MIN, 2.0))),
        rotations=quats / np.linalg.norm(quats, axis=1, keepdims=True),
        opacities=draw(arrays(np.float64, n,
                              elements=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))),
        semantics=draw(arrays(np.float64, (n, num_classes), elements=st.floats(-20.0, 20.0))),
        source_index=np.zeros((n, 3), dtype=np.uint32),
    )
    gs.validate()
    return gs


@settings(max_examples=150, deadline=None)
@given(valid_gaussian_sets())
def test_random_valid_sets_render_normalized_and_chunking_free(gs):
    grid = (TestRenderGrid.DIMS, TestRenderGrid.ORIGIN, TestRenderGrid.VOX)
    field = render_grid(gs, *grid)
    assert np.isfinite(field.probs).all()
    np.testing.assert_allclose(field.probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "_PAIR_BUDGET", 64)
        chunked = render_grid(gs, *grid)
    assert np.array_equal(chunked.probs, field.probs)


# Renders 300 randomly rotated Gaussians on a 16^3 grid with both renderers
# and prints the SHA-256 of each field's probs.
_RENDER_DIGESTS = """
import hashlib
import numpy as np
from gsocc.core import GaussianSet
from gsocc.render import render_grid, render_grid_bruteforce
rng = np.random.default_rng(20261018)
n = 300
q = rng.standard_normal((n, 4))
gs = GaussianSet(
    means=rng.uniform(-4.0, 4.0, size=(n, 3)),
    scales=rng.uniform(0.05, 0.8, size=(n, 3)),
    rotations=q / np.linalg.norm(q, axis=1, keepdims=True),
    opacities=rng.uniform(0.05, 0.95, size=n),
    semantics=rng.standard_normal((n, 3)) * 2.0,
    source_index=np.zeros((n, 3), dtype=np.uint32),
)
for render in (render_grid, render_grid_bruteforce):
    field = render(gs, (16, 16, 16), np.full(3, -4.0), 0.5)
    print(hashlib.sha256(field.probs.tobytes()).hexdigest())
"""


def _render_digests(**env):
    src = str(Path(gsocc.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"},
           "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", **env}
    run = subprocess.run([sys.executable, "-c", _RENDER_DIGESTS], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return run.stdout.split()


def test_field_does_not_depend_on_blas_kernel():
    # Prescott is the oldest x86-64 OpenBLAS kernel: no FMA, no AVX. A BLAS
    # product in the Mahalanobis term would round differently under it.
    default = _render_digests()
    assert len(default) == 2
    assert _render_digests(OPENBLAS_CORETYPE="Prescott") == default
