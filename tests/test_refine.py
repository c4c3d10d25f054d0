import math

import numpy as np
import pytest

from gsocc.errors import ShapeError
from gsocc.refine import SurfaceSnapWeights, refine_positions
from gsocc.synth import SceneSpec, nearest_surface_points

from conftest import random_gaussian_set


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestRefinePositions:
    def test_all_zero_weight_is_identity(self, rng):
        gs = random_gaussian_set(rng, 100)
        out = refine_positions(gs, 0.25, np.zeros((100, 6)))
        np.testing.assert_array_equal(out.means, gs.means)

    def test_sigmoid_saturation_limits(self):
        gs = random_gaussian_set(np.random.default_rng(0), 1)
        w = np.array([[30.0, -30.0, -30.0, -30.0, -30.0, -30.0]])
        out = refine_positions(gs, 0.25, w)
        delta = out.means[0] - gs.means[0]
        np.testing.assert_allclose(delta, [0.25, 0.0, 0.0], atol=1e-9)

    def test_matches_scalar_loop_oracle(self, rng):
        gs = random_gaussian_set(rng, 20)
        delta_max = 0.3
        # The +/- axis rows in the weight order +x, -x, +y, -y, +z, -z.
        rows = np.empty((6, 3))
        rows[0::2] = np.eye(3) * delta_max
        rows[1::2] = -np.eye(3) * delta_max
        w = rng.standard_normal((20, 6)) * 3
        out = refine_positions(gs, delta_max, w)
        for i in range(20):
            expect = np.zeros(3)
            for k in range(6):
                expect += sigmoid(w[i, k]) * rows[k]
            np.testing.assert_allclose(out.means[i] - gs.means[i], expect, atol=1e-9)

    def test_offset_bounded_by_delta_max(self, rng):
        gs = random_gaussian_set(rng, 2000)
        w = rng.standard_normal((2000, 6)) * 5
        out = refine_positions(gs, 0.25, w)
        delta = np.abs(out.means - gs.means)
        assert (delta < 0.25).all()

    def test_offset_never_exceeds_delta_max_even_saturated(self, rng):
        # sigmoid saturates to exact 0/1 in float64 beyond |w| ~ 36, so the
        # open-interval bound closes at the floor; it must never overshoot.
        gs = random_gaussian_set(rng, 500)
        w = rng.standard_normal((500, 6)) * 50
        out = refine_positions(gs, 0.25, w)
        assert (np.abs(out.means - gs.means) <= 0.25).all()

    def test_attributes_bit_identical(self, rng):
        gs = random_gaussian_set(rng, 50)
        out = refine_positions(gs, 0.1, rng.standard_normal((50, 6)))
        assert len(out) == len(gs)
        np.testing.assert_array_equal(out.scales, gs.scales)
        np.testing.assert_array_equal(out.rotations, gs.rotations)
        np.testing.assert_array_equal(out.opacities, gs.opacities)
        np.testing.assert_array_equal(out.semantics, gs.semantics)
        np.testing.assert_array_equal(out.source_index, gs.source_index)

    def test_weight_count_mismatch_raises(self, rng):
        gs = random_gaussian_set(rng, 5)
        with pytest.raises(ShapeError):
            refine_positions(gs, 0.25, np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            refine_positions(gs, 0.25, np.zeros((4, 6)))

    @pytest.mark.parametrize("delta_max", [0.0, -0.25, math.nan, math.inf, -math.inf])
    def test_delta_max_not_finite_and_positive_raises(self, rng, delta_max):
        gs = random_gaussian_set(rng, 5)
        with pytest.raises(ValueError, match="delta_max"):
            refine_positions(gs, delta_max, np.zeros((5, 6)))


class TestSurfaceSnap:
    def test_moves_means_toward_surface(self, rng):
        scene = SceneSpec(seed=0, boxes=(), ground_z=-2.0, ground_class=1,
                          extents_min=np.array([-8.0, -8.0, -4.0]),
                          extents_max=np.array([8.0, 8.0, 4.0]))
        gs = random_gaussian_set(rng, 60, lo=(-4, -4, -2.2), hi=(4, 4, -1.8))
        weights = SurfaceSnapWeights(scene)(gs, 0.25)
        out = refine_positions(gs, 0.25, weights)
        before = np.linalg.norm(gs.means - nearest_surface_points(scene, gs.means), axis=1)
        after = np.linalg.norm(out.means - nearest_surface_points(scene, out.means), axis=1)
        assert (after <= before + 1e-9).all()
        # offsets within a quarter-cell of the surface are recovered almost exactly
        near = before < 0.24
        assert near.any()
        np.testing.assert_allclose(after[near], 0.0, atol=1e-6)
