import math

import numpy as np
import pytest

from gsocc.attention import (
    AttentionWeights,
    TokenSet,
    alternating_block,
    attention_rows,
    cross_frame_pass,
    in_frame_pass,
    scaled_dot_attention,
)
from gsocc.errors import ShapeError


def attention_oracle(q, k, v):
    """Scalar-loop softmax attention computed with math.exp, no numpy ops."""
    m, d = len(q), len(q[0])
    out = [[0.0] * len(v[0]) for _ in range(m)]
    for i in range(m):
        scores = []
        for j in range(len(k)):
            s = sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d)
            scores.append(s)
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        total = sum(exps)
        probs = [e / total for e in exps]
        for f in range(len(v[0])):
            out[i][f] = sum(probs[j] * v[j][f] for j in range(len(k)))
    return np.array(out)


class TestScaledDotAttention:
    def test_single_key_returns_value_row(self, rng):
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 5))
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_array_equal(out, np.tile(v, (4, 1)))

    def test_identical_keys_give_column_mean(self, rng):
        q = rng.standard_normal((3, 4))
        k = np.tile(rng.standard_normal(4), (6, 1))
        v = rng.standard_normal((6, 2))
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        q = np.array([[1.0, 2.0], [0.0, -3.0]])
        k = np.array([[2.0, 0.0], [1.0, 1.0], [-1.0, 4.0]])
        v = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(
            scaled_dot_attention(q, k, v), attention_oracle(q, k, v), atol=1e-9
        )

    def test_rows_sum_to_one(self, rng):
        for _ in range(50):
            q = rng.standard_normal((5, 3)) * 10
            k = rng.standard_normal((7, 3)) * 10
            rows = attention_rows(q, k)
            assert (rows >= 0).all()
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            scaled_dot_attention(rng.standard_normal((2, 3)), rng.standard_normal((2, 4)),
                                 rng.standard_normal((2, 4)))
        with pytest.raises(ShapeError):
            scaled_dot_attention(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
                                 rng.standard_normal((3, 3)))


class TestAlternatingBlock:
    def test_single_view_in_frame_equals_direct_call(self, rng):
        t = rng.standard_normal((1, 6, 4))
        w = AttentionWeights.random(3, 4)
        stage1 = in_frame_pass(TokenSet(t), w)
        direct = scaled_dot_attention(t[0] @ w.in_wq, t[0] @ w.in_wk, t[0] @ w.in_wv)
        np.testing.assert_array_equal(stage1[0], direct)

    def test_view_permutation_permutes_output_blocks_exactly(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 6))
            ts = TokenSet(rng.standard_normal((n, 5, 6)))
            w = AttentionWeights.random(trial, 6)
            out = alternating_block(ts, w)
            perm = rng.permutation(n)
            out_p = alternating_block(TokenSet(ts.tokens[perm]), w)
            np.testing.assert_array_equal(out_p.tokens, out.tokens[perm])

    def test_in_frame_stage_is_view_local(self, rng):
        ts = TokenSet(rng.standard_normal((3, 4, 5)))
        w = AttentionWeights.random(11, 5)
        before = in_frame_pass(ts, w)
        perturbed = ts.tokens.copy()
        perturbed[1] += rng.standard_normal((4, 5))
        after = in_frame_pass(TokenSet(perturbed), w)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[2], after[2])
        assert not np.array_equal(before[1], after[1])

    def test_output_shape_matches_input(self, rng):
        ts = TokenSet(rng.standard_normal((4, 7, 3)), registers=2)
        out = alternating_block(ts, AttentionWeights.random(5, 3))
        assert out.tokens.shape == ts.tokens.shape
        assert out.registers == 2

    def test_inconsistent_view_shapes_rejected(self, rng):
        with pytest.raises(ShapeError):
            TokenSet.from_views([rng.standard_normal((3, 4)), rng.standard_normal((2, 4))])

    def test_token_width_must_match_projections(self, rng):
        ts = TokenSet(rng.standard_normal((2, 3, 4)))
        with pytest.raises(ShapeError):
            alternating_block(ts, AttentionWeights.random(0, 5))

    def test_cross_frame_pass_mixes_views(self, rng):
        refined = rng.standard_normal((2, 3, 4))
        w = AttentionWeights.random(2, 4)
        out = cross_frame_pass(refined, w)
        perturbed = refined.copy()
        perturbed[1] += 1.0
        out2 = cross_frame_pass(perturbed, w)
        assert not np.array_equal(out[0], out2[0])
