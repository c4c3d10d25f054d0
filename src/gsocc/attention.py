"""Desk-scale forward pass of the alternating in-frame / cross-frame attention.

One head, one block, no residuals or normalization layers: the point is to
verify the fusion mechanism's structural properties (row-stochastic
attention, view-local first stage, permutation-equivariant second stage),
not trained behavior. Register tokens ride along with the image tokens and
are retained in the output.

The cross-frame stage must be *bitwise* equivariant under view permutation,
so its key/value rows are put into a canonical content order before the
softmax reductions; the per-view projections are computed block-locally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class TokenSet:
    """Per-view token matrices stacked as (num_views, K, C_tok).

    The last `registers` rows of each view are register tokens.
    """

    tokens: np.ndarray
    registers: int = 0

    def __post_init__(self):
        if self.tokens.ndim != 3:
            raise ShapeError(f"tokens must be (views, K, C), got {self.tokens.shape}")
        if not 0 <= self.registers <= self.tokens.shape[1]:
            raise ShapeError("register count must be within [0, K]")

    @staticmethod
    def from_views(views: list, registers: int = 0) -> "TokenSet":
        views = [np.asarray(v, dtype=np.float64) for v in views]
        if not views:
            raise ShapeError("need at least one view")
        shape = views[0].shape
        if any(v.shape != shape for v in views):
            raise ShapeError("all views must share the same (K, C) token shape")
        return TokenSet(tokens=np.stack(views), registers=registers)

    @property
    def num_views(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class AttentionWeights:
    """Q/K/V projections for the in-frame and cross-frame stages."""

    in_wq: np.ndarray
    in_wk: np.ndarray
    in_wv: np.ndarray
    cross_wq: np.ndarray
    cross_wk: np.ndarray
    cross_wv: np.ndarray

    def __post_init__(self):
        for stage in ("in", "cross"):
            wq, wk, wv = (getattr(self, f"{stage}_{m}") for m in ("wq", "wk", "wv"))
            if wq.ndim != 2 or wq.shape != wk.shape or wq.shape != wv.shape:
                raise ShapeError(f"{stage}-frame Q/K/V projections must share one (C, d_k) shape")

    @staticmethod
    def random(seed: int, c_tok: int, d_k: int | None = None) -> "AttentionWeights":
        """Seeded deterministic weights; d_k defaults to c_tok so one block
        maps a TokenSet back onto its own shape."""
        d_k = c_tok if d_k is None else d_k
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((c_tok, d_k)) / np.sqrt(c_tok) for _ in range(6)]
        return AttentionWeights(*mats)


def attention_rows(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-stochastic attention matrix softmax(q k^T / sqrt(d_k))."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"incompatible Q {q.shape} / K {k.shape}")
    scores = (q @ k.T) / np.sqrt(q.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=1, keepdims=True)


def scaled_dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d_k)) v for single-head 2-D inputs."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != np.asarray(k).shape[0]:
        raise ShapeError(f"K rows {np.asarray(k).shape} must match V rows {v.shape}")
    return attention_rows(q, k) @ v


def in_frame_pass(tokens: TokenSet, weights: AttentionWeights) -> np.ndarray:
    """First stage: self-attention within each view independently.

    Returns the refined token stack (views, K, d). View i's output is a
    function of view i's tokens only.
    """
    out = []
    for t in tokens.tokens:
        q, k, v = t @ weights.in_wq, t @ weights.in_wk, t @ weights.in_wv
        out.append(scaled_dot_attention(q, k, v))
    return np.stack(out)

def cross_frame_pass(refined: np.ndarray, weights: AttentionWeights) -> np.ndarray:
    """Second stage: self-attention over the concatenation of all views.

    Key/value rows are reduced in a canonical content order, which makes the
    output blocks permute bitwise-identically with the input views (the toy
    has no cross-view positional encoding).
    """
    if refined.shape[2] != weights.cross_wq.shape[0]:
        raise ShapeError(
            f"cross-frame projections expect width {weights.cross_wq.shape[0]}, "
            f"got tokens of width {refined.shape[2]}"
        )
    # Block-local projections keep each view's rows independent of view order.
    qs = [t @ weights.cross_wq for t in refined]
    k_all = np.concatenate([t @ weights.cross_wk for t in refined])
    v_all = np.concatenate([t @ weights.cross_wv for t in refined])
    kv = np.concatenate([k_all, v_all], axis=1)
    order = np.lexsort(tuple(kv[:, i] for i in reversed(range(kv.shape[1]))))
    k_sorted, v_sorted = k_all[order], v_all[order]
    # One attention call per view block: identical inputs give identical
    # bits, so permuting views permutes the output blocks exactly.
    out = [scaled_dot_attention(q, k_sorted, v_sorted) for q in qs]
    return np.stack(out)


def alternating_block(tokens: TokenSet, weights: AttentionWeights) -> TokenSet:
    """One in-frame pass per view followed by one cross-frame pass over all
    refined tokens. Output TokenSet has the input's shape."""
    if tokens.num_views < 1:
        raise ShapeError("need at least one view")
    if tokens.tokens.shape[2] != weights.in_wq.shape[0]:
        raise ShapeError(
            f"in-frame projections expect width {weights.in_wq.shape[0]}, "
            f"got tokens of width {tokens.tokens.shape[2]}"
        )
    refined = in_frame_pass(tokens, weights)
    fused = cross_frame_pass(refined, weights)
    if fused.shape != tokens.tokens.shape:
        raise ShapeError(
            f"block output shape {fused.shape} does not match input {tokens.tokens.shape}; "
            "use projections with d_k equal to the token width"
        )
    return TokenSet(tokens=fused, registers=tokens.registers)
