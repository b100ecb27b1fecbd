"""Domain types for visual-token tensors and the two attention kernels.

Everything downstream (selection, merging, the pipeline) consumes the
types defined here. Inputs are stored at single precision; all
reductions (softmax sums, dot products) accumulate at double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TokenSet",
    "AttentionVector",
    "scaled_softmax",
    "class_attention",
    "key_similarity",
]


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class TokenSet:
    """One image's penultimate-layer tensors.

    Attributes
    ----------
    grid : (h, w)
        Spatial layout of the tokens; h * w must equal n.
    q_cls : ndarray, shape (n_heads, d_k)
        Class-token query, one row per attention head.
    K : ndarray, shape (n_heads, n, d_k)
        Per-token keys.
    Y : ndarray, shape (n, d)
        Output token embeddings y_1..y_n.
    """

    grid: tuple[int, int]
    q_cls: np.ndarray
    K: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_cls", np.asarray(self.q_cls, dtype=np.float32))
        object.__setattr__(self, "K", np.asarray(self.K, dtype=np.float32))
        object.__setattr__(self, "Y", np.asarray(self.Y, dtype=np.float32))
        h, w = self.grid
        if self.q_cls.ndim != 2:
            raise ValueError("q_cls must be 2-d (n_heads, d_k)")
        if self.K.ndim != 3:
            raise ValueError("K must be 3-d (n_heads, n, d_k)")
        if self.Y.ndim != 2:
            raise ValueError("Y must be 2-d (n, d)")
        n_heads, d_k = self.q_cls.shape
        if self.K.shape[0] != n_heads or self.K.shape[2] != d_k:
            raise ValueError(
                f"K shape {self.K.shape} does not match q_cls shape {self.q_cls.shape}"
            )
        n = self.K.shape[1]
        if self.Y.shape[0] != n:
            raise ValueError(f"Y has {self.Y.shape[0]} rows, expected n={n}")
        if h < 1 or w < 1 or h * w != n:
            raise ValueError(f"grid {h}x{w} does not match n={n}")
        if n < 1 or self.Y.shape[1] < 1 or d_k < 1 or n_heads < 1:
            raise ValueError("all dimensions must be >= 1")
        _check_finite("q_cls", self.q_cls)
        _check_finite("K", self.K)
        _check_finite("Y", self.Y)

    @property
    def n(self) -> int:
        return self.K.shape[1]

    @property
    def d(self) -> int:
        return self.Y.shape[1]

    @property
    def d_k(self) -> int:
        return self.q_cls.shape[1]

    @property
    def n_heads(self) -> int:
        return self.q_cls.shape[0]


@dataclass(frozen=True)
class AttentionVector:
    """Softmaxed class-to-spatial attention: nonnegative, sums to 1."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError("attention must be a nonempty vector")
        _check_finite("attention", self.a)
        if np.any(self.a < 0):
            raise ValueError("attention entries must be nonnegative")
        total = float(self.a.sum())
        if abs(total - 1.0) > 1e-5:
            raise ValueError(f"attention sums to {total}, expected 1")

    @property
    def n(self) -> int:
        return self.a.size


def scaled_softmax(logits, scale_dim: int) -> np.ndarray:
    """Numerically stable softmax of logits / sqrt(scale_dim).

    Subtracts the max before exponentiation; sums accumulate at double
    precision. The output is nonnegative and sums to 1 within 1e-6.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logit")
    if scale_dim < 1:
        raise ValueError("scale_dim must be >= 1")
    z = logits / np.sqrt(float(scale_dim))
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def class_attention(tokens: TokenSet) -> AttentionVector:
    """Attention from the class token to every spatial token.

    Each head is softmaxed independently (over the spatial tokens only);
    with multiple heads the per-head distributions are averaged, which
    keeps the result a proper distribution.
    """
    per_head = np.empty((tokens.n_heads, tokens.n), dtype=np.float64)
    for h in range(tokens.n_heads):
        logits = tokens.K[h].astype(np.float64) @ tokens.q_cls[h].astype(np.float64)
        per_head[h] = scaled_softmax(logits, tokens.d_k)
    return AttentionVector(per_head.mean(axis=0))


def key_similarity(tokens: TokenSet, centers) -> np.ndarray:
    """Dot-product similarity of the center tokens' keys to every key:
    an (m, n) float64 array, one row per center.

    With multiple heads, each token's per-head keys are concatenated
    into one vector first (equivalent to summing per-head dot products).
    The products use einsum rather than a BLAS matmul: einsum rounds
    every dot product the same way wherever its rows sit, so identical
    keys give exactly equal similarities and rank by lower index.
    """
    # (n_heads, n, d_k) -> (n, n_heads * d_k)
    flat = np.transpose(tokens.K, (1, 0, 2)).reshape(tokens.n, -1).astype(np.float64)
    return np.einsum("md,nd->mn", flat[np.asarray(centers, dtype=np.intp)], flat)
