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


def class_attention(tokens: TokenSet) -> np.ndarray:
    """Attention from the class token to every spatial token: an (n,)
    float64 array, nonnegative and summing to 1.

    Each head is softmaxed independently (over the spatial tokens only);
    with multiple heads the per-head distributions are averaged, which
    keeps the result a proper distribution. The logits are einsum dot
    products, which round every row the same way, so identical keys get
    exactly equal attention.
    """
    per_head = np.empty((tokens.n_heads, tokens.n), dtype=np.float64)
    for h in range(tokens.n_heads):
        logits = np.einsum("nd,d->n", tokens.K[h].astype(np.float64),
                           tokens.q_cls[h].astype(np.float64))
        per_head[h] = scaled_softmax(logits, tokens.d_k)
    return per_head.mean(axis=0)


def key_similarity(tokens: TokenSet, centers) -> np.ndarray:
    """Dot-product similarity of the center tokens' keys to every key:
    an (m, n) float64 array, one row per center.

    With multiple heads, the similarity is the sum of the per-head dot
    products (equal to concatenating each token's per-head keys). Each
    head's keys are cast to float64 and multiplied with one BLAS
    product. BLAS may round equal dot products differently depending on
    where a column sits, so every token whose key equals an earlier
    token's key (over all heads, with -0.0 equal to 0.0) is given that
    earlier token's column: identical keys get exactly equal
    similarities and rank by lower index.
    """
    centers = np.asarray(centers, dtype=np.intp)
    # any fixed probe gives equal keys equal fingerprints; sines of the
    # integers have no simple linear relations, so distinct keys rarely
    # share one
    probe = np.sin(np.arange(1, tokens.n_heads * tokens.d_k + 1)).reshape(tokens.n_heads, -1)
    similarity = None
    fingerprint = np.zeros(tokens.n)
    for head_keys, head_probe in zip(tokens.K, probe):
        keys = head_keys.astype(np.float64)
        product = keys[centers] @ keys.T
        if similarity is None:
            similarity = product
        else:
            similarity += product
        # einsum rounds every row the same way, so equal keys get equal fingerprints
        fingerprint += np.einsum("nd,d->n", keys, head_probe)
    dup, first = _equal_key_columns(tokens.K, fingerprint)
    similarity[:, dup] = similarity[:, first]
    return similarity


def _equal_key_columns(K, fingerprint):
    """Tokens whose key equals an earlier token's key, and that earlier
    token's index. Only tokens that share a fingerprint are compared,
    byte-wise, so distinct keys with equal fingerprints stay distinct."""
    _, group, counts = np.unique(fingerprint, return_inverse=True, return_counts=True)
    shared = np.flatnonzero(counts[group] > 1)
    if shared.size == 0:
        return shared, shared
    # adding +0.0 turns -0.0 into 0.0, so byte equality is value equality
    keys = K[:, shared].transpose(1, 0, 2).reshape(shared.size, -1) + np.float32(0.0)
    rows = keys.view(np.dtype((np.void, keys[0].nbytes))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    first = shared[first[inverse]]
    dup = first != shared
    return shared[dup], first[dup]
