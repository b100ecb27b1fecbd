"""Domain types for visual-token tensors and the two attention kernels.

Everything downstream (selection, merging, the pipeline) consumes the
types defined here. Inputs are stored at single precision; all
reductions (softmax sums, dot products) accumulate at double precision.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TokenSet",
    "scaled_softmax",
    "class_attention",
    "key_similarity",
]


def _is_int(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_int(name, value) -> int:
    """value as a Python int, so numpy's narrow integers cannot overflow
    later; a ValueError unless ``_is_int(value)``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_ints(name, values) -> tuple[int, ...]:
    """values as a tuple of Python ints; a ValueError unless values is a
    sequence and ``_is_int`` holds for every entry."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
    bad = [value for value in values if not _is_int(value)]
    if bad:
        raise ValueError(f"{name} must be integers, got {bad[0]!r}")
    return tuple(map(int, values))


def _as_bool(name, value) -> bool:
    """value as a Python bool; a ValueError unless it is one or numpy's."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _as_grid(grid) -> tuple[int, int]:
    """grid as two Python ints, so h * w cannot overflow; a ValueError
    unless ``_is_int`` holds for both."""
    try:
        h, w = grid
    except (TypeError, ValueError):
        h = w = None
    if not (_is_int(h) and _is_int(w)):
        raise ValueError(f"grid must be two integers, got {grid!r}")
    return int(h), int(w)


def _check_finite(name, arr):
    # NaN propagates through min and max, and an infinity is one of them,
    # so no elementwise temporary is needed
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
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
        h, w = _as_grid(self.grid)
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
    """Numerically stable softmax of logits / sqrt(scale_dim) over the
    last axis; logits of any rank >= 1 give one distribution per row.

    Subtracts each row's max before exponentiation; sums accumulate at
    double precision. Every row is nonnegative and sums to 1 within 1e-6.
    Allocates one array the size of the logits, the result; the logits
    are left unchanged.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 0 or logits.size == 0:
        raise ValueError("empty logits")
    if not (np.isfinite(logits.min()) and np.isfinite(logits.max())):
        raise ValueError("non-finite logit")
    if scale_dim < 1:
        raise ValueError("scale_dim must be >= 1")
    z = logits / np.sqrt(float(scale_dim))
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def class_attention(tokens: TokenSet) -> np.ndarray:
    """Attention from the class token to every spatial token: an (n,)
    float64 array, nonnegative and summing to 1.

    Each head is softmaxed independently (over the spatial tokens only);
    with multiple heads the per-head distributions are averaged, which
    keeps the result a proper distribution. The logits of all heads come
    from one float64 einsum, which rounds every row the same way, so
    identical keys get exactly equal attention; C-ordered logits keep the
    softmax row sums pairwise even when K is a strided view.
    """
    logits = np.einsum("hnd,hd->hn", tokens.K, tokens.q_cls, dtype=np.float64, order="C")
    return scaled_softmax(logits, tokens.d_k).mean(axis=0)


# float64 key block of the similarity windows
_SIMILARITY_BLOCK_BYTES = 2 << 20
# float64 similarity rows computed at once (see _similarity_windows)
_SIMILARITY_WINDOW_BYTES = 512 << 10


def key_similarity(tokens: TokenSet, centers) -> np.ndarray:
    """Dot-product similarity of the center tokens' keys to every key:
    an (m, n) float64 array, one row per center.

    With multiple heads, the similarity is the dot product of each
    token's concatenated per-head keys (equal to the sum of the per-head
    dot products). The rows are filled from ``_similarity_windows``,
    which documents how they are computed, so they equal bit for bit the
    rows the merge ranks. ``centers`` must be a sequence of integers in
    [0, n), numpy's included but not bools, or it is a ValueError; no
    centers give a (0, n) array.
    """
    centers = _as_ints("centers", centers)
    bad = [c for c in centers if not 0 <= c < tokens.n]
    if bad:
        raise ValueError(f"center {bad[0]} out of range for n={tokens.n}")
    similarity = np.empty((len(centers), tokens.n))
    if centers:
        for start, rows in _similarity_windows(tokens, centers):
            similarity[:, start:start + rows.shape[1]] = rows
    return similarity


def _similarity_windows(tokens: TokenSet, centers):
    """Yield ``(start, rows)`` for consecutive windows of key columns:
    ``rows`` holds the (m, stop - start) float64 similarities of the
    centers to tokens start..stop-1.

    The keys are cast to float64 a block of tokens at a time, into one
    reused buffer of at most ``_SIMILARITY_BLOCK_BYTES`` (or one token),
    and each block is multiplied against the centers' keys with one BLAS
    product, so the float64 keys never exist all at once. The n keys are
    cut into the fewest blocks the budget allows, all of one width but
    the last: 576 ViT-L keys are cast as 3 x 192, not 256 + 256 + 64. A
    window holds as many whole blocks as ``_SIMILARITY_WINDOW_BYTES`` of
    rows holds (3 x 240 AnyRes keys for 82 centers), or every key when
    that covers them (all 576 ViT-L keys for up to 113 centers), but
    never fewer columns than one block or a key's coordinates: each BLAS
    call reads all of the centers' keys, so a narrower window costs more
    calls than the rows it saves. BLAS may round equal dot products
    differently depending on where a column sits, so every token whose
    key equals an earlier token's key (over all heads, with -0.0 equal
    to 0.0) is given that earlier token's column, kept from the earlier
    token's own window: identical keys get exactly equal similarities
    and rank by lower index. The windows share one buffer, so each is
    valid until the next is asked for.
    """
    centers = np.asarray(centers, dtype=np.intp)
    n_heads, n, d_k = tokens.K.shape
    size = n_heads * d_k
    blocks = -(-n // max(1, _SIMILARITY_BLOCK_BYTES // (8 * size)))
    block = -(-n // blocks)
    width = max(_SIMILARITY_WINDOW_BYTES // (8 * centers.size), min(block, size))
    if width >= n:
        width = n
    elif width >= block:
        width -= width % block
    rows = tokens.K.transpose(1, 0, 2)[centers].reshape(centers.size, size)
    rows = rows.astype(np.float64)
    # any fixed probe gives equal keys equal fingerprints; sines of the
    # integers have no simple linear relations, so distinct keys rarely
    # share one. One coordinate per head is read; float32 probe values make
    # every product exact, and einsum sums every token's heads in the same
    # order, so no rounding depends on a key's position.
    probe = np.sin(np.arange(1, n_heads + 1)).astype(np.float32)
    dup, first = _equal_key_columns(
        tokens.K, np.einsum("hn,h->n", tokens.K[:, :, 0], probe, dtype=np.float64))
    leaders, slot = np.unique(first, return_inverse=True)
    kept = np.empty((centers.size, leaders.size))
    similarity = np.empty(centers.size * width)
    buf = np.empty((min(block, width), n_heads, d_k))
    for start in range(0, n, width):
        stop = min(start + width, n)
        window = similarity[: centers.size * (stop - start)].reshape(centers.size, stop - start)
        for s in range(start, stop, block):
            e = min(s + block, stop)
            keys = buf[: e - s]
            keys[:] = tokens.K[:, s:e].transpose(1, 0, 2)
            np.matmul(rows, keys.reshape(e - s, size).T, out=window[:, s - start:e - start])
        lo, hi = np.searchsorted(leaders, (start, stop))
        kept[:, lo:hi] = window[:, leaders[lo:hi] - start]
        lo, hi = np.searchsorted(dup, (start, stop))
        window[:, dup[lo:hi] - start] = kept[:, slot[lo:hi]]
        if stop == n:
            # nothing is cast after the last window, so the key block and the
            # centers' keys are not held while the caller ranks it
            del buf, keys, rows, kept
        yield start, window


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
