"""Token supplement: enrich each kept token by merging similar tokens.

For every selected token, the k most key-similar tokens (the center
included) form a cluster, and the center is replaced by the class-
attention-weighted average of the cluster's embeddings. Weights are
normalized within each cluster by default so the merged embedding keeps
the scale of its members; an unnormalized mode is available for
comparison. Every shape is ranked by one loop over the windows of
similarity rows that ``core._similarity_windows`` picks and fills (on
a large image, each key block's product split across threads by column
ranges, with the bytes of the serial product): each row keeps a running
top k, a window's candidates (its entries at or above that window's
k-th largest value) go behind it, and one stable sort keeps the first
k. The windows hold a key block, the centers' float64 keys and one
window, each bounded by a byte budget or by the centers' own keys, and
the ranking O(m·k) more, nothing of size m·n. The clusters are then
merged over blocks of centers; a center whose k members' embeddings
exceed the merge budget is merged one slab of embedding columns at a
time, and every column still sums its members in the same order, so
the result does not depend on the slabs. A floor-fallback image (one
center, k = n) thus never copies all of the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenSet, _as_bool, _as_int, _similarity_windows
from .selection import SelectionResult, attention_values

__all__ = ["ReducedTokenSet", "token_supplement"]

# float64 rows partitioned at once to find each row's k-th value; at
# least one row
_PARTITION_BLOCK_BYTES = 64 << 10
# float32 member embeddings gathered at once by the merge; a single
# center whose k x d members exceed it is merged in the fewest equal
# slabs of columns that fit it, each at least two columns wide (einsum
# sums a lone column in another order), the last moved left to end at d
_MERGE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ReducedTokenSet:
    """The reduced token stack plus everything needed to inspect how it
    was produced: the selection with its diagnostics, and the clusters.

    Row r of ``tokens`` is the r-th selected token merged with its
    cluster. Row r of ``members`` lists that cluster, ranked by
    descending key similarity; row r of ``weights`` holds the attention
    weights the merge applied to those members.
    """

    tokens: np.ndarray  # (m, d) float32
    selection: SelectionResult
    members: np.ndarray  # (m, k) int
    weights: np.ndarray  # (m, k) float64
    n: int

    @property
    def source_indices(self) -> tuple[int, ...]:
        return self.selection.indices

    @property
    def m(self) -> int:
        return len(self.source_indices)

    @property
    def kept_fraction(self) -> float:
        return self.m / self.n

    def stats(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "kept_fraction": self.kept_fraction,
            "compression_ratio": self.n / self.m,
            "method": self.selection.method,
        }


def token_supplement(
    selection: SelectionResult,
    tokens: TokenSet,
    attention,
    k: int,
    normalize: bool = True,
) -> ReducedTokenSet:
    """Merge each selected token with its k most key-similar tokens.

    Members rank by descending similarity, ties broken by lower index.
    Weights are the class-attention values at the members, normalized
    per cluster (uniform fallback when they sum to zero); with
    ``normalize=False`` the raw values are used. Clusters are built
    independently per center and may overlap. With k = 1 the output is
    exactly the original embeddings at the selected indices (pure
    pruning).
    """
    k = _as_int("k", k)
    normalize = _as_bool("normalize", normalize)
    if not 1 <= k <= tokens.n:
        raise ValueError(f"k must be in [1, {tokens.n}]")
    a = attention_values(attention)
    if a.size != tokens.n:
        raise ValueError(f"attention has {a.size} entries, expected n={tokens.n}")
    centers = np.asarray(selection.indices)
    if centers[-1] >= tokens.n:  # indices ascend, so the last is the largest
        raise ValueError(f"index {centers[-1]} out of range for n={tokens.n}")
    if k == 1:
        # the center swap below would make every top-1 the center itself
        members = centers[:, None]
    else:
        members = _nearest(tokens, centers, k)
        # degenerate keys can rank k other tokens above the center's
        # self-similarity; keep the center at the cost of the weakest
        missing = ~(members == centers[:, None]).any(axis=1)
        members[missing, -1] = centers[missing]
    weights = a[members]
    if normalize:
        totals = weights.sum(axis=1, keepdims=True)
        weights = np.divide(weights, totals, out=np.full_like(weights, 1.0 / k),
                            where=totals != 0)
    if normalize and k == 1:
        # bit-exact pruning path; the einsum's zero-started sum would turn -0.0 into 0.0
        refined = tokens.Y[centers]
    else:
        refined = np.empty((centers.size, tokens.d), dtype=tokens.Y.dtype)
        member_bytes = tokens.Y.itemsize * k
        slabs = -(-tokens.d // max(2, _MERGE_BLOCK_BYTES // member_bytes))
        width = -(-tokens.d // slabs)
        step = max(1, _MERGE_BLOCK_BYTES // (member_bytes * width))
        for start in range(0, centers.size, step):
            block = slice(start, start + step)
            for c in range(0, tokens.d, width):
                # the last slab ends at d, overlapping the one before it
                cols = slice(min(c, tokens.d - width), c + width)
                refined[block, cols] = np.einsum("mk,mkd->md", weights[block],
                                                 tokens.Y[members[block], cols],
                                                 dtype=np.float64)
    return ReducedTokenSet(refined, selection, members, weights, tokens.n)


def _nearest(tokens, centers, k):
    """Each center's k most key-similar tokens, largest first, ties by
    lower index: the first k columns of a stable descending sort of its
    similarity row, kept as one running top k over windows of the row.

    The rows come one window of key columns at a time from
    ``_similarity_windows``, at every shape: one window of all 576 keys
    at ViT-L shapes for up to 113 centers, 720 keys (3 x 240) at a time
    for AnyRes's 2880 at 82 centers. Each window is negated in
    place, and only its entries at or above that window's k-th largest
    value are candidates: an entry below it has k larger ones in the
    window, so it cannot be in the row's top k. The candidates are
    copied, in column order, into rows padded with +inf behind the
    running top k, and one stable sort keeps each row's first k. The
    running entries come first and have lower columns, so ties still go
    to the lower index.
    """
    m = centers.size
    values = np.empty((m, 0))
    columns = np.empty((m, 0), dtype=np.intp)
    for start, rows in _similarity_windows(tokens, centers):
        negated = np.negative(rows, out=rows)
        w = rows.shape[1]
        hit = np.flatnonzero(negated <= _kth_smallest(negated, min(k, w)))  # row-major
        row, column = np.divmod(hit, w)
        counts = np.bincount(row, minlength=m)
        kept = values.shape[1]
        span = kept + counts.max()
        # flat positions in joined: each row's candidates behind its running top k
        slot = np.arange(kept, kept + hit.size) - np.repeat(np.cumsum(counts) - counts, counts)
        slot += row * span
        joined = np.full((m, span), np.inf)
        at = np.empty(joined.shape, dtype=np.intp)  # a +inf pad ranks last, never returned
        joined[:, :kept], at[:, :kept] = values, columns
        joined.ravel()[slot], at.ravel()[slot] = negated.ravel()[hit], column + start
        del hit, row, column, slot  # freed before the sort allocates as many again
        order = np.argsort(joined, axis=1, kind="stable")[:, :k]
        order += np.arange(0, joined.size, span)[:, None]  # flat, as slot
        values, columns = joined.ravel()[order], at.ravel()[order]
    return columns


def _kth_smallest(a, k):
    """Each row's k-th smallest value, as an (m, 1) column. The rows are
    partitioned a block of about ``_PARTITION_BLOCK_BYTES`` at a time, so
    the partitioned copy never holds more than one block."""
    kth = np.empty((a.shape[0], 1), dtype=a.dtype)
    step = max(1, _PARTITION_BLOCK_BYTES // (a.itemsize * a.shape[1]))
    for start in range(0, a.shape[0], step):
        block = a[start:start + step]
        kth[start:start + step, 0] = np.partition(block, k - 1, axis=1)[:, k - 1]
    return kth
