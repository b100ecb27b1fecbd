"""Token supplement: enrich each kept token by merging similar tokens.

For every selected token, the k most key-similar tokens (the center
included) form a cluster, and the center is replaced by the class-
attention-weighted average of the cluster's embeddings. Weights are
normalized within each cluster by default so the merged embedding keeps
the scale of its members; an unnormalized mode is available for
comparison. The clusters are ranked over windows of key columns, each
window's top k merged into a running top k, then merged over blocks of
centers, so the float64 keys, the similarity rows and the gathered
member embeddings are each bounded by a fixed byte budget, not by n or
m·n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenSet, _similarity_windows, key_similarity
from .selection import SelectionResult, attention_values

__all__ = ["ReducedTokenSet", "token_supplement"]

# float64 similarity rows computed and ranked at once; at least one
# column
_SIMILARITY_WINDOW_BYTES = 8 << 20
# float64 rows partitioned at once to find each row's k-th value; at
# least one row
_PARTITION_BLOCK_BYTES = 64 << 10
# float32 member embeddings gathered at once by the merge; a single
# center whose k x d members exceed it is merged alone
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
    if not 1 <= k <= tokens.n:
        raise ValueError(f"k must be in [1, {tokens.n}]")
    a = attention_values(attention)
    if a.size != tokens.n:
        raise ValueError(f"attention has {a.size} entries, expected n={tokens.n}")
    centers = np.asarray(selection.indices)
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
        step = max(1, _MERGE_BLOCK_BYTES // (tokens.Y.itemsize * k * tokens.d))
        for start in range(0, centers.size, step):
            block = slice(start, start + step)
            refined[block] = np.einsum("mk,mkd->md", weights[block], tokens.Y[members[block]],
                                       dtype=np.float64)
    return ReducedTokenSet(refined, selection, members, weights, tokens.n)


def _nearest(tokens, centers, k):
    """Each center's k most key-similar tokens, as ``_top_k`` ranks them
    over its whole similarity row.

    The rows are computed and ranked one window of key columns at a time,
    about ``_SIMILARITY_WINDOW_BYTES`` each, and each window's top k is
    merged into a running top k by a stable sort. The running entries come
    first and hold lower columns, so ties still go to the lower index.
    Rows that fit one window come from ``key_similarity`` itself.
    """
    width = max(1, _SIMILARITY_WINDOW_BYTES // (8 * centers.size))
    if width >= tokens.n:
        windows = [(0, key_similarity(tokens, centers))]
    else:
        windows = _similarity_windows(tokens, centers, width)
    best = columns = None
    for start, rows in windows:
        top = _top_k(rows, min(k, rows.shape[1]))
        negated = np.take_along_axis(rows, top, axis=1)  # _top_k negated rows
        top += start
        if best is not None:
            negated = np.concatenate((best, negated), axis=1)
            top = np.concatenate((columns, top), axis=1)
            order = np.argsort(negated, axis=1, kind="stable")[:, :k]
            negated = np.take_along_axis(negated, order, axis=1)
            top = np.take_along_axis(top, order, axis=1)
        best, columns = negated, top
    return columns


def _top_k(similarity, k):
    """Column indices of each row's k largest entries, largest first,
    ties by lower index: the first k columns of a stable descending sort.

    Overwrites similarity with its negation. ``_kth_smallest`` finds
    each row's k-th value, and only the entries at least that large (the
    top k plus any ties at the boundary) are sorted.
    """
    negated = np.negative(similarity, out=similarity)
    kth = _kth_smallest(negated, k)
    rows, cols = np.nonzero(negated <= kth)  # row-major: cols ascend within a row
    order = np.lexsort((negated[rows, cols], rows))
    counts = np.bincount(rows, minlength=negated.shape[0])
    starts = np.cumsum(counts) - counts
    return cols[order[starts[:, None] + np.arange(k)]]


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
