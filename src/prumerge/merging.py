"""Token supplement: enrich each kept token by merging similar tokens.

For every selected token, the k most key-similar tokens (the center
included) form a cluster, and the center is replaced by the class-
attention-weighted average of the cluster's embeddings. Weights are
normalized within each cluster by default so the merged embedding keeps
the scale of its members; an unnormalized mode is available for
comparison. The similarity rows are computed over windows of key
columns; each window only selects every row's candidates, the entries
at or above that window's k-th largest value, and one stable sort
ranks the candidates at the end. The clusters are then merged over
blocks of centers. The float64 keys and the similarity rows are each
bounded by a fixed byte budget or by the centers' own keys, and the
candidates by O(m·k), not by n or m·n. The gathered member
embeddings are bounded too: a center whose k members' embeddings
exceed the merge budget is merged one slab of embedding columns at a
time, and every column still sums its members in the same order, so
the result does not depend on the slabs. A floor-fallback image (one
center, k = n) thus never copies all of the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenSet, _key_block, _similarity_windows, key_similarity
from .selection import SelectionResult, attention_values

__all__ = ["ReducedTokenSet", "token_supplement"]

# float64 similarity rows computed at once (see _window_width)
_SIMILARITY_WINDOW_BYTES = 512 << 10
# candidates a row holds between windows, in multiples of k, before
# they are folded back to its top k
_CANDIDATES_PER_K = 5
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
    """Each center's k most key-similar tokens, as ``_top_k`` ranks them
    over its whole similarity row.

    Rows that fit one window (ViT-L shapes) come from ``key_similarity``
    and are ranked at once. Larger rows are computed one window of
    ``_window_width`` key columns at a time, and a window only selects:
    each row's entries at or above that window's k-th largest value are
    scattered, in column order, behind the row's earlier candidates. An
    entry below it has k larger ones in the window, so it cannot be in
    the row's top k. When the candidates would outgrow
    ``_CANDIDATES_PER_K`` x k per row, they are folded back to each row's
    top k; one ``_top_k`` ranks them at the end. Equal values stay in
    column order, so ties still go to the lower index.
    """
    width = _window_width(tokens, centers.size)
    if width == tokens.n:
        return _top_k(key_similarity(tokens, centers), k)
    m = centers.size
    values = np.full((m, _CANDIDATES_PER_K * k), -np.inf)
    columns = np.empty(values.shape, dtype=np.intp)
    fill = np.zeros(m, dtype=np.intp)
    for start, rows in _similarity_windows(tokens, centers, width):
        w = rows.shape[1]
        hit = np.flatnonzero(rows >= _kth_smallest(rows, max(1, w - k + 1)))
        counts = np.bincount(hit // w, minlength=m)
        if (fill + counts).max() > values.shape[1]:
            fill = _fold(values, columns, fill, k)
            extra = (fill + counts).max() - values.shape[1]
            if extra > 0:  # more ties at a window's k-th value than free slots
                values = np.pad(values, ((0, 0), (0, extra)), constant_values=-np.inf)
                columns = np.pad(columns, ((0, 0), (0, extra)))
        _scatter(rows, hit, counts, values, columns, fill, start)
        fill += counts
    return np.take_along_axis(columns, _top_k(values, k), axis=1)


def _window_width(tokens, m):
    """Key columns per similarity window of m centers: as many whole key
    blocks as ``_SIMILARITY_WINDOW_BYTES`` of rows holds (3 x 240 keys at
    AnyRes shape), or n when that covers every key. A window is never
    narrower than one key block or a key's coordinates, whichever is
    fewer: each BLAS call reads all of the centers' keys, so narrower
    windows cost more calls than the rows they save, and those rows
    would be no larger than the centers' float64 keys already are."""
    size = tokens.n_heads * tokens.d_k
    block = _key_block(tokens.n, size)
    width = max(_SIMILARITY_WINDOW_BYTES // (8 * m), min(block, size))
    if width >= tokens.n:
        return tokens.n
    return width - width % block if width >= block else width


def _fold(values, columns, fill, k):
    """Keep each row's top k candidates at the front of the buffers, in
    rank order, so equal values stay in column order, and return the new
    fill. Free slots hold -inf."""
    keep = _top_k(values, k)  # negates values
    kept = np.negative(np.take_along_axis(values, keep, axis=1))
    columns[:, :k] = np.take_along_axis(columns, keep, axis=1)
    values[:, :k] = kept
    values[:, k:] = -np.inf
    return np.minimum(fill, k)


def _scatter(source, hit, counts, values, columns, fill, start):
    """Copy the entries of source at the row-major flat indices hit, each
    row's counts[r] of them, into values behind that row's first fill[r],
    in order, and their column indices plus start into columns."""
    m, w = source.shape
    cap = values.shape[1]
    starts = np.cumsum(counts) - counts
    slots = np.repeat(np.arange(0, m * cap, cap) + fill - starts, counts)
    slots += np.arange(hit.size)
    values.ravel()[slots] = source.ravel()[hit]
    column = np.remainder(hit, w)
    column += start
    columns.ravel()[slots] = column


def _top_k(similarity, k):
    """Column indices of each row's k largest entries, largest first,
    ties by lower index: the first k columns of a stable descending sort.

    Overwrites similarity with its negation. ``_kth_smallest`` finds
    each row's k-th value, and only the entries at least that large (the
    top k plus any ties at the boundary) are copied, in column order,
    into rows padded with +inf, which one stable sort ranks row by row.
    """
    negated = np.negative(similarity, out=similarity)
    m, w = negated.shape
    hit = np.flatnonzero(negated <= _kth_smallest(negated, k))  # row-major
    counts = np.bincount(hit // w, minlength=m)
    values = np.full((m, counts.max()), np.inf)
    columns = np.empty(values.shape, dtype=np.intp)
    _scatter(negated, hit, counts, values, columns, 0, 0)
    order = np.argsort(values, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(columns, order, axis=1)


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
