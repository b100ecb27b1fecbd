"""Token supplement: enrich each kept token by merging similar tokens.

For every selected token, the k most key-similar tokens (the center
included) form a cluster, and the center is replaced by the class-
attention-weighted average of the cluster's embeddings. Weights are
normalized within each cluster by default so the merged embedding keeps
the scale of its members; an unnormalized mode is available for
comparison. All clusters are ranked and merged in one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenSet, key_similarity
from .selection import SelectionResult, attention_values

__all__ = ["ReducedTokenSet", "token_supplement"]


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
        members = _top_k(key_similarity(tokens, centers), k)
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
        refined = np.einsum("mk,mkd->md", weights, tokens.Y[members],
                            dtype=np.float64).astype(tokens.Y.dtype)
    return ReducedTokenSet(refined, selection, members, weights, tokens.n)


def _top_k(similarity, k):
    """Column indices of each row's k largest entries, largest first,
    ties by lower index: the first k columns of a stable descending sort.

    Overwrites similarity with its negation. A partition finds each
    row's k-th value, and only the entries at least that large (the top
    k plus any ties at the boundary) are sorted.
    """
    negated = np.negative(similarity, out=similarity)
    # the fancy index copies the column, so the partitioned (m, n) copy is freed here
    kth = np.partition(negated, k - 1, axis=1)[:, [k - 1]]
    rows, cols = np.nonzero(negated <= kth)  # row-major: cols ascend within a row
    order = np.lexsort((negated[rows, cols], rows))
    counts = np.bincount(rows, minlength=negated.shape[0])
    starts = np.cumsum(counts) - counts
    return cols[order[starts[:, None] + np.arange(k)]]
