"""Token supplement: enrich each kept token by merging similar tokens.

For every selected token, the k most key-similar tokens (the center
included) form a cluster, and the center is replaced by the class-
attention-weighted average of the cluster's embeddings. Weights are
normalized within each cluster by default so the merged embedding keeps
the scale of its members; an unnormalized mode is available for
comparison. ``core._nearest`` ranks the members by descending key
similarity, ties to the lower index, holding nothing of size m·n but
the similarity windows. The clusters are then merged over blocks of
centers; a center whose k members' embeddings exceed the merge budget
is merged one slab of embedding columns at a time, and every column
still sums its members in the same order, so the result does not depend
on the slabs. A floor-fallback image (one center, k = n) thus never
copies all of the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._args import _as_int
from .core import TokenSet, _as_bool, _nearest
from .selection import SelectionResult, attention_values

__all__ = ["ReducedTokenSet", "token_supplement"]

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
