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

__all__ = ["MergeResult", "token_supplement"]


@dataclass(frozen=True)
class MergeResult:
    """Refined token embeddings with per-center cluster diagnostics.

    Row r of ``members`` lists the cluster of the r-th selected token,
    ranked by descending key similarity; row r of ``weights`` holds the
    attention weights the merge applied to those members.
    """

    tokens: np.ndarray  # (m, d) float32
    members: np.ndarray  # (m, k) int
    weights: np.ndarray  # (m, k) float64


def token_supplement(
    selection: SelectionResult,
    tokens: TokenSet,
    attention,
    k: int,
    normalize: bool = True,
) -> MergeResult:
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
    similarity = key_similarity(tokens, centers)
    # copy, so that the (m, n) ranking is not kept alive by the result
    members = np.argsort(-similarity, axis=1, kind="stable")[:, :k].copy()
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
        rows = tokens.Y[members].astype(np.float64)
        refined = np.einsum("mk,mkd->md", weights, rows).astype(tokens.Y.dtype)
    return MergeResult(refined, members, weights)
