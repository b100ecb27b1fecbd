"""End-to-end token reduction: compute class attention once, select,
then merge.

``reduce_tokens`` is the single entry point. Each mode is one selection
stage in ``_MODES``: the two adaptive modes keep the IQR outliers
(``prumerge_plus`` then adds a spatially uniform supplement), the two
sampling baselines pick fixed positions. All four share the merging
stage. ``k="auto"`` is ceil(n / m) for the adaptive modes and 1 for the
baselines, so a baseline is pure index gathering unless an explicit k
turns merging on for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TokenSet, class_attention
from .merging import ReducedTokenSet, token_supplement
from .selection import (
    select_outliers,
    sequential_baseline,
    spatial_grid_baseline,
    uniform_spatial_supplement,
)

__all__ = [
    "PipelineConfig",
    "ReducedTokenSet",
    "reduce_tokens",
    "corpus_stats",
]


# The stages name the selection functions in their bodies, so a function
# rebound on this module (a tracer, a test's counter) is the one that runs.
def _select_prumerge(tokens, attention, config):
    return select_outliers(attention, floor=config.floor)


def _select_prumerge_plus(tokens, attention, config):
    base = select_outliers(attention, floor=config.floor)
    ratio = base.m / tokens.n if config.supplement_ratio == "auto" else float(
        config.supplement_ratio
    )
    return uniform_spatial_supplement(base, tokens.grid, ratio)


def _select_sequential(tokens, attention, config):
    return sequential_baseline(tokens.n, config.budget)


def _select_spatial(tokens, attention, config):
    return spatial_grid_baseline(tokens.grid, config.grid_rows, config.grid_cols)


# mode -> (selection stage, adaptive); k="auto" is ceil(n / m) for an
# adaptive mode and 1 for a baseline
_MODES = {
    "prumerge": (_select_prumerge, True),
    "prumerge_plus": (_select_prumerge_plus, True),
    "sequential": (_select_sequential, False),
    "spatial": (_select_spatial, False),
}


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "prumerge"
    k: int | str = "auto"  # auto = ceil(n / m) or 1, resolved after selection
    floor: int = 1
    supplement_ratio: float | str = "auto"  # auto = m / n from the IQR stage
    budget: int | None = None  # sequential baseline
    grid_rows: int | None = None  # spatial baseline
    grid_cols: int | None = None
    normalize_weights: bool = True

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k != "auto" and (not isinstance(self.k, int) or self.k < 1):
            raise ValueError("k must be 'auto' or a positive integer")
        if self.floor < 1:
            raise ValueError("floor must be >= 1")
        if self.supplement_ratio != "auto" and not 0 < float(self.supplement_ratio) <= 1:
            raise ValueError("supplement_ratio must be 'auto' or in (0, 1]")
        if self.mode == "sequential" and (self.budget is None or self.budget < 1):
            raise ValueError("sequential mode requires a budget >= 1")
        if self.mode == "spatial" and (self.grid_rows is None or self.grid_cols is None):
            raise ValueError("spatial mode requires grid_rows and grid_cols")
        grid = (self.grid_rows, self.grid_cols)
        # a field the mode never reads is a contradictory request, not a no-op
        unused = {
            "budget": self.mode != "sequential" and self.budget is not None,
            "grid_rows/grid_cols": self.mode != "spatial" and grid != (None, None),
            "supplement_ratio": self.mode != "prumerge_plus" and self.supplement_ratio != "auto",
            "floor": not _MODES[self.mode][1] and self.floor != 1,
        }
        ignored = [name for name, hit in unused.items() if hit]
        if ignored:
            raise ValueError(f"mode {self.mode!r} does not use {', '.join(ignored)}")


def reduce_tokens(tokens: TokenSet, config: PipelineConfig) -> ReducedTokenSet:
    """Reduce one image's tokens: class attention, the mode's selection
    stage, then k-nearest-key merging around every kept token."""
    select, adaptive = _MODES[config.mode]
    attention = class_attention(tokens)
    selection = select(tokens, attention, config)
    if config.k != "auto":
        k = config.k
    else:
        k = math.ceil(tokens.n / selection.m) if adaptive else 1
    return token_supplement(
        selection, tokens, attention, min(k, tokens.n), normalize=config.normalize_weights
    )


def corpus_stats(results) -> dict:
    """Aggregate per-image reduction stats over a corpus.

    Accepts ReducedTokenSet objects or plain stats dicts (as written by
    the CLI). Reports mean/min/max of m and kept fraction, and the mean
    per-image compression ratio n / m.
    """
    stats = [r.stats() if isinstance(r, ReducedTokenSet) else r for r in results]
    if not stats:
        raise ValueError("empty corpus")
    for i, s in enumerate(stats):
        n, m = (s.get(key) if isinstance(s, dict) else None for key in ("n", "m"))
        if type(n) is not int or type(m) is not int or not 1 <= m <= n:
            raise ValueError(f"stats record {i} needs integers n and m with 1 <= m <= n")
    ms = np.array([s["m"] for s in stats], dtype=np.float64)
    kept = np.array([s["m"] / s["n"] for s in stats], dtype=np.float64)
    ratios = np.array([s["n"] / s["m"] for s in stats], dtype=np.float64)
    return {
        "images": len(stats),
        "m_mean": float(ms.mean()),
        "m_min": int(ms.min()),
        "m_max": int(ms.max()),
        "kept_fraction_mean": float(kept.mean()),
        "kept_fraction_min": float(kept.min()),
        "kept_fraction_max": float(kept.max()),
        "compression_ratio_mean": float(ratios.mean()),
    }
