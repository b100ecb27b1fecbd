"""End-to-end token reduction: compute class attention once, select,
then merge.

``reduce_tokens`` is the single entry point. The two adaptive modes keep
the IQR outliers (``prumerge_plus`` then adds a spatially uniform
supplement), the two sampling baselines pick fixed positions, and all
four share the merging stage. ``k="auto"`` is ceil(n / m) for the
adaptive modes and 1 for the baselines, so a baseline is pure index
gathering unless an explicit k turns merging on for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TokenSet, _as_bool, _as_int, _is_int, _is_real, class_attention
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


_ADAPTIVE = ("prumerge", "prumerge_plus")  # k="auto" is ceil(n / m), else 1


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
        if self.mode not in (*_ADAPTIVE, "sequential", "spatial"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k != "auto" and (not _is_int(self.k) or self.k < 1):
            raise ValueError("k must be 'auto' or a positive integer")
        for name in ("floor", "budget", "grid_rows", "grid_cols"):
            if getattr(self, name) is not None:
                _as_int(name, getattr(self, name))
        if self.floor < 1:
            raise ValueError("floor must be >= 1")
        ratio = self.supplement_ratio
        if not (isinstance(ratio, str) and ratio == "auto"
                or _is_real(ratio) and 0 < ratio <= 1):
            raise ValueError(f"supplement_ratio must be 'auto' or in (0, 1], got {ratio!r}")
        _as_bool("normalize_weights", self.normalize_weights)
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
            "floor": self.mode not in _ADAPTIVE and self.floor != 1,
        }
        ignored = [name for name, hit in unused.items() if hit]
        if ignored:
            raise ValueError(f"mode {self.mode!r} does not use {', '.join(ignored)}")


def reduce_tokens(tokens: TokenSet, config: PipelineConfig) -> ReducedTokenSet:
    """Reduce one image's tokens: class attention, the mode's selection,
    then k-nearest-key merging around every kept token."""
    # the stages are called by their names on this module, so a function
    # rebound there (a tracer, a test's counter) is the one that runs
    attention = class_attention(tokens)
    if config.mode == "sequential":
        selection = sequential_baseline(tokens.n, config.budget)
    elif config.mode == "spatial":
        selection = spatial_grid_baseline(tokens.grid, config.grid_rows, config.grid_cols)
    else:
        selection = select_outliers(attention, floor=config.floor)
        if config.mode == "prumerge_plus":
            ratio = config.supplement_ratio
            ratio = selection.m / tokens.n if ratio == "auto" else float(ratio)
            selection = uniform_spatial_supplement(selection, tokens.grid, ratio)
    if config.k != "auto":
        k = config.k
    else:
        k = math.ceil(tokens.n / selection.m) if config.mode in _ADAPTIVE else 1
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
