"""End-to-end token reduction: select, optionally supplement, then merge.

Two adaptive modes (``prumerge`` and ``prumerge_plus``) and two sampling
baselines (``sequential`` and ``spatial``) share the same merging stage.
Baselines default to k = 1 (pure index gathering); merging can be turned
on for ablation by setting an explicit k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TokenSet, class_attention
from .merging import MergeResult, token_supplement
from .selection import (
    SelectionResult,
    select_outliers,
    sequential_baseline,
    spatial_grid_baseline,
    uniform_spatial_supplement,
)

__all__ = [
    "PipelineConfig",
    "ReducedTokenSet",
    "run_prumerge",
    "run_prumerge_plus",
    "run_baseline",
    "reduce_tokens",
    "corpus_stats",
]

MODES = ("prumerge", "prumerge_plus", "sequential", "spatial")


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "prumerge"
    k: int | str = "auto"  # auto = ceil(n / m), recomputed after selection
    floor: int = 1
    supplement_ratio: float | str = "auto"  # auto = m / n from the IQR stage
    budget: int | None = None  # sequential baseline
    grid_rows: int | None = None  # spatial baseline
    grid_cols: int | None = None
    normalize_weights: bool = True
    fence_sides: str = "upper"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k != "auto" and (not isinstance(self.k, int) or self.k < 1):
            raise ValueError("k must be 'auto' or a positive integer")
        if self.floor < 1:
            raise ValueError("floor must be >= 1")
        if self.supplement_ratio != "auto" and not 0 < float(self.supplement_ratio) <= 1:
            raise ValueError("supplement_ratio must be 'auto' or in (0, 1]")
        if self.mode == "sequential" and self.budget is None:
            raise ValueError("sequential mode requires a budget")
        if self.mode == "spatial" and (self.grid_rows is None or self.grid_cols is None):
            raise ValueError("spatial mode requires grid_rows and grid_cols")
        adaptive = self.mode in ("prumerge", "prumerge_plus")
        grid = (self.grid_rows, self.grid_cols)
        # a field the mode never reads is a contradictory request, not a no-op
        unused = {
            "budget": self.mode != "sequential" and self.budget is not None,
            "grid_rows/grid_cols": self.mode != "spatial" and grid != (None, None),
            "supplement_ratio": self.mode != "prumerge_plus" and self.supplement_ratio != "auto",
            "floor": not adaptive and self.floor != 1,
            "fence_sides": not adaptive and self.fence_sides != "upper",
        }
        ignored = [name for name, hit in unused.items() if hit]
        if ignored:
            raise ValueError(f"mode {self.mode!r} does not use {', '.join(ignored)}")


@dataclass(frozen=True)
class ReducedTokenSet:
    """The reduced token stack plus everything needed to inspect how it
    was produced (selection diagnostics, clusters, per-image stats)."""

    tokens: np.ndarray  # (m, d)
    source_indices: tuple[int, ...]
    selection: SelectionResult
    merge: MergeResult
    n: int

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


def _resolve_k(config: PipelineConfig, n: int, m: int, default_auto: int | None = None) -> int:
    if config.k == "auto":
        k = math.ceil(n / m) if default_auto is None else default_auto
    else:
        k = config.k
    return min(max(k, 1), n)


def _finish(tokens: TokenSet, attention, selection: SelectionResult,
            config: PipelineConfig, k: int):
    merge = token_supplement(
        selection, tokens, attention, k, normalize=config.normalize_weights
    )
    return ReducedTokenSet(
        tokens=merge.tokens,
        source_indices=selection.indices,
        selection=selection,
        merge=merge,
        n=tokens.n,
    )


def run_prumerge(tokens: TokenSet, config: PipelineConfig) -> ReducedTokenSet:
    """Adaptive selection by IQR outliers, then k-NN merging."""
    if config.mode != "prumerge":
        raise ValueError(f"config mode is {config.mode!r}, expected 'prumerge'")
    attention = class_attention(tokens)
    selection = select_outliers(attention, floor=config.floor, sides=config.fence_sides)
    k = _resolve_k(config, tokens.n, selection.m)
    return _finish(tokens, attention, selection, config, k)


def run_prumerge_plus(tokens: TokenSet, config: PipelineConfig) -> ReducedTokenSet:
    """As run_prumerge, with a spatially uniform supplement between the
    selection and merging stages. The auto supplement ratio is the IQR
    stage's kept fraction m / n."""
    if config.mode != "prumerge_plus":
        raise ValueError(f"config mode is {config.mode!r}, expected 'prumerge_plus'")
    attention = class_attention(tokens)
    base = select_outliers(attention, floor=config.floor, sides=config.fence_sides)
    ratio = base.m / tokens.n if config.supplement_ratio == "auto" else float(
        config.supplement_ratio
    )
    selection = uniform_spatial_supplement(base, tokens.grid, ratio)
    k = _resolve_k(config, tokens.n, selection.m)
    return _finish(tokens, attention, selection, config, k)


def run_baseline(tokens: TokenSet, config: PipelineConfig) -> ReducedTokenSet:
    """Sequential or spatial sampling baseline; k defaults to 1 here so
    the baseline is pure sampling."""
    if config.mode == "sequential":
        selection = sequential_baseline(tokens.n, config.budget)
    elif config.mode == "spatial":
        selection = spatial_grid_baseline(tokens.grid, config.grid_rows, config.grid_cols)
    else:
        raise ValueError(f"config mode is {config.mode!r}, expected a baseline mode")
    k = _resolve_k(config, tokens.n, selection.m, default_auto=1)
    return _finish(tokens, class_attention(tokens), selection, config, k)


def reduce_tokens(tokens: TokenSet, config: PipelineConfig) -> ReducedTokenSet:
    """Dispatch on config.mode."""
    if config.mode == "prumerge":
        return run_prumerge(tokens, config)
    if config.mode == "prumerge_plus":
        return run_prumerge_plus(tokens, config)
    return run_baseline(tokens, config)


def corpus_stats(results) -> dict:
    """Aggregate per-image reduction stats over a corpus.

    Accepts ReducedTokenSet objects or plain stats dicts (as written by
    the CLI). Reports mean/min/max of m and kept fraction, and the mean
    per-image compression ratio n / m.
    """
    stats = [r.stats() if isinstance(r, ReducedTokenSet) else r for r in results]
    if not stats:
        raise ValueError("empty corpus")
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
