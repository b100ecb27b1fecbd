"""Adaptive token selection via IQR outlier detection, plus baselines.

The adaptive path keeps the tokens whose class-attention value lies
strictly above the Tukey upper fence (Q3 + 1.5 IQR). Softmaxed attention
clusters near zero, so only high-side outliers carry signal; the lower
fence is reported as a diagnostic and never selects. When no value
exceeds the fence, a configurable floor of top-attention tokens is
selected instead.

Also provides the spatially uniform supplement that the "plus" variant
adds to the outliers, and the sequential / spatial sampling baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def attention_values(attention) -> np.ndarray:
    """Class attention as a float64 array: any nonempty, finite,
    nonnegative 1-d array.

    Unnormalized arrays support scale-invariance checks (selection
    depends only on attention ratios, not on the softmax normalization).
    """
    a = np.asarray(attention, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("attention must be a nonempty vector")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError("attention must be finite and nonnegative")
    return a

__all__ = [
    "Fences",
    "SelectionResult",
    "quartiles",
    "iqr_fences",
    "select_outliers",
    "uniform_spatial_supplement",
    "sequential_baseline",
    "spatial_grid_baseline",
]


@dataclass(frozen=True)
class Fences:
    """Tukey fence diagnostics: quartiles, IQR and the 1.5*IQR fences."""

    q1: float
    q3: float
    iqr: float
    lower: float
    upper: float


@dataclass(frozen=True)
class SelectionResult:
    """Chosen token indices plus the diagnostics that produced them.

    ``indices`` is strictly ascending with no duplicates; ``fences`` is
    None for the baseline methods.
    """

    indices: tuple[int, ...]
    fences: Fences | None
    method: str  # iqr | iqr_plus_uniform | sequential | spatial | floor_fallback

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 1:
            raise ValueError("selection must contain at least one index")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly ascending")
        if idx[0] < 0:
            raise ValueError("negative token index")

    @property
    def m(self) -> int:
        return len(self.indices)


def quartiles(values) -> tuple[float, float]:
    """First and third quartiles of a sample.

    Uses linear interpolation between closest ranks at positions
    0.25*(n-1) and 0.75*(n-1) of the sorted sample.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("empty values")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value")
    srt = np.sort(values)
    n = srt.size

    def at(pos: float) -> float:
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return float(srt[lo] * (1.0 - frac) + srt[hi] * frac)

    return at(0.25 * (n - 1)), at(0.75 * (n - 1))


def iqr_fences(values) -> Fences:
    """Tukey fences of a sample: Q1 - 1.5*IQR and Q3 + 1.5*IQR."""
    q1, q3 = quartiles(values)
    iqr = q3 - q1
    return Fences(q1=q1, q3=q3, iqr=iqr, lower=q1 - 1.5 * iqr, upper=q3 + 1.5 * iqr)


def select_outliers(attention, floor: int = 1) -> SelectionResult:
    """Select tokens whose attention is a high-side IQR outlier.

    Keeps indices with attention strictly above the upper fence. If
    fewer than ``floor`` tokens qualify, falls back to the ``floor``
    largest-attention indices (ties to the lower index) and marks the
    result ``floor_fallback``.
    """
    a = attention_values(attention)
    n = a.size
    if not 1 <= floor <= n:
        raise ValueError(f"floor must be in [1, {n}]")
    fences = iqr_fences(a)
    chosen = np.flatnonzero(a > fences.upper)
    if chosen.size >= floor:
        return SelectionResult(tuple(chosen), fences, "iqr")
    top = np.argsort(-a, kind="stable")[:floor]
    return SelectionResult(tuple(sorted(int(i) for i in top)), fences, "floor_fallback")


def _centered_grid_indices(h: int, w: int, rows: int, cols: int) -> list[int]:
    out = []
    for i in range(rows):
        r = math.floor((i + 0.5) * h / rows)
        for j in range(cols):
            c = math.floor((j + 0.5) * w / cols)
            out.append(r * w + c)
    return out


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def uniform_spatial_supplement(
    base: SelectionResult, grid: tuple[int, int], ratio: float
) -> SelectionResult:
    """Union the base selection with a centered grid of sample points.

    The grid holds roughly round(ratio * n) points, laid out with an
    aspect matching the token grid; overlaps with the base selection are
    deduplicated.
    """
    h, w = grid
    n = h * w
    if ratio <= 0:
        raise ValueError("supplement ratio must be positive")
    ratio = min(ratio, 1.0)
    m_s = max(_round_half_up(ratio * n), 1)
    rows = min(max(_round_half_up(math.sqrt(m_s * h / w)), 1), h)
    cols = min(max(math.ceil(m_s / rows), 1), w)
    combined = set(_centered_grid_indices(h, w, rows, cols)).union(base.indices)
    return SelectionResult(tuple(sorted(combined)), base.fences, "iqr_plus_uniform")


def sequential_baseline(n: int, budget: int) -> SelectionResult:
    """First ``budget`` tokens in flat order."""
    if not 1 <= budget <= n:
        raise ValueError("budget exceeds token count" if budget > n else "budget must be >= 1")
    return SelectionResult(tuple(range(budget)), None, "sequential")


def spatial_grid_baseline(grid: tuple[int, int], rows: int, cols: int) -> SelectionResult:
    """rows x cols sample points evenly distributed over the token grid."""
    h, w = grid
    if not 1 <= rows <= h or not 1 <= cols <= w:
        raise ValueError(f"sampling grid {rows}x{cols} does not fit token grid {h}x{w}")
    return SelectionResult(
        tuple(sorted(_centered_grid_indices(h, w, rows, cols))), None, "spatial"
    )
