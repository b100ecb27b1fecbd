import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prumerge import (
    iqr_fences,
    quartiles,
    select_outliers,
    sequential_baseline,
    spatial_grid_baseline,
    uniform_spatial_supplement,
)
from oracles import centered_grid, fences_oracle, outlier_indices, supplement_oracle


def normalized(values):
    v = np.asarray(values, dtype=np.float64)
    return v / v.sum()


class TestQuartiles:
    def test_single_element(self):
        assert quartiles([5.0]) == (5.0, 5.0)

    def test_five_elements(self):
        assert quartiles([1, 2, 3, 4, 5]) == (2.0, 4.0)

    def test_four_elements_interpolated(self):
        q1, q3 = quartiles([1, 2, 3, 4])
        assert q1 == pytest.approx(1.75, abs=1e-12)
        assert q3 == pytest.approx(3.25, abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            quartiles([])

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_sort_interpolate_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(rng.integers(1, 65)))
        q1, q3 = quartiles(values)
        e1, e3 = np.quantile(values, 0.25), np.quantile(values, 0.75)
        assert abs(q1 - e1) <= 1e-9 and abs(q3 - e3) <= 1e-9


class TestFences:
    def test_five_elements(self):
        f = iqr_fences([1, 2, 3, 4, 5])
        assert (f.q1, f.q3, f.iqr, f.lower, f.upper) == (2, 4, 2, -1, 7)

    def test_constant_collapses(self):
        f = iqr_fences([0.3] * 9)
        assert f.iqr == 0 and f.lower == f.upper == pytest.approx(0.3)

    def test_spike_above_upper_fence(self):
        values = [0.01] * 15 + [0.85]
        f = iqr_fences(values)
        _, _, _, lower, upper = fences_oracle(values)
        assert f.upper == pytest.approx(upper, abs=1e-12)
        assert f.lower == pytest.approx(lower, abs=1e-12)
        assert 0.85 > f.upper


class TestSelectOutliers:
    def test_uniform_floor_fallback(self):
        sel = select_outliers(np.full(10, 0.1), floor=1)
        assert sel.method == "floor_fallback"
        assert sel.indices == (0,)

    def test_single_spike(self):
        sel = select_outliers(normalized([0.01] * 15 + [0.85]), floor=1)
        assert sel.indices == (15,) and sel.method == "iqr"

    def test_three_planted_spikes(self):
        a = np.ones(576)
        planted = [5, 17, 200]
        a[planted] = 50.0
        sel = select_outliers(normalized(a))
        assert list(sel.indices) == planted
        assert list(sel.indices) == outlier_indices(a / a.sum())

    def test_floor_ties_to_lower_index(self):
        sel = select_outliers(np.full(8, 0.125), floor=3)
        assert sel.indices == (0, 1, 2)

    def test_floor_out_of_range(self):
        with pytest.raises(ValueError, match="floor"):
            select_outliers(np.full(4, 0.25), floor=5)

    @given(st.integers(0, 5000), st.sampled_from([0.1, 3.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = rng.exponential(size=int(rng.integers(2, 65)))
        assert select_outliers(a).indices == select_outliers(lam * a).indices

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.exponential(size=32)
        perm = rng.permutation(32)
        base = set(select_outliers(a).indices)
        permuted = set(select_outliers(a[perm]).indices)
        assert permuted == {int(np.flatnonzero(perm == i)[0]) for i in base}

    def test_adaptivity_monotone_in_spikes(self):
        ms = []
        for p in (1, 4, 16, 50):
            a = np.ones(576)
            a[np.linspace(0, 575, p, dtype=int)] = 60.0
            sel = select_outliers(a / a.sum())
            assert sel.m == p
            ms.append(sel.m)
        assert ms == sorted(ms)


class TestUniformSupplement:
    def test_full_ratio_covers_grid(self):
        sel = uniform_spatial_supplement(select_outliers_from([0], 16), (4, 4), 1.0)
        assert sel.indices == tuple(range(16))
        assert sel.method == "iqr_plus_uniform"

    def test_centered_six_by_six(self):
        base = select_outliers(normalized([5.0] + [1.0] * 575))
        assert base.indices == (0,)
        sel = uniform_spatial_supplement(base, (24, 24), 36 / 576)
        rc = [r * 24 + c for r in (2, 6, 10, 14, 18, 22) for c in (2, 6, 10, 14, 18, 22)]
        assert set(sel.indices) == set(rc) | {0}

    def test_overlap_deduplicated(self):
        # base contains one of the 6x6 sample points
        base = select_outliers(normalized(
            [1.0] * (2 * 24 + 2) + [50.0] + [1.0] * (576 - 2 * 24 - 3)))
        assert base.indices == (50,)
        sel = uniform_spatial_supplement(base, (24, 24), 36 / 576)
        assert sel.m == 36  # index 50 = row 2, col 2 is already a grid point
        assert len(set(sel.indices)) == sel.m

    def test_ratio_must_be_positive(self):
        with pytest.raises(ValueError, match="ratio"):
            uniform_spatial_supplement(select_outliers_from([0], 16), (4, 4), 0.0)

    @given(st.integers(0, 2000))
    @settings(max_examples=50, deadline=None)
    def test_matches_index_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        ratio = float(rng.uniform(0.01, 1.0))
        # at most h * w base indices: a 1x1 grid cannot hold more
        size = int(rng.integers(1, min(5, h * w + 1)))
        base = sorted(rng.choice(h * w, size=size, replace=False))
        sel = uniform_spatial_supplement(
            select_outliers_from(base, h * w), (h, w), ratio
        )
        assert list(sel.indices) == supplement_oracle(base, h, w, ratio)


def select_outliers_from(indices, n):
    """Build a SelectionResult holding exactly these indices."""
    a = np.ones(n)
    a[list(indices)] = 1000.0
    sel = select_outliers(a / a.sum(), floor=len(indices))
    assert list(sel.indices) == sorted(int(i) for i in indices)
    return sel


class TestBaselines:
    def test_sequential_forty(self):
        sel = sequential_baseline(576, 40)
        assert sel.indices == tuple(range(40))
        assert sel.method == "sequential" and sel.fences is None

    def test_sequential_full(self):
        assert sequential_baseline(5, 5).indices == (0, 1, 2, 3, 4)

    def test_sequential_budget_exceeded(self):
        with pytest.raises(ValueError, match="budget exceeds token count"):
            sequential_baseline(5, 6)

    def test_spatial_six_by_six(self):
        sel = spatial_grid_baseline((24, 24), 6, 6)
        expected = [r * 24 + c
                    for r in (2, 6, 10, 14, 18, 22) for c in (2, 6, 10, 14, 18, 22)]
        assert list(sel.indices) == sorted(expected)

    def test_spatial_full_grid(self):
        assert spatial_grid_baseline((4, 4), 4, 4).indices == tuple(range(16))

    def test_spatial_five_by_eight(self):
        sel = spatial_grid_baseline((24, 24), 5, 8)
        assert sel.m == 40
        assert list(sel.indices) == centered_grid(24, 24, 5, 8)

    def test_spatial_out_of_range(self):
        with pytest.raises(ValueError):
            spatial_grid_baseline((4, 4), 5, 2)
