import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prumerge.core
import prumerge.pipeline
from prumerge import (
    PipelineConfig,
    SynthSpec,
    TokenSet,
    class_attention,
    corpus_stats,
    key_similarity,
    reduce_tokens,
    select_outliers,
    synth_generate,
    token_supplement,
    uniform_spatial_supplement,
)
from prumerge.core import _similarity_windows
from prumerge.tokendump import spike_positions, write_reduced_dump
from oracles import merge_oracle, outlier_indices
from test_cli import child_env


def synth(n_spikes, seed=7, **kw):
    return synth_generate(SynthSpec(grid=(24, 24), d=16, d_k=8,
                                    n_spikes=n_spikes, seed=seed, **kw))


class TestRunPrumerge:
    def test_thirty_two_spikes_keeps_32(self):
        result = reduce_tokens(synth(32), PipelineConfig(mode="prumerge"))
        assert result.m == 32
        assert result.kept_fraction == pytest.approx(32 / 576)
        assert list(result.source_indices) == spike_positions(576, 32)

    def test_uniform_image_degenerate_path(self):
        tokens = synth(0, seed=3)
        result = reduce_tokens(tokens, PipelineConfig(mode="prumerge", k=1))
        assert result.selection.method == "floor_fallback"
        assert result.m == 1
        top = int(np.argmax(class_attention(tokens)))
        assert result.source_indices == (top,)
        np.testing.assert_array_equal(result.tokens[0], tokens.Y[top])

    def test_matches_composed_stage_oracle(self):
        tokens = synth(8, seed=21, cluster_count=4)
        config = PipelineConfig(mode="prumerge", k=5)
        result = reduce_tokens(tokens, config)
        att = class_attention(tokens)
        sel = select_outliers(att, floor=1)
        merged = token_supplement(sel, tokens, att, k=5)
        np.testing.assert_array_equal(result.tokens, merged.tokens)
        assert result.source_indices == sel.indices

    def test_auto_k_is_ceil_n_over_m(self):
        result = reduce_tokens(synth(32), PipelineConfig(mode="prumerge"))
        assert result.members.shape == (32, 18)

    @given(st.integers(0, 10**6), st.sampled_from([1, 4, 16]), st.integers(1, 3),
           st.sampled_from([0, 1, 100]))
    @settings(max_examples=40, deadline=None)
    def test_all_equal_attention_falls_back_and_clamps_k(self, seed, n_heads, floor, excess):
        # a zero class query gives every token the same attention, so the
        # IQR is 0, no token clears the fence and the floor fallback keeps
        # the lowest indices; a k above n is clamped to n
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n, d_k = h * w, 2
        pool = rng.normal(size=(int(rng.integers(1, 4)), n_heads * d_k)).astype(np.float32)
        flat = pool[rng.integers(0, len(pool), size=n)]
        tokens = TokenSet(grid=(h, w), q_cls=np.zeros((n_heads, d_k)),
                          K=flat.reshape(n, n_heads, d_k).transpose(1, 0, 2),
                          Y=rng.normal(size=(n, 3)).astype(np.float32))
        floor = min(floor, n)
        result = reduce_tokens(tokens, PipelineConfig(mode="prumerge", k=n + excess,
                                                      floor=floor))
        attention = class_attention(tokens)
        assert np.all(attention == attention[0])
        assert result.selection.method == "floor_fallback"
        assert list(result.source_indices) == outlier_indices(attention, floor)
        assert list(result.source_indices) == list(range(floor))
        expected, member_lists = merge_oracle(result.source_indices, flat, attention,
                                              tokens.Y, n)
        assert [tuple(row) for row in result.members.tolist()] == member_lists
        assert np.abs(result.tokens - expected).max() < 1e-6


class TestRunPrumergePlus:
    def test_auto_ratio_cardinality_bound(self):
        result = reduce_tokens(synth(36), PipelineConfig(mode="prumerge_plus"))
        assert 36 <= result.m <= 72
        assert result.selection.method == "iqr_plus_uniform"

    def test_full_ratio_identity_reduction(self):
        tokens = synth(4, seed=5)
        config = PipelineConfig(mode="prumerge_plus", supplement_ratio=1.0, k=1)
        result = reduce_tokens(tokens, config)
        assert result.m == 576
        np.testing.assert_array_equal(result.tokens, tokens.Y)

    def test_uniform_image_small_supplement(self):
        tokens = synth(0, seed=11)
        result = reduce_tokens(tokens, PipelineConfig(mode="prumerge_plus", k=1))
        # base floor pick, plus round(576/576) = 1 grid-centered token
        assert result.m <= 2

    def test_supplement_matches_selection_stage(self):
        tokens = synth(16, seed=2)
        result = reduce_tokens(tokens, PipelineConfig(mode="prumerge_plus", k=1))
        att = class_attention(tokens)
        base = select_outliers(att)
        expected = uniform_spatial_supplement(base, (24, 24), base.m / 576)
        assert result.source_indices == expected.indices


class TestBaselines:
    def test_sequential_is_index_gathering(self):
        tokens = synth(10, seed=8)
        config = PipelineConfig(mode="sequential", budget=40)
        result = reduce_tokens(tokens, config)
        assert result.source_indices == tuple(range(40))
        np.testing.assert_array_equal(result.tokens, tokens.Y[:40])

    def test_spatial_grid(self):
        tokens = synth(10, seed=8)
        config = PipelineConfig(mode="spatial", grid_rows=6, grid_cols=6)
        result = reduce_tokens(tokens, config)
        assert result.m == 36
        np.testing.assert_array_equal(result.tokens,
                                      tokens.Y[list(result.source_indices)])

    def test_baseline_merging_opt_in(self):
        tokens = synth(10, seed=8)
        config = PipelineConfig(mode="spatial", grid_rows=4, grid_cols=4, k=4)
        result = reduce_tokens(tokens, config)
        assert result.members.shape == (16, 4)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="budget"):
            PipelineConfig(mode="sequential")
        with pytest.raises(ValueError, match="grid"):
            PipelineConfig(mode="spatial")
        with pytest.raises(ValueError, match="mode"):
            PipelineConfig(mode="random")

    @pytest.mark.parametrize("mode, fields, unused", [
        ("prumerge", {"budget": 3, "grid_rows": 2, "grid_cols": 2},
         "budget, grid_rows/grid_cols"),
        ("prumerge", {"supplement_ratio": 0.5}, "supplement_ratio"),
        ("prumerge_plus", {"budget": 3}, "budget"),
        ("sequential", {"budget": 4, "grid_rows": 2, "grid_cols": 2}, "grid_rows/grid_cols"),
        ("spatial", {"grid_rows": 2, "grid_cols": 2, "floor": 5,
                     "supplement_ratio": 0.5},
         "supplement_ratio, floor"),
    ])
    def test_fields_the_mode_ignores_are_rejected(self, mode, fields, unused):
        with pytest.raises(ValueError, match=f"does not use {unused}$"):
            PipelineConfig(mode=mode, **fields)

    @pytest.mark.parametrize("fields", [
        {"k": True},
        {"k": 2.0},
        {"floor": True},
        {"floor": 2.5},
        {"mode": "sequential", "budget": 2.5},
        {"mode": "sequential", "budget": True},
        {"mode": "sequential", "budget": np.True_},
        {"mode": "sequential", "budget": 3.0},
        {"mode": "sequential", "budget": np.float64(3)},
        {"mode": "sequential", "budget": "3"},
        {"mode": "spatial", "grid_rows": 2.0, "grid_cols": 2},
        {"mode": "spatial", "grid_rows": 2, "grid_cols": np.float64(2)},
    ], ids=repr)
    def test_integer_fields_reject_other_types(self, fields):
        # caught at construction, not as a TypeError inside reduce_tokens
        with pytest.raises(ValueError, match="k must be|must be an integer"):
            PipelineConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"k": 3, "floor": 2},
        {"mode": "sequential", "budget": 16},
        {"mode": "spatial", "grid_rows": 4, "grid_cols": 6},
    ], ids=repr)
    def test_numpy_integers_are_accepted(self, fields):
        tokens = synth(12)
        expected = reduce_tokens(tokens, PipelineConfig(**fields))
        as_numpy = {name: np.int32(v) if isinstance(v, int) else v
                    for name, v in fields.items()}
        result = reduce_tokens(tokens, PipelineConfig(**as_numpy))
        assert result.tokens.tobytes() == expected.tokens.tobytes()
        assert result.stats() == expected.stats()

    @pytest.mark.parametrize("ratio", [True, np.bool_(True), "0.5", "1", "", None, [0.5],
                                       0, 1.5, float("nan")], ids=repr)
    def test_supplement_ratio_rejects_other_types(self, ratio):
        with pytest.raises(ValueError, match="supplement_ratio must be 'auto' or in"):
            PipelineConfig(mode="prumerge_plus", supplement_ratio=ratio)

    @pytest.mark.parametrize("value", ["no", 0, 1, None, 0.0], ids=repr)
    def test_normalize_weights_rejects_non_bools(self, value):
        with pytest.raises(ValueError, match="normalize_weights must be a bool"):
            PipelineConfig(normalize_weights=value)

    @pytest.mark.parametrize("fields", [
        {"mode": "prumerge_plus", "supplement_ratio": 0.25},
        {"mode": "prumerge_plus", "supplement_ratio": 1},
        {"normalize_weights": False},
        {"normalize_weights": True},
    ], ids=repr)
    def test_numpy_ratio_and_bool_are_accepted(self, fields):
        tokens = synth(12)
        expected = reduce_tokens(tokens, PipelineConfig(**fields))
        as_numpy = {name: np.bool_(v) if isinstance(v, bool)
                    else np.float32(v) if isinstance(v, (int, float)) else v
                    for name, v in fields.items()}
        result = reduce_tokens(tokens, PipelineConfig(**as_numpy))
        assert result.tokens.tobytes() == expected.tokens.tobytes()
        assert result.weights.tobytes() == expected.weights.tobytes()


class TestDeterminismAndDispatch:
    def test_identical_runs_bit_identical(self):
        for mode, kw in (("prumerge", {}),
                         ("prumerge_plus", {}),
                         ("sequential", {"budget": 16}),
                         ("spatial", {"grid_rows": 4, "grid_cols": 4})):
            config = PipelineConfig(mode=mode, **kw)
            a = reduce_tokens(synth(12), config)
            b = reduce_tokens(synth(12), config)
            assert a.tokens.tobytes() == b.tokens.tobytes()
            assert a.source_indices == b.source_indices

    def test_budget_adapts_to_spike_count(self):
        ms = [reduce_tokens(synth(p, seed=31), PipelineConfig(mode="prumerge")).m
              for p in (1, 8, 32, 64)]
        assert ms == [1, 8, 32, 64]

    @pytest.mark.parametrize("mode, kw", [
        ("prumerge", {}), ("prumerge_plus", {}), ("sequential", {"budget": 16}),
        ("spatial", {"grid_rows": 4, "grid_cols": 4}),
    ])
    def test_class_attention_computed_once(self, monkeypatch, mode, kw):
        calls = []

        def counting(tokens):
            calls.append(tokens)
            return class_attention(tokens)

        monkeypatch.setattr(prumerge.pipeline, "class_attention", counting)
        reduce_tokens(synth(12), PipelineConfig(mode=mode, **kw))
        assert len(calls) == 1

    @pytest.mark.parametrize("mode, kw, stages", [
        ("prumerge", {}, ["select_outliers"]),
        ("prumerge_plus", {}, ["select_outliers", "uniform_spatial_supplement"]),
        ("sequential", {"budget": 16}, ["sequential_baseline"]),
        ("spatial", {"grid_rows": 4, "grid_cols": 4}, ["spatial_grid_baseline"]),
    ])
    def test_stages_looked_up_when_they_run(self, monkeypatch, mode, kw, stages):
        # a tracer times a stage by rebinding its name on prumerge.pipeline
        calls = {name: 0 for name in stages}
        for name in stages:
            def counting(*args, _name=name, _fn=getattr(prumerge.pipeline, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(prumerge.pipeline, name, counting)
        config = PipelineConfig(mode=mode, **kw)
        for expected in (1, 2):
            reduce_tokens(synth(12), config)
            assert calls == {name: expected for name in stages}

    @pytest.mark.parametrize("kw", [
        {"mode": "prumerge"},
        {"mode": "prumerge_plus"},
        {"mode": "sequential", "budget": 32},
        {"mode": "spatial", "grid_rows": 4, "grid_cols": 8},
    ])
    def test_token_supplement_returns_the_reduction(self, kw):
        tokens = synth(24, seed=5, cluster_count=3)
        result = reduce_tokens(tokens, PipelineConfig(**kw))
        k = result.members.shape[1]
        direct = token_supplement(result.selection, tokens, class_attention(tokens), k)
        assert isinstance(direct, prumerge.pipeline.ReducedTokenSet)
        assert direct.tokens.tobytes() == result.tokens.tobytes()
        np.testing.assert_array_equal(direct.members, result.members)
        assert direct.weights.tobytes() == result.weights.tobytes()
        assert direct.source_indices == result.source_indices
        assert direct.stats() == result.stats()

    def test_no_quadratic_allocation(self):
        # n = 2304: an n x n float64 similarity matrix alone is 42 MB
        tokens = synth_generate(SynthSpec(grid=(48, 48), d=16, d_k=8,
                                          n_spikes=32, seed=3))
        tracemalloc.start()
        try:
            reduce_tokens(tokens, PipelineConfig(mode="prumerge"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tokens.n ** 2  # bytes: an eighth of one such matrix

    def test_source_indices_ascending(self):
        result = reduce_tokens(synth(20), PipelineConfig(mode="prumerge_plus"))
        idx = result.source_indices
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert idx == result.selection.indices


class TestCorpusStats:
    def test_mean_ratio_18(self):
        results = [reduce_tokens(synth(32, seed=s), PipelineConfig(mode="prumerge"))
                   for s in (1, 2)]
        summary = corpus_stats(results)
        assert summary["compression_ratio_mean"] == pytest.approx(18.0)

    def test_single_full_image(self):
        result = reduce_tokens(synth(4, seed=5),
                               PipelineConfig(mode="prumerge_plus",
                                              supplement_ratio=1.0, k=1))
        assert corpus_stats([result])["compression_ratio_mean"] == pytest.approx(1.0)

    def test_hand_computed_mixed_budgets(self):
        records = [{"n": 576, "m": m} for m in (16, 40, 40, 35)]
        summary = corpus_stats(records)
        assert summary["m_mean"] == pytest.approx((16 + 40 + 40 + 35) / 4)
        assert summary["kept_fraction_mean"] == pytest.approx(
            np.mean([m / 576 for m in (16, 40, 40, 35)]))
        assert summary["m_min"] == 16 and summary["m_max"] == 40

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            corpus_stats([])


# prumerge+ on a 48x48 grid with ViT-L keys: m = 68 rows of n = 2304
# float64 similarities exceed the 512 KB window budget, so the ranking
# runs over three windows of 768 key columns
BLAS_SPEC = {"grid": (48, 48), "d": 32, "d_k": 64, "n_heads": 16, "n_spikes": 32, "seed": 3}
BLAS_CHILD = f"""
import io, sys
from prumerge import PipelineConfig, SynthSpec, reduce_tokens, synth_generate
from prumerge.tokendump import write_reduced_dump
tokens = synth_generate(SynthSpec(**{BLAS_SPEC!r}))
result = reduce_tokens(tokens, PipelineConfig(mode="prumerge_plus"))
out = io.BytesIO()
write_reduced_dump(result.tokens, result.source_indices, result.n, out)
sys.stdout.buffer.write(out.getvalue() + result.members.tobytes())
"""


def test_outputs_do_not_depend_on_blas_threads():
    # more CPUs for one image come from BLAS's own threads, so every
    # output bit must be the same whatever threads BLAS splits the
    # similarity products over: here one thread against two
    tokens = synth_generate(SynthSpec(**BLAS_SPEC))
    result = reduce_tokens(tokens, PipelineConfig(mode="prumerge_plus"))
    assert len(list(_similarity_windows(tokens, result.source_indices))) == 3
    here = io.BytesIO()
    write_reduced_dump(result.tokens, result.source_indices, result.n, here)
    outputs = [here.getvalue() + result.members.tobytes()]
    for threads in ("1", "2"):
        child = subprocess.run([sys.executable, "-c", BLAS_CHILD], capture_output=True,
                               env={**child_env(), "OPENBLAS_NUM_THREADS": threads},
                               timeout=120)
        assert child.returncode == 0, child.stderr.decode()
        outputs.append(child.stdout)
    assert outputs[1] == outputs[2] == outputs[0]


ANYRES_SPEC = {"grid": (120, 24), "d": 1024, "d_k": 64, "n_heads": 16, "n_spikes": 32, "seed": 1}


def duplicate_key_tokens():
    # 16-head keys drawn from a pool of 3 vectors on an 8x64 grid: equal
    # keys sit in both key blocks of 256 columns
    rng = np.random.default_rng(5)
    pool = rng.normal(size=(3, 16, 64)).astype(np.float32)
    K = pool[rng.integers(3, size=512)].transpose(1, 0, 2)
    q = rng.normal(size=(16, 64)).astype(np.float32)
    return TokenSet(grid=(8, 64), q_cls=q, K=K, Y=rng.normal(size=(512, 8)))


WINDOW_INPUTS = {
    "vitl-m64": (lambda: synth_generate(SynthSpec(grid=(24, 24), d=1024, d_k=64, n_heads=16,
                                                  n_spikes=64, seed=1)),
                 PipelineConfig(mode="prumerge"), 64),
    "anyres-m82": (lambda: synth_generate(SynthSpec(**ANYRES_SPEC)),
                   PipelineConfig(mode="prumerge_plus"), 82),
    "duplicate-keys": (duplicate_key_tokens,
                       PipelineConfig(mode="prumerge_plus", supplement_ratio=0.1), 52),
    # n = 742 keys are cast as 248 + 248 + 246
    "unaligned-block": (lambda: synth_generate(SynthSpec(grid=(14, 53), d=64, d_k=64,
                                                         n_heads=16, n_spikes=32, seed=1)),
                        PipelineConfig(mode="prumerge"), 33),
}


def reduced_outputs(tokens, config):
    result = reduce_tokens(tokens, config)
    out = io.BytesIO()
    write_reduced_dump(result.tokens, result.source_indices, result.n, out)
    return result, (out.getvalue(), result.members.tobytes(), result.weights.tobytes(),
                    class_attention(tokens).tobytes(),
                    key_similarity(tokens, result.source_indices).tobytes())


@pytest.mark.parametrize("windows", ["one-block", "all-keys"])
@pytest.mark.parametrize("name", WINDOW_INPUTS)
def test_outputs_do_not_depend_on_the_window_width(monkeypatch, name, windows):
    # windows of whole key blocks run the same BLAS products, so one block
    # per window and every key in one window give every bit of the default
    # windows (one for all but AnyRes, which has four): outputs, attention
    # and the similarity rows the merge ranks
    make, config, m = WINDOW_INPUTS[name]
    tokens = make()
    result, default = reduced_outputs(tokens, config)
    assert result.m == m
    monkeypatch.setattr(prumerge.core, "_SIMILARITY_WINDOW_BYTES",
                        0 if windows == "one-block" else 8 * m * tokens.n)
    count = len(list(_similarity_windows(tokens, result.source_indices)))
    assert count > 1 if windows == "one-block" else count == 1
    assert reduced_outputs(tokens, config)[1] == default


NO_THREADS_CHILD = f"""
import io, sys, threading
from prumerge import PipelineConfig, SynthSpec, reduce_tokens, synth_generate
from prumerge.tokendump import write_reduced_dump
tokens = synth_generate(SynthSpec(**{ANYRES_SPEC!r}))
result = reduce_tokens(tokens, PipelineConfig(mode="prumerge_plus"))
out = io.BytesIO()
write_reduced_dump(result.tokens, result.source_indices, result.n, out)
print(threading.active_count(), "concurrent.futures" in sys.modules, file=sys.stderr)
sys.stdout.buffer.write(out.getvalue() + result.members.tobytes())
"""


@pytest.mark.parametrize("env", [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
    {"OMP_NUM_THREADS": "2"},
    {},
], ids=repr)
def test_reduce_runs_in_the_calling_thread_whatever_blas_threads(env):
    # an AnyRes image reduced under each BLAS thread setting starts no
    # Python thread and gives the bytes of the reduction in this process
    result = reduce_tokens(synth_generate(SynthSpec(**ANYRES_SPEC)),
                           PipelineConfig(mode="prumerge_plus"))
    here = io.BytesIO()
    write_reduced_dump(result.tokens, result.source_indices, result.n, here)
    child_vars = {k: v for k, v in child_env().items()
                  if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    child = subprocess.run([sys.executable, "-c", NO_THREADS_CHILD], capture_output=True,
                           env={**child_vars, **env}, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    assert child.stderr.decode().splitlines()[-1] == "1 False", child.stderr.decode()
    assert child.stdout == here.getvalue() + result.members.tobytes()
