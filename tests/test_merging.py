import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prumerge.core
import prumerge.merging
from prumerge import (
    PipelineConfig,
    SynthSpec,
    TokenSet,
    class_attention,
    key_similarity,
    reduce_tokens,
    select_outliers,
    synth_generate,
    token_supplement,
    uniform_spatial_supplement,
)
from prumerge.core import (
    _SIMILARITY_BLOCK_BYTES,
    _SIMILARITY_WINDOW_BYTES,
    _equal_key_columns,
    _similarity_windows,
)
from prumerge.merging import _MERGE_BLOCK_BYTES, _kth_smallest, _nearest
from prumerge.selection import SelectionResult
from prumerge.tokendump import demo_corpus_specs
from oracles import merge_oracle


def selection_of(indices):
    return SelectionResult(tuple(sorted(indices)), None, "iqr")


def tokens_from(keys, Y, grid=None):
    keys = np.asarray(keys, dtype=np.float32)
    n, d_k = keys.shape
    return TokenSet(grid=grid or (1, n), q_cls=np.ones((1, d_k)),
                    K=keys[None], Y=Y)


def uniform_attention(n):
    return np.full(n, 1.0 / n)


def members_of(keys, center, k):
    """Cluster of one center, as ranked by token_supplement."""
    keys = np.asarray(keys, dtype=np.float32)
    tokens = tokens_from(keys, np.zeros((keys.shape[0], 1), np.float32))
    result = token_supplement(selection_of([center]), tokens,
                              uniform_attention(keys.shape[0]), k)
    return tuple(result.members[0].tolist())


class TestKnnMembers:
    """Cluster membership: the k most key-similar tokens per center."""

    def test_k1_returns_center(self):
        # keys with similarity 2 * I
        assert members_of(np.eye(5) * np.sqrt(2.0), 3, 1) == (3,)

    def test_duplicate_keys_rank_by_similarity(self):
        keys = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
        assert members_of(keys, 0, 2) == (0, 1)

    def test_ties_break_to_lower_index(self):
        # identical keys: every similarity is 1
        assert members_of(np.ones((4, 1)), 2, 3) == (0, 1, 2)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must be"):
            members_of(np.eye(3), 0, 4)

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), True, np.bool_(True), "2", None])
    def test_k_rejects_bool_and_non_integers(self, k):
        # unchecked, a float k fails inside np.partition and k=True runs as k = 1
        with pytest.raises(ValueError, match="k must be an integer"):
            members_of(np.eye(3), 0, k)

    @pytest.mark.parametrize("k", [np.int64(2), np.uint8(3)])
    def test_k_accepts_numpy_integers(self, k):
        assert members_of(np.ones((4, 1)), 2, k) == members_of(np.ones((4, 1)), 2, int(k))


class TestMergeCluster:
    """The attention-weighted merge of one cluster."""

    def test_singleton_identity(self):
        Y = np.arange(12, dtype=np.float32).reshape(4, 3)
        result = token_supplement(selection_of([2]), tokens_from(np.eye(4), Y),
                                  uniform_attention(4), k=1)
        np.testing.assert_array_equal(result.tokens[0], Y[2])

    def test_equal_attention_midpoint(self):
        Y = np.array([[2.0, 0.0], [0.0, 4.0]], dtype=np.float32)
        result = token_supplement(selection_of([0]), tokens_from(np.eye(2), Y),
                                  uniform_attention(2), k=2)
        np.testing.assert_allclose(result.tokens[0], [1.0, 2.0], atol=1e-7)

    def test_weighted_sum_hand_computed(self):
        Y = np.eye(3, dtype=np.float32)
        att = np.asarray([0.2, 0.3, 0.5])
        result = token_supplement(selection_of([0]), tokens_from(np.eye(3), Y),
                                  att, k=3)
        assert result.members.tolist() == [[0, 1, 2]]
        np.testing.assert_allclose(result.weights, [[0.2, 0.3, 0.5]], atol=1e-15)
        np.testing.assert_allclose(result.tokens[0], [0.2, 0.3, 0.5], atol=1e-7)

    def test_zero_attention_uniform_fallback(self):
        # center 0's cluster is {0, 1}, and neither member has attention
        keys = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0, 0.0], [3.0, 0.0], [9.0, 9.0]], dtype=np.float32)
        result = token_supplement(selection_of([0]), tokens_from(keys, Y),
                                  np.array([0.0, 0.0, 1.0]), k=2)
        assert result.members.tolist() == [[0, 1]]
        np.testing.assert_array_equal(result.weights, [[0.5, 0.5]])
        np.testing.assert_allclose(result.tokens[0], [2.0, 0.0], atol=1e-7)

    @pytest.mark.parametrize("normalize", ["no", "", 0, 1, None, np.float64(1.0)])
    def test_normalize_must_be_a_bool(self, normalize):
        # unchecked, any truthy value such as "no" normalized
        tokens = tokens_from(np.eye(2), np.eye(2, dtype=np.float32))
        with pytest.raises(ValueError, match="normalize must be a bool"):
            token_supplement(selection_of([0]), tokens, np.array([0.1, 0.3]), k=2,
                             normalize=normalize)

    @pytest.mark.parametrize("normalize", [np.bool_(True), np.bool_(False)])
    def test_normalize_accepts_numpy_bools(self, normalize):
        tokens = tokens_from(np.eye(2), np.eye(2, dtype=np.float32))
        results = [token_supplement(selection_of([0]), tokens, np.array([0.1, 0.3]), k=2,
                                    normalize=value) for value in (normalize, bool(normalize))]
        assert results[0].weights.tobytes() == results[1].weights.tobytes()

    def test_raw_weights_mode(self):
        Y = np.eye(2, dtype=np.float32)
        result = token_supplement(selection_of([0]), tokens_from(np.eye(2), Y),
                                  np.array([0.1, 0.3]), k=2, normalize=False)
        assert result.members.tolist() == [[0, 1]]
        np.testing.assert_array_equal(result.weights, [[0.1, 0.3]])
        np.testing.assert_allclose(result.tokens[0], [0.1, 0.3], atol=1e-7)


class TestTokenSupplement:
    @pytest.mark.parametrize("k", [1, 2])
    def test_index_outside_the_tokens_is_rejected(self, k):
        tokens = tokens_from(np.eye(6, 3), np.zeros((6, 2), np.float32))
        with pytest.raises(ValueError, match="index 9 out of range for n=6"):
            token_supplement(selection_of([1, 9]), tokens, uniform_attention(6), k)

    def test_k1_is_pure_pruning(self):
        rng = np.random.default_rng(5)
        keys = rng.normal(size=(9, 4))
        Y = rng.normal(size=(9, 5)).astype(np.float32)
        Y[4, 2] = -0.0  # a copy keeps the sign of zero
        tokens = tokens_from(keys, Y, grid=(3, 3))
        sel = selection_of([1, 4, 7])
        result = token_supplement(sel, tokens, class_attention(tokens), k=1)
        assert result.tokens.tobytes() == Y[[1, 4, 7]].tobytes()

    def test_k1_never_ranks(self, monkeypatch):
        calls = []
        original = prumerge.merging._similarity_windows

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(prumerge.merging, "_similarity_windows", counting)
        tokens = tokens_from(np.random.default_rng(6).normal(size=(9, 4)),
                             np.zeros((9, 2), np.float32), grid=(3, 3))
        result = token_supplement(selection_of([2, 5]), tokens, uniform_attention(9), k=1)
        assert not calls and result.members.tolist() == [[2], [5]]
        token_supplement(selection_of([2, 5]), tokens, uniform_attention(9), k=2)
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_attention_must_be_finite_and_nonnegative(self, bad):
        attention = np.full(4, 0.25)
        attention[1] = bad
        tokens = tokens_from(np.eye(4), np.zeros((4, 1), np.float32), grid=(2, 2))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            select_outliers(attention)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            token_supplement(selection_of([0]), tokens, attention, k=2)

    def test_attention_length_must_match(self):
        tokens = tokens_from(np.eye(3), np.zeros((3, 1), np.float32))
        with pytest.raises(ValueError, match="expected n=3"):
            token_supplement(selection_of([0]), tokens, uniform_attention(2), k=2)

    def test_full_cluster_uniform_attention_is_column_mean(self):
        keys = np.tile([1.0, 0.0], (4, 1))  # identical keys: everyone is a neighbor
        Y = np.arange(8, dtype=np.float32).reshape(4, 2)
        tokens = tokens_from(keys, Y, grid=(2, 2))
        result = token_supplement(selection_of([0]), tokens,
                                  uniform_attention(4), k=4)
        np.testing.assert_allclose(result.tokens[0], Y.mean(axis=0), atol=1e-6)

    def test_planted_two_cluster_instance(self):
        rng = np.random.default_rng(9)
        # two groups of near-identical keys, far apart
        base = np.array([[10.0, 0.0], [0.0, 10.0]])
        group = np.repeat([0, 0, 0, 1, 1, 1], 1)
        keys = base[group] + rng.normal(0, 1e-3, size=(6, 2))
        Y = np.array([[1, 0], [2, 0], [3, 0], [0, 4], [0, 5], [0, 6]],
                     dtype=np.float32)
        a = np.array([0.1, 0.2, 0.1, 0.2, 0.3, 0.1])
        tokens = tokens_from(keys, Y, grid=(2, 3))
        result = token_supplement(selection_of([0, 4]), tokens, a, k=3)
        for row, center, members in ((0, 0, [0, 1, 2]), (1, 4, [3, 4, 5])):
            assert sorted(result.members[row].tolist()) == members
            w = a[members] / a[members].sum()
            np.testing.assert_allclose(
                result.tokens[row], w @ Y[members].astype(np.float64), atol=1e-6
            )

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(13)
        tokens = tokens_from(rng.normal(size=(8, 3)),
                             rng.normal(size=(8, 4)).astype(np.float32), grid=(2, 4))
        sel = selection_of([0, 3, 6])
        result = token_supplement(sel, tokens, class_attention(tokens), k=4)
        assert np.abs(result.weights.sum(axis=1) - 1.0).max() <= 1e-6
        for center, members in zip(sel.indices, result.members):
            assert center in members

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(17)
        tokens = tokens_from(rng.normal(size=(10, 3)),
                             rng.normal(size=(10, 4)).astype(np.float32), grid=(2, 5))
        result = token_supplement(selection_of([2, 5]), tokens,
                                  class_attention(tokens), k=5)
        for row, members in zip(result.tokens, result.members):
            member_rows = tokens.Y[members]
            assert np.all(row >= member_rows.min(axis=0) - 1e-5)
            assert np.all(row <= member_rows.max(axis=0) + 1e-5)

    @given(st.integers(0, 4000))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        keys = rng.normal(size=(n, 3)).astype(np.float32)
        Y = rng.normal(size=(n, d)).astype(np.float32)
        a = rng.exponential(size=n)
        a = a / a.sum()
        m = int(rng.integers(1, n + 1))
        selected = sorted(rng.choice(n, size=m, replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        tokens = tokens_from(keys, Y)
        result = token_supplement(selection_of(selected), tokens, a, k=k)
        expected, member_lists = merge_oracle(selected, keys, a, Y, k)
        assert np.abs(result.tokens - expected).max() < 1e-6
        assert [tuple(row) for row in result.members.tolist()] == member_lists

    @given(st.integers(0, 10**6), st.sampled_from([(4, 16, 48), (16, 64, 12), (3, 5, 48)]))
    @settings(max_examples=60, deadline=None)
    def test_exact_duplicate_keys_match_oracle(self, seed, shape):
        # keys drawn with replacement from a small pool, so many tokens
        # share an exact key and tie exactly; the oracle ranks those ties
        # by lower index, and so must the merge
        n_heads, d_k, n_max = shape
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, n_max + 1))
        pool = rng.normal(size=(int(rng.integers(1, 6)), n_heads * d_k)).astype(np.float32)
        flat = pool[rng.integers(0, len(pool), size=n)]
        K = flat.reshape(n, n_heads, d_k).transpose(1, 0, 2)
        Y = rng.normal(size=(n, 3)).astype(np.float32)
        tokens = TokenSet(grid=(1, n), q_cls=np.ones((n_heads, d_k)), K=K, Y=Y)
        a = rng.exponential(size=n)
        selected = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                     replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        result = token_supplement(selection_of(selected), tokens, a, k=k)
        expected, member_lists = merge_oracle(selected, flat, a, Y, k)
        assert [tuple(row) for row in result.members.tolist()] == member_lists
        assert np.abs(result.tokens - expected).max() < 1e-6

    @given(st.integers(0, 4000), st.sampled_from([0.1, 3.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_attention_scale_invariance(self, seed, lam):
        rng = np.random.default_rng(seed)
        n = 12
        tokens = tokens_from(rng.normal(size=(n, 3)),
                             rng.normal(size=(n, 4)).astype(np.float32), grid=(3, 4))
        a = rng.exponential(size=n)
        sel = selection_of([0, 5, 9])
        base = token_supplement(sel, tokens, a, k=4).tokens
        scaled = token_supplement(sel, tokens, lam * a, k=4).tokens
        assert np.abs(base - scaled).max() < 1e-6


def assert_matches_oracle(flat, n_heads, rng, ks=None):
    """Members and merged tokens equal the oracle's, for every k in ks
    (default 1 .. n). Row i of flat is token i's key, heads concatenated."""
    flat = np.asarray(flat, dtype=np.float32)
    n = flat.shape[0]
    K = flat.reshape(n, n_heads, -1).transpose(1, 0, 2)
    tokens = TokenSet(grid=(1, n), q_cls=np.ones((n_heads, K.shape[2])), K=K,
                      Y=rng.normal(size=(n, 3)))
    a = rng.exponential(size=n)
    selected = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    for k in ks or range(1, n + 1):
        result = token_supplement(selection_of(selected), tokens, a, k=k)
        expected, member_lists = merge_oracle(selected, flat, a, tokens.Y, k)
        assert [tuple(row) for row in result.members.tolist()] == member_lists, k
        assert np.abs(result.tokens - expected).max() < 1e-6


class TestRankingEdgeCases:
    """Heavy ties: the ranking must stay the oracle's, ties to lower index."""

    @given(st.integers(0, 10**6), st.sampled_from([(1, 8), (4, 4), (16, 2)]),
           st.integers(1, 3), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_keys_from_a_small_pool(self, seed, shape, pool_size, n):
        n_heads, d_k = shape
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(pool_size, n_heads * d_k)).astype(np.float32)
        assert_matches_oracle(pool[rng.integers(0, pool_size, size=n)], n_heads, rng)

    @given(st.integers(0, 10**6), st.sampled_from([(1, 3), (4, 1), (16, 1)]),
           st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_distinct_keys_with_equal_dot_products(self, seed, shape, n):
        # small integer keys: every dot product is exact in any summation
        # order, and many distinct keys share a value with some other key
        n_heads, d_k = shape
        rng = np.random.default_rng(seed)
        flat = rng.integers(-1, 2, size=(n, n_heads * d_k)).astype(np.float32)
        assert_matches_oracle(flat, n_heads, rng)

    @given(st.integers(0, 10**6), st.sampled_from([1, 4, 16]), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_keys_differing_only_in_the_sign_of_zero(self, seed, n_heads, n):
        # half the coordinates are zero, and each token flips their signs
        # at random: the keys are equal, the bytes are not
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(int(rng.integers(1, 4)), 64)).astype(np.float32)
        pool[:, rng.random(64) < 0.5] = 0.0
        flat = pool[rng.integers(0, len(pool), size=n)]
        flat[(flat == 0) & (rng.random(flat.shape) < 0.5)] = -0.0
        assert_matches_oracle(flat, n_heads, rng, ks=sorted({1, int(rng.integers(1, n + 1)), n}))

    @given(st.integers(0, 10**6), st.sampled_from([1, 4, 16]), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_distinct_keys_with_a_shared_fingerprint(self, seed, n_heads, n):
        # 2**80 in the first coordinate swamps any fixed linear fingerprint
        # of the small coordinates, so these distinct keys look alike
        # until compared exactly; keys without it tell them apart
        rng = np.random.default_rng(seed)
        flat = np.zeros((n, n_heads * 2), np.float32)
        big = rng.random(n) < 0.6
        flat[big, 0] = 2.0**80
        flat[:, 1] = rng.integers(1, 5, size=n)
        assert_matches_oracle(flat, n_heads, rng)

    def test_single_token(self):
        assert_matches_oracle(np.array([[0.5, -2.0]]), 1, np.random.default_rng(0))

    def test_equal_fingerprints_are_compared_exactly(self):
        K = np.array([[[1.0], [2.0], [1.0], [-0.0], [0.0], [2.0]]], np.float32)
        dup, first = _equal_key_columns(K, np.zeros(6))
        assert dup.tolist() == [2, 4, 5] and first.tolist() == [0, 3, 1]


def supplement_peak(tokens):
    """tracemalloc peak of token_supplement at the pipeline's selection
    and auto k, and the number of selected tokens."""
    attention = class_attention(tokens)
    selection = select_outliers(attention)
    k = -(-tokens.n // selection.m)
    tracemalloc.start()
    try:
        token_supplement(selection, tokens, attention, k)
        return tracemalloc.get_traced_memory()[1], selection.m
    finally:
        tracemalloc.stop()


def test_no_float64_copy_of_the_keys():
    # ViT-L/14@336 shapes: one float64 copy of K is 4.7 MB, and a float64
    # gather of the (m, k, d) member embeddings is as large again
    tokens = synth_generate(SynthSpec(grid=(24, 24), d=1024, d_k=64, n_heads=16,
                                      n_spikes=32, seed=1))
    peak, _ = supplement_peak(tokens)
    assert peak < 8 * tokens.K.size


def test_small_shapes_allocate_two_similarity_blocks_at_most():
    # at the demo corpus shape the (m, n) similarity rows dominate; the
    # ranking may hold one more such block, not a negated copy and an
    # index array besides
    tokens = synth_generate(demo_corpus_specs()[0])
    peak, m = supplement_peak(tokens)
    assert peak < 2.5 * 8 * m * tokens.n


def test_anyres_peak_is_bounded_by_the_block_budgets():
    # 5-tile AnyRes shapes under prumerge+: holding every float64 key, or
    # the whole (m, k, d) gather of member embeddings (11.9 MB), breaks
    # the bound; the (m, n) similarity rows, their partitioned copy and
    # the centers' float64 keys are what scales with m
    tokens = synth_generate(SynthSpec(grid=(120, 24), d=1024, d_k=64, n_heads=16,
                                      n_spikes=32, seed=1))
    attention = class_attention(tokens)
    selection = select_outliers(attention)
    selection = uniform_spatial_supplement(selection, tokens.grid, selection.m / tokens.n)
    k = -(-tokens.n // selection.m)
    tracemalloc.start()
    try:
        token_supplement(selection, tokens, attention, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, width = selection.m, tokens.n_heads * tokens.d_k
    rows = 2 * 8 * m * tokens.n + 8 * m * width
    assert peak < _SIMILARITY_BLOCK_BYTES + _MERGE_BLOCK_BYTES + rows


@given(st.integers(0, 10**6), st.sampled_from([(1, 8), (4, 4), (16, 2)]),
       st.integers(1, 5), st.integers(1, 40), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_small_blocks_match_the_oracle(seed, shape, pool_size, n, tokens_per_block):
    # blocks of a few key columns and one center per merge block take
    # every block boundary the default budgets skip at these sizes
    n_heads, d_k = shape
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(pool_size, n_heads * d_k)).astype(np.float32)
    flat = pool[rng.integers(0, pool_size, size=n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prumerge.core, "_SIMILARITY_BLOCK_BYTES", 8 * n_heads * d_k * tokens_per_block)
        mp.setattr(prumerge.merging, "_MERGE_BLOCK_BYTES", 1)
        assert_matches_oracle(flat, n_heads, rng, ks=sorted({1, min(2, n), int(rng.integers(1, n + 1)), n}))


def test_blocked_merge_is_byte_identical_to_one_block(monkeypatch):
    tokens = synth_generate(SynthSpec(grid=(12, 12), d=64, d_k=8, n_heads=2,
                                      n_spikes=20, cluster_count=3, seed=5))
    attention = class_attention(tokens)
    selection = select_outliers(attention)
    whole = token_supplement(selection, tokens, attention, 9)
    monkeypatch.setattr(prumerge.merging, "_MERGE_BLOCK_BYTES", 3 * 4 * 9 * 64)
    blocked = token_supplement(selection, tokens, attention, 9)
    assert whole.tokens.tobytes() == blocked.tokens.tobytes()
    np.testing.assert_array_equal(whole.members, blocked.members)


def test_every_token_kept_peak_is_bounded_by_the_window_budgets(monkeypatch):
    # prumerge+ at ratio 1 keeps every token of a 48x48 grid (m = n =
    # 2304), so the whole (m, n) float64 similarity array (42 MB) breaks
    # the bound; one window, its boolean top-k mask (an eighth of it),
    # a key block, the centers' float64 keys and O(m k) ranking state
    # must not
    tokens = synth_generate(SynthSpec(grid=(48, 48), d=8, d_k=8, n_heads=1,
                                      n_spikes=32, seed=1))
    config = PipelineConfig(mode="prumerge_plus", supplement_ratio=1.0, k=2)
    tracemalloc.start()
    try:
        windowed = reduce_tokens(tokens, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, k, width = windowed.m, 2, tokens.n_heads * tokens.d_k
    assert m == tokens.n
    assert peak < (_SIMILARITY_WINDOW_BYTES * 9 // 8 + _SIMILARITY_BLOCK_BYTES
                   + 8 * m * width + 64 * m * k)
    monkeypatch.setattr(prumerge.core, "_SIMILARITY_WINDOW_BYTES", 8 * m * tokens.n)
    whole = reduce_tokens(tokens, config)
    np.testing.assert_array_equal(windowed.members, whole.members)
    assert windowed.tokens.tobytes() == whole.tokens.tobytes()


@given(st.integers(0, 10**6), st.sampled_from([1, 4, 16]), st.integers(1, 3),
       st.integers(1, 16), st.integers(1, 7), st.integers(1, 7))
@example(seed=0, n_heads=16, pool_size=1, n=7, window=3, tokens_per_block=1)
@example(seed=122, n_heads=16, pool_size=2, n=13, window=5, tokens_per_block=3)
@settings(max_examples=40, deadline=None)
def test_small_windows_match_the_oracle_and_one_window(seed, n_heads, pool_size, n,
                                                       window, tokens_per_block):
    # windows of a few columns put duplicate keys and their leaders (the
    # lowest index with that key) in different windows, and make k wider
    # than a window; the explicit examples are ones where BLAS rounds a
    # duplicate's raw similarity differently from its leader's, so a
    # leader column that is not carried over shows
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(pool_size, n_heads * 4)).astype(np.float32)
    flat = pool[rng.integers(0, pool_size, size=n)]
    tokens = TokenSet(grid=(1, n), q_cls=np.ones((n_heads, 4)),
                      K=flat.reshape(n, n_heads, 4).transpose(1, 0, 2),
                      Y=rng.normal(size=(n, 3)))
    a = rng.exponential(size=n)
    selection = selection_of(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                        replace=False).tolist())
    leader = [min(i for i in range(n) if (flat[i] == flat[j]).all()) for j in range(n)]
    with pytest.MonkeyPatch.context() as mp:
        # windows of at most `window` columns, each one BLAS call
        mp.setattr(prumerge.core, "_SIMILARITY_BLOCK_BYTES", 8 * n_heads * 4 * window)
        mp.setattr(prumerge.core, "_SIMILARITY_WINDOW_BYTES", 8 * selection.m * window)
        rows = np.concatenate([w.copy() for _, w in _similarity_windows(tokens, selection.indices)],
                              axis=1)
    assert rows[:, leader].tobytes() == rows.tobytes()
    for k in range(1, n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prumerge.core, "_SIMILARITY_BLOCK_BYTES", 8 * n_heads * 4 * tokens_per_block)
            whole = token_supplement(selection, tokens, a, k)
            mp.setattr(prumerge.core, "_SIMILARITY_WINDOW_BYTES", 8 * selection.m * window)
            windowed = token_supplement(selection, tokens, a, k)
        _, member_lists = merge_oracle(selection.indices, flat, a, tokens.Y, k)
        assert [tuple(row) for row in windowed.members.tolist()] == member_lists, k
        assert windowed.members.tobytes() == whole.members.tobytes()
        assert windowed.tokens.tobytes() == whole.tokens.tobytes()


@given(st.integers(0, 10**6), st.sampled_from([1, 4, 16]), st.integers(1, 3),
       st.integers(1, 24), st.sampled_from(["column", "block", "blocks"]),
       st.integers(1, 5), st.booleans())
@example(seed=0, n_heads=1, pool_size=1, n=24, windows="blocks", tokens_per_block=4,
         every_token=False)
@example(seed=1, n_heads=4, pool_size=2, n=24, windows="column", tokens_per_block=1,
         every_token=True)
@settings(max_examples=60, deadline=None)
def test_windowed_ranking_equals_one_top_k(seed, n_heads, pool_size, n, windows,
                                           tokens_per_block, every_token):
    # windows of one column, one key block or a few blocks split duplicate
    # keys from their leaders and make k (up to n, the floor fallback)
    # wider than a window; one pooled key makes every entry of a window a
    # candidate, so rows carry ties and +inf pads (the first example)
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(pool_size, n_heads * 4)).astype(np.float32)
    flat = pool[rng.integers(0, pool_size, size=n)]
    tokens = TokenSet(grid=(1, n), q_cls=np.ones((n_heads, 4)),
                      K=flat.reshape(n, n_heads, 4).transpose(1, 0, 2), Y=np.zeros((n, 1)))
    if every_token:
        centers = np.arange(n)
    else:
        centers = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    if windows == "column":
        tokens_per_block = 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prumerge.core, "_SIMILARITY_BLOCK_BYTES", 8 * n_heads * 4 * tokens_per_block)
        block = -(-n // -(-n // tokens_per_block))  # the key block of n tokens
        width = {"column": 1, "block": block, "blocks": block * int(rng.integers(2, 4))}[windows]
        order = np.argsort(-key_similarity(tokens, centers), axis=1, kind="stable")
        whole = [order[:, :k] for k in range(1, n + 1)]
        mp.setattr(prumerge.core, "_SIMILARITY_WINDOW_BYTES", 8 * centers.size * width)
        for k in range(1, n + 1):
            assert _nearest(tokens, centers, k).tobytes() == whole[k - 1].tobytes(), k


def test_anyres_ranking_holds_no_similarity_rows():
    # 5-tile AnyRes shapes under prumerge+ (m = 82, k = 36): the whole
    # (m, n) float64 rows (1.9 MB) break the bound; one key block, the
    # centers' float64 keys, one window and O(m k) candidates must not
    tokens = synth_generate(SynthSpec(grid=(120, 24), d=1024, d_k=64, n_heads=16,
                                      n_spikes=32, seed=1))
    tracemalloc.start()
    try:
        result = reduce_tokens(tokens, PipelineConfig(mode="prumerge_plus"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (m, k), width = result.members.shape, tokens.n_heads * tokens.d_k
    assert 8 * m * tokens.n > 3 * _SIMILARITY_WINDOW_BYTES
    assert peak < (_SIMILARITY_BLOCK_BYTES + 8 * m * width + _SIMILARITY_WINDOW_BYTES
                   + 128 * m * k)


@pytest.mark.parametrize("budget", [1, 8 * 11 * 2, 8 * 11 * 5, 8 * 11 * 37, 1 << 20])
def test_row_blocked_kth_values_equal_a_whole_partition(monkeypatch, budget):
    # small integers: many ties, and the k-th value often sits among them;
    # a budget under one row still partitions one row at a time
    a = np.random.default_rng(3).integers(-3, 4, size=(37, 11)).astype(np.float64)
    monkeypatch.setattr(prumerge.merging, "_PARTITION_BLOCK_BYTES", budget)
    for k in range(1, 12):
        kth = _kth_smallest(a, k)
        assert kth.shape == (37, 1)
        np.testing.assert_array_equal(kth[:, 0], np.partition(a, k - 1, axis=1)[:, k - 1])


def test_floor_fallback_peak_is_bounded_by_the_block_budgets():
    # a zero class query gives uniform attention, so no IQR outlier:
    # one center merges all of its 2880 AnyRes tokens (k = n). Gathering
    # every member embedding at once copied all of Y (11.8 MB); a key
    # block of 240 tokens (1.97 MB) is now the largest array
    n, grid = 2880, (120, 24)
    rng = np.random.default_rng(4)
    tokens = TokenSet(grid=grid, q_cls=np.zeros((16, 64)),
                      K=rng.standard_normal((16, n, 64), dtype=np.float32),
                      Y=rng.standard_normal((n, 1024), dtype=np.float32))
    tracemalloc.start()
    try:
        result = reduce_tokens(tokens, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.selection.method == "floor_fallback" and result.members.shape == (1, n)
    assert peak < 2.5e6


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("columns", [1, 7, 32])
def test_column_slab_merge_is_byte_identical_to_one_gather(monkeypatch, normalize, columns):
    # k = n members per center and a budget of `columns` columns of
    # them. Each slab's float64 sums must equal those columns of one
    # gather's: a lone column is summed in another order (most of them
    # differ here), so slabs are at least 2 columns wide, and the last
    # one overlaps the one before it when d = 33 does not split evenly
    n, d = 64, 33
    rng = np.random.default_rng(columns)
    tokens = TokenSet(grid=(8, 8), q_cls=np.ones((2, 4)),
                      K=rng.normal(size=(2, n, 4)), Y=rng.normal(size=(n, d)))
    a = rng.exponential(size=n)
    selection = selection_of([0, 17, 63])
    whole = token_supplement(selection, tokens, a, n, normalize=normalize)
    sums = []
    einsum = np.einsum

    def recording_einsum(subscripts, *operands, **kwargs):
        out = einsum(subscripts, *operands, **kwargs)
        if subscripts == "mk,mkd->md":
            sums.append(out)
        return out

    monkeypatch.setattr(prumerge.merging, "_MERGE_BLOCK_BYTES", 4 * n * columns)
    monkeypatch.setattr(np, "einsum", recording_einsum)
    slabs = token_supplement(selection, tokens, a, n, normalize=normalize)
    monkeypatch.undo()
    assert whole.tokens.tobytes() == slabs.tokens.tobytes()
    assert whole.weights.tobytes() == slabs.weights.tobytes()
    one_gather = np.einsum("mk,mkd->md", whole.weights, tokens.Y[whole.members],
                           dtype=np.float64)
    width, per_center = sums[0].shape[1], len(sums) // selection.m
    assert 2 <= width <= max(2, columns) and len(sums) == selection.m * -(-d // width)
    for i, out in enumerate(sums):
        row, slab = divmod(i, per_center)
        c = min(slab * width, d - width)
        assert out.tobytes() == one_gather[row:row + 1, c:c + width].tobytes()
