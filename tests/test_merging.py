import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prumerge.merging
from prumerge import (
    SynthSpec,
    TokenSet,
    class_attention,
    select_outliers,
    synth_generate,
    token_supplement,
)
from prumerge.core import _equal_key_columns
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

    def test_raw_weights_mode(self):
        Y = np.eye(2, dtype=np.float32)
        result = token_supplement(selection_of([0]), tokens_from(np.eye(2), Y),
                                  np.array([0.1, 0.3]), k=2, normalize=False)
        assert result.members.tolist() == [[0, 1]]
        np.testing.assert_array_equal(result.weights, [[0.1, 0.3]])
        np.testing.assert_allclose(result.tokens[0], [0.1, 0.3], atol=1e-7)


class TestTokenSupplement:
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
        original = prumerge.merging.key_similarity

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(prumerge.merging, "key_similarity", counting)
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
