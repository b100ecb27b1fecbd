import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prumerge import (
    PipelineConfig,
    TokenSet,
    class_attention,
    key_similarity,
    reduce_tokens,
    scaled_softmax,
)
from oracles import dot_table, softmax_direct

finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)
logit_arrays = arrays(np.float64, st.integers(1, 40), elements=finite_floats)


def make_tokens(keys, q=None, Y=None, grid=None):
    keys = np.asarray(keys, dtype=np.float32)
    n, d_k = keys.shape
    if q is None:
        q = np.ones(d_k)
    if Y is None:
        Y = np.eye(n, 3)
    if grid is None:
        grid = (1, n)
    return TokenSet(grid=grid, q_cls=[q], K=[keys], Y=Y)


class TestScaledSoftmax:
    def test_constant_logits_uniform(self):
        for c in (0.0, -3.5, 12.0):
            out = scaled_softmax([c, c, c, c], 64)
            np.testing.assert_allclose(out, [0.25] * 4, atol=1e-12)

    def test_scaling_cancels_analytically(self):
        # logits [0, ln3 * sqrt(4)] at scale_dim 4 -> odds 1:3
        out = scaled_softmax([0.0, np.log(3) * 2.0], 4)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_matches_direct_formula(self):
        out = scaled_softmax([1.0, 2.0, 3.0], 1)
        expected = softmax_direct([1.0, 2.0, 3.0], 1)
        assert np.abs(out - expected).max() < 1e-12

    def test_empty_logits(self):
        with pytest.raises(ValueError, match="empty logits"):
            scaled_softmax([], 4)

    def test_non_finite_logit(self):
        with pytest.raises(ValueError, match="non-finite logit"):
            scaled_softmax([1.0, np.nan], 4)

    @given(logit_arrays, st.integers(1, 128))
    def test_sums_to_one(self, logits, scale_dim):
        out = scaled_softmax(logits, scale_dim)
        assert abs(out.sum() - 1.0) < 1e-6
        assert np.all(out >= 0)

    @given(logit_arrays, st.integers(1, 128), st.randoms(use_true_random=False))
    def test_permutation_equivariant(self, logits, scale_dim, rnd):
        perm = list(range(len(logits)))
        rnd.shuffle(perm)
        direct = scaled_softmax(logits[perm], scale_dim)
        permuted = scaled_softmax(logits, scale_dim)[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    @given(logit_arrays, st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_shift_invariant(self, logits, shift):
        a = scaled_softmax(logits, 1)
        b = scaled_softmax(logits + shift, 1)
        assert np.abs(a - b).max() < 1e-9


class TestClassAttention:
    def test_identical_keys_uniform(self):
        tokens = make_tokens(np.tile([1.0, 2.0, -0.5], (6, 1)))
        att = class_attention(tokens)
        np.testing.assert_allclose(att, np.full(6, 1 / 6), atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 16])
    @pytest.mark.parametrize("d_k", [64, 92, 110])
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_keys_get_equal_attention(self, seed, d_k, n_heads):
        # a BLAS product can round the same dot product differently by row
        rng = np.random.default_rng(seed)
        K = np.repeat(rng.normal(size=(n_heads, 1, d_k)).astype(np.float32), 486, axis=1)
        q = rng.normal(size=(n_heads, d_k)).astype(np.float32)
        tokens = TokenSet(grid=(9, 54), q_cls=q, K=K, Y=np.zeros((486, 2)))
        att = class_attention(tokens)
        assert np.all(att == att[0])
        selection = reduce_tokens(tokens, PipelineConfig(mode="prumerge")).selection
        assert (selection.method, selection.indices) == ("floor_fallback", (0,))

    def test_multi_head_mean(self):
        # head 0 puts all mass on token 0, head 1 on token 1
        K = np.zeros((2, 2, 2), dtype=np.float32)
        K[0, 0, 0] = 50.0
        K[1, 1, 1] = 50.0
        q = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        tokens = TokenSet(grid=(1, 2), q_cls=q, K=K, Y=np.zeros((2, 3)))
        att = class_attention(tokens)
        np.testing.assert_allclose(att, [0.5, 0.5], atol=1e-6)

    def test_concentration_matches_direct_oracle(self):
        keys = np.array([[10, 0], [0, 10], [0, 0], [0, 0]], dtype=np.float32)
        tokens = make_tokens(keys, q=[1.0, 0.0], grid=(2, 2))
        att = class_attention(tokens)
        expected = softmax_direct([10, 0, 0, 0], 2)
        np.testing.assert_allclose(att, expected, atol=1e-7)
        assert att.argmax() == 0

    def test_single_head_equals_scaled_softmax(self):
        rng = np.random.default_rng(11)
        keys = rng.normal(size=(8, 4)).astype(np.float32)
        q = rng.normal(size=4).astype(np.float32)
        tokens = make_tokens(keys, q=q, grid=(2, 4))
        logits = keys.astype(np.float64) @ q.astype(np.float64)
        np.testing.assert_array_equal(class_attention(tokens),
                                      scaled_softmax(logits, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            TokenSet(grid=(1, 2), q_cls=np.ones((1, 3)),
                     K=np.ones((1, 2, 4)), Y=np.ones((2, 2)))


class TestKeySimilarity:
    def test_orthonormal_keys_identity(self):
        tokens = make_tokens(np.eye(4), grid=(2, 2))
        np.testing.assert_allclose(key_similarity(tokens, range(4)), np.eye(4), atol=1e-7)

    def test_equal_keys_constant(self):
        v = np.array([1.0, -2.0, 0.5])
        tokens = make_tokens(np.tile(v, (5, 1)))
        np.testing.assert_allclose(
            key_similarity(tokens, range(5)), np.full((5, 5), v @ v), atol=1e-5
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        keys = rng.normal(size=(6, 3)).astype(np.float32)
        tokens = make_tokens(keys, grid=(2, 3))
        rows = key_similarity(tokens, [1, 4])  # only the centers' rows
        assert rows.shape == (2, 6) and rows.dtype == np.float64
        assert np.abs(rows - dot_table(keys)[[1, 4]]).max() < 1e-6

    def test_multi_head_concatenates(self):
        rng = np.random.default_rng(4)
        K = rng.normal(size=(2, 5, 3)).astype(np.float32)
        tokens = TokenSet(grid=(1, 5), q_cls=np.zeros((2, 3)), K=K,
                          Y=np.zeros((5, 2)))
        flat = np.concatenate([K[0], K[1]], axis=1)
        assert np.abs(key_similarity(tokens, range(5)) - dot_table(flat)).max() < 1e-6

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        keys = rng.normal(size=(n, 3)).astype(np.float32)
        s = key_similarity(make_tokens(keys), range(n))
        eigs = np.linalg.eigvalsh(s)
        assert eigs.min() >= -1e-4 * max(np.abs(s).max(), 1e-12)


class TestTokenSetValidation:
    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            make_tokens(np.ones((4, 2)), grid=(3, 2))

    def test_non_finite_rejected(self):
        keys = np.ones((4, 2))
        keys[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            make_tokens(keys)
