import tracemalloc

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
from prumerge.core import _SIMILARITY_BLOCK_BYTES, _similarity_windows
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

    @pytest.mark.parametrize("shape", [(3, 7), (2, 4, 5), (16, 1, 576)])
    def test_rows_equal_one_dimensional_calls(self, shape):
        logits = np.random.default_rng(5).normal(scale=20.0, size=shape)
        out = scaled_softmax(logits, 64)
        rows = [scaled_softmax(row, 64) for row in logits.reshape(-1, shape[-1])]
        assert out.shape == shape
        assert out.tobytes() == np.concatenate(rows).tobytes()

    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_logit_in_any_row(self, row):
        logits = np.zeros((3, 4))
        logits[row, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite logit"):
            scaled_softmax(logits, 4)

    @pytest.mark.parametrize("shape", [(3, 0), (2, 4, 0)])
    def test_zero_length_last_axis(self, shape):
        with pytest.raises(ValueError, match="empty logits"):
            scaled_softmax(np.zeros(shape), 4)

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

    def test_one_temporary_and_the_logits_left_unchanged(self):
        # AnyRes class-attention logits: 16 heads over 2880 tokens; a new
        # array per step held three such arrays at once
        logits = np.random.default_rng(6).normal(scale=20.0, size=(16, 2880))
        before = logits.copy()
        tracemalloc.start()
        try:
            out = scaled_softmax(logits, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * logits.nbytes
        assert logits.tobytes() == before.tobytes()
        z = before / 8.0
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        assert out.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


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

    @pytest.mark.parametrize("n_heads", [2, 16])
    def test_strided_keys_match_contiguous_keys(self, n_heads):
        # keys drawn from a small pool and transposed into (heads, n, d_k):
        # a strided view must give the bytes of its contiguous copy
        rng = np.random.default_rng(n_heads)
        pool = rng.normal(size=(3, n_heads, 64)).astype(np.float32)
        K = pool[rng.integers(3, size=486)].transpose(1, 0, 2)
        q = rng.normal(size=(n_heads, 64)).astype(np.float32)
        strided = TokenSet(grid=(9, 54), q_cls=q, K=K, Y=np.zeros((486, 2)))
        contiguous = TokenSet(grid=(9, 54), q_cls=q, K=np.ascontiguousarray(K),
                              Y=np.zeros((486, 2)))
        assert not strided.K.flags.c_contiguous
        assert class_attention(strided).tobytes() == class_attention(contiguous).tobytes()

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

    @pytest.mark.parametrize("centers, message", [
        ([4], "center 4 out of range for n=4"),  # was an IndexError
        ([-1], "center -1 out of range"),  # was token 3's row
        ([1.5], "centers must be integers"),  # was token 1's row
        ([True], "centers must be integers"),  # was token 1's row
        ([np.bool_(True)], "centers must be integers"),
        ([[0, 1]], "centers must be integers"),
        (np.array([[0, 1]]), "centers must be integers"),
        (2, "centers must be a sequence of integers"),
    ])
    def test_rejects_centers_that_are_not_token_indices(self, centers, message):
        tokens = make_tokens(np.eye(4), grid=(2, 2))
        with pytest.raises(ValueError, match=message):
            key_similarity(tokens, centers)

    def test_no_centers_give_no_rows(self):
        # was a ZeroDivisionError
        rows = key_similarity(make_tokens(np.eye(4), grid=(2, 2)), [])
        assert rows.shape == (0, 4) and rows.dtype == np.float64

    def test_numpy_integer_centers_accepted(self):
        tokens = make_tokens(np.random.default_rng(5).normal(size=(6, 3)), grid=(2, 3))
        rows = key_similarity(tokens, [1, 4])
        for centers in (np.array([1, 4], np.uint32), [np.int64(1), np.uint8(4)]):
            assert key_similarity(tokens, centers).tobytes() == rows.tobytes()

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

    @pytest.mark.parametrize("grid", [(True, 4), (2.0, 2.0), (1, "4"), (np.float64(2), 2)])
    def test_grid_rejects_bool_and_non_integers(self, grid):
        with pytest.raises(ValueError, match="grid must be two integers"):
            make_tokens(np.ones((4, 2)), grid=grid)

    def test_grid_accepts_numpy_integers(self):
        tokens = make_tokens(np.ones((4, 2)), grid=(np.int64(2), np.uint8(2)))
        assert tokens.n == 4


@pytest.mark.parametrize("n, grid", [(576, (24, 24)), (2880, (120, 24))])
def test_key_blocks_are_equal_and_within_the_budget(monkeypatch, n, grid):
    # ViT-L keys (16 heads of d_k = 64) are cast in the fewest blocks the
    # budget allows, of one width: 3 x 192 and 12 x 240, not 256 + 256 + 64
    size = 16 * 64
    tokens = TokenSet(grid=grid, q_cls=np.zeros((16, 64)),
                      K=np.random.default_rng(n).normal(size=(16, n, 64)),
                      Y=np.zeros((n, 1)))
    widths = []
    matmul = np.matmul

    def recording_matmul(a, b, **kwargs):
        widths.append(b.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    key_similarity(tokens, [0, n // 2, n - 1])
    assert sum(widths) == n and max(widths) - min(widths) <= 1
    assert len(widths) == -(-8 * size * n // _SIMILARITY_BLOCK_BYTES)  # as many BLAS calls as before
    assert 8 * size * max(widths) <= _SIMILARITY_BLOCK_BYTES


@pytest.mark.parametrize("m, window", [(82, 720), (400, 240)])
def test_windows_hold_whole_key_blocks(m, window):
    # AnyRes keys (n = 2880, 16 heads of d_k = 64) are cast as 12 x 240.
    # 82 centers get windows of three whole blocks; the budget holds
    # 163 columns of 400 centers, but they get windows of one block,
    # since every narrower window would cost one more BLAS call over all
    # of the centers' keys
    n = 2880
    rng = np.random.default_rng(m)
    tokens = TokenSet(grid=(120, 24), q_cls=np.zeros((16, 64)),
                      K=rng.standard_normal((16, n, 64), dtype=np.float32), Y=np.zeros((n, 1)))
    widths = [rows.shape[1] for _, rows in _similarity_windows(tokens, np.arange(m))]
    assert widths == [window] * (n // window)


@pytest.mark.parametrize("n, grid, m, windows", [(576, (24, 24), 64, 1), (2880, (120, 24), 82, 4)])
def test_last_window_holds_no_key_block_or_center_keys(n, grid, m, windows):
    # the caller ranks the last window (at ViT-L shapes, the only one)
    # while the generator is suspended; by then the generator holds the
    # windows' buffer and O(m) more, not the float64 key block (1.5 MB
    # and 1.97 MB here) or the centers' float64 keys (8 KB per center)
    rng = np.random.default_rng(n)
    tokens = TokenSet(grid=grid, q_cls=np.zeros((16, 64)),
                      K=rng.standard_normal((16, n, 64), dtype=np.float32), Y=np.zeros((n, 1)))
    widths = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start, rows in _similarity_windows(tokens, np.arange(m)):
            widths.append(rows.shape[1])
            if start + rows.shape[1] == n:
                held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(widths) == windows
    assert held < 8 * m * widths[0] + 1024 * m
