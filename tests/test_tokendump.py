import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prumerge import (
    SynthSpec,
    TokenDumpError,
    TokenSet,
    class_attention,
    read_reduced_dump,
    read_token_dump,
    render_mask,
    select_outliers,
    spatial_grid_baseline,
    sequential_baseline,
    synth_generate,
    write_reduced_dump,
    write_token_dump,
)
from prumerge.tokendump import demo_corpus_specs, spike_positions
from oracles import centered_grid


def roundtrip(tokens):
    buf = io.BytesIO()
    write_token_dump(tokens, buf)
    buf.seek(0)
    return read_token_dump(buf)


def minimal_tokens():
    return TokenSet(grid=(1, 1), q_cls=[[0.5]], K=[[[1.5]]], Y=[[2.5]])


class TestDumpFormat:
    def test_minimal_file_size(self):
        buf = io.BytesIO()
        written = write_token_dump(minimal_tokens(), buf)
        assert written == 44  # 32 header + 3 floats
        assert len(buf.getvalue()) == 44

    def test_roundtrip_bit_identical(self):
        tokens = synth_generate(SynthSpec(grid=(3, 5), d=4, d_k=2, n_heads=2,
                                          n_spikes=3, seed=1))
        back = roundtrip(tokens)
        assert back.grid == tokens.grid
        for a, b in ((back.q_cls, tokens.q_cls), (back.K, tokens.K),
                     (back.Y, tokens.Y)):
            assert a.tobytes() == b.tobytes()

    def test_bad_magic(self):
        data = bytearray(io_bytes(minimal_tokens()))
        data[:4] = b"XXXX"
        with pytest.raises(TokenDumpError, match="bad magic"):
            read_token_dump(io.BytesIO(bytes(data)))

    def test_unsupported_version(self):
        data = bytearray(io_bytes(minimal_tokens()))
        struct.pack_into("<I", data, 4, 2)
        with pytest.raises(TokenDumpError, match="unsupported version"):
            read_token_dump(io.BytesIO(bytes(data)))

    def test_truncated_payload(self):
        data = io_bytes(minimal_tokens())
        with pytest.raises(TokenDumpError, match="truncated payload"):
            read_token_dump(io.BytesIO(data[:-2]))

    def test_grid_mismatch(self):
        data = bytearray(io_bytes(minimal_tokens()))
        struct.pack_into("<I", data, 28, 3)  # w = 3, but n = 1
        with pytest.raises(TokenDumpError, match="grid mismatch"):
            read_token_dump(io.BytesIO(bytes(data)))

    def test_trailing_bytes_rejected(self):
        data = io_bytes(minimal_tokens()) + b"\x00"
        with pytest.raises(TokenDumpError, match="trailing"):
            read_token_dump(io.BytesIO(data))

    def test_oversized_file_rejected_after_reading_the_header(self, tmp_path):
        path = tmp_path / "t.prmg"
        path.write_bytes(io_bytes(minimal_tokens()) + bytes(2**20))
        with open(path, "rb") as fh:
            with pytest.raises(TokenDumpError, match="trailing bytes"):
                read_token_dump(fh)
            assert fh.tell() == 32
        stream = CountingReader(path.read_bytes())
        with pytest.raises(TokenDumpError, match="trailing bytes"):
            read_token_dump(stream)
        assert stream.bytes_read == 32
        with pytest.raises(TokenDumpError, match="trailing bytes"):
            read_token_dump(path)

    def test_truncated_file_rejected_after_reading_the_header(self):
        stream = CountingReader(io_bytes(minimal_tokens())[:-2])
        with pytest.raises(TokenDumpError, match="truncated payload"):
            read_token_dump(stream)
        assert stream.bytes_read == 32

    @pytest.mark.parametrize("extra, message", [(b"\x00", "trailing bytes"),
                                                (None, "truncated payload")])
    def test_unseekable_stream_size_checked(self, extra, message):
        data = io_bytes(minimal_tokens())
        data = data + extra if extra else data[:-2]
        with pytest.raises(TokenDumpError, match=message):
            read_token_dump(Unseekable(data))
        assert read_token_dump(Unseekable(io_bytes(minimal_tokens()))).K.tolist() == [[[1.5]]]

    def test_unseekable_stream_with_huge_declared_size(self):
        # n = h = 2^32 - 1, w = 1 and the largest d, d_k, n_heads declare ~2^98 bytes
        big = 2**32 - 1
        head = struct.pack("<4sIIIIIII", b"PRMG", 1, big, big, big, big, big, 1)
        with pytest.raises(TokenDumpError, match="truncated payload"):
            read_token_dump(Unseekable(head + bytes(12)))
        head = struct.pack("<4sIIII", b"PRMR", 1, big, big, 4)
        with pytest.raises(TokenDumpError, match="truncated payload"):
            read_reduced_dump(Unseekable(head + bytes(12)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TokenDumpError, match="cannot read"):
            read_token_dump(tmp_path / "nope.prmg")

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_dims(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        spec = SynthSpec(
            grid=(h, w),
            d=int(rng.integers(1, 33)),
            d_k=int(rng.integers(1, 33)),
            n_heads=int(rng.integers(1, 4)),
            n_spikes=int(rng.integers(0, h * w + 1)),
            seed=seed,
        )
        tokens = synth_generate(spec)
        back = roundtrip(tokens)
        assert back.K.tobytes() == tokens.K.tobytes()
        assert back.Y.tobytes() == tokens.Y.tobytes()
        assert back.q_cls.tobytes() == tokens.q_cls.tobytes()


def io_bytes(tokens):
    buf = io.BytesIO()
    write_token_dump(tokens, buf)
    return buf.getvalue()


class CountingReader(io.BytesIO):
    """A seekable stream that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


class Unseekable(io.BytesIO):
    def seekable(self):
        return False


class TestReducedDump:
    def test_roundtrip(self):
        tokens = np.arange(6, dtype=np.float32).reshape(2, 3)
        buf = io.BytesIO()
        write_reduced_dump(tokens, [4, 9], 16, buf)
        buf.seek(0)
        back, idx, n = read_reduced_dump(buf)
        assert n == 16 and list(idx) == [4, 9]
        assert back.tobytes() == tokens.tobytes()

    def test_size_mismatch(self):
        buf = io.BytesIO()
        write_reduced_dump(np.zeros((2, 3), np.float32), [0, 1], 4, buf)
        with pytest.raises(TokenDumpError):
            read_reduced_dump(io.BytesIO(buf.getvalue()[:-1]))

    def test_trailing_bytes_rejected_after_reading_the_header(self):
        buf = io.BytesIO()
        write_reduced_dump(np.zeros((2, 3), np.float32), [0, 1], 4, buf)
        stream = CountingReader(buf.getvalue() + bytes(2**20))
        with pytest.raises(TokenDumpError, match="trailing bytes"):
            read_reduced_dump(stream)
        assert stream.bytes_read == 20


class TestSynthGenerate:
    def test_no_spikes_near_uniform(self):
        tokens = synth_generate(SynthSpec(grid=(8, 8), d=4, d_k=4, seed=5))
        att = class_attention(tokens)
        assert att.max() / att.min() < np.exp(0.2) + 1e-9
        assert select_outliers(att).method == "floor_fallback"

    def test_planted_spikes_recovered(self):
        spec = SynthSpec(grid=(24, 24), d=8, d_k=4, n_spikes=32, seed=7)
        att = class_attention(synth_generate(spec))
        sel = select_outliers(att)
        assert list(sel.indices) == spike_positions(576, 32)
        assert sel.method == "iqr"

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(grid=(6, 6), d=4, d_k=4, n_spikes=3, n_heads=2, seed=42)
        a, b = synth_generate(spec), synth_generate(spec)
        assert a.K.tobytes() == b.K.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()

    def test_demo_corpus_mean_spikes_32(self):
        specs = demo_corpus_specs()
        assert np.mean([s.n_spikes for s in specs]) == 32

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(grid=(4, 4), d=2, d_k=2, n_spikes=17)


class TestRenderMask:
    def test_floor_selection_two_by_two(self):
        sel = select_outliers(np.array([0.25] * 4), floor=1)
        assert render_mask(sel, (2, 2), "text") == "#.\n.."

    def test_full_selection(self):
        sel = sequential_baseline(4, 4)
        assert render_mask(sel, (2, 2), "text") == "##\n##"

    def test_spatial_six_by_six_pattern(self):
        sel = spatial_grid_baseline((24, 24), 6, 6)
        lines = render_mask(sel, (24, 24), "text").split("\n")
        marks = {(r, c) for r, line in enumerate(lines)
                 for c, ch in enumerate(line) if ch == "#"}
        expected = {divmod(i, 24) for i in centered_grid(24, 24, 6, 6)}
        assert marks == expected

    def test_pgm_output(self):
        sel = sequential_baseline(4, 2)
        data = render_mask(sel, (2, 2), "pgm")
        assert data == b"P5\n2 2\n255\n" + bytes([255, 255, 0, 0])

    def test_out_of_grid(self):
        sel = sequential_baseline(16, 16)
        with pytest.raises(ValueError, match="out of grid"):
            render_mask(sel, (2, 2), "text")
