import io
import os
import signal
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import prumerge
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
from prumerge.tokendump import demo_corpus_specs, spike_positions, write_outputs
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


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


@pytest.mark.parametrize("kind", ["file", "bytesio", pytest.param("fifo", marks=needs_fifo)])
@pytest.mark.parametrize("read", [read_token_dump, read_reduced_dump])
def test_empty_dump_is_truncated_header(tmp_path, kind, read):
    source = tmp_path / "empty"
    writer = None
    if kind == "file":
        source.write_bytes(b"")
    elif kind == "bytesio":
        source = io.BytesIO()
    else:
        os.mkfifo(source)
        writer = threading.Thread(target=source.write_bytes, args=(b"",))
        writer.start()
    with pytest.raises(TokenDumpError, match="truncated header"):
        read(source)
    if writer:
        writer.join(timeout=10)
        assert not writer.is_alive()


# lowers the file-size limit of its own process only, then writes a
# 2 KiB dump over the path it is given
_FSIZE_LIMITED_WRITE = """
import errno, resource, signal, sys
from prumerge import SynthSpec, synth_generate, write_token_dump
tokens = synth_generate(SynthSpec(grid=(8, 8), d=4, d_k=4))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write_token_dump(tokens, sys.argv[1])
except OSError as exc:
    print(errno.errorcode[exc.errno])
"""


class TestPathWrites:
    def test_write_failing_midway_keeps_previous_file(self, tmp_path):
        pytest.importorskip("resource")
        if not hasattr(signal, "SIGXFSZ"):
            pytest.skip("needs SIGXFSZ")
        path = tmp_path / "t.prmg"
        path.write_bytes(b"previous")
        src = str(Path(prumerge.__file__).parents[1])
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", _FSIZE_LIMITED_WRITE, str(path)],
                               capture_output=True, text=True, env=env, timeout=120)
        assert child.stdout.split() == ["EFBIG"], child.stderr
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["t.prmg"]

    def test_single_output_makes_no_backup(self, tmp_path, monkeypatch):
        links = []
        link = os.link
        monkeypatch.setattr(os, "link", lambda *args: links.append(args) or link(*args))
        path = tmp_path / "t.prmg"
        path.write_bytes(b"previous")
        assert write_token_dump(minimal_tokens(), path) == 44
        assert links == []
        assert path.read_bytes() == io_bytes(minimal_tokens())
        assert [p.name for p in tmp_path.iterdir()] == ["t.prmg"]

    def test_interrupted_write_restores_every_output(self, tmp_path, monkeypatch):
        # not an OSError: Ctrl-C (or MemoryError) must undo the write too
        paths = [tmp_path / name for name in "abc"]
        for path in paths:
            path.write_bytes(b"previous")
        replace = os.replace
        renames = []

        def interrupted_second(src, dst):
            if src.endswith(".tmp"):
                renames.append(dst)
                if len(renames) == 2:
                    raise KeyboardInterrupt
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interrupted_second)
        with pytest.raises(KeyboardInterrupt):
            write_outputs([(str(path), b"new") for path in paths])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c"]
        assert all(path.read_bytes() == b"previous" for path in paths)

    def test_backup_that_cannot_be_removed_does_not_fail_the_write(
            self, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in "ab"]
        for path in paths:
            path.write_bytes(b"previous")
        remove = os.remove

        def refuse_backups(path):
            if str(path).endswith(".bak"):
                raise PermissionError(13, "Permission denied", path)
            remove(path)

        monkeypatch.setattr(os, "remove", refuse_backups)
        write_outputs([(str(path), b"new") for path in paths])
        assert all(path.read_bytes() == b"new" for path in paths)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", f"a.{os.getpid()}-0.bak", "b"]

    @pytest.mark.parametrize("kind", ["dir", "symlink"])
    def test_path_that_is_not_a_regular_file_is_refused(self, tmp_path, kind):
        path = tmp_path / "r.prmr"
        if kind == "dir":
            path.mkdir()
        else:
            path.symlink_to(tmp_path / "elsewhere")
        with pytest.raises(OSError, match="not a regular file"):
            write_reduced_dump(np.zeros((1, 2), np.float32), [0], 1, path)
        assert [p.name for p in tmp_path.iterdir()] == ["r.prmr"]
        assert not (tmp_path / "elsewhere").exists()


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

    @pytest.mark.parametrize("shape, indices, n, message", [
        ((3, 2), [0, 1, 2], 2, "m=3 exceeds n=2"),
        ((2, 2), [1, 4], 4, "source index 4 out of range"),
        ((2, 2), [2, 1], 4, "not strictly ascending"),
        ((2, 2), [1, 1], 4, "not strictly ascending"),
        ((0, 2), [], 4, "bad dimension m=0"),
        ((2, 0), [0, 1], 4, "bad dimension"),
    ], ids=["m>n", "index>=n", "descending", "repeated", "m=0", "d=0"])
    def test_inconsistent_dump_rejected(self, shape, indices, n, message):
        buf = io.BytesIO()
        write_reduced_dump(np.zeros(shape, np.float32), indices, n, buf)
        buf.seek(0)
        with pytest.raises(TokenDumpError, match=message):
            read_reduced_dump(buf)


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

    def test_largest_float32_gain_accepted(self):
        gain = float(np.finfo(np.float32).max)
        tokens = synth_generate(SynthSpec(grid=(2, 2), d=2, d_k=2, n_spikes=1, spike_gain=gain))
        assert np.isfinite(tokens.K).all()


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
