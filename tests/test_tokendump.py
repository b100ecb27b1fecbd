import io
import os
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
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


def assert_same_tokens(a, b):
    assert a.grid == b.grid
    for x, y in ((a.q_cls, b.q_cls), (a.K, b.K), (a.Y, b.Y)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def open_fds():
    """This process's open file descriptors, or None where they cannot be listed."""
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        if os.path.isdir(fd_dir):
            return len(os.listdir(fd_dir))
    return None


class TestMappedReads:
    """A regular file's payload is mapped, every other source is read:
    both give the same tokens."""

    @pytest.fixture
    def tokens(self):
        return synth_generate(SynthSpec(grid=(6, 8), d=5, d_k=3, n_heads=2,
                                        n_spikes=4, seed=3))

    @pytest.mark.parametrize("kind", ["path", "file", "file-after-prefix", "unbuffered",
                                      "bytesio", "gzip",
                                      pytest.param("fifo", marks=needs_fifo)])
    @pytest.mark.parametrize("fmt", ["prmg", "prmr"])
    def test_every_source_reads_the_same_tokens(self, tmp_path, tokens, fmt, kind):
        if fmt == "prmg":
            read, expected = read_token_dump, [tokens.q_cls, tokens.K, tokens.Y]
            data = io_bytes(tokens)
        else:
            read, expected = read_reduced_dump, [tokens.Y[[1, 5, 40]], np.uint32([1, 5, 40])]
            buf = io.BytesIO()
            write_reduced_dump(expected[0], expected[1], tokens.n, buf)
            data = buf.getvalue()
        path = tmp_path / f"t.{fmt}"
        path.write_bytes(b"prefix" + data if kind == "file-after-prefix" else data)
        writer = None
        if kind == "path":
            back = read(path)
        elif kind in ("file", "file-after-prefix", "unbuffered"):
            with open(path, "rb", buffering=0 if kind == "unbuffered" else -1) as fh:
                if kind == "file-after-prefix":
                    fh.read(6)
                back = read(fh)
                assert fh.tell() == path.stat().st_size  # moved past the payload
        elif kind == "bytesio":
            back = read(io.BytesIO(data))
        elif kind == "gzip":
            # reports the compressed file's descriptor; its bytes are not the dump's
            gz = pytest.importorskip("gzip")
            with gz.open(path.with_suffix(".gz"), "wb") as fh:
                fh.write(data)
            with gz.open(path.with_suffix(".gz"), "rb") as fh:
                back = read(fh)
        else:
            path.unlink()
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(data,))
            writer.start()
            back = read(path)
            writer.join(timeout=10)
            assert not writer.is_alive()
        if fmt == "prmg":
            assert back.grid == tokens.grid
            back = [back.q_cls, back.K, back.Y]
        else:
            *back, n = back
            assert n == tokens.n
        for got, want in zip(back, expected, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    def test_mapped_arrays_are_read_only_and_outlive_the_file(self, tmp_path, tokens):
        path = tmp_path / "t.prmg"
        write_token_dump(tokens, path)
        back = read_token_dump(path)
        assert not (back.K.flags.writeable or back.Y.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            back.Y[0, 0] = 1.0
        path.unlink()  # the map keeps the removed file's pages
        assert_same_tokens(back, tokens)

    def test_reading_many_dumps_leaks_no_handle(self, tmp_path, tokens):
        # a leaked file or map would also warn, and warnings are errors here
        before = open_fds()
        if before is None:
            pytest.skip("cannot list open file descriptors")
        path = tmp_path / "t.prmg"
        write_token_dump(tokens, path)
        for _ in range(200):
            assert read_token_dump(path).n == tokens.n
        assert open_fds() == before

    def test_output_replacing_its_own_input(self, tmp_path, tokens):
        path, fresh = tmp_path / "t.prmg", tmp_path / "fresh.prmg"
        write_token_dump(tokens, path)
        back = read_token_dump(path)
        write_token_dump(back, fresh)
        write_token_dump(back, path)  # renamed over the mapped file
        assert path.read_bytes() == fresh.read_bytes() == io_bytes(tokens)
        assert_same_tokens(back, tokens)

    def test_regular_file_read_allocates_no_payload_copy(self, tmp_path):
        # AnyRes shape: the payload is 23.6 MB, and a private copy of it
        # (with an elementwise finiteness check) peaked at 26.6 MB
        tokens = synth_generate(SynthSpec(grid=(120, 24), d=1024, d_k=64, n_heads=16,
                                          n_spikes=32, seed=1))
        path = tmp_path / "t.prmg"
        write_token_dump(tokens, path)
        del tokens
        tracemalloc.start()
        try:
            back = read_token_dump(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.n == 2880
        assert peak < 2**20


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


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPathWrites:
    def test_token_dump_is_copied_once(self, tmp_path):
        # AnyRes shape: 23.6 MB of payload; copying each array, joining
        # the copies and prepending the header held it twice over
        n, d, d_k, n_heads = 2880, 1024, 64, 16
        tokens = TokenSet(grid=(120, 24), q_cls=np.ones((n_heads, d_k)),
                          K=np.arange(n_heads * n * d_k).reshape(n_heads, n, d_k),
                          Y=-np.arange(n * d).reshape(n, d))
        payload = 4 * (n_heads * d_k + n_heads * n * d_k + n * d)
        path = tmp_path / "t.prmg"
        assert traced_peak(write_token_dump, tokens, path) < 1.25 * payload
        header = struct.pack("<4sIIIIIII", b"PRMG", 1, n, d, d_k, n_heads, 120, 24)
        assert path.read_bytes() == b"".join(
            [header, tokens.q_cls.tobytes(), tokens.K.tobytes(), tokens.Y.tobytes()])

    def test_reduced_dump_is_copied_once(self, tmp_path):
        tokens = np.random.default_rng(2).normal(size=(576, 1024)).astype(np.float32)
        path = tmp_path / "t.prmr"
        peak = traced_peak(write_reduced_dump, tokens, np.arange(576), 2880, path)
        assert peak < 1.25 * (4 * 576 + tokens.nbytes)
        back, idx, n = read_reduced_dump(path)
        assert back.tobytes() == tokens.tobytes() and idx.tolist() == list(range(576))

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
        tokens = np.zeros(shape, np.float32)
        data = (struct.pack("<4sIIII", b"PRMR", 1, *shape, n)
                + np.asarray(indices, "<u4").tobytes() + tokens.tobytes())
        with pytest.raises(TokenDumpError, match=message):
            read_reduced_dump(io.BytesIO(data))
        buf = io.BytesIO()
        with pytest.raises(TokenDumpError, match=message):
            write_reduced_dump(tokens, indices, n, buf)
        assert buf.getvalue() == b""

    @pytest.mark.parametrize("shape, indices, n, message", [
        # unchecked, this wrote a 48-byte file that its reader called truncated
        ((2, 3), [0], 4, r"source indices of shape \(1,\) for 2 tokens"),
        ((2, 3), [[0], [1]], 4, r"source indices of shape \(2, 1\) for 2 tokens"),
        ((1, 3), [7], 5, "source index 7 out of range for n=5"),
        ((2, 3), [3, 1], 5, "not strictly ascending"),
        ((1, 3), [0], -1, "m=1 exceeds n=-1"),  # was a struct.error
        ((1, 3), [-1], 5, "source index -1 out of range for n=5"),  # was an OverflowError
        ((1, 3), [2**32], 2**33, "cannot write n=8589934592"),
        ((2, 3), [0.0, 1.5], 4, "source indices must be integers"),
        ((2, 3), [False, True], 4, "source indices must be integers"),
    ])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, shape, indices, n, message):
        path = tmp_path / "t.prmr"
        with pytest.raises(TokenDumpError, match=message):
            write_reduced_dump(np.zeros(shape, np.float32), indices, n, path)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_indices_and_n_accepted(self):
        tokens = np.arange(6, dtype=np.float32).reshape(2, 3)
        plain, wide = io.BytesIO(), io.BytesIO()
        write_reduced_dump(tokens, [4, 9], 16, plain)
        write_reduced_dump(tokens, np.array([4, 9], np.uint64), np.int64(16), wide)
        assert wide.getvalue() == plain.getvalue()


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

    @pytest.mark.parametrize("field, value", [
        ("grid", (4.0, 4)), ("grid", (4, True)), ("d", 2.5), ("d_k", True),
        ("n_heads", 1.0), ("n_spikes", True), ("cluster_count", 2.0), ("seed", 1.5),
        ("d", np.bool_(True)), ("seed", "1"), ("n_spikes", None),
        ("seed", True), ("seed", np.True_), ("seed", 3.0), ("seed", np.float64(3)),
    ])
    def test_integer_fields_reject_other_values(self, field, value):
        fields = {"grid": (4, 4), "d": 2, "d_k": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be"):
            SynthSpec(**fields)

    @pytest.mark.parametrize("i", [np.int64, np.uint8])
    def test_numpy_integers_accepted(self, i):
        # kept as Python ints: n = 16 * 16 overflows uint8
        spec = SynthSpec(grid=(i(16), i(16)), d=i(2), d_k=i(2), n_heads=i(2), n_spikes=i(8),
                         cluster_count=i(2), seed=i(5))
        plain = SynthSpec(grid=(16, 16), d=2, d_k=2, n_heads=2, n_spikes=8,
                          cluster_count=2, seed=5)
        assert repr(spec) == repr(plain)
        assert synth_generate(spec).K.tobytes() == synth_generate(plain).K.tobytes()

    @pytest.mark.parametrize("gain", [True, "6", None])
    def test_spike_gain_rejects_bool_and_non_real(self, gain):
        with pytest.raises(ValueError, match="spike_gain must be a real number"):
            SynthSpec(grid=(4, 4), d=2, d_k=2, n_spikes=1, spike_gain=gain)

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
