"""Binary token-dump format, synthetic data generator, mask rendering.

Dump format (``.prmg``), all little-endian, no padding:

    magic   4 bytes  b"PRMG"
    version uint32   1
    n, d, d_k, n_heads, h, w   uint32 each
    q_cls   float32[n_heads * d_k]
    K       float32[n_heads * n * d_k]   (row-major)
    Y       float32[n * d]               (row-major)

Reduced outputs use a sibling format (``.prmr``):

    magic   4 bytes  b"PRMR"
    version uint32   1
    m, d, n uint32
    source_indices  uint32[m]
    tokens  float32[m * d]

The synthetic generator uses numpy's Philox 4x64 counter-based PRNG,
so identical seeds give bit-identical dumps across platforms.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import mmap
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from ._args import _as_grid, _as_int, _is_real
from .core import TokenSet
from .fileio import TokenDumpError, write_outputs
from .selection import SelectionResult

__all__ = [
    "TokenDumpError",
    "SynthSpec",
    "write_outputs",
    "write_token_dump",
    "read_token_dump",
    "write_reduced_dump",
    "read_reduced_dump",
    "synth_generate",
    "demo_corpus_specs",
    "render_mask",
]

MAGIC = b"PRMG"
REDUCED_MAGIC = b"PRMR"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIIII")  # magic, version, n, d, d_k, n_heads, h, w
_REDUCED_HEADER = struct.Struct("<4sIIII")  # magic, version, m, d, n
_F4, _U4 = np.dtype("<f4"), np.dtype("<u4")


def _write_bytes(data: bytes, destination) -> int:
    """Write data to a path, through write_outputs, or to a binary file
    object; returns bytes written."""
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        write_outputs([(destination, data)])
    return len(data)


def write_token_dump(tokens: TokenSet, destination) -> int:
    """Write a TokenSet to a path or binary file object; returns bytes
    written."""
    h, w = tokens.grid
    header = _HEADER.pack(
        MAGIC, VERSION, tokens.n, tokens.d, tokens.d_k, tokens.n_heads, h, w
    )
    # one copy: join reads each contiguous array's buffer in place
    data = b"".join([header] + [np.ascontiguousarray(arr, dtype="<f4")
                                for arr in (tokens.q_cls, tokens.K, tokens.Y)])
    return _write_bytes(data, destination)


@contextlib.contextmanager
def _opened(source):
    """A binary file for a path or an already open binary file object."""
    if hasattr(source, "read"):
        yield source
        return
    try:
        fh = open(source, "rb")
    except OSError as exc:
        raise TokenDumpError(f"cannot read {source}: {exc}") from exc
    with fh:
        yield fh


def _bytes_left(fh):
    """Bytes from the current position to the end, or None when fh
    cannot seek."""
    seekable = getattr(fh, "seekable", None)
    if seekable is None or not seekable():
        return None
    here = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(here)
    return end - here


def _size_error(actual: int, expected: int) -> TokenDumpError:
    if actual < expected:
        return TokenDumpError(f"truncated payload: {actual} < {expected} bytes")
    return TokenDumpError(f"trailing bytes: {actual} > {expected}")


def _mapped(fh, size):
    """The next size bytes of fh as a read-only memoryview of a map of
    its file, or None unless fh reads a regular file's bytes as they are
    (a gzip or bz2 file reports its compressed file's descriptor, so it
    does not qualify) and the file system can map it. fh moves past the
    bytes, as a read would."""
    if not isinstance(getattr(fh, "raw", fh), io.FileIO):
        return None
    fd = fh.fileno()
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        return None
    try:
        whole = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # no mmap support, or a file emptied meanwhile
        return None
    here = fh.tell()
    fh.seek(here + size)
    # arrays built on the view keep the map open; it is unmapped when they are freed
    return memoryview(whole)[here:here + size]


def _read_dump(source, header: struct.Struct, layout):
    """Read a dump's header, check the size it declares, then read the
    payload. ``layout`` validates the unpacked header fields and returns
    the payload's arrays as (dtype, shape) pairs in file order. When the
    source can seek, a wrong size is rejected before any of the payload
    is read. A regular file's payload is mapped read-only, so the arrays
    are views of the page cache, not a private copy; any other source is
    read to its end, since read(size) would allocate a corrupt header's
    declared size before reading. Returns (fields, arrays), the arrays
    read-only views of the payload at consecutive offsets."""
    with _opened(source) as fh:
        head = fh.read(header.size)
        if len(head) < header.size:
            raise TokenDumpError("truncated header")
        fields = header.unpack(head)
        arrays = layout(fields)
        sizes = [dtype.itemsize * math.prod(shape) for dtype, shape in arrays]
        size = sum(sizes)
        expected = header.size + size
        left = _bytes_left(fh)
        if left is not None and left != size:
            raise _size_error(header.size + left, expected)
        payload = _mapped(fh, size)
        if payload is None:
            payload = fh.read()
        if len(payload) != size:
            raise _size_error(header.size + len(payload), expected)
    offsets = itertools.accumulate(sizes, initial=0)
    return fields, [np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape)
                    for (dtype, shape), offset in zip(arrays, offsets)]


def _check_header(magic, version, expected_magic):
    if magic != expected_magic:
        raise TokenDumpError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TokenDumpError(f"unsupported version {version}")


def _token_layout(fields):
    magic, version, n, d, d_k, n_heads, h, w = fields
    _check_header(magic, version, MAGIC)
    for name, value in (("n", n), ("d", d), ("d_k", d_k), ("n_heads", n_heads),
                        ("h", h), ("w", w)):
        if value < 1:
            raise TokenDumpError(f"bad dimension {name}={value}")
    if h * w != n:
        raise TokenDumpError(f"grid mismatch: {h}x{w} != n={n}")
    return [(_F4, (n_heads, d_k)), (_F4, (n_heads, n, d_k)), (_F4, (n, d))]


def read_token_dump(source) -> TokenSet:
    """Read and validate a TokenSet from a path or binary file object."""
    (*_, h, w), (q_cls, K, Y) = _read_dump(source, _HEADER, _token_layout)
    try:
        return TokenSet(grid=(h, w), q_cls=q_cls, K=K, Y=Y)
    except ValueError as exc:
        raise TokenDumpError(str(exc)) from exc


def _reduced_layout(fields):
    magic, version, m, d, _ = fields
    _check_header(magic, version, REDUCED_MAGIC)
    return [(_U4, (m,)), (_F4, (m, d))]


def _check_reduced(m, d, n, idx):
    """The rules a reduced dump's header and source indices obey: the
    writer applies them before writing, the reader after the size."""
    if m < 1 or d < 1:
        raise TokenDumpError(f"bad dimension m={m}, d={d}")
    if m > n:
        raise TokenDumpError(f"m={m} exceeds n={n}")
    if (idx[1:] <= idx[:-1]).any():
        raise TokenDumpError("source indices are not strictly ascending")
    for end in (idx[0], idx[-1]):  # they ascend, so only the ends can be out of range
        if not 0 <= end < n:
            raise TokenDumpError(f"source index {end} out of range for n={n}")


def write_reduced_dump(tokens: np.ndarray, source_indices, n: int, destination) -> int:
    """Write a reduced token stack (m x d) with its source indices. A
    dump that ``read_reduced_dump`` would reject is refused with its
    TokenDumpError before anything is written."""
    tokens = np.ascontiguousarray(tokens, dtype=_F4)
    idx = np.asarray(source_indices)
    m, d = tokens.shape
    fields = (REDUCED_MAGIC, VERSION, m, d, n)
    if [idx.shape, tokens.shape] != [shape for _, shape in _reduced_layout(fields)]:
        raise TokenDumpError(f"source indices of shape {idx.shape} for {m} tokens")
    _check_reduced(m, d, n, idx)
    if idx.dtype.kind not in "iu":
        raise TokenDumpError(f"source indices must be integers, got {idx.dtype}")
    try:
        header = _REDUCED_HEADER.pack(*fields)
    except struct.error as exc:  # n or d beyond uint32
        raise TokenDumpError(f"cannot write n={n}, d={d}: {exc}") from exc
    return _write_bytes(b"".join((header, idx.astype(_U4), tokens)), destination)


def read_reduced_dump(source) -> tuple[np.ndarray, np.ndarray, int]:
    """Read and validate a reduced dump; returns (tokens, source_indices, n)."""
    (_, _, m, d, n), (idx, tokens) = _read_dump(source, _REDUCED_HEADER, _reduced_layout)
    # checked after the size, so a corrupt header reads as a size error
    _check_reduced(m, d, n, idx)
    return tokens, idx, n


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic TokenSet generator.

    ``n_spikes`` tokens, spread evenly over the flat grid, get a key
    whose logit against the class query is boosted by ``spike_gain``;
    the background logits are uniform noise in (-0.1, 0.1), so the
    class attention reproduces the near-zero-almost-everywhere pattern
    the adaptive selector relies on. Embeddings (and the non-query key
    coordinates) are drawn around ``cluster_count`` planted cluster
    means so merging behavior is checkable.
    """

    grid: tuple[int, int]
    d: int
    d_k: int
    n_heads: int = 1
    n_spikes: int = 0
    spike_gain: float = 6.0
    cluster_count: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", _as_grid(self.grid))
        for name in ("d", "d_k", "n_heads", "n_spikes", "cluster_count", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        h, w = self.grid
        if min(h, w, self.d, self.d_k, self.n_heads) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not 0 <= self.n_spikes <= h * w:
            raise ValueError("n_spikes must be in [0, n]")
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not _is_real(self.spike_gain):
            raise ValueError(f"spike_gain must be a real number, got {self.spike_gain!r}")
        # the spike logits gain +- noise are stored as float32 keys
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.float32([self.spike_gain - BACKGROUND_NOISE,
                                self.spike_gain + BACKGROUND_NOISE])
        if not np.isfinite(edges).all():
            raise ValueError(f"spike_gain {self.spike_gain} +- {BACKGROUND_NOISE} "
                             "is not finite in float32")


BACKGROUND_NOISE = 0.1  # half-width of the uniform background logit noise


def spike_positions(n: int, n_spikes: int) -> list[int]:
    """Evenly spread flat indices for the planted spikes."""
    return [int((t + 0.5) * n / n_spikes) for t in range(n_spikes)]


def synth_generate(spec: SynthSpec) -> TokenSet:
    """Deterministic synthetic TokenSet (Philox PRNG, fixed by seed)."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    h, w = spec.grid
    n = h * w
    spikes = spike_positions(n, spec.n_spikes)

    # class query along the first key axis, scaled so logits equal K[:, 0]
    q_cls = np.zeros((spec.n_heads, spec.d_k), dtype=np.float32)
    q_cls[:, 0] = np.sqrt(spec.d_k)

    cluster_ids = np.arange(n) * spec.cluster_count // n
    key_means = rng.normal(0.0, 1.0, size=(spec.cluster_count, spec.d_k))
    K = np.empty((spec.n_heads, n, spec.d_k), dtype=np.float32)
    for head in range(spec.n_heads):
        keys = rng.normal(0.0, 0.05, size=(n, spec.d_k))
        if spec.d_k > 1:
            # planted cluster structure lives off the query axis
            keys[:, 1:] += key_means[cluster_ids][:, 1:]
        # uniform background logits; bounded noise keeps the Tukey fence
        # strictly above every background value
        keys[:, 0] = rng.uniform(-BACKGROUND_NOISE, BACKGROUND_NOISE, size=n)
        keys[spikes, 0] += spec.spike_gain
        K[head] = keys.astype(np.float32)

    y_means = rng.normal(0.0, 1.0, size=(spec.cluster_count, spec.d))
    Y = (y_means[cluster_ids] + rng.normal(0.0, 0.05, size=(n, spec.d))).astype(
        np.float32
    )
    return TokenSet(grid=spec.grid, q_cls=q_cls, K=K, Y=Y)


# spike counts for the shipped demo corpus: mean 32, and the mean
# per-image compression ratio 576/m comes out at 18.3 on a 24x24 grid
DEMO_CORPUS_SPIKE_COUNTS = (26, 28, 30, 32, 34, 36, 38)


def demo_corpus_specs(d: int = 16, d_k: int = 8, seed: int = 2024) -> list[SynthSpec]:
    """Specs for the shipped synthetic demo corpus (24x24 grid, spike
    counts averaging 32)."""
    return [
        SynthSpec(grid=(24, 24), d=d, d_k=d_k, n_spikes=c, cluster_count=4,
                  seed=seed + i)
        for i, c in enumerate(DEMO_CORPUS_SPIKE_COUNTS)
    ]


def render_mask(selection: SelectionResult, grid: tuple[int, int], format: str = "text"):
    """Render the selected indices as an h x w mask.

    ``text`` returns h lines of '#' (selected) / '.' (unselected);
    ``pgm`` returns a binary PGM (P5) image, selected = 255.
    """
    h, w = _as_grid(grid)
    n = h * w
    if selection.indices[-1] >= n:
        raise ValueError(f"index {selection.indices[-1]} out of grid {h}x{w}")
    mask = np.zeros(n, dtype=bool)
    mask[list(selection.indices)] = True
    mask = mask.reshape(h, w)
    if format == "text":
        return "\n".join("".join("#" if m else "." for m in row) for row in mask)
    if format == "pgm":
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        return header + (mask.astype(np.uint8) * 255).tobytes()
    raise ValueError(f"unknown mask format {format!r}")
