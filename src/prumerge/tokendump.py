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
import errno
import os
import shutil
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .core import TokenSet
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


class TokenDumpError(ValueError):
    """Malformed or unreadable token dump."""


# errors from os.link that mean the file system cannot link the file
_NO_LINKS = {errno.EPERM, errno.EMLINK, errno.ENOSYS, errno.EOPNOTSUPP, errno.ENOTSUP}


def _back_up(path, backup, made) -> None:
    """Hard-link path to the new name backup, or copy it there where
    links are not supported; backup joins made once it exists."""
    try:
        os.link(path, backup)
        made.append(backup)
    except OSError as exc:
        if exc.errno not in _NO_LINKS:
            raise
        with open(path, "rb") as src, open(backup, "xb") as dst:
            made.append(backup)
            shutil.copyfileobj(src, dst)
        shutil.copystat(path, backup)  # a restored copy keeps its mode and times


def write_outputs(outputs) -> None:
    """Write (path, bytes) pairs all or nothing: each goes to a new
    temporary file beside its destination, and none is renamed into place
    until every one of them has been written. Before its rename, an
    existing destination other than the last is hard-linked (or, where
    links are not supported, copied) to a new backup beside it; if any
    exception stops the write, every destination already replaced is
    restored from its backup, or removed if it had none, and the exception
    propagates unchanged. Temporary and backup files are created
    exclusively, and only files this call created are removed; a backup
    that cannot be moved back or removed stays. An existing path that is
    not a regular file (a directory, FIFO, device or symlink) is refused
    before anything is staged, since the rename would replace it."""
    for path, _ in outputs:
        with contextlib.suppress(FileNotFoundError):
            if not stat.S_ISREG(os.lstat(path).st_mode):
                raise OSError(f"{path} exists and is not a regular file")
    pid = os.getpid()
    made, replaced = [], []  # files this call created; (output, backup or None)
    try:
        for i, (path, data) in enumerate(outputs):
            with open(f"{path}.{pid}-{i}.tmp", "xb") as fh:
                made.append(fh.name)
                fh.write(data)
        for i, (path, _) in enumerate(outputs):
            tmp, backup = f"{path}.{pid}-{i}.tmp", None
            # a backup is read only if a later rename fails
            if i < len(outputs) - 1 and os.path.exists(path):
                backup = f"{path}.{pid}-{i}.bak"
                _back_up(path, backup, made)
            os.replace(tmp, path)
            made.remove(tmp)
            replaced.append((path, backup))
    except BaseException:
        for path, backup in reversed(replaced):
            with contextlib.suppress(OSError):
                if backup:
                    made.remove(backup)  # one that cannot be moved back stays
                    os.replace(backup, path)
                else:
                    os.remove(path)
        for leftover in made:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise
    for backup in made:
        with contextlib.suppress(OSError):
            os.remove(backup)


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
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for arr in (tokens.q_cls, tokens.K, tokens.Y)
    )
    return _write_bytes(header + payload, destination)


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


def _read_dump(source, header: struct.Struct, payload_size):
    """Read a dump's header, check the size it declares, then read the
    payload. ``payload_size`` validates the unpacked header fields and
    returns the payload byte count they declare. When the source can
    seek, a wrong size is rejected before any of the payload is read.
    Returns (fields, payload)."""
    with _opened(source) as fh:
        head = fh.read(header.size)
        if len(head) < header.size:
            raise TokenDumpError("truncated header")
        fields = header.unpack(head)
        size = payload_size(fields)
        expected = header.size + size
        left = _bytes_left(fh)
        if left is not None and left != size:
            raise _size_error(header.size + left, expected)
        # an unseekable source is read to its end: read(size) would
        # allocate a corrupt header's declared size before reading
        payload = fh.read(-1 if left is None else size)
        if len(payload) != size:
            raise _size_error(header.size + len(payload), expected)
    return fields, payload


def _check_header(magic, version, expected_magic):
    if magic != expected_magic:
        raise TokenDumpError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TokenDumpError(f"unsupported version {version}")


def _token_payload_size(fields) -> int:
    magic, version, n, d, d_k, n_heads, h, w = fields
    _check_header(magic, version, MAGIC)
    for name, value in (("n", n), ("d", d), ("d_k", d_k), ("n_heads", n_heads),
                        ("h", h), ("w", w)):
        if value < 1:
            raise TokenDumpError(f"bad dimension {name}={value}")
    if h * w != n:
        raise TokenDumpError(f"grid mismatch: {h}x{w} != n={n}")
    return 4 * (n_heads * d_k + n_heads * n * d_k + n * d)


def read_token_dump(source) -> TokenSet:
    """Read and validate a TokenSet from a path or binary file object."""
    fields, payload = _read_dump(source, _HEADER, _token_payload_size)
    _, _, n, d, d_k, n_heads, h, w = fields
    offset = 0
    arrays = []
    for count in (n_heads * d_k, n_heads * n * d_k, n * d):
        arrays.append(np.frombuffer(payload, dtype="<f4", count=count, offset=offset))
        offset += 4 * count
    q_cls, K, Y = arrays
    try:
        return TokenSet(
            grid=(h, w),
            q_cls=q_cls.reshape(n_heads, d_k),
            K=K.reshape(n_heads, n, d_k),
            Y=Y.reshape(n, d),
        )
    except ValueError as exc:
        raise TokenDumpError(str(exc)) from exc


def write_reduced_dump(tokens: np.ndarray, source_indices, n: int, destination) -> int:
    """Write a reduced token stack (m x d) with its source indices."""
    tokens = np.ascontiguousarray(tokens, dtype="<f4")
    idx = np.ascontiguousarray(source_indices, dtype="<u4")
    m, d = tokens.shape
    header = _REDUCED_HEADER.pack(REDUCED_MAGIC, VERSION, m, d, n)
    return _write_bytes(header + idx.tobytes() + tokens.tobytes(), destination)


def _reduced_payload_size(fields) -> int:
    magic, version, m, d, _ = fields
    _check_header(magic, version, REDUCED_MAGIC)
    return 4 * m + 4 * m * d


def read_reduced_dump(source) -> tuple[np.ndarray, np.ndarray, int]:
    """Read and validate a reduced dump; returns (tokens, source_indices, n)."""
    (_, _, m, d, n), payload = _read_dump(source, _REDUCED_HEADER, _reduced_payload_size)
    # checked after the size, so a corrupt header reads as a size error
    if m < 1 or d < 1:
        raise TokenDumpError(f"bad dimension m={m}, d={d}")
    if m > n:
        raise TokenDumpError(f"m={m} exceeds n={n}")
    idx = np.frombuffer(payload, dtype="<u4", count=m)
    if (idx[1:] <= idx[:-1]).any():
        raise TokenDumpError("source indices are not strictly ascending")
    if idx[-1] >= n:
        raise TokenDumpError(f"source index {idx[-1]} out of range for n={n}")
    tokens = np.frombuffer(payload, dtype="<f4", count=m * d, offset=4 * m).reshape(m, d)
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
        h, w = self.grid
        if min(h, w, self.d, self.d_k, self.n_heads) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not 0 <= self.n_spikes <= h * w:
            raise ValueError("n_spikes must be in [0, n]")
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
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
    h, w = grid
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
