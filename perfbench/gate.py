"""Output gate: checks every reduction against independent references.

Selected indices must equal the rules in ``tests/oracles.py``. Merged
tokens must equal a float64 reference merge within ``RTOL``/``ATOL``
(bit-exact when k = 1). The ``.prmr`` bytes are parsed here from the
documented layout, not with the library's reader. Nothing in this file
runs inside a timed region.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import oracles  # tests/oracles.py, put on sys.path by run.py

# The float64 merge is rounded once to float32, so the library and the
# reference differ only in accumulation order: a few float32 ulps at most.
RTOL = 1e-5
ATOL = 1e-6

_REDUCED_HEADER = struct.Struct("<4sIIII")  # magic, version, m, d, n


@dataclass(frozen=True)
class Expected:
    """What a correct reduction of one image must produce."""

    indices: list[int]
    k: int
    method: str
    tokens: np.ndarray  # (m, d) float32


def reference_attention(tokens) -> np.ndarray:
    """Per-head softmax of K q / sqrt(d_k) at float64, averaged over heads."""
    K = tokens.K.astype(np.float64)
    q = tokens.q_cls.astype(np.float64)
    logits = np.einsum("hnd,hd->hn", K, q) / math.sqrt(tokens.d_k)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).mean(axis=0)


def reference_merge(tokens, indices, attention, k) -> np.ndarray:
    """Float64 merge of each centre with its k most key-similar tokens.

    Ranks by descending similarity with ties to the lower index, swaps
    the centre in for the weakest member when it is not in its own top
    k, and returns the centre's row unchanged when k = 1.
    """
    n = tokens.n
    flat = np.transpose(tokens.K, (1, 0, 2)).reshape(n, -1).astype(np.float64)
    rows = flat[indices] @ flat.T
    Y = tokens.Y
    out = np.empty((len(indices), tokens.d), dtype=np.float32)
    position = np.arange(n)
    for r, centre in enumerate(indices):
        if k == 1:
            out[r] = Y[centre]
            continue
        members = list(np.lexsort((position, -rows[r]))[:k])
        if centre not in members:
            members[-1] = centre
        w = attention[members]
        w = np.full(k, 1.0 / k) if w.sum() == 0 else w / w.sum()
        out[r] = (w @ Y[members].astype(np.float64)).astype(np.float32)
    return out


def expected_reduction(tokens, selection: dict) -> Expected:
    """Oracle selection and reference merge for one image.

    ``selection`` holds the PipelineConfig fields of the mode: ``mode``
    plus ``budget`` or ``grid_rows``/``grid_cols`` for the baselines.
    Adaptive modes use k = ceil(n / m) and the baselines k = 1, as with
    ``k="auto"``.
    """
    h, w = tokens.grid
    n = tokens.n
    attention = reference_attention(tokens)
    mode = selection["mode"]
    if mode in ("prumerge", "prumerge_plus"):
        base = oracles.outlier_indices(attention, floor=1)
        upper = oracles.fences_oracle(attention)[4]
        method = "iqr" if np.any(attention > upper) else "floor_fallback"
        indices = base
        if mode == "prumerge_plus":
            indices = oracles.supplement_oracle(base, h, w, len(base) / n)
            method = "iqr_plus_uniform"
        k = min(math.ceil(n / len(indices)), n)
    elif mode == "sequential":
        indices, method, k = list(range(selection["budget"])), "sequential", 1
    else:
        indices = oracles.centered_grid(h, w, selection["grid_rows"], selection["grid_cols"])
        method, k = "spatial", 1
    return Expected(indices, k, method,
                    reference_merge(tokens, indices, attention, k))


def parse_reduced(data: bytes):
    """(indices, tokens, n) from ``.prmr`` bytes, or raise ValueError."""
    if len(data) < _REDUCED_HEADER.size:
        raise ValueError("truncated .prmr header")
    magic, version, m, d, n = _REDUCED_HEADER.unpack_from(data)
    if magic != b"PRMR" or version != 1:
        raise ValueError(f"bad .prmr header {magic!r} v{version}")
    if len(data) != _REDUCED_HEADER.size + 4 * m + 4 * m * d:
        raise ValueError(".prmr size does not match its header")
    idx = np.frombuffer(data, "<u4", m, _REDUCED_HEADER.size)
    tok = np.frombuffer(data, "<f4", m * d, _REDUCED_HEADER.size + 4 * m).reshape(m, d)
    return idx, tok, n


def check_reduced(data: bytes, expected: Expected, n: int) -> list[str]:
    """Problems with one ``.prmr`` output; empty when it is correct."""
    try:
        idx, tok, got_n = parse_reduced(data)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if got_n != n:
        problems.append(f"n={got_n}, expected {n}")
    if idx.tolist() != expected.indices:
        problems.append(f"indices differ from the oracle ({idx.size} vs {len(expected.indices)})")
        return problems
    if expected.k == 1:
        if not np.array_equal(tok, expected.tokens):
            problems.append("k=1 tokens are not bit-exact copies")
    elif not np.allclose(tok, expected.tokens, rtol=RTOL, atol=ATOL):
        err = float(np.max(np.abs(tok.astype(np.float64) - expected.tokens)))
        problems.append(f"merged tokens differ from the float64 reference by {err:.3g}")
    return problems


def check_stats(record: dict, expected: Expected, n: int) -> list[str]:
    m = len(expected.indices)
    if (record.get("n"), record.get("m"), record.get("method")) != (n, m, expected.method):
        return [f"stats {record} do not match n={n} m={m} method={expected.method}"]
    if record.get("kept_fraction") != m / n:
        return [f"kept_fraction {record.get('kept_fraction')} != {m}/{n}"]
    return []


def check_mask(text: str, expected: Expected, grid) -> list[str]:
    h, w = grid
    rows = text.rstrip("\n").split("\n")
    if len(rows) != h or any(len(r) != w or set(r) - {"#", "."} for r in rows):
        return [f"mask is not a {h}x{w} grid of '#' and '.'"]
    marked = [i for i, ch in enumerate("".join(rows)) if ch == "#"]
    return [] if marked == expected.indices else ["mask marks other tokens than the oracle"]


def corrupt(data: bytes) -> bytes:
    """Copy of ``.prmr`` bytes with the last token value moved by 1.0."""
    out = bytearray(data)
    (value,) = struct.unpack_from("<f", out, len(out) - 4)
    struct.pack_into("<f", out, len(out) - 4, value + 1.0)
    return bytes(out)
