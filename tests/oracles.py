"""Independent brute-force oracles used across the test suite.

Everything here is written as plain loops / direct formulas, separate
from the library's vectorized implementations.
"""

import numpy as np


def softmax_direct(logits, scale_dim):
    """exp/sum softmax at double precision, no max-subtraction."""
    z = [float(x) / float(scale_dim) ** 0.5 for x in logits]
    e = [np.exp(v) for v in z]
    total = sum(e)
    return np.array([v / total for v in e])


def dot_table(keys):
    """O(n^2 d) double-loop similarity table."""
    keys = np.asarray(keys, dtype=np.float64)
    n = keys.shape[0]
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s[i, j] = sum(float(a) * float(b) for a, b in zip(keys[i], keys[j]))
    return s


def quartiles_sorted(values):
    """Sort-and-interpolate quartiles via numpy's linear quantile rule."""
    v = np.asarray(values, dtype=np.float64)
    return float(np.quantile(v, 0.25)), float(np.quantile(v, 0.75))


def fences_oracle(values):
    q1, q3 = quartiles_sorted(values)
    iqr = q3 - q1
    return q1, q3, iqr, q1 - 1.5 * iqr, q3 + 1.5 * iqr


def outlier_indices(values, floor=1):
    """Selection oracle: upper-fence exceedance with top-attention fallback."""
    v = np.asarray(values, dtype=np.float64)
    upper = fences_oracle(v)[4]
    chosen = [i for i, x in enumerate(v) if x > upper]
    if len(chosen) >= floor:
        return sorted(chosen)
    ranked = sorted(range(v.size), key=lambda i: (-v[i], i))
    return sorted(ranked[:floor])


def centered_grid(h, w, rows, cols):
    """Flat indices of a rows x cols centered sampling grid."""
    out = set()
    for i in range(rows):
        for j in range(cols):
            out.add(int((i + 0.5) * h // rows) * w + int((j + 0.5) * w // cols))
    return sorted(out)


def supplement_oracle(base_indices, h, w, ratio):
    n = h * w
    m_s = int(np.floor(ratio * n + 0.5))
    rows = min(max(int(np.floor(np.sqrt(m_s * h / w) + 0.5)), 1), h)
    cols = min(max(int(np.ceil(m_s / rows)), 1), w)
    return sorted(set(base_indices) | set(centered_grid(h, w, rows, cols)))


def merge_oracle(selected, keys, attention, Y, k, normalize=True):
    """Quadratic-loop reimplementation of the merging stage.

    keys: (n, d_total) per-token key vectors (heads already concatenated).
    Returns (refined (m, d) float32, list of member tuples).
    """
    s = dot_table(keys)
    a = np.asarray(attention, dtype=np.float64)
    Y = np.asarray(Y)
    refined = []
    member_lists = []
    for center in sorted(selected):
        ranked = sorted(range(s.shape[0]), key=lambda j: (-s[center, j], j))
        members = ranked[:k]
        if center not in members:
            members = members[:-1] + [center]
        member_lists.append(tuple(members))
        if normalize and len(members) == 1:
            refined.append(np.array(Y[members[0]]))
            continue
        w = a[members]
        if normalize:
            w = np.full(len(members), 1.0 / len(members)) if w.sum() == 0 else w / w.sum()
        acc = np.zeros(Y.shape[1], dtype=np.float64)
        for weight, j in zip(w, members):
            acc += weight * Y[j].astype(np.float64)
        refined.append(acc.astype(Y.dtype))
    return np.array(refined), member_lists


def transformer_flops_terms(n_layers, d, d_ff, n_vocab, gated, n):
    """Term-by-term FLOP sum for one prefill pass."""
    total = 0.0
    for _ in range(n_layers):
        total += 8.0 * n * d * d          # qkv + output projections
        total += 4.0 * n * n * d          # scores + values
        total += (6.0 if gated else 4.0) * n * d * d_ff
    total += 2.0 * n * d * n_vocab
    return total
