"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py``)."""

import io
import struct
import time

import numpy as np
import pytest

from prumerge import (
    PipelineConfig,
    SynthSpec,
    TokenDumpError,
    class_attention,
    corpus_stats,
    cost_comparison,
    hardware_preset,
    iqr_fences,
    memory_footprint,
    model_preset,
    prefill_flops,
    quartiles,
    read_token_dump,
    reduce_tokens,
    select_outliers,
    sequential_baseline,
    spatial_grid_baseline,
    synth_generate,
    token_supplement,
    write_token_dump,
)
from prumerge.cli import cli_main
from prumerge.selection import SelectionResult
from prumerge.tokendump import demo_corpus_specs, spike_positions
from oracles import (
    centered_grid,
    fences_oracle,
    merge_oracle,
    outlier_indices,
    transformer_flops_terms,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_iqr_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        a = rng.exponential(size=n)
        a = a / a.sum()
        q1, q3 = quartiles(a)
        f = iqr_fences(a)
        e1, e3, eiqr, elo, eup = fences_oracle(a)
        worst = max(worst, abs(q1 - e1), abs(q3 - e3), abs(f.iqr - eiqr),
                    abs(f.lower - elo), abs(f.upper - eup))
        assert list(select_outliers(a).indices) == outlier_indices(a)
    elapsed = time.monotonic() - start
    report("1 IQR oracle equivalence (1000 random vectors)",
           worst <= 1e-9 and elapsed < 5.0,
           f"max quartile/fence diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_adaptive_selection_exact():
    start = time.monotonic()
    ok = True
    for spikes in (1, 8, 32, 64):
        spec = SynthSpec(grid=(24, 24), d=8, d_k=4, n_spikes=spikes,
                         spike_gain=6.0, seed=1000 + spikes)
        sel = select_outliers(class_attention(synth_generate(spec)))
        ok &= list(sel.indices) == spike_positions(576, spikes)
    elapsed = time.monotonic() - start
    report("2 adaptive selection recovers planted spikes {1,8,32,64}",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_3_mean_compression_ratio_18x():
    results = [reduce_tokens(synth_generate(spec), PipelineConfig(mode="prumerge"))
               for spec in demo_corpus_specs()]
    ratio = corpus_stats(results)["compression_ratio_mean"]
    report("3 demo corpus mean compression ratio 18.0 +/- 0.5",
           abs(ratio - 18.0) <= 0.5, f"ratio {ratio:.3f}")


def test_criterion_4_merge_oracle_and_k1():
    rng = np.random.default_rng(20240502)
    worst = 0.0
    from prumerge import TokenSet

    for _ in range(200):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        keys = rng.normal(size=(n, 4)).astype(np.float32)
        Y = rng.normal(size=(n, d)).astype(np.float32)
        a = rng.exponential(size=n)
        a = a / a.sum()
        m = int(rng.integers(1, n + 1))
        selected = sorted(rng.choice(n, size=m, replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        tokens = TokenSet(grid=(1, n), q_cls=np.ones((1, 4)), K=keys[None], Y=Y)
        sel = SelectionResult(tuple(selected), None, "iqr")
        result = token_supplement(sel, tokens, a, k=k)
        expected, _ = merge_oracle(selected, keys, a, Y, k)
        worst = max(worst, float(np.abs(result.tokens - expected).max()))
        assert np.abs(result.weights.sum(axis=1) - 1.0).max() <= 1e-6
        # k = 1 bit-equality
        pruned = token_supplement(sel, tokens, a, k=1)
        assert pruned.tokens.tobytes() == Y[selected].tobytes()
    report("4 merge matches quadratic oracle on 200 random instances",
           worst < 1e-6, f"max coordinate diff {worst:.2e}")


def test_criterion_5_scale_invariance():
    rng = np.random.default_rng(20240503)
    worst = 0.0
    ok = True
    from prumerge import TokenSet

    for trial in range(20):
        n = 48
        keys = rng.normal(size=(n, 4)).astype(np.float32)
        Y = rng.normal(size=(n, 6)).astype(np.float32)
        a = rng.exponential(size=n)
        base_sel = select_outliers(a)
        tokens = TokenSet(grid=(6, 8), q_cls=np.ones((1, 4)), K=keys[None], Y=Y)
        base_merge = token_supplement(base_sel, tokens, a, k=6).tokens
        for lam in (0.1, 3.0, 10.0):
            sel = select_outliers(lam * a)
            ok &= sel.indices == base_sel.indices
            merged = token_supplement(sel, tokens, lam * a, k=6).tokens
            worst = max(worst, float(np.abs(merged - base_merge).max()))
    report("5 selection and merging invariant to attention scale",
           ok and worst < 1e-6, f"max merged diff {worst:.2e}")


def test_criterion_6_baseline_index_sets():
    seq = sequential_baseline(576, 40)
    ok = seq.indices == tuple(range(40))
    six = spatial_grid_baseline((24, 24), 6, 6)
    expected_66 = sorted(r * 24 + c for r in (2, 6, 10, 14, 18, 22)
                         for c in (2, 6, 10, 14, 18, 22))
    ok &= list(six.indices) == expected_66
    for rows, cols in ((5, 8), (8, 5), (6, 7), (7, 6), (5, 7), (7, 5), (4, 4)):
        sel = spatial_grid_baseline((24, 24), rows, cols)
        ok &= list(sel.indices) == centered_grid(24, 24, rows, cols)
        ok &= sel.m == rows * cols
    report("6 baseline index sets match hand-derived oracles", ok)


def test_criterion_7_cost_model_reference_values():
    hw = hardware_preset("v100")
    m7, m13 = model_preset("7b"), model_preset("13b")
    f7 = prefill_flops(m7, 616)
    f13 = prefill_flops(m13, 616)
    total7, act7, _ = memory_footprint(m7, 616)
    ok = abs(f7 / 9.3e12 - 1) <= 0.20
    ok &= abs(f13 / 18.2e12 - 1) <= 0.20
    ok &= abs(total7 / 23.3e9 - 1) <= 0.20
    _, _, savings = cost_comparison(m7, hw, 616, 80)
    oracle = (transformer_flops_terms(32, 4096, 11008, 32000, True, 80)
              / transformer_flops_terms(32, 4096, 11008, 32000, True, 616))
    ok &= abs(savings["flops_ratio"] / oracle - 1) <= 0.05
    # reported, not asserted: prefill time and activation column
    full, reduced, _ = cost_comparison(m7, hw, 616, 80)
    print(f"    reported: prefill {full.prefill_time_s*1e3:.1f} ms "
          f"(reference 88.6), activation {act7/1e9:.2f} GB (reference 4.60), "
          f"reduced activation {reduced.activation_bytes/1e9:.2f} GB "
          f"(reference 0.28)")
    report("7 cost model within tolerance of reference table",
           ok,
           f"7B {f7/1e12:.2f}T, 13B {f13/1e12:.2f}T, mem {total7/1e9:.1f}G, "
           f"ratio {savings['flops_ratio']:.4f} vs oracle {oracle:.4f}")


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        base.mkdir()
        dump, out = base / "t.prmg", base / "r.prmr"
        stats, mask = base / "s.json", base / "m.pgm"
        assert cli_main(["synth", "--grid", "24x24", "--d", "16", "--dk", "8",
                         "--spikes", "24", "--seed", "7",
                         "--out", str(dump)]) == 0
        assert cli_main(["reduce", "--input", str(dump), "--mode", "prumerge+",
                         "--out", str(out), "--stats", str(stats),
                         "--mask", str(mask)]) == 0
        outputs.append(tuple(p.read_bytes() for p in (dump, out, stats, mask)))
    report("8 CLI pipeline byte-identical across runs", outputs[0] == outputs[1])


def test_criterion_9_corrupted_file_fuzz():
    tokens = synth_generate(SynthSpec(grid=(3, 4), d=2, d_k=2, n_spikes=2, seed=3))
    buf = io.BytesIO()
    write_token_dump(tokens, buf)
    valid = buf.getvalue()
    rng = np.random.default_rng(20240504)
    cases = []
    for _ in range(25):  # bad magic
        data = bytearray(valid)
        data[rng.integers(0, 4)] ^= 0xFF
        cases.append(bytes(data))
    for _ in range(25):  # bad version
        data = bytearray(valid)
        struct.pack_into("<I", data, 4, int(rng.integers(2, 1000)))
        cases.append(bytes(data))
    for _ in range(25):  # truncation
        cases.append(valid[: rng.integers(0, len(valid))])
    for _ in range(25):  # grid / dim mismatch
        data = bytearray(valid)
        field = int(rng.integers(2, 8))  # n, d, d_k, n_heads, h, w
        struct.pack_into("<I", data, 4 * field, int(rng.integers(0, 100)) + 13)
        cases.append(bytes(data))
    rejected = 0
    for data in cases:
        with pytest.raises(TokenDumpError):
            read_token_dump(io.BytesIO(data))
        rejected += 1
    report("9 corrupted-file fuzz set rejected cleanly",
           rejected == 100, f"{rejected}/100 rejected")
