import json

import numpy as np
import pytest

from prumerge import (
    HardwareProfile,
    cost_comparison,
    cost_report,
    hardware_preset,
    memory_footprint,
    model_preset,
    prefill_flops,
    roofline_time,
)
from prumerge.costmodel import load_hardware_profile, load_model_profile
from oracles import transformer_flops_terms


def oracle_flops(model, n):
    return transformer_flops_terms(
        model.n_layers, model.d_model, model.d_ff, model.n_vocab,
        model.ffn_kind == "gated_three_matrix", n,
    )


class TestPrefillFlops:
    def test_zero_tokens(self):
        assert prefill_flops(model_preset("7b"), 0) == 0.0

    def test_7b_full_prompt_near_reference(self):
        flops = prefill_flops(model_preset("7b"), 616)
        assert flops == pytest.approx(9.3e12, rel=0.20)

    def test_13b_full_prompt_near_reference(self):
        flops = prefill_flops(model_preset("13b"), 616)
        assert flops == pytest.approx(18.2e12, rel=0.20)

    def test_ratio_matches_term_sum_oracle(self):
        model = model_preset("7b")
        ratio = prefill_flops(model, 80) / prefill_flops(model, 616)
        oracle = oracle_flops(model, 80) / oracle_flops(model, 616)
        assert ratio == pytest.approx(oracle, rel=0.05)

    def test_strictly_increasing(self):
        model = model_preset("7b")
        values = [prefill_flops(model, n) for n in range(0, 2000, 97)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_quadratic_plus_linear_decomposition(self):
        # flops(n) - 2 flops(n/2) isolates the quadratic term: a n^2 / 2
        model = model_preset("7b")
        n = 1024
        residual = prefill_flops(model, n) - 2 * prefill_flops(model, n // 2)
        quad_coeff = 4.0 * model.d_model * model.n_layers
        assert residual == pytest.approx(quad_coeff * n * n / 2, rel=1e-6)


class TestMemoryFootprint:
    def test_zero_tokens_weights_only(self):
        model = model_preset("7b")
        total, activation, kv = memory_footprint(model, 0)
        assert activation == 0 and kv == 0
        assert total == model.n_params * 2

    def test_7b_total_near_reference(self):
        total, _, _ = memory_footprint(model_preset("7b"), 616)
        assert total == pytest.approx(23.3e9, rel=0.20)

    def test_activation_scaling_reported(self):
        # reference column implies 4.60/0.28 ~ 16.4x between 616 and 40
        # tokens; our mixed linear/quadratic accounting lands within 35%
        _, act_full, _ = memory_footprint(model_preset("7b"), 616)
        _, act_reduced, _ = memory_footprint(model_preset("7b"), 40)
        ours = act_full / act_reduced
        print(f"activation scaling 616/40: ours {ours:.1f}x vs reference 16.4x")
        assert ours == pytest.approx(4.60 / 0.28, rel=0.35)

    def test_kv_linear_in_tokens(self):
        model = model_preset("13b")
        kv = [memory_footprint(model, n)[2] for n in (0, 100, 200, 400)]
        assert kv[0] == 0
        assert kv[2] == pytest.approx(2 * kv[1])
        assert kv[3] == pytest.approx(4 * kv[1])

    def test_total_at_least_weights(self):
        model = model_preset("7b", bytes_per_param=0.5)
        for n in (0, 1, 40, 616, 4096):
            total, _, _ = memory_footprint(model, n)
            assert total >= model.n_params * 0.5


class TestRooflineTime:
    def test_compute_bound_unit(self):
        hw = HardwareProfile("unit", peak_flops=5e12, mem_bandwidth=1e9)
        assert roofline_time(5e12, 0.0, hw) == 1.0

    def test_memory_bound_unit(self):
        hw = HardwareProfile("unit", peak_flops=5e12, mem_bandwidth=1e9)
        assert roofline_time(0.0, 1e9, hw) == 1.0

    def test_zero_rates_rejected(self):
        with pytest.raises(ValueError):
            HardwareProfile("bad", peak_flops=0, mem_bandwidth=1e9)

    def test_monotone(self):
        hw = hardware_preset("v100")
        t = [roofline_time(f, b, hw)
             for f in (0, 1e12, 5e12) for b in (0, 1e9, 5e9)]
        assert roofline_time(5e12, 5e9, hw) == max(t)

    def test_v100_prefill_time_reported(self):
        report = cost_report(model_preset("7b"), hardware_preset("v100"), 616)
        ms = report.prefill_time_s * 1e3
        print(f"7B@616 prefill: ours {ms:.1f} ms vs reference 88.6 ms")
        assert ms == pytest.approx(88.6, rel=0.50)


class TestCostComparison:
    def test_flops_ratio_near_token_ratio(self):
        _, _, savings = cost_comparison(
            model_preset("7b"), hardware_preset("v100"), 616, 80)
        assert savings["flops_ratio"] == pytest.approx(80 / 616, rel=0.05)

    def test_equal_counts_unit_ratios(self):
        _, _, savings = cost_comparison(
            model_preset("7b"), hardware_preset("v100"), 616, 616)
        assert all(v == pytest.approx(1.0) for v in savings.values())

    def test_reduced_exceeding_full_rejected(self):
        with pytest.raises(ValueError):
            cost_comparison(model_preset("7b"), hardware_preset("v100"), 80, 616)

    @pytest.mark.parametrize("n_full, n_reduced, message", [
        (576.5, 80, "n_full must be an integer, got 576.5"),  # was reported as 576.5
        (True, False, "n_full must be an integer, got True"),  # was a token_ratio of 0.0
        (616, np.float64(80), "n_reduced must be an integer"),
        (616, -3, "n_reduced must be nonnegative"),
    ])
    def test_counts_must_be_nonnegative_integers(self, n_full, n_reduced, message):
        with pytest.raises(ValueError, match=message):
            cost_comparison(model_preset("7b"), hardware_preset("v100"), n_full, n_reduced)

    def test_numpy_counts_report_python_ints(self):
        # an np.int64 count made a report that json could not serialise
        def as_json(full, reduced, savings):
            return json.dumps([full.to_dict(), reduced.to_dict(), savings])

        model, hw = model_preset("7b"), hardware_preset("v100")
        assert (as_json(*cost_comparison(model, hw, np.int64(616), np.uint16(80)))
                == as_json(*cost_comparison(model, hw, 616, 80)))


@pytest.mark.parametrize("n_tokens", [576.5, 2.0, True, np.bool_(True), "5", None])
@pytest.mark.parametrize("stage", [prefill_flops, memory_footprint, cost_report])
def test_token_count_rejects_bool_and_non_integers(stage, n_tokens):
    args = (hardware_preset("v100"),) if stage is cost_report else ()
    with pytest.raises(ValueError, match="n_tokens must be an integer"):
        stage(model_preset("7b"), *args, n_tokens)


class TestProfiles:
    def test_unknown_presets(self):
        with pytest.raises(ValueError, match="preset"):
            model_preset("70b")
        with pytest.raises(ValueError, match="preset"):
            hardware_preset("h100")

    def test_int4_weight_bytes(self):
        model = model_preset("7b", bytes_per_param=0.5)
        assert memory_footprint(model, 0)[0] == model.n_params * 0.5

    def test_load_profiles_from_json(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_layers": 4, "d_model": 64, "d_ff": 256, "n_vocab": 1000,
            "n_params": 1e6, "n_heads": 4, "ffn_kind": "two_matrix",
        }))
        model = load_model_profile(model_path)
        assert model.n_layers == 4 and model.ffn_kind == "two_matrix"
        assert prefill_flops(model, 10) == transformer_flops_terms(
            4, 64, 256, 1000, False, 10)

        hw_path = tmp_path / "hw.json"
        hw_path.write_text(json.dumps({"peak_flops": 1e12, "mem_bandwidth": 1e11}))
        hw = load_hardware_profile(hw_path)
        assert roofline_time(1e12, 0, hw) == 1.0

    def test_invalid_profile_values(self):
        with pytest.raises(ValueError):
            model_preset("7b", bytes_per_param=3.0)
