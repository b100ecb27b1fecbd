import json
import os
import struct
import threading

import pytest

from prumerge import costmodel, read_reduced_dump
from prumerge.cli import cli_main


def run(args):
    return cli_main(args)


@pytest.fixture
def dump(tmp_path):
    path = tmp_path / "t.prmg"
    assert run(["synth", "--grid", "24x24", "--d", "32", "--dk", "16",
                "--spikes", "32", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestReduce:
    def test_end_to_end_stats(self, dump, tmp_path):
        out = tmp_path / "r.prmr"
        stats = tmp_path / "s.json"
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--k", "auto", "--out", str(out), "--stats", str(stats)])
        assert code == 0
        record = json.loads(stats.read_text())
        assert record["m"] == 32
        assert record["kept_fraction"] == pytest.approx(32 / 576)
        tokens, idx, n = read_reduced_dump(out)
        assert n == 576 and tokens.shape == (32, 32)

    def test_prumerge_plus_mode(self, dump, tmp_path):
        stats = tmp_path / "s.json"
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge+",
                    "--out", str(tmp_path / "r.prmr"), "--stats", str(stats)])
        assert code == 0
        record = json.loads(stats.read_text())
        assert record["method"] == "iqr_plus_uniform"
        # 32 outliers plus a ~6x6 supplement grid, overlap deduplicated
        assert 32 <= record["m"] <= 32 + 36

    def test_mask_outputs(self, dump, tmp_path):
        txt = tmp_path / "m.txt"
        pgm = tmp_path / "m.pgm"
        for mask in (txt, pgm):
            assert run(["reduce", "--input", str(dump), "--mode", "spatial",
                        "--grid", "6x6", "--out", str(tmp_path / "r.prmr"),
                        "--mask", str(mask)]) == 0
        lines = txt.read_text().rstrip("\n").split("\n")
        assert len(lines) == 24 and all(len(l) == 24 for l in lines)
        assert sum(l.count("#") for l in lines) == 36
        assert pgm.read_bytes().startswith(b"P5\n24 24\n255\n")

    def test_budget_exceeds_token_count(self, dump, tmp_path, capsys):
        code = run(["reduce", "--input", str(dump), "--mode", "sequential",
                    "--budget", "1000", "--out", str(tmp_path / "r.prmr")])
        assert code == 2
        assert "budget exceeds token count" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(["reduce", "--input", str(tmp_path / "nope.prmg"),
                    "--mode", "prumerge", "--out", str(tmp_path / "r.prmr")])
        assert code == 2

    def test_oversized_input_is_data_error(self, dump, tmp_path, capsys):
        with open(dump, "ab") as fh:
            fh.write(bytes(2**20))
        out = tmp_path / "r.prmr"
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(out)])
        assert code == 2
        assert "trailing bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_huge_declared_size_from_a_pipe_is_data_error(self, tmp_path, capsys):
        fifo = tmp_path / "in.prmg"
        os.mkfifo(fifo)
        big = 2**32 - 1  # n = h = big, w = 1: the header declares ~2^98 bytes
        head = struct.pack("<4sIIIIIII", b"PRMG", 1, big, big, big, big, big, 1)
        writer = threading.Thread(target=fifo.write_bytes, args=(head + bytes(12),))
        writer.start()
        out = tmp_path / "r.prmr"
        code = run(["reduce", "--input", str(fifo), "--mode", "prumerge",
                    "--out", str(out)])
        writer.join()
        assert code == 2
        assert "truncated payload" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self, dump, capsys):
        assert run(["reduce", "--input", str(dump), "--frobnicate"]) == 1

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--mode", "prumerge", "--k", "0"],
        ["--mode", "sequential"],
        ["--mode", "spatial", "--grid", "2"],
        ["--mode", "prumerge+", "--ratio", "2"],
        ["--mode", "prumerge", "--floor", "0"],
        # flags the mode never reads contradict it; they are not ignored
        ["--mode", "prumerge", "--budget", "3", "--grid", "2x2"],
        ["--mode", "spatial", "--grid", "6x6", "--floor", "5", "--ratio", "0.5"],
        ["--mode", "sequential", "--budget", "8", "--ratio", "0.5"],
        ["--mode", "sequential", "--budget", "0"],
    ])
    def test_config_errors_are_usage_errors(self, dump, tmp_path, capsys, flags):
        out = tmp_path / "r.prmr"
        assert run(["reduce", "--input", str(dump), "--out", str(out)] + flags) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("outputs", [
        {"--out": "r.prmr", "--stats": "r.prmr"},
        {"--out": "t.prmg"},
        {"--out": "r.prmr", "--mask": "t.prmg"},
        {"--out": "r.prmr", "--stats": "s.json", "--mask": "sub/../s.json"},
    ])
    def test_two_outputs_on_one_path_are_usage_errors(self, dump, tmp_path, capsys, outputs):
        (tmp_path / "sub").mkdir()
        before = dump.read_bytes()
        flags = [arg for flag, name in outputs.items() for arg in (flag, str(tmp_path / name))]
        assert run(["reduce", "--input", str(dump), "--mode", "prumerge"] + flags) == 1
        assert "error:" in capsys.readouterr().err
        assert dump.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "t.prmg"]

    @pytest.mark.parametrize("failing", ["--stats", "--mask"])
    def test_failed_output_leaves_no_partial_outputs(self, dump, tmp_path, failing):
        out = tmp_path / "r.prmr"
        out.write_bytes(b"previous")
        paths = {"--stats": tmp_path / "s.json", "--mask": tmp_path / "m.txt"}
        paths[failing] = tmp_path / "missing" / "x"
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(out), "--stats", str(paths["--stats"]),
                    "--mask", str(paths["--mask"])])
        assert code == 2
        assert out.read_bytes() == b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.prmr", "t.prmg"]


class TestCost:
    def test_7b_report(self, tmp_path):
        report = tmp_path / "c.json"
        code = run(["cost", "--model", "7b", "--tokens-full", "616",
                    "--tokens-reduced", "80", "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["full"]["flops_total"] == pytest.approx(9.3e12, rel=0.20)
        assert data["savings"]["flops_ratio"] == pytest.approx(80 / 616, rel=0.05)

    def test_int4_halves_weights(self, tmp_path):
        paths = {}
        for name, flags in (("fp16", []), ("int4", ["--int4"])):
            paths[name] = tmp_path / f"{name}.json"
            assert run(["cost", "--model", "7b", "--tokens-full", "616",
                        "--tokens-reduced", "80", "--report", str(paths[name])]
                       + flags) == 0
        fp16 = json.loads(paths["fp16"].read_text())
        int4 = json.loads(paths["int4"].read_text())
        assert int4["full"]["weight_bytes"] == fp16["full"]["weight_bytes"] / 4

    def test_presets_come_from_the_cost_model(self, tmp_path, monkeypatch):
        monkeypatch.setitem(costmodel._MODEL_PRESETS, "1b", dict(
            n_layers=16, d_model=2048, d_ff=5504, n_vocab=32000,
            n_params=1.1e9, n_heads=16, ffn_kind="gated_three_matrix"))
        monkeypatch.setitem(costmodel._HW_PRESETS, "a100",
                            dict(peak_flops=312e12, mem_bandwidth=2039e9))
        report = tmp_path / "c.json"
        assert run(["cost", "--model", "1B", "--hw", "A100", "--tokens-full", "616",
                    "--tokens-reduced", "80", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert (data["model"], data["hardware"]) == ("1b", "a100")

    def test_unknown_model_is_data_error(self, tmp_path):
        assert run(["cost", "--model", "70b", "--tokens-full", "10",
                    "--tokens-reduced", "5",
                    "--report", str(tmp_path / "c.json")]) == 2


class TestStats:
    def test_corpus_summary(self, tmp_path, capsys):
        for i, m in enumerate((32, 32)):
            (tmp_path / f"s{i}.json").write_text(json.dumps({"n": 576, "m": m}))
        assert run(["stats", "--inputs", str(tmp_path / "s*.json")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["images"] == 2
        assert summary["compression_ratio_mean"] == pytest.approx(18.0)

    def test_empty_glob_is_data_error(self, tmp_path, capsys):
        assert run(["stats", "--inputs", str(tmp_path / "none*.json")]) == 2


_7B = dict(costmodel._MODEL_PRESETS["7b"])


@pytest.mark.parametrize("command, content", [
    ("model", {**_7B, "n_experts": 8}),
    ("model", [_7B]),
    ("model", {**_7B, "n_layers": "32"}),
    ("hw", {"peak_flops": 112e12}),
    ("stats", {"n": 576, "m": 0}),
    ("stats", [576, 32]),
    ("stats", {"n": "576", "m": 32}),
])
def test_malformed_data_file_is_data_error(tmp_path, capsys, command, content):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(content))
    report = tmp_path / "c.json"
    if command == "stats":
        argv = ["stats", "--inputs", str(path)]
    else:
        profiles = {"model": "7b", "hw": "v100", command: str(path)}
        argv = ["cost", "--model", profiles["model"], "--hw", profiles["hw"],
                "--tokens-full", "616", "--tokens-reduced", "80", "--report", str(report)]
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--grid", "4x4", "--d", "0", "--dk", "2", "--spikes", "1"],
    ["synth", "--grid", "4x4", "--d", "2", "--dk", "2", "--spikes", "1", "--clusters", "0"],
    ["synth", "--grid", "2x2", "--d", "2", "--dk", "2", "--spikes", "9"],
    ["cost", "--model", "7b", "--tokens-full", "0", "--tokens-reduced", "0"],
    ["cost", "--model", "7b", "--tokens-full", "616", "--tokens-reduced", "-3"],
    ["cost", "--model", "7b", "--tokens-full", "80", "--tokens-reduced", "616"],
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    target = ["--seed", "0", "--out", str(out)] if argv[0] == "synth" else ["--report", str(out)]
    assert run(argv + target) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class TestDeterminism:
    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        outputs = []
        for run_id in ("a", "b"):
            base = tmp_path / run_id
            base.mkdir()
            dump = base / "t.prmg"
            out = base / "r.prmr"
            stats = base / "s.json"
            assert run(["synth", "--grid", "12x12", "--d", "8", "--dk", "4",
                        "--spikes", "9", "--seed", "99", "--out", str(dump)]) == 0
            assert run(["reduce", "--input", str(dump), "--mode", "prumerge",
                        "--out", str(out), "--stats", str(stats)]) == 0
            outputs.append((dump.read_bytes(), out.read_bytes(),
                            stats.read_bytes()))
        assert outputs[0] == outputs[1]
