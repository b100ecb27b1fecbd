import importlib
import io
import json
import os
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import prumerge
import pytest

from prumerge import (
    PipelineConfig,
    SynthSpec,
    costmodel,
    read_reduced_dump,
    read_token_dump,
    reduce_tokens,
    synth_generate,
    write_reduced_dump,
    write_token_dump,
)
from prumerge.cli import cli_main


def run(args):
    return cli_main(args)


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


def make_obstacle(path, kind):
    """An existing output path that is not a regular file."""
    if kind == "dir":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    else:
        path.symlink_to(path.with_name("elsewhere"))
    return path


def assert_obstacle_intact(path, kind):
    mode = os.lstat(path).st_mode
    if kind == "dir":
        assert stat.S_ISDIR(mode) and not any(path.iterdir())
    elif kind == "fifo":
        assert stat.S_ISFIFO(mode)
    else:
        assert stat.S_ISLNK(mode) and not path.with_name("elsewhere").exists()


def forbid_links(monkeypatch):
    """Make os.link fail as on a file system without hard links."""
    def no_links(src, dst):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "link", no_links)


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

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "t.prmg"
        empty.write_bytes(b"")
        code = run(["reduce", "--input", str(empty), "--mode", "prumerge",
                    "--out", str(tmp_path / "r.prmr"), "--stats", str(tmp_path / "s.json")])
        assert code == 2
        assert "truncated header" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["t.prmg"]

    @pytest.mark.parametrize("extra", [[], ["--stats", "s.json"]], ids=["out", "out-stats"])
    def test_output_over_its_own_mapped_input(self, dump, tmp_path, extra):
        # --out naming --input itself is refused, but a hard link to the
        # input is another name for the mapped file; the output replaces
        # that name and leaves the mapped pages alone
        try:
            os.link(dump, tmp_path / "link.prmg")
        except OSError as exc:
            pytest.skip(f"no hard links here: {exc}")
        extra = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in extra]
        argv = ["reduce", "--input", str(dump), "--mode", "prumerge+"] + extra
        assert run(argv + ["--out", str(tmp_path / "fresh.prmr")]) == 0
        assert run(argv + ["--out", str(tmp_path / "link.prmg")]) == 0
        assert (tmp_path / "link.prmg").read_bytes() == (tmp_path / "fresh.prmr").read_bytes()
        assert run(["reduce", "--input", str(dump), "--mode", "prumerge+",
                    "--out", str(tmp_path / "again.prmr")]) == 0
        assert (tmp_path / "again.prmr").read_bytes() == (tmp_path / "fresh.prmr").read_bytes()

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

    @pytest.mark.parametrize("failing, kind", [
        pytest.param("--stats", "missing", id="--stats"),
        pytest.param("--mask", "missing", id="--mask"),
        pytest.param("--stats", "dir", id="--stats-dir"),
        pytest.param("--mask", "fifo", id="--mask-fifo", marks=needs_fifo),
        pytest.param("--out", "dir", id="--out-dir"),
        pytest.param("--out", "fifo", id="--out-fifo", marks=needs_fifo),
    ])
    def test_failed_output_leaves_no_partial_outputs(self, dump, tmp_path, failing, kind):
        out = tmp_path / "r.prmr"
        out.write_bytes(b"previous")
        paths = {"--out": out, "--stats": tmp_path / "s.json", "--mask": tmp_path / "m.txt"}
        if kind == "missing":
            paths[failing] = tmp_path / "missing" / "x"
        else:
            paths[failing] = make_obstacle(tmp_path / "obstacle", kind)
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(paths["--out"]), "--stats", str(paths["--stats"]),
                    "--mask", str(paths["--mask"])])
        assert code == 2
        assert out.read_bytes() == b"previous"
        left = ["r.prmr", "t.prmg"] if kind == "missing" else ["obstacle", "r.prmr", "t.prmg"]
        assert sorted(p.name for p in tmp_path.iterdir()) == left
        if kind != "missing":
            assert_obstacle_intact(paths[failing], kind)

    def reduce_failing_second_rename(self, dump, tmp_path, monkeypatch):
        """Run reduce with three outputs; the second staged rename fails."""
        replace = os.replace
        calls = []

        def failing_second(src, dst):
            if src.endswith(".tmp"):
                calls.append(dst)
                if len(calls) == 2:
                    raise PermissionError(13, "Permission denied")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_second)
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(tmp_path / "r.prmr"), "--stats", str(tmp_path / "s.json"),
                    "--mask", str(tmp_path / "m.txt")])
        assert code == 2
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir() if p.name != "r.prmr") == ["t.prmg"]

    def test_failed_rename_removes_staged_files(self, dump, tmp_path, monkeypatch):
        self.reduce_failing_second_rename(dump, tmp_path, monkeypatch)
        assert not (tmp_path / "r.prmr").exists()

    @pytest.mark.parametrize("links", [True, False], ids=["linked", "copied"])
    def test_failed_rename_restores_replaced_output(self, dump, tmp_path, monkeypatch, links):
        if not links:
            forbid_links(monkeypatch)
        (tmp_path / "r.prmr").write_bytes(b"previous")
        os.chmod(tmp_path / "r.prmr", 0o640)
        self.reduce_failing_second_rename(dump, tmp_path, monkeypatch)
        assert (tmp_path / "r.prmr").read_bytes() == b"previous"
        assert stat.S_IMODE(os.stat(tmp_path / "r.prmr").st_mode) == 0o640

    def test_cleanup_keeps_a_file_made_under_a_renamed_staging_name(
            self, dump, tmp_path, monkeypatch):
        replace = os.replace
        renamed = []

        def replace_then_fail(src, dst):
            if renamed:
                raise PermissionError(13, "Permission denied")
            replace(src, dst)
            renamed.append(src)
            with open(src, "wb") as fh:  # another writer takes the free name
                fh.write(b"theirs")

        monkeypatch.setattr(os, "replace", replace_then_fail)
        assert run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(tmp_path / "r.prmr"), "--stats", str(tmp_path / "s.json")]) == 2
        with open(renamed[0], "rb") as fh:
            assert fh.read() == b"theirs"

    def test_replaced_outputs_leave_no_backups(self, dump, tmp_path):
        argv = ["reduce", "--input", str(dump), "--mode", "prumerge",
                "--out", str(tmp_path / "r.prmr"), "--stats", str(tmp_path / "s.json")]
        (tmp_path / "r.prmr").write_bytes(b"previous")
        assert run(argv) == 0
        assert (tmp_path / "r.prmr").read_bytes() != b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.prmr", "s.json", "t.prmg"]

    def test_backups_only_where_a_restore_can_need_them(self, dump, tmp_path, monkeypatch):
        names = ["c.json", "m.txt", "r.prmr", "s.json"]
        for name in names:
            (tmp_path / name).write_bytes(b"previous")
        linked = []
        link = os.link

        def counting_link(src, dst):
            linked.append(os.path.basename(src))
            link(src, dst)

        monkeypatch.setattr(os, "link", counting_link)
        assert run(["cost", "--model", "7b", "--tokens-full", "616", "--tokens-reduced", "80",
                    "--report", str(tmp_path / "c.json")]) == 0
        assert linked == []
        assert run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(tmp_path / "r.prmr"), "--stats", str(tmp_path / "s.json"),
                    "--mask", str(tmp_path / "m.txt")]) == 0
        assert linked == ["r.prmr", "s.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names + ["t.prmg"]
        assert all((tmp_path / name).read_bytes() != b"previous" for name in names)

    @pytest.mark.parametrize("links", [True, False], ids=["linked", "copied"])
    def test_backup_name_taken_by_a_symlink_is_refused(self, dump, tmp_path, monkeypatch, links):
        if not links:
            forbid_links(monkeypatch)
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"victim")
        out = tmp_path / "r.prmr"
        out.write_bytes(b"previous")
        planted = tmp_path / f"r.prmr.{os.getpid()}-0.bak"
        planted.symlink_to(victim)
        code = run(["reduce", "--input", str(dump), "--mode", "prumerge",
                    "--out", str(out), "--stats", str(tmp_path / "s.json")])
        assert code == 2
        assert victim.read_bytes() == b"victim"
        assert out.read_bytes() == b"previous"
        assert planted.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [planted.name, "r.prmr", "t.prmg", "victim.txt"])


def test_staged_name_taken_by_a_symlink_is_refused(tmp_path):
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"victim")
    report = tmp_path / "c.json"
    planted = tmp_path / f"c.json.{os.getpid()}-0.tmp"
    planted.symlink_to(victim)
    assert run(["cost", "--model", "7b", "--tokens-full", "616", "--tokens-reduced", "80",
                "--report", str(report)]) == 2
    assert victim.read_bytes() == b"victim"
    assert not os.path.lexists(report)
    assert planted.is_symlink()



def test_error_names_the_file_that_stopped_the_write(tmp_path, capsys):
    planted = tmp_path / f"c.json.{os.getpid()}-0.tmp"
    planted.symlink_to(tmp_path / "victim.txt")
    assert run(["cost", "--model", "7b", "--tokens-full", "616", "--tokens-reduced", "80",
                "--report", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert f"'{planted}'" in err
    assert f"'{tmp_path / 'c.json'}'" not in err


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

    @pytest.mark.parametrize("flags, weight_bytes", [([], 1e6), (["--int4"], 0.5e6)],
                             ids=["own", "int4"])
    def test_profile_keeps_its_bytes_per_param(self, tmp_path, flags, weight_bytes):
        profile = tmp_path / "prof.json"
        profile.write_text(json.dumps({**_7B, "n_params": 1e6, "bytes_per_param": 1}))
        report = tmp_path / "c.json"
        assert run(["cost", "--model", str(profile), "--tokens-full", "616",
                    "--tokens-reduced", "80", "--report", str(report)] + flags) == 0
        assert json.loads(report.read_text())["full"]["weight_bytes"] == weight_bytes

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


@pytest.mark.parametrize("kind", ["dir", pytest.param("fifo", marks=needs_fifo), "symlink"])
@pytest.mark.parametrize("argv", [
    ["synth", "--grid", "4x4", "--d", "2", "--dk", "2", "--spikes", "1", "--seed", "0", "--out"],
    ["cost", "--model", "7b", "--tokens-full", "616", "--tokens-reduced", "80", "--report"],
], ids=["synth", "cost"])
def test_output_that_is_not_a_regular_file_is_data_error(tmp_path, capsys, argv, kind):
    target = make_obstacle(tmp_path / "out", kind)
    assert run(argv + [str(target)]) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert_obstacle_intact(target, kind)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_allocation_failure_is_data_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr("prumerge.tokendump.synth_generate", out_of_memory)
    out = tmp_path / "x.prmg"
    code = run(["synth", "--grid", "2x2", "--d", "1", "--dk", "1", "--spikes", "0",
                "--clusters", "4", "--seed", "0", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


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
    ["synth", "--grid", "4x4", "--d", "2", "--dk", "2", "--spikes", "1", "--gain", "nan"],
    ["synth", "--grid", "4x4", "--d", "2", "--dk", "2", "--spikes", "1", "--gain", "inf"],
    ["synth", "--grid", "4x4", "--d", "2", "--dk", "2", "--spikes", "1", "--gain", "1e39"],
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    target = ["--seed", "0", "--out", str(out)] if argv[0] == "synth" else ["--report", str(out)]
    assert run(argv + target) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class TestDefaultsAreTheLibrarys:
    """A flag left out takes the SynthSpec or PipelineConfig default."""

    def test_synth(self, tmp_path):
        out = tmp_path / "t.prmg"
        assert run(["synth", "--grid", "6x8", "--d", "4", "--dk", "3", "--spikes", "5",
                    "--seed", "11", "--out", str(out)]) == 0
        spec = SynthSpec(grid=(6, 8), d=4, d_k=3, n_spikes=5, seed=11)
        buf = io.BytesIO()
        write_token_dump(synth_generate(spec), buf)
        assert out.read_bytes() == buf.getvalue()

    @pytest.mark.parametrize("flags, config", [
        (["--mode", "prumerge"], PipelineConfig(mode="prumerge")),
        (["--mode", "prumerge+"], PipelineConfig(mode="prumerge_plus")),
        (["--mode", "sequential", "--budget", "40"],
         PipelineConfig(mode="sequential", budget=40)),
        (["--mode", "spatial", "--grid", "5x7"],
         PipelineConfig(mode="spatial", grid_rows=5, grid_cols=7)),
    ], ids=["prumerge", "prumerge+", "sequential", "spatial"])
    def test_reduce(self, dump, tmp_path, flags, config):
        out, stats = tmp_path / "r.prmr", tmp_path / "s.json"
        assert run(["reduce", "--input", str(dump), *flags, "--out", str(out),
                    "--stats", str(stats)]) == 0
        result = reduce_tokens(read_token_dump(dump), config)
        buf = io.BytesIO()
        write_reduced_dump(result.tokens, result.source_indices, result.n, buf)
        assert out.read_bytes() == buf.getvalue()
        assert json.loads(stats.read_text()) == result.stats()


@pytest.mark.parametrize("command, shown", [
    ("reduce", ["--k K", "--floor FLOOR", "--ratio RATIO"]),
    ("synth", ["--dk DK", "--heads HEADS", "--spikes SPIKES", "--gain GAIN",
               "--clusters CLUSTERS"]),
])
def test_help_names_each_value_after_its_flag(capsys, command, shown):
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in shown), out


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


def child_env():
    """The environment for a child interpreter that imports this prumerge."""
    src = str(Path(prumerge.__file__).parents[1])
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestEntryPoint:
    @pytest.mark.parametrize("args, code", [
        (["--help"], 0),
        (["reduce", "--bogus"], 1),
        (["reduce", "--input", "missing.prmg", "--mode", "prumerge", "--out", "r.prmr"], 2),
    ], ids=["help", "bad-flag", "missing-input"])
    def test_module_exits_with_the_documented_code(self, tmp_path, args, code):
        child = subprocess.run([sys.executable, "-m", "prumerge.cli"] + args, cwd=tmp_path,
                               capture_output=True, text=True, env=child_env(), timeout=120)
        assert child.returncode == code, child.stderr
        if code == 0:
            assert child.stdout.startswith("usage: prumerge")
        else:
            assert "error:" in child.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, code", [
        (["cost", "--model", "7b", "--tokens-full", "576", "--tokens-reduced", "32",
          "--report", "r.json"], 0),
        (["--help"], 0),
        (["cost", "--model", "7b"], 1),
    ], ids=["cost", "help", "usage-error"])
    def test_commands_without_arrays_leave_numpy_unimported(self, tmp_path, args, code):
        script = ("import sys\n"
                  "from prumerge.cli import cli_main\n"
                  "code = cli_main(sys.argv[1:])\n"
                  "print(code, 'numpy' in sys.modules, file=sys.stderr)\n")
        child = subprocess.run([sys.executable, "-c", script] + args, cwd=tmp_path,
                               capture_output=True, text=True, env=child_env(), timeout=120)
        assert child.stderr.splitlines()[-1] == f"{code} False", child.stderr

    def test_package_exports_follow_their_modules(self, monkeypatch):
        # a tracer rebinds names on their modules and puts them back, so
        # the package must return the module's current object, not a copy
        # of one it returned before
        assert prumerge.reduce_tokens is prumerge.pipeline.reduce_tokens
        monkeypatch.setattr(prumerge.pipeline, "reduce_tokens", run)
        assert prumerge.reduce_tokens is run
        monkeypatch.undo()
        assert prumerge.reduce_tokens is prumerge.pipeline.reduce_tokens
        assert "reduce_tokens" not in vars(prumerge)

    def test_console_script_names_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["prumerge"]
        assert target == "prumerge.cli:main"
        module, name = target.split(":")
        assert callable(getattr(importlib.import_module(module), name))
