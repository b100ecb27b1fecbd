"""Workload definitions: inputs, operations and their output checks.

Every operation is an ``Op``. It can run in this process (a library
call, or ``cli.cli_main`` for a CLI command) or in a fresh interpreter
(``argv``). Its ``check`` is the semantic output gate; after the first
pass, every later run of the op must reproduce the same output bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gate
import prumerge.cli as cli
import prumerge.pipeline as pipeline
import prumerge.tokendump as tokendump

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"

# CLIP ViT-L/14 penultimate layer: 16 heads of d_k = 64, width 1024
VIT_L = {"d": 1024, "d_k": 64, "n_heads": 16}
SMOKE_SHAPE = {"d": 32, "d_k": 8, "n_heads": 2}

# (file label, reduce flags, PipelineConfig fields) rotated over CLI images
CLI_MODES = (
    ("prumerge", ["--mode", "prumerge"], {"mode": "prumerge"}),
    ("prumerge-plus", ["--mode", "prumerge+"], {"mode": "prumerge_plus"}),
    ("sequential", ["--mode", "sequential", "--budget", "32"],
     {"mode": "sequential", "budget": 32}),
    ("spatial", ["--mode", "spatial", "--grid", "4x8"],
     {"mode": "spatial", "grid_rows": 4, "grid_cols": 8}),
)
SMOKE_CLI_MODES = (
    CLI_MODES[0], CLI_MODES[1],
    ("sequential", ["--mode", "sequential", "--budget", "4"],
     {"mode": "sequential", "budget": 4}),
    ("spatial", ["--mode", "spatial", "--grid", "2x2"],
     {"mode": "spatial", "grid_rows": 2, "grid_cols": 2}),
)


def subprocess_env() -> dict:
    """The current environment (which carries the BLAS thread pin) with
    the checkout's ``src`` as the only extra import path."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def digest(stdout: str, outputs) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in outputs:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class Op:
    """One operation of a workload and how to check what it produced."""

    image: str  # id recorded on trace spans
    kind: str  # reduce | synth | stats | cost
    images: int  # images this op completes, for images_per_s
    outputs: tuple[Path, ...]
    inprocess: Callable[[], str]  # returns what the op printed
    argv: list[str]  # the same op in a fresh interpreter
    check: Callable[[str], list[str]]  # semantic gate, run on the first pass
    work: dict | None = None  # shapes and counts of a reduction
    reference: str | None = field(default=None, repr=False)  # digest of the first pass

    def subprocess(self) -> str:
        proc = subprocess.run(self.argv, env=subprocess_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout


def _work(tokens, expected: gate.Expected) -> dict:
    return {"n": tokens.n, "m": len(expected.indices), "k": expected.k,
            "n_heads": tokens.n_heads, "d_k": tokens.d_k, "d": tokens.d,
            "floor_fallback": expected.method == "floor_fallback"}


# ---------------------------------------------------------------- library

def reduce_file(source, destination, config) -> str:
    """read_token_dump -> reduce_tokens -> write_reduced_dump. Names are
    looked up on the modules at call time so trace wrappers apply."""
    tokens = tokendump.read_token_dump(source)
    result = pipeline.reduce_tokens(tokens, config)
    tokendump.write_reduced_dump(result.tokens, result.source_indices, result.n, destination)
    return ""


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    grid: tuple[int, int]
    smoke_grid: tuple[int, int]
    selection: dict  # PipelineConfig fields; k stays "auto"
    spikes: tuple[int, ...]
    clusters: tuple[int, ...]

    def specs(self, seed: int, smoke: bool) -> list[tokendump.SynthSpec]:
        grid = self.smoke_grid if smoke else self.grid
        shape = SMOKE_SHAPE if smoke else VIT_L
        scale = grid[0] * grid[1] / (self.grid[0] * self.grid[1])
        return [
            tokendump.SynthSpec(grid=grid, n_spikes=round(s * scale), cluster_count=c,
                                seed=seed * 1000 + i, **shape)
            for i, (s, c) in enumerate(zip(self.spikes, self.clusters))
        ]

    def ops(self, workdir: Path, seed: int, smoke: bool) -> list[Op]:
        config = pipeline.PipelineConfig(**self.selection)
        ops = []
        for i, spec in enumerate(self.specs(seed, smoke)):
            tokens = tokendump.synth_generate(spec)
            src, dst = workdir / f"img{i}.prmg", workdir / f"img{i}.prmr"
            tokendump.write_token_dump(tokens, src)
            expected = gate.expected_reduction(tokens, self.selection)
            probe_spec = {"src": str(ROOT / "src"), "input": str(src),
                          "output": str(dst), "config": self.selection}
            ops.append(Op(
                image=f"img{i}", kind="reduce", images=1, outputs=(dst,),
                inprocess=lambda s=src, d=dst: reduce_file(s, d, config),
                argv=[sys.executable, str(PROBE), json.dumps(probe_spec)],
                check=lambda _out, d=dst, e=expected, n=tokens.n:
                    gate.check_reduced(d.read_bytes(), e, n),
                work=_work(tokens, expected),
            ))
        return ops


LIBRARY_WORKLOADS = {
    w.name: w
    for w in (
        # spike counts give m = 1 (floor fallback or one stray outlier)
        # up to 64, mean 32, so k = ceil(576 / m) runs from 9 to 576
        LibraryWorkload("vitl576", (24, 24), (12, 12), {"mode": "prumerge"},
                        spikes=(0, 16, 24, 32, 40, 48, 64), clusters=(2, 3, 4, 5, 6, 7, 8)),
        # five 24x24 tiles stacked: the base image plus a 2x2 AnyRes split
        LibraryWorkload("anyres2880", (120, 24), (30, 6), {"mode": "prumerge_plus"},
                        spikes=(32, 32, 32, 32, 32), clusters=(2, 3, 4, 5, 6)),
    )
}


# -------------------------------------------------------------------- CLI

def _inprocess_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_op(image, kind, images, argv, outputs, check, work=None) -> Op:
    return Op(image=image, kind=kind, images=images, outputs=tuple(outputs),
              inprocess=lambda: _inprocess_cli(argv),
              argv=[sys.executable, "-m", "prumerge.cli", *argv],
              check=check, work=work)


def _check_synth(path: Path, expected_bytes: bytes) -> list[str]:
    return [] if path.read_bytes() == expected_bytes else [f"{path.name} differs from synth_generate"]


def _check_reduce(prmr, stats, mask, expected, tokens) -> list[str]:
    return (gate.check_reduced(prmr.read_bytes(), expected, tokens.n)
            + gate.check_stats(json.loads(stats.read_text()), expected, tokens.n)
            + gate.check_mask(mask.read_text(), expected, tokens.grid))


def _check_corpus_stats(stdout: str, ms: list[int]) -> list[str]:
    record = json.loads(stdout)
    if record["images"] != len(ms) or abs(record["m_mean"] - sum(ms) / len(ms)) > 1e-12:
        return [f"stats {record} do not match m={ms}"]
    return []


def _check_cost(path: Path, n_full: int, n_reduced: int) -> list[str]:
    report = json.loads(path.read_text())
    got = (report["full"]["n_tokens"], report["reduced"]["n_tokens"],
           report["savings"]["token_ratio"])
    want = (n_full, n_reduced, n_reduced / n_full)
    return [] if got == want else [f"cost report {got} != {want}"]


def cli_ops(specs, workdir: Path, modes=CLI_MODES) -> list[Op]:
    """Each image gets ``synth`` then ``reduce --stats --mask`` with the
    mode rotating over ``modes``; then one ``stats`` call over the
    prumerge stats files and one ``cost`` call at their mean m."""
    ops = []
    prumerge_ms = []
    for i, spec in enumerate(specs):
        label, flags, selection = modes[i % len(modes)]
        tokens = tokendump.synth_generate(spec)
        dump_bytes = io.BytesIO()
        tokendump.write_token_dump(tokens, dump_bytes)
        expected = gate.expected_reduction(tokens, selection)
        if label == "prumerge":
            prumerge_ms.append(len(expected.indices))
        h, w = spec.grid
        dump = workdir / f"img{i}.prmg"
        prmr, mask = workdir / f"img{i}.prmr", workdir / f"img{i}.mask.txt"
        stats = workdir / f"img{i}.{label}.stats.json"
        ops.append(_cli_op(
            f"img{i}", "synth", 0,
            ["synth", "--grid", f"{h}x{w}", "--d", str(spec.d), "--dk", str(spec.d_k),
             "--heads", str(spec.n_heads), "--spikes", str(spec.n_spikes),
             "--gain", repr(spec.spike_gain), "--clusters", str(spec.cluster_count),
             "--seed", str(spec.seed), "--out", str(dump)],
            [dump], lambda _out, p=dump, b=dump_bytes.getvalue(): _check_synth(p, b)))
        ops.append(_cli_op(
            f"img{i}", "reduce", 1,
            ["reduce", "--input", str(dump), *flags, "--out", str(prmr),
             "--stats", str(stats), "--mask", str(mask)],
            [prmr, stats, mask],
            lambda _out, a=(prmr, stats, mask, expected, tokens): _check_reduce(*a),
            work=_work(tokens, expected)))
    n_full = specs[0].grid[0] * specs[0].grid[1]
    n_reduced = round(sum(prumerge_ms) / len(prumerge_ms))
    report = workdir / "cost.json"
    ops.append(_cli_op(
        "corpus", "stats", 0,
        ["stats", "--inputs", str(workdir / "*.prumerge.stats.json")], [],
        lambda out: _check_corpus_stats(out, prumerge_ms)))
    ops.append(_cli_op(
        "corpus", "cost", 0,
        ["cost", "--model", "7b", "--hw", "v100", "--tokens-full", str(n_full),
         "--tokens-reduced", str(n_reduced), "--report", str(report)],
        [report], lambda _out: _check_cost(report, n_full, n_reduced)))
    return ops


def corpus_specs(seed: int, smoke: bool):
    specs = tokendump.demo_corpus_specs(seed=seed * 1000)
    return specs[:4] if smoke else specs


def workload_ops(name: str, workdir: Path, seed: int, smoke: bool) -> list[Op]:
    if name == "cli-corpus":
        return cli_ops(corpus_specs(seed, smoke), workdir,
                       SMOKE_CLI_MODES if smoke else CLI_MODES)
    return LIBRARY_WORKLOADS[name].ops(workdir, seed, smoke)


def cli_probe_ops(name: str, workdir: Path, seed: int, smoke: bool) -> list[Op]:
    """For a library workload, the CLI corpus sequence on its first four
    images at the workload's own shape, so that the traced run exercises
    every module (CLI, masks, cost model) on every workload."""
    specs = LIBRARY_WORKLOADS[name].specs(seed, smoke)[: len(CLI_MODES)]
    return cli_ops(specs, workdir, SMOKE_CLI_MODES if smoke else CLI_MODES)


WORKLOADS = ("vitl576", "anyres2880", "cli-corpus")
