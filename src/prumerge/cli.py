"""Command-line entry points: reduce, synth, cost, stats.

Exit codes: 0 success, 1 usage error, 2 data error. All outputs are
deterministic for identical arguments and input files.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import sys

from .costmodel import (
    _HW_PRESETS,
    _MODEL_PRESETS,
    cost_comparison,
    hardware_preset,
    load_hardware_profile,
    load_model_profile,
    model_preset,
)
from .pipeline import PipelineConfig, corpus_stats, reduce_tokens
from .tokendump import (
    SynthSpec,
    TokenDumpError,
    read_token_dump,
    render_mask,
    synth_generate,
    write_outputs,
    write_reduced_dump,
    write_token_dump,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _UsageError(Exception):
    """Flags that parse but cannot be combined into a valid request."""


@contextlib.contextmanager
def _flag_values():
    """Report a ValueError raised while checking flag values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = (int(part) for part in text.lower().split("x"))
    except ValueError:
        a = b = 0
    if a < 1 or b < 1:
        raise argparse.ArgumentTypeError(f"must look like AxB with A, B >= 1, got {text!r}")
    return a, b


def _parse_k(text: str):
    return "auto" if text == "auto" else int(text)


def _parse_ratio(text: str):
    return "auto" if text == "auto" else float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prumerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a token dump")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--mode", required=True,
        choices=["prumerge", "prumerge+", "sequential", "spatial"],
    )
    p.add_argument("--k", type=_parse_k, default="auto")
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--ratio", type=_parse_ratio, default="auto")
    p.add_argument("--budget", type=int)
    p.add_argument("--grid", type=_parse_grid, help="RxC sampling grid for spatial mode")
    p.add_argument("--raw-weights", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="write per-image stats JSON here")
    p.add_argument("--mask", help="write a selection mask (.txt or .pgm)")

    p = sub.add_parser("synth", help="generate a synthetic token dump")
    p.add_argument("--grid", type=_parse_grid, required=True, help="HxW token grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--spikes", type=int, required=True)
    p.add_argument("--gain", type=float, default=6.0)
    p.add_argument("--clusters", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cost", help="prefill cost comparison")
    p.add_argument("--model", required=True,
                   help=f"{', '.join(_MODEL_PRESETS)}, or a profile JSON path")
    p.add_argument("--hw", default="v100",
                   help=f"{', '.join(_HW_PRESETS)}, or a profile JSON path")
    p.add_argument("--tokens-full", type=int, required=True)
    p.add_argument("--tokens-reduced", type=int, required=True)
    p.add_argument("--int4", action="store_true")
    p.add_argument("--report", required=True)

    p = sub.add_parser("stats", help="corpus summary over stats JSON files")
    p.add_argument("--inputs", required=True, help="glob of per-image stats JSON files")
    return parser


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _dump_bytes(write, *args) -> bytes:
    buf = io.BytesIO()
    write(*args, buf)
    return buf.getvalue()


def _cmd_reduce(args) -> int:
    rows, cols = args.grid or (None, None)
    with _flag_values():
        config = PipelineConfig(
            mode="prumerge_plus" if args.mode == "prumerge+" else args.mode,
            k=args.k,
            floor=args.floor,
            supplement_ratio=args.ratio,
            budget=args.budget,
            grid_rows=rows,
            grid_cols=cols,
            normalize_weights=not args.raw_weights,
        )
    named = {}
    for flag in ("--input", "--out", "--stats", "--mask"):
        path = getattr(args, flag[2:])
        if path:
            first = named.setdefault(os.path.realpath(path), flag)
            if first != flag:
                raise _UsageError(f"{first} and {flag} name the same file")
    tokens = read_token_dump(args.input)
    result = reduce_tokens(tokens, config)
    outputs = [(args.out, _dump_bytes(write_reduced_dump, result.tokens,
                                      result.source_indices, result.n))]
    if args.stats:
        outputs.append((args.stats, _json_bytes(result.stats())))
    if args.mask:
        fmt = "pgm" if args.mask.endswith(".pgm") else "text"
        rendering = render_mask(result.selection, tokens.grid, fmt)
        outputs.append((args.mask, rendering if fmt == "pgm" else (rendering + "\n").encode()))
    write_outputs(outputs)
    return 0


def _cmd_synth(args) -> int:
    with _flag_values():
        spec = SynthSpec(
            grid=args.grid,
            d=args.d,
            d_k=args.dk,
            n_heads=args.heads,
            n_spikes=args.spikes,
            spike_gain=args.gain,
            cluster_count=args.clusters,
            seed=args.seed,
        )
    write_outputs([(args.out, _dump_bytes(write_token_dump, synth_generate(spec)))])
    return 0


def _cmd_cost(args) -> int:
    # a profile keeps its own bytes_per_param unless --int4 overrides it
    int4 = {"bytes_per_param": 0.5} if args.int4 else {}
    if args.model.lower() in _MODEL_PRESETS:
        model = model_preset(args.model, **int4)
    else:
        model = load_model_profile(args.model, **int4)
    if args.hw.lower() in _HW_PRESETS:
        hw = hardware_preset(args.hw)
    else:
        hw = load_hardware_profile(args.hw)
    with _flag_values():
        full, reduced, savings = cost_comparison(
            model, hw, args.tokens_full, args.tokens_reduced
        )
    report = {"model": model.name, "hardware": hw.name,
              "full": full.to_dict(), "reduced": reduced.to_dict(), "savings": savings}
    write_outputs([(args.report, _json_bytes(report))])
    return 0


def _cmd_stats(args) -> int:
    paths = sorted(glob.glob(args.inputs))
    if not paths:
        raise TokenDumpError(f"no files match {args.inputs!r}")
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    json.dump(corpus_stats(records), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


_COMMANDS = {
    "reduce": _cmd_reduce,
    "synth": _cmd_synth,
    "cost": _cmd_cost,
    "stats": _cmd_stats,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
