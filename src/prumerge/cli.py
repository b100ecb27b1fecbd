"""Command-line entry points: reduce, synth, cost, stats.

Exit codes: 0 success, 1 usage error, 2 data error. All outputs are
deterministic for identical arguments and input files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
from .fileio import TokenDumpError, write_outputs

# pipeline and tokendump import numpy, so only the commands that use
# them import them: cost, --help and usage errors start without numpy

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


def _auto_or(number):
    """An argparse type: the word ``auto`` or a value of type number."""
    def parse(text: str):
        return "auto" if text == "auto" else number(text)
    parse.__name__ = number.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prumerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # reduce and synth flags are named after the PipelineConfig and
    # SynthSpec fields they fill; a flag left out is absent from the
    # parsed arguments, so the field's own default applies
    p = sub.add_parser("reduce", help="reduce a token dump",
                       argument_default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_reduce)
    p.add_argument("--input", required=True)
    p.add_argument(
        "--mode", required=True,
        choices=["prumerge", "prumerge+", "sequential", "spatial"],
    )
    p.add_argument("--k", type=_auto_or(int))
    p.add_argument("--floor", type=int)
    p.add_argument("--ratio", dest="supplement_ratio", metavar="RATIO", type=_auto_or(float))
    p.add_argument("--budget", type=int)
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="RxC sampling grid for spatial mode")
    p.add_argument("--raw-weights", dest="normalize_weights", action="store_false")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None, help="write per-image stats JSON here")
    p.add_argument("--mask", default=None, help="write a selection mask (PGM for a .pgm suffix in any case, else text)")

    p = sub.add_parser("synth", help="generate a synthetic token dump",
                       argument_default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_synth)
    p.add_argument("--grid", type=_parse_grid, required=True, help="HxW token grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dk", dest="d_k", metavar="DK", type=int, required=True)
    p.add_argument("--heads", dest="n_heads", metavar="HEADS", type=int)
    p.add_argument("--spikes", dest="n_spikes", metavar="SPIKES", type=int, required=True)
    p.add_argument("--gain", dest="spike_gain", metavar="GAIN", type=float)
    p.add_argument("--clusters", dest="cluster_count", metavar="CLUSTERS", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cost", help="prefill cost comparison")
    p.set_defaults(handler=_cmd_cost)
    p.add_argument("--model", required=True,
                   help=f"{', '.join(_MODEL_PRESETS)}, or a profile JSON path")
    p.add_argument("--hw", default="v100",
                   help=f"{', '.join(_HW_PRESETS)}, or a profile JSON path")
    p.add_argument("--tokens-full", type=int, required=True)
    p.add_argument("--tokens-reduced", type=int, required=True)
    p.add_argument("--int4", action="store_true")
    p.add_argument("--report", required=True)

    p = sub.add_parser("stats", help="corpus summary over stats JSON files")
    p.set_defaults(handler=_cmd_stats)
    p.add_argument("--inputs", required=True, help="glob of per-image stats JSON files")
    return parser


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _dump_bytes(write, *args) -> bytes:
    buf = io.BytesIO()
    write(*args, buf)
    return buf.getvalue()


def _from_flags(cls, args, **values):
    """cls built from values and the parsed flags named after its
    fields; a field that neither names keeps its default."""
    given = vars(args) | values
    with _flag_values():
        return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})


def _distinct_files(named_paths) -> None:
    """A usage error if two (flag, path) pairs with a path name one file."""
    named = {}
    for flag, path in named_paths:
        first = named.setdefault(os.path.realpath(path), flag) if path else flag
        if first != flag:
            raise _UsageError(f"{first} and {flag} name the same file")


def _cmd_reduce(args) -> int:
    from .pipeline import PipelineConfig, reduce_tokens
    from .tokendump import read_token_dump, render_mask, write_reduced_dump

    mode = "prumerge_plus" if args.mode == "prumerge+" else args.mode
    config = _from_flags(PipelineConfig, args, mode=mode,
                         **dict(zip(("grid_rows", "grid_cols"), args.grid or ())))
    _distinct_files((f, getattr(args, f[2:])) for f in ("--input", "--out", "--stats", "--mask"))
    tokens = read_token_dump(args.input)
    result = reduce_tokens(tokens, config)
    outputs = [(args.out, _dump_bytes(write_reduced_dump, result.tokens,
                                      result.source_indices, result.n))]
    if args.stats:
        outputs.append((args.stats, _json_bytes(result.stats())))
    if args.mask:
        fmt = "pgm" if args.mask.lower().endswith(".pgm") else "text"
        rendering = render_mask(result.selection, tokens.grid, fmt)
        outputs.append((args.mask, rendering if fmt == "pgm" else (rendering + "\n").encode()))
    write_outputs(outputs)
    return 0


def _cmd_synth(args) -> int:
    from .tokendump import SynthSpec, synth_generate, write_token_dump

    tokens = synth_generate(_from_flags(SynthSpec, args))
    write_token_dump(tokens, args.out)
    return 0


def _cmd_cost(args) -> int:
    model_file = args.model.lower() not in _MODEL_PRESETS
    hw_file = args.hw.lower() not in _HW_PRESETS
    _distinct_files([("--model", model_file and args.model), ("--hw", hw_file and args.hw),
                     ("--report", args.report)])
    # a profile keeps its own bytes_per_param unless --int4 overrides it
    int4 = {"bytes_per_param": 0.5} if args.int4 else {}
    model = (load_model_profile if model_file else model_preset)(args.model, **int4)
    hw = (load_hardware_profile if hw_file else hardware_preset)(args.hw)
    with _flag_values():
        full, reduced, savings = cost_comparison(
            model, hw, args.tokens_full, args.tokens_reduced
        )
    report = {"model": model.name, "hardware": hw.name,
              "full": full.to_dict(), "reduced": reduced.to_dict(), "savings": savings}
    write_outputs([(args.report, _json_bytes(report))])
    return 0


def _cmd_stats(args) -> int:
    from .pipeline import corpus_stats

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


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.handler(args)
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
