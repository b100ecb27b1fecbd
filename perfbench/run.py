"""prumerge benchmark: reduction latency and throughput at ViT-L and
AnyRes shapes, plus a CLI corpus, with per-module traced timings.

    python3 perfbench/run.py --workload vitl576 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --smoke                 # tiny shapes, checks itself

Workloads (see BENCHMARK.json and perfbench/README.md for why each):
``vitl576``, ``anyres2880`` (library calls) and ``cli-corpus`` (one
``python -m prumerge.cli`` process per command). Calls are closed-loop
with one caller. Inputs are generated from ``--seed`` before timing.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (every public prumerge function
wrapped, see spans.py) and prints the per-layer metrics, the tracing
overhead and the computed work counts. Every output is checked (see
gate.py); a failed check counts in ``failed_fraction`` and makes the
exit code 1. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS to one thread before numpy loads; child processes inherit it.
# One thread keeps pass-to-pass spread low on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def _require_program():
    missing = [p for p in ("src/prumerge/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: benchmark needs the prumerge checkout; missing {missing}",
              file=sys.stderr)
        raise SystemExit(2)


_require_program()
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
    }


# ------------------------------------------------------------ measurement

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, op, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.image} {op.kind}: {problem}")


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds, successful ops only
    by_kind: dict = field(default_factory=dict)
    images: int = 0
    busy: float = 0.0  # seconds spent inside ops, failed ones included
    cycles: int = 0

    @property
    def images_per_s(self) -> float:
        return self.images / self.busy


def inprocess(op):
    return op.inprocess()


def in_subprocess(op):
    return op.subprocess()


def gate_pass(ops, runner, tally: Tally, corrupt_first=False):
    """Run each op once, untimed, check it semantically and keep the
    digest of its outputs for the byte-repeat checks of later passes.
    ``corrupt_first`` damages the first output after its digest is taken
    and before its check, which must then count it as failed."""
    for i, op in enumerate(ops):
        tally.attempted += 1
        try:
            stdout = runner(op)
        except Exception as exc:  # a failing op is counted, not fatal
            tally.fail(op, repr(exc))
            continue
        op.reference = workloads.digest(stdout, op.outputs)
        if corrupt_first and i == 0:
            path = op.outputs[0]
            path.write_bytes(gate.corrupt(path.read_bytes()))
        problems = op.check(stdout)
        if problems:
            tally.fail(op, "; ".join(problems))


def repeat(op, runner, tally: Tally):
    """Run one op; return its wall time, or None when it failed."""
    tally.attempted += 1
    start = perf_counter()
    try:
        stdout = runner(op)
    except Exception as exc:
        tally.fail(op, repr(exc))
        return None
    elapsed = perf_counter() - start
    if workloads.digest(stdout, op.outputs) != op.reference:
        tally.fail(op, "output bytes differ from the first pass")
        return None
    return elapsed


def run_cycle(ops, runner, tally: Tally, loop: Loop, tracer=None):
    for op in ops:
        if tracer is not None:
            tracer.image = op.image
        t0 = perf_counter()
        elapsed = repeat(op, runner, tally)
        loop.busy += perf_counter() - t0 if elapsed is None else elapsed
        if elapsed is not None:
            loop.latencies.append(elapsed)
            loop.by_kind.setdefault(op.kind, []).append(elapsed)
            loop.images += op.images
    loop.cycles += 1


def timed_cycles(seconds, tally: Tally, *phases) -> list:
    """Closed loop: one whole cycle of each ``(ops, runner, tracer)`` phase
    in turn until ``seconds`` pass (at least one round). Alternating the
    phases makes slow drift in machine speed fall on each of them alike."""
    loops = [Loop() for _ in phases]
    start = perf_counter()
    while loops[0].cycles == 0 or perf_counter() - start < seconds:
        for (ops, runner, tracer), loop in zip(phases, loops):
            with tracer if tracer is not None else contextlib.nullcontext():
                run_cycle(ops, runner, tally, loop, tracer)
    return loops


def fresh_process_times(op, repeats, tally: Tally) -> list:
    return [t for t in (repeat(op, in_subprocess, tally) for _ in range(repeats))
            if t is not None]


def startup_times(repeats) -> list:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import prumerge.cli"],
                       env=workloads.subprocess_env(), cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - start)
    return times


def peak_alloc_bytes(ops, tally: Tally) -> int:
    """Largest tracemalloc peak of one in-process op over the pool, untimed."""
    peak = 0
    for op in ops:
        tally.attempted += 1
        tracemalloc.start()
        try:
            stdout = op.inprocess()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        except Exception as exc:
            tally.fail(op, repr(exc))
            continue
        finally:
            tracemalloc.stop()
        if workloads.digest(stdout, op.outputs) != op.reference:
            tally.fail(op, "output bytes differ from the first pass")
    return peak


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it; with too few samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# --------------------------------------------------------------- workloads

@dataclass
class Result:
    workload: str
    metrics: dict  # name -> (value, unit)
    tally: Tally
    details: dict


def run_workload(name, seed, seconds, trace, smoke=False, corrupt=False) -> Result:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=base))
    try:
        tally = Tally()
        ops = workloads.workload_ops(name, workdir, seed, smoke)
        runner = in_subprocess if name == "cli-corpus" else inprocess
        gate_pass(ops, runner, tally, corrupt_first=corrupt)
        try:
            if trace:
                metrics, details = traced(name, ops, workdir, seed, seconds, smoke, tally)
            else:
                metrics, details = untraced(ops, runner, seconds, tally)
        except (statistics.StatisticsError, ZeroDivisionError, KeyError) as exc:
            # some metric had no successful sample; its failures are tallied
            tally.failed = max(tally.failed, 1)
            tally.problems.append(f"no metrics: {exc!r}")
            metrics, details = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    return Result(name, metrics, tally, details)


def untraced(ops, runner, seconds, tally):
    setup = fresh_process_times(ops[0], SETUP_REPEATS, tally)
    if runner is not inprocess:
        timed_cycles(0, tally, (ops, inprocess, None))  # lazy imports of in-process calls
    peak = peak_alloc_bytes(ops, tally)
    (loop,) = timed_cycles(seconds, tally, (ops, runner, None))
    value, pct, beyond = tail(loop.latencies)
    metrics = {
        "images_per_s": (loop.images_per_s, "1/s"),
        "latency_ms.p50": (1e3 * statistics.median(loop.latencies), "ms"),
        "latency_ms.tail": (1e3 * value, "ms"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    details = {
        "latency_ms.tail": {"percentile": pct, "samples": len(loop.latencies),
                            "beyond": beyond},
        "setup_s.samples": setup,
        "ops_per_cycle": len(ops),
        "cycles": loop.cycles,
    }
    return metrics, details


def traced(name, ops, workdir, seed, seconds, smoke, tally):
    """Alternating untraced and traced in-process cycles of the ops, and
    the CLI commands by subprocess and in-process, untraced and traced:
    for cli-corpus these are the ops themselves, for a library workload
    the corpus sequence at its shape (workloads.cli_probe_ops)."""
    is_cli = name == "cli-corpus"
    tracer = spans.Tracer()
    if is_cli:
        cli_tracer = tracer
        plain, traced_loop, cli_sub = timed_cycles(
            seconds, tally, (ops, inprocess, None), (ops, inprocess, tracer),
            (ops, in_subprocess, None))
        cli_plain = plain
    else:
        plain, traced_loop = timed_cycles(
            seconds, tally, (ops, inprocess, None), (ops, inprocess, tracer))
        cli_dir = workdir / "cli"
        cli_dir.mkdir()
        cli_ops = workloads.cli_probe_ops(name, cli_dir, seed, smoke)
        gate_pass(cli_ops, inprocess, tally)
        cli_tracer = spans.Tracer()
        cli_sub, cli_plain, _ = timed_cycles(
            0, tally, (cli_ops, in_subprocess, None), (cli_ops, inprocess, None),
            (cli_ops, inprocess, cli_tracer))
    startup = startup_times(STARTUP_REPEATS)

    loop_table = spans.SpanTable(tracer.spans)
    cli_table = loop_table if is_cli else spans.SpanTable(cli_tracer.spans)

    def table(fn):
        # a function the workload's loop never calls is timed in the CLI commands
        return loop_table if loop_table.calls(fn) else cli_table

    def ms(fn):
        return (table(fn).median_ms(fn), "ms")

    def per_reduce(fn):
        t = table(fn)
        return (t.calls(fn) / t.calls("pipeline.reduce_tokens"), "count")

    work = [op.work for op in ops if op.work]

    def mean(key, unit="count"):
        return (statistics.fmean(key(w) for w in work), unit)

    def self_ms(fn):
        return (table(fn).median_self_ms(fn), "ms")

    def wall_ms(kind):
        return (1e3 * statistics.median(cli_sub.by_kind[kind]), "ms")

    sub_cycle = cli_sub.busy / cli_sub.cycles
    inproc_cycle = cli_plain.busy / cli_plain.cycles
    metrics = {
        "core.key_similarity.ms": ms("core.key_similarity"),
        "core.key_similarity.flops": mean(lambda w: 2 * w["n"] ** 2 * w["n_heads"] * w["d_k"], "flop"),
        "core.key_similarity.bytes": mean(lambda w: 8 * w["n"] ** 2, "B"),
        "core.class_attention.ms": ms("core.class_attention"),
        "core.class_attention.calls": per_reduce("core.class_attention"),
        "selection.select_outliers.ms": ms("selection.select_outliers"),
        "selection.uniform_spatial_supplement.ms": ms("selection.uniform_spatial_supplement"),
        "selection.m": mean(lambda w: w["m"]),
        "selection.floor_fallback.count": (sum(w["floor_fallback"] for w in work), "count"),
        "merging.token_supplement.self_ms": self_ms("merging.token_supplement"),
        "merging.knn_members.ms": ms("merging.knn_members"),
        "merging.knn_members.calls": per_reduce("merging.knn_members"),
        "merging.merge_cluster.ms": ms("merging.merge_cluster"),
        "merging.merge_cluster.calls": per_reduce("merging.merge_cluster"),
        "merging.k": mean(lambda w: w["k"]),
        "merging.sim_rows_used_fraction": mean(lambda w: w["m"] / w["n"], "fraction"),
        "pipeline.reduce_tokens.ms": ms("pipeline.reduce_tokens"),
        "pipeline.reduce_tokens.self_ms": self_ms("pipeline.reduce_tokens"),
        "tokendump.read_token_dump.ms": ms("tokendump.read_token_dump"),
        # .prmg: 32-byte header, q_cls and K (H * d_k * (1 + n)), Y (n * d)
        "tokendump.read_token_dump.bytes": mean(
            lambda w: 32 + 4 * w["n_heads"] * w["d_k"] * (1 + w["n"]) + 4 * w["n"] * w["d"], "B"),
        "tokendump.write_reduced_dump.ms": ms("tokendump.write_reduced_dump"),
        # .prmr: 20-byte header, m indices, m * d tokens
        "tokendump.write_reduced_dump.bytes": mean(lambda w: 20 + 4 * w["m"] * (1 + w["d"]), "B"),
        "tokendump.synth_generate.ms": ms("tokendump.synth_generate"),
        "tokendump.write_token_dump.ms": ms("tokendump.write_token_dump"),
        "tokendump.render_mask.ms": ms("tokendump.render_mask"),
        "costmodel.cost_comparison.ms": ms("costmodel.cost_comparison"),
        "cli.startup_ms": (1e3 * statistics.median(startup), "ms"),
        "cli.synth.wall_ms": wall_ms("synth"),
        "cli.reduce.wall_ms": wall_ms("reduce"),
        "cli.stats.wall_ms": wall_ms("stats"),
        "cli.cost.wall_ms": wall_ms("cost"),
        "cli.startup_fraction": (1 - inproc_cycle / sub_cycle, "fraction"),
        "trace.images_per_s.untraced": (plain.images_per_s, "1/s"),
        "trace.images_per_s.traced": (traced_loop.images_per_s, "1/s"),
        "trace.overhead_fraction":
            (1 - traced_loop.images_per_s / plain.images_per_s, "fraction"),
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    span_file = out / f"spans-{name}.json"  # one per workload, so disk use stays bounded
    with open(span_file, "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": environment(),
                   "fields": ["name", "start", "end", "parent", "image"],
                   "loop_spans": tracer.spans,
                   "cli_spans": None if is_cli else cli_tracer.spans}, fh)
    details = {
        "spans_file": str(span_file.relative_to(ROOT)),
        "span_count": len(tracer.spans) + (0 if is_cli else len(cli_tracer.spans)),
        "cli_cycle_s": {"subprocess": sub_cycle, "inprocess": inproc_cycle},
        "work_per_image": work,
    }
    return metrics, details


# ------------------------------------------------------------------ report

def print_result(result: Result, seed, seconds, trace):
    tally = result.tally
    print(f"# workload {result.workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"# env {json.dumps(environment())}")
    width = max((len(k) for k in result.metrics), default=16)
    for key, (value, unit) in result.metrics.items():
        print(f"{key:<{width}}  {value:14.6g} {unit}")
    fraction = tally.failed / tally.attempted
    print(f"{'failed_fraction':<{width}}  {fraction:14.6g} fraction "
          f"({tally.failed} of {tally.attempted})")
    if "latency_ms.tail" in result.details:
        t = result.details["latency_ms.tail"]
        print(f"# latency_ms.tail is p{t['percentile']:.1f}: "
              f"{t['beyond']} of {t['samples']} samples beyond it")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)


def summary(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record(results, seed, seconds, trace) -> dict:
    return {
        "env": environment(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {
            r.workload: {**summary(r.tally, r.metrics),
                         "failed_fraction": r.tally.failed / r.tally.attempted,
                         "details": r.details}
            for r in results
        },
    }


def smoke(seed) -> int:
    """Every workload at tiny shapes in both modes: no failures, printed
    metric names equal to BENCHMARK.json, and a corrupted output caught."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed, 0, trace, smoke=True)
            print_result(result, seed, 0, trace)
            if result.tally.failed:
                problems.append(f"{name} trace {trace}: {result.tally.failed} failed")
            if set(result.metrics) != expected[trace]:
                problems.append(f"{name} trace {trace}: metric names "
                                f"{sorted(set(result.metrics) ^ expected[trace])} differ")
    result = run_workload("vitl576", seed, 0, 0, smoke=True, corrupt=True)
    if result.tally.failed != 1:
        problems.append(f"one corrupted output gave {result.tally.failed} failures, not 1")
    for problem in problems:
        print(f"SMOKE FAILED {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result record to this JSON file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.smoke:
        return smoke(args.seed)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(result, args.seed, args.seconds, args.trace)
        results.append(result)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record(results, args.seed, args.seconds, args.trace), fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        tally, metrics = results[0].tally, results[0].metrics
    else:
        tally = Tally(sum(r.tally.attempted for r in results),
                      sum(r.tally.failed for r in results))
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics.items()}
    print(json.dumps(summary(tally, metrics)))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
