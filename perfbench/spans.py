"""Span tracing of the prumerge modules from outside the package.

``Tracer.install`` rebinds every public function of every prumerge module
to a timing wrapper. The rebinding is done wherever the function object
is bound, so by-name imports such as ``prumerge.merging.key_similarity``
or ``prumerge.cli.reduce_tokens`` are covered as well as the defining
module. ``uninstall`` puts the original objects back. Spans stay in
memory as ``[name, start, end, parent, image]`` lists; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

MODULES = ("core", "selection", "merging", "pipeline", "tokendump", "costmodel", "cli")

NAME, START, END, PARENT, IMAGE = range(5)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            yield attr, value


class Tracer:
    """Collects one span per call of a wrapped prumerge function."""

    def __init__(self):
        self.spans: list[list] = []
        self.image = None  # id of the operation in progress, set by the harness
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.image])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][START] = start
                spans[index][END] = end

        return wrapper

    def install(self):
        package = importlib.import_module("prumerge")
        modules = [importlib.import_module(f"prumerge.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the time of the spans
    it calls in other modules. Calls within its own module count as its
    own time, so the self time of ``pipeline.reduce_tokens`` holds its
    dispatch, the config checks and ``_finish``, not just the dispatch."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    selfs = [0.0] * len(spans)
    # a child is always appended after its parent, so walk backwards
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        own = span[END] - span[START]
        for c in children[i]:
            child = spans[c]
            if _module(child[NAME]) == _module(span[NAME]):
                own -= (child[END] - child[START]) - selfs[c]
            else:
                own -= child[END] - child[START]
        selfs[i] = own
    return selfs


class SpanTable:
    """Per-function view of a span list: call durations and self times."""

    def __init__(self, spans):
        selfs = layer_self_times(spans)
        self.durations: dict[str, list[float]] = {}
        self.selfs: dict[str, list[float]] = {}
        for span, own in zip(spans, selfs):
            self.durations.setdefault(span[NAME], []).append(span[END] - span[START])
            self.selfs.setdefault(span[NAME], []).append(own)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return 1e3 * statistics.median(values) if values else 0.0

    def median_self_ms(self, name: str) -> float:
        values = self.selfs.get(name)
        return 1e3 * statistics.median(values) if values else 0.0
