"""Spans around calls into the package, recorded from outside it.

A :class:`Tracer` replaces a function at the module (or class) attribute
its caller looks up with a wrapper that records one span per call: name,
start, end, the enclosing span, and a few counts taken from the arguments
and the result.  Exceptions pass through unchanged (the solver relies on
``ExactNodeCollision`` to raise its quadrature order); the span keeps the
exception's class name.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import os
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("geometry", "kernel", "solver", "analytics", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "error")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.counts, self.error]

    @classmethod
    def from_list(cls, item):
        name, start, end, parent, counts, error = item
        span = cls(name, start, parent)
        span.end, span.counts, span.error = end, counts, error
        return span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, original, name, count):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                self.spans[index].error = type(exc).__name__
                raise
            self._close(index)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts = count(bound.arguments, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Trace calls that look up ``owner.attr``; undone by :meth:`restore`."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(raw.__func__, name, count))
        else:
            replacement = self._wrapper(raw, name, count)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# what is traced, and the counts each span keeps


def _rule_counts(args, _result):
    return {"i": args["i"], "nodes": args["rule"].order}


def _solve_counts(args, result):
    return {"generation": args["bands"].generation,
            "iterations": result.iterations_used}


def _log_terms(args, _result):
    return {"log_terms": args["sample_count"] * args["bands"].n_bands
            * args["rule"].order}


def _kernel_terms(args, _result):
    n_bands = args["bands"].n_bands
    points = getattr(args["x"], "size", 1)
    return {"terms": points * (3 * n_bands - 3)}


def _store_bytes(args, _result):
    cache, record = args["self"], args["record"]
    return {"bytes": os.path.getsize(cache.path(record["generation"]))}


def _load_hits(_args, result):
    return {"hits": int(result is not None)}


def _figure_bytes(args, result):
    return {"figure": args["which"], "bytes": os.path.getsize(Path(result))}


def install(tracer: Tracer, cli, solver, analytics) -> None:
    """Wrap every traced function at the attribute its caller looks up."""
    patches = [
        (cli, "generate_bands", "geometry.generate_bands", None),
        (solver, "gap_integral", "kernel.gap_integral", _rule_counts),
        (solver, "gap_jacobian_row", "kernel.gap_jacobian_row", _rule_counts),
        (cli, "gap_jacobian_row", "kernel.gap_jacobian_row", _rule_counts),
        (solver, "band_integral", "kernel.band_integral", _rule_counts),
        (analytics, "kernel_log_magnitude", "kernel.kernel_log_magnitude",
         _kernel_terms),
        (cli, "solve_generation", "solver.solve_generation", _solve_counts),
        (cli, "capacity_estimate", "analytics.capacity_estimate", None),
        (cli, "fit_exponential", "analytics.fit_exponential", None),
        (analytics, "fit_exponential", "analytics.fit_exponential", None),
        (analytics, "mean_potential_on_attractor_points",
         "analytics.mean_potential_on_attractor_points", _log_terms),
        (cli, "potential_at", "analytics.potential_at", None),
        (analytics, "potential_at", "analytics.potential_at", None),
        (cli, "integrated_measure_at", "analytics.integrated_measure_at", None),
        (cli.SolutionCache, "store", "cli.SolutionCache.store", _store_bytes),
        (cli.SolutionCache, "load", "cli.SolutionCache.load", _load_hits),
        (cli.RunConfig, "from_file", "cli.RunConfig.from_file", None),
        (cli, "write_figure", "cli.write_figure", _figure_bytes),
    ]
    for owner, attr, name, count in patches:
        tracer.patch(owner, attr, name, count)
