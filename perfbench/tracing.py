"""Spans around the public functions of each hyperstokes module.

The program is not changed: around each traced operation, :func:`instrument`
replaces module attributes (``hyperstokes.mobility.assemble``, the
``oseen_tensor`` that ``mobility`` imported, ...) with timing wrappers and
restores them afterwards.  Calls made by the benchmark and by the CLI code
go through those attributes, so both are covered.

A span records name, start, end, parent and operation id; spans stay in
memory until the run ends.  Counters (kernel pairs, node counts, heap peaks)
are computed on a paused clock, so the spans of the enclosing calls exclude
the tracer's own bookkeeping; the run reports the remaining cost as the
tracing overhead.  tracemalloc slows every allocation while it runs, so the
heap peak of ``assemble`` is taken only on the first call for each node
count.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self.heap_sizes: set[int] = set()  # node counts whose assemble heap was measured

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.now(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = self.now()
            self._stack.pop()

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def wrap(self, fn, name: str, count=None, heap=None):
        """``fn`` inside a span; ``count(args, result)`` adds counters to it and
        the call's tracemalloc peak is recorded when ``heap(args)`` is true."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                peak = heap is not None and heap(args)
                if peak:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if peak:
                        with self.paused():
                            rec.counts["heap_peak"] = tracemalloc.get_traced_memory()[1]
                            tracemalloc.stop()
            if count is not None:
                with self.paused():
                    rec.counts.update(count(args, result))
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------

    def calls(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def per_op(self, name: str, key: str | None = None) -> list[float]:
        """Per operation, the summed duration (or counter ``key``) of ``name`` spans."""
        totals: dict[int, float] = {}
        for s in self.calls(name):
            totals[s.op] = totals.get(s.op, 0.0) + (s.duration if key is None else s.counts[key])
        return list(totals.values())

    def median_per_op(self, name: str, key: str | None = None) -> float:
        """Median over the operations that call ``name``; 0 when none does."""
        values = self.per_op(name, key)
        return median(values) if values else 0.0

    def self_time_by_layer(self) -> dict[str, float]:
        """Total self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - c
        return out

    def children_time(self, index: int) -> float:
        return sum(s.duration for s in self.spans if s.parent == index)


def _oseen_counts(args, result):
    x, kern = args[0], args[1]
    s = np.linalg.norm(x, axis=-1) / kern.ell
    return {"pairs": s.size, "series": int(np.count_nonzero(s < kern.series_threshold))}


def _assemble_counts(args, km):
    size = 3 * args[0].n_nodes
    return {
        "matrix_bytes": 8 * size * size,
        "factor_flops": size**3 / 3,
        "condition": km.condition,
        "indefinite": 0 if km.positive_definite else 1,
    }


def _report_counts(args, report):
    return {} if report.invariant is None else {"invariant": int(report.invariant)}


def _bytes_out(args, text):
    return {"bytes": len(text.encode())}


@contextmanager
def instrument(tracer: Tracer):
    """Route the public calls of every hyperstokes layer through ``tracer``."""
    from hyperstokes import dynamics, freefall, geometry, mobility, symmetry

    wrap = tracer.wrap
    prop = geometry.DiscretizedBody.__dict__["diameter"]

    def first_of_size(args):
        new = args[0].n_nodes not in tracer.heap_sizes
        tracer.heap_sizes.add(args[0].n_nodes)
        return new

    patches = [
        (geometry, "discretize", wrap(geometry.discretize, "geometry.discretize",
                                      lambda a, d: {"n_nodes": d.n_nodes})),
        (geometry, "diameter", wrap(geometry.diameter, "geometry.diameter")),
        (geometry.DiscretizedBody, "diameter",
         property(wrap(prop.fget, "geometry.diameter"))),
        (mobility, "oseen_tensor", wrap(mobility.oseen_tensor, "kernel.oseen", _oseen_counts)),
        (mobility, "cho_factor", wrap(mobility.cho_factor, "mobility.cholesky")),
        (mobility, "assemble", wrap(mobility.assemble, "mobility.assemble",
                                    _assemble_counts, first_of_size)),
        (mobility, "resistance", wrap(mobility.resistance, "mobility.resistance")),
        (freefall, "steady_states", wrap(freefall.steady_states, "freefall.steady_states",
                                         lambda a, st: {"states": len(st), "consistent":
                                                        sum(s.consistent for s in st)})),
        (freefall, "build_F", wrap(freefall.build_F, "freefall.build_F")),
        (symmetry, "symmetry_report", wrap(symmetry.symmetry_report, "symmetry.report",
                                           _report_counts)),
        (dynamics, "find_fixed_points", wrap(dynamics.find_fixed_points,
                                             "dynamics.fixed_points",
                                             lambda a, r: {"found": len(r.points)})),
        (dynamics, "integrate_orientation", wrap(dynamics.integrate_orientation,
                                                 "dynamics.integrate",
                                                 lambda a, t: {"steps": len(t.t) - 1})),
    ]
    cli = sys.modules.get("hyperstokes.cli")
    if cli is not None:  # names the CLI module imported from other layers
        patches += [
            (cli, "load_body", wrap(cli.load_body, "serialize.load_body")),
            (cli, "json_text", wrap(cli.json_text, "serialize.json", _bytes_out)),
            (cli, "csv_text", wrap(cli.csv_text, "serialize.csv", _bytes_out)),
            (cli, "oseen_tensor", wrap(cli.oseen_tensor, "kernel.oseen", _oseen_counts)),
            (cli, "green_scalar", wrap(cli.green_scalar, "kernel.green")),
            (cli, "stokeslet_velocity", wrap(cli.stokeslet_velocity, "kernel.stokeslet")),
        ]
    saved = []
    try:
        for owner, attr, new in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
