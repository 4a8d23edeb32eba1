"""Spans and counters for the traced benchmark run, kept in memory.

Spans are recorded only from the benchmark's own files, around calls into
the library's public functions: one span per call, with name, start, end,
parent and op id.  Calls below a span that number in the millions (cost
evaluations, inverses, path costs) are not spans: the counting subclasses
built by :func:`counting_kit` add their count and time to the innermost open
span instead.  A span's self time is its duration minus its child spans and
those leaf calls.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import wardrop

FAMILIES = (
    "Affine",
    "Constant",
    "Monomial",
    "Polynomial",
    "SaturatingLinear",
    "StepGeometric",
    "PwlSquare",
    "ExpOverX",
    "StepExp",
    "Shifted",
)

GINV = "costs.generalized_inverse"
MARGINAL_GINV = "costs.marginal_generalized_inverse"
EVAL_LOG = "costs.eval_log"
PATH_COST = "network.path_cost"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "children_ns", "leaves", "evals")

    def __init__(self, name: str, op: str, parent: int | None, start: int, evals: int):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = start
        self.children_ns = 0
        self.leaves: dict[str, list[int]] = {}  # leaf name -> [calls, ns]
        self.evals = evals  # eval counter at open; the count inside once closed

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.children_ns - sum(ns for _, ns in self.leaves.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.evals = 0  # cost ``eval`` calls so far
        self._open: list[int] = []
        self._in_leaf = False
        self.loose = Span("", "", None, 0, 0)  # leaf calls made outside any span

    def span(self, name: str, op: str, fn, *args):
        """Call ``fn(*args)`` inside a span; exceptions propagate unchanged."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(name, op, parent, time.perf_counter_ns(), self.evals)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter_ns()
            span.evals = self.evals - span.evals
            self._open.pop()
            if parent is not None:
                self.spans[parent].children_ns += span.duration_ns

    def leaf(self, name: str, fn, *args):
        """Count and time a leaf call; a leaf inside a leaf is only called."""
        if self._in_leaf:
            return fn(*args)
        self._in_leaf = True
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            self._in_leaf = False
            owner = self.spans[self._open[-1]] if self._open else self.loose
            acc = owner.leaves.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += elapsed

    def write(self, path) -> None:
        """One JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "op": s.op, "parent": s.parent,
                    "start_ns": s.start, "end_ns": s.end, "self_ns": s.self_ns,
                    "evals": s.evals, "leaves": s.leaves,
                }) + "\n")


class _CountingLevel:
    """Marginal level function whose inverse is timed and evals counted."""

    __slots__ = ("_level", "_tracer")

    def __init__(self, level, tracer: Tracer):
        self._level, self._tracer = level, tracer

    def eval(self, x):
        self._tracer.evals += 1
        return self._level.eval(x)

    def generalized_inverse(self, level):
        return self._tracer.leaf(MARGINAL_GINV, self._level.generalized_inverse, level)

    def __getattr__(self, name):
        return getattr(self._level, name)


def _counting_family(base, tracer: Tracer):
    """Subclass of a public cost family that reports to ``tracer``."""
    base_eval = base.eval
    base_ginv = base.generalized_inverse
    base_marginal = base.marginal_function
    base_eval_log = base.eval_log
    base_eval_right_log = base.eval_right_log

    def eval(self, x):
        tracer.evals += 1
        return base_eval(self, x)

    def generalized_inverse(self, level):
        return tracer.leaf(GINV, base_ginv, self, level)

    def marginal_function(self):
        return _CountingLevel(base_marginal(self), tracer)

    def eval_log(self, x):
        return tracer.leaf(EVAL_LOG, base_eval_log, self, x)

    def eval_right_log(self, x):
        return tracer.leaf(EVAL_LOG, base_eval_right_log, self, x)

    return type(base.__name__, (base,), {
        "eval": eval,
        "generalized_inverse": generalized_inverse,
        "marginal_function": marginal_function,
        "eval_log": eval_log,
        "eval_right_log": eval_right_log,
    })


def counting_kit(tracer: Tracer) -> SimpleNamespace:
    """Counting subclasses of the cost families and of ``Network``."""
    base_path_cost = wardrop.Network.path_cost

    def path_cost(self, path_index, edge_flow):
        return tracer.leaf(PATH_COST, base_path_cost, self, path_index, edge_flow)

    kit = {name: _counting_family(getattr(wardrop, name), tracer) for name in FAMILIES}
    kit["Network"] = type("Network", (wardrop.Network,), {"path_cost": path_cost})
    return SimpleNamespace(**kit)
