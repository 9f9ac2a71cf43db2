"""Spans recorded from outside the program, and the per-layer metrics built on them.

While installed, a `Tracer` replaces the public entry points of the gma
modules (and `scipy.sparse.linalg.gmres`, which the solver looks up at call
time) with wrappers that record a span per call: name, start, end, parent
span and operation id.  Spans stay in memory until the run takes them at
the end of each traced operation.  Uninstalling restores every original attribute, so untraced operations run
the unmodified program.

A span's self time is its duration minus the time its direct children
cover; every `_s` metric below is a sum of self times, so the layers
partition the traced time instead of counting nested work twice.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter

# Counters that must repeat exactly between traced runs of the same inputs.
DETERMINISTIC_COUNTERS = (
    "solver.newton_steps",
    "solver.matvecs",
    "solver.gmres_calls",
    "solver.attempts_rejected",
    "solver.linesearch_trials",
    "toric.faces",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "solver.hessian_s": "s",
    "solver.hessian_calls": "count",
    "solver.eig_s": "s",
    "solver.eig_calls": "count",
    "solver.linesearch_trials": "count",
    "solver.newton_steps": "count",
    "solver.step_accept_ratio": "ratio",
    "solver.attempts": "count",
    "solver.attempts_rejected": "count",
    "solver.rejected.ConeBreachError": "count",
    "solver.rejected.MaxIterationsError": "count",
    "solver.rejected.LinearSolveStallError": "count",
    "solver.linearize_s": "s",
    "solver.linearize_calls": "count",
    "solver.gmres_s": "s",
    "solver.gmres_calls": "count",
    "solver.gmres_stalls": "count",
    "solver.matvec_s": "s",
    "solver.matvecs": "count",
    "solver.newton_self_s": "s",
    "kernel.s": "s",
    "kernel.calls": "count",
    "toric.check_s": "s",
    "toric.mixed_volume_s": "s",
    "toric.faces": "count",
    "psh.s": "s",
    "psh.calls": "count",
    "cli.self_s": "s",
    "schemas.validate_s": "s",
    "gridio.read_s": "s",
    "gridio.write_s": "s",
    "gridio.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.counter_mismatches": "count",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.attrs = None


def _file_bytes(span, args, kwargs, result):
    span.attrs = {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _gmres_info(span, args, kwargs, result):
    span.attrs = {"info": int(result[1])}


def _face_count(span, args, kwargs, result):
    span.attrs = {"faces": len(result.per_face)}


def _max_iter_of(newton_solve):
    signature = inspect.signature(newton_solve)

    def hook(span, args, kwargs):
        span.attrs = {"max_iter": signature.bind(*args, **kwargs).arguments.get(
            "max_iter", signature.parameters["max_iter"].default)}

    return hook


def _public_functions(module):
    return [name for name in module.__all__ if inspect.isfunction(getattr(module, name))]


class Tracer:
    """Records spans around the program's public entry points."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._targets = [
            (owner, attr, owner.__dict__[attr],
             self._wrap(name, owner.__dict__[attr], before, after))
            for owner, attr, name, before, after in self._entry_points()
        ]

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name):
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def take(self):
        """Hand over the recorded spans and start a fresh list.

        Whatever an interrupted operation left open is closed now.
        """
        now = time.perf_counter()
        for index in self._stack:
            self.spans[index].end = now
        self._stack.clear()
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- install / uninstall -----------------------------------------------

    @staticmethod
    def _entry_points():
        """(owner, attribute, span name, before hook, after hook) for every wrapped entry."""
        import scipy.sparse.linalg

        import gma.cli
        import gma.gridio
        import gma.kernel
        import gma.psh
        import gma.solver
        import gma.toric

        targets = [
            (gma.cli, "main", "cli.main", None, None),
            (gma.cli, "validate", "schemas.validate", None, None),
            (gma.gridio, "read_grid", "gridio.read_grid", None, _file_bytes),
            (gma.gridio, "write_grid", "gridio.write_grid", None, _file_bytes),
            (gma.solver.LinearizedResidual, "apply", "solver.LinearizedResidual.apply", None, None),
            (scipy.sparse.linalg, "gmres", "scipy.gmres", None, _gmres_info),
        ]
        hooks = {
            ("solver", "newton_solve"): (_max_iter_of(gma.solver.newton_solve), None),
            ("toric", "check_criterion"): (None, _face_count),
        }
        for prefix, module in (("solver", gma.solver), ("kernel", gma.kernel),
                               ("toric", gma.toric), ("psh", gma.psh)):
            for name in _public_functions(module):
                before, after = hooks.get((prefix, name), (None, None))
                targets.append((module, name, f"{prefix}.{name}", before, after))
        return targets

    def install(self):
        for owner, attr, _original, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._targets:
            setattr(owner, attr, original)


def export(spans, origin):
    """Spans as plain lists, times in seconds from origin."""
    return [
        [s.name, s.start - origin, s.end - origin, s.parent, s.op, s.error, s.attrs]
        for s in spans
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _newton_accepted(span, children):
    """Accepted Newton steps of one `newton_solve` call.

    Every iteration starts with one `linearize`.  A call that returns, or
    raises only because it ran out of iterations, accepted all of them; a
    call that raised otherwise failed in its last iteration (line search or
    inner GMRES), which therefore was not accepted.
    """
    started = sum(1 for c in children if c.name == "solver.linearize")
    if span.error is None or (
        span.error == "MaxIterationsError" and started == span.attrs["max_iter"]
    ):
        return started
    return max(started - 1, 0)


def layer_totals(spans):
    """Totals of every per-layer metric over the spans of one operation."""
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    t = Counter()
    for index, span in enumerate(spans):
        kids = children.get(index, ())
        self_s = (span.end - span.start) - sum(k.end - k.start for k in kids)
        layer, _, entry = span.name.partition(".")
        if span.name == "solver.potential_hessian":
            t["solver.hessian_s"] += self_s
            t["solver.hessian_calls"] += 1
        elif span.name == "solver.eigenvalue_field":
            t["solver.eig_s"] += self_s
            t["solver.eig_calls"] += 1
            if span.parent >= 0 and spans[span.parent].name == "solver.newton_solve":
                t["solver.linesearch_trials"] += 1
        elif span.name == "solver.linearize":
            t["solver.linearize_s"] += self_s
            t["solver.linearize_calls"] += 1
        elif span.name == "solver.LinearizedResidual.apply":
            t["solver.matvec_s"] += self_s
            t["solver.matvecs"] += 1
        elif span.name == "scipy.gmres":
            t["solver.gmres_s"] += self_s
            t["solver.gmres_calls"] += 1
            t["solver.gmres_stalls"] += span.attrs is not None and span.attrs["info"] != 0
        elif span.name == "solver.newton_solve":
            t["solver.newton_self_s"] += self_s
            t["solver.attempts"] += 1
            # the first eigenvalue_field of each call is the initial state, not a trial
            t["solver.linesearch_trials"] -= 1
            t["solver.newton_steps"] += _newton_accepted(span, kids)
            if span.error is not None:
                t["solver.attempts_rejected"] += 1
                t[f"solver.rejected.{span.error}"] += 1
        elif layer == "kernel":
            t["kernel.s"] += self_s
            t["kernel.calls"] += 1
        elif span.name == "toric.mixed_volume":
            t["toric.mixed_volume_s"] += self_s
        elif layer == "toric":
            t["toric.check_s"] += self_s
            if span.attrs is not None:
                t["toric.faces"] += span.attrs["faces"]
        elif layer == "psh":
            t["psh.s"] += self_s
            t["psh.calls"] += 1
        elif span.name == "cli.main":
            t["cli.self_s"] += self_s
        elif span.name == "schemas.validate":
            t["schemas.validate_s"] += self_s
        elif layer == "gridio":
            t[f"gridio.{entry.split('_')[0]}_s"] += self_s
            if span.attrs is not None:
                t["gridio.bytes"] += span.attrs["bytes"]
    trials = t["solver.linesearch_trials"]
    t["solver.step_accept_ratio"] = t["solver.newton_steps"] / trials if trials else 0.0
    return t


def counter_mismatches(ops, reference=None):
    """Deterministic counters that differ between operations (or from a reference)."""
    rows = list(ops) + ([reference] if reference is not None else [])
    return sorted(
        name for name in DETERMINISTIC_COUNTERS
        if len({row.get(name, 0) for row in rows}) > 1
    )
