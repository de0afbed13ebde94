"""Span tracer that instruments spectracube from outside the package.

A probe names one public function or method.  While a :class:`Tracer` is
active, every ``spectracube`` module attribute that refers to a probed
function is replaced by a timing wrapper, so copies bound by
``from .x import y`` are wrapped as well; probed methods are replaced on
their class.  Leaving the ``with`` block puts every original back.

Spans are kept in memory (name, start, end, parent id and a few attributes
read from arguments or results) and written out by the caller at the end.
Times are integer ``perf_counter_ns`` readings, so a parent's duration minus
its children's is exact and never negative.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

PACKAGE = "spectracube"


class Probe(NamedTuple):
    """``module.qualname`` of the wrapped callable and the span it opens."""

    module: str
    qualname: str
    span: str
    note: Callable | None = None  # (args, result) -> attrs for the span
    timed: bool = True  # False: count outermost calls, record no span


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    nested: bool = False  # an enclosing span has the same name
    attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _laplace_note(args, result):
    x, depth = result
    return {"unknowns": int(x.size), "depth": int(depth)}


def _gmres_note(args, result):
    return {"iterations": int(result[1].iterations or 0)}


def _report_note(args, result):
    report = result[1]
    return {"backend": report.backend, "cp_error": float(report.cp_error)}


SETUP_PROBES = (
    Probe("drivers", "StationarySolver.__init__", "drivers.setup"),
)

LAYER_PROBES = SETUP_PROBES + (
    Probe("drivers", "StationarySolver.solve_output_rhs", "drivers.solve_output_rhs",
          _report_note),
    Probe("opdisc", "split_operator", "opdisc.split_operator"),
    Probe("opdisc", "cp_decompose", "opdisc.cp_decompose"),
    Probe("opdisc", "apply_operator", "opdisc.apply_operator"),
    Probe("cheb", "cheb_interp_3d", "cheb.interp_3d"),
    Probe("expr", "evaluate", "expr.evaluate", timed=False),
    Probe("bc", "dirichlet", "bc.boundary"),
    Probe("bc", "neumann", "bc.boundary"),
    Probe("bc", "assemble_boundary_set", "bc.boundary"),
    Probe("bc", "normalize_leading_identity", "bc.boundary"),
    Probe("bc", "reduce", "bc.reduce"),
    Probe("bc", "reconstruct", "bc.reconstruct"),
    Probe("tensolve", "ReducedLaplaceSolver.__init__", "tensolve.factorize"),
    Probe("tensolve", "ReducedLaplaceSolver.solve", "tensolve.laplace_solve", _laplace_note),
    Probe("tensolve", "real_schur", "tensolve.real_schur"),
    Probe("tensolve", "gmres_solve", "tensolve.gmres", _gmres_note),
    Probe("tensolve", "apply_reduced_operator", "tensolve.operator_apply"),
    Probe("tensor3", "mode_mult", "tensor3.mode_mult"),
)


class Tracer:
    """Context manager that installs the probes' wrappers and records spans."""

    def __init__(self, probes=SETUP_PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around a block of the benchmark's own code."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def _begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                    time.perf_counter_ns(), nested=self._depth[name] > 0)
        self.spans.append(span)
        self._stack.append(span.id)
        self._depth[name] += 1
        return span

    def _end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        self._depth[span.name] -= 1

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        name, note = probe.span, probe.note
        if not probe.timed:
            depth, counts = self._depth, self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if depth[name] == 0:
                    counts[name] += 1
                depth[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[name] -= 1

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if note is not None:
                span.attrs = note(args, result)
            return result

        return traced

    def _install(self, probe: Probe) -> None:
        module = sys.modules[f"{PACKAGE}.{probe.module}"]
        owner_name, _, attr = probe.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._set(owner, attr, self._wrap(vars(owner)[attr], probe))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, probe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration_ns
    return [span.duration_ns - c for span, c in zip(spans, child)]


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced call, as ``{name: (value, unit)}``.

    A layer's ``_s`` is the summed duration of its outermost spans, so a
    layer that re-enters itself is not counted twice; ``.self_s`` subtracts
    the time of child spans of other layers.
    """
    self_ns = self_times_ns(spans)
    calls: Counter = Counter(counts)
    busy_ns: Counter = Counter()
    own_ns: Counter = Counter()
    for span, own in zip(spans, self_ns):
        own_ns[span.name] += own
        if not span.nested:
            calls[span.name] += 1
            busy_ns[span.name] += span.duration_ns

    def seconds(name):
        return busy_ns[name] * 1e-9

    solves = [s for s in spans if s.name == "tensolve.laplace_solve"]
    gmres = {s.id for s in spans if s.name == "tensolve.gmres"}
    precond = sum(1 for s in solves if s.parent in gmres)
    # a span whose call raised carries no attributes
    iterations = sum(s.attrs["iterations"] for s in spans
                     if s.name == "tensolve.gmres" and s.attrs)
    solved = [s.attrs for s in solves if s.attrs]
    unknowns = sum(a["unknowns"] for a in solved)
    reports = [s.attrs for s in spans if s.name == "drivers.solve_output_rhs" and s.attrs]
    laplace_s = seconds("tensolve.laplace_solve")
    return {
        "tensolve.laplace_solve.calls": (calls["tensolve.laplace_solve"], "count"),
        "tensolve.laplace_solve_s": (laplace_s, "s"),
        "tensolve.laplace_solve.self_s": (own_ns["tensolve.laplace_solve"] * 1e-9, "s"),
        "tensolve.laplace_solve.unknowns_per_s": (
            unknowns / laplace_s if laplace_s > 0 else 0.0, "1/s"),
        "tensor3.mode_mult.calls": (calls["tensor3.mode_mult"], "count"),
        "tensor3.mode_mult_s": (seconds("tensor3.mode_mult"), "s"),
        "tensolve.gmres_iterations": (iterations, "count"),
        "tensolve.precond_apply.calls": (precond, "count"),
        "tensolve.operator_apply.calls": (calls["tensolve.operator_apply"], "count"),
        "tensolve.operator_apply_s": (seconds("tensolve.operator_apply"), "s"),
        "tensolve.gmres_s": (seconds("tensolve.gmres"), "s"),
        "tensolve.gmres.self_s": (own_ns["tensolve.gmres"] * 1e-9, "s"),
        # 0 when no GMRES iteration ran (direct solves)
        "tensolve.gmres.precond_per_iteration": (
            precond / iterations if iterations else 0.0, "ratio"),
        "opdisc.split_operator_s": (seconds("opdisc.split_operator"), "s"),
        "opdisc.cp_decompose.calls": (calls["opdisc.cp_decompose"], "count"),
        "opdisc.cp_decompose_s": (seconds("opdisc.cp_decompose"), "s"),
        "expr.evaluate.calls": (calls["expr.evaluate"], "count"),
        "cheb.interp_3d.calls": (calls["cheb.interp_3d"], "count"),
        "cheb.interp_3d_s": (seconds("cheb.interp_3d"), "s"),
        "tensolve.factorize_s": (seconds("tensolve.factorize"), "s"),
        "tensolve.real_schur.calls": (calls["tensolve.real_schur"], "count"),
        "bc.boundary_s": (seconds("bc.boundary"), "s"),
        "bc.reduce.calls": (calls["bc.reduce"], "count"),
        "bc.reduce_s": (seconds("bc.reduce"), "s"),
        "drivers.solve_output_rhs.calls": (calls["drivers.solve_output_rhs"], "count"),
        "drivers.solve_output_rhs_s": (seconds("drivers.solve_output_rhs"), "s"),
        "bc.reconstruct_s": (seconds("bc.reconstruct"), "s"),
        "opdisc.apply_operator_s": (seconds("opdisc.apply_operator"), "s"),
        "tensolve.recursion_depth": (
            max((a["depth"] for a in solved), default=0), "levels"),
        "opdisc.cp_error": (max((r["cp_error"] for r in reports), default=0.0), "max_abs"),
    }
