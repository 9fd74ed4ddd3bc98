"""Spans around the program's layer entry points, recorded from outside.

:class:`Tracer` keeps spans in memory: name, op id, parent span, start
and end.  A span's *self* time is its duration minus the durations of
its direct children (calls are single-threaded, so children are
disjoint).  :func:`install` wraps the public entry points of each layer
in the running process and returns a function that restores them; the
program's sources are not touched.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    op: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    children: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Tracer:
    """Nested span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.op: Optional[int] = None

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.op, parent, self.clock()))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].children += span.duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)
        return traced

    def totals(self) -> Dict[str, Totals]:
        """Calls, total and self seconds per span name."""
        result: Dict[str, Totals] = {}
        for span in self.spans:
            entry = result.setdefault(span.name, Totals())
            entry.calls += 1
            entry.seconds += span.duration
            entry.self_seconds += span.self_time
        return result

    def self_sum(self) -> float:
        return sum(span.self_time for span in self.spans)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _entry_points() -> Tuple[List[Tuple[str, object, str]],
                             List[Tuple[str, Callable]]]:
    """(span name, class, method) and (span name, function) to wrap."""
    from repro.core.encoding import AttackModelEncoding
    from repro.core.session import AnalysisSession
    from repro.estimation import observability
    from repro.grid import sensitivities
    from repro.numerics import guards
    from repro.opf.lp import LinearProgram
    from repro.opf.shift_factor import ShiftFactorOpf, linprog
    from repro.smt import optimize
    from repro.smt.sat import SatSolver
    from repro.smt.simplex import Simplex
    from repro.validation import validate_case

    methods = [
        ("core.session.open", AnalysisSession, "__init__"),
        ("core.session.analyze", AnalysisSession, "analyze"),
        ("core.encoding.build", AttackModelEncoding, "__init__"),
        ("smt.sat.solve", SatSolver, "solve"),
        ("smt.simplex.check", Simplex, "check"),
        ("smt.simplex.check", Simplex, "minimize"),
        ("opf.lp.exact", LinearProgram, "solve"),
        ("opf.shift_factor.solve", ShiftFactorOpf, "solve"),
        ("grid.sensitivities.rank1", sensitivities.SensitivityFactors,
         "outage_update"),
        ("grid.sensitivities.rank1", sensitivities.SensitivityFactors,
         "closure_update"),
        ("numerics.factor", guards.GuardedFactorization, "__init__"),
        ("numerics.solve", guards.GuardedFactorization, "solve"),
    ]
    functions = [
        ("validation.preflight", validate_case),
        ("smt.optimize", optimize.minimize),
        ("smt.optimize", optimize.maximize),
        ("opf.highs", linprog),
        ("grid.sensitivities.ptdf", sensitivities.compute_ptdf),
        ("grid.sensitivities.lodf", sensitivities.lodf_column),
        ("estimation.observability",
         observability.is_numerically_observable),
        ("numerics.rank", guards.guarded_rank),
    ]
    return methods, functions


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them.

    A module-level function is replaced wherever a loaded ``repro``
    module binds it (``from x import f`` copies the binding), so every
    call site goes through the span.
    """
    methods, functions = _entry_points()
    restore: List[Tuple[object, str, object]] = []
    for name, cls, attr in methods:
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))
    modules = [m for key, m in list(sys.modules.items())
               if key == "repro" or key.startswith("repro.")]
    for name, fn in functions:
        wrapped = tracer.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    restore.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall
