"""The benchmark's calls into ``repro``: cases, analyses and verdicts.

An operation spec (see :mod:`perfbench.ops`) is turned into a
``CaseDefinition`` and run through the program's public API; the result
is reduced to a verdict (``sat``, ``unsat`` or ``undecided``, or the
report's failure status) that the expected-verdict table is checked
against.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from repro.benchlib.scenarios import randomize_attacker
from repro.core.fast import FastImpactAnalyzer, FastQuery
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.grid.caseio import CaseDefinition
from repro.grid.cases import get_case
from repro.smt import SolverBudget

#: report statuses that give a verdict (anything else fails the op).
DECIDED = "complete"
UNDECIDED = "budget_exhausted"


class CaseBuilder:
    """Builds the case of an op spec; bundled base cases are loaded once."""

    def __init__(self) -> None:
        self._base: Dict[str, CaseDefinition] = {}

    def base(self, name: str) -> CaseDefinition:
        if name not in self._base:
            self._base[name] = get_case(name)
        return self._base[name]

    def build(self, spec: Dict[str, Any]) -> CaseDefinition:
        case = self.base(spec["case"])
        if "attacker_seed" in spec:
            case = randomize_attacker(case, spec["attacker_seed"])
        if "alterable" in spec:
            case = with_alterable(case, spec["alterable"])
        return case


def with_alterable(case: CaseDefinition, lines) -> CaseDefinition:
    """The case with exactly ``lines`` marked ``status_alterable``."""
    chosen = set(lines)
    specs = [dataclasses.replace(spec,
                                 status_alterable=spec.index in chosen)
             for spec in case.line_specs]
    label = "-".join(str(i) for i in sorted(chosen))
    return dataclasses.replace(case, name=f"{case.name}-alt{label}",
                               line_specs=specs)


def budget_for(spec: Dict[str, Any]) -> Optional[SolverBudget]:
    pivots = spec.get("max_pivots")
    return None if pivots is None else SolverBudget(max_pivots=pivots)


def target_of(spec: Dict[str, Any]) -> Optional[Fraction]:
    return None if spec.get("target") is None else Fraction(spec["target"])


def open_analyzer(case: CaseDefinition, spec: Dict[str, Any],
                  incremental: bool = False):
    """A cold analyzer session for the spec's analyzer kind."""
    if spec["analyzer"] == "smt":
        return ImpactAnalyzer(case, incremental=incremental)
    return FastImpactAnalyzer(case)


def query_for(spec: Dict[str, Any], budget: Optional[SolverBudget],
              self_check: Optional[bool] = None):
    if spec["analyzer"] == "smt":
        return ImpactQuery(target_increase_percent=target_of(spec),
                           with_state_infection=spec["state"],
                           budget=budget, self_check=self_check)
    return FastQuery(target_increase_percent=target_of(spec),
                     with_state_infection=spec["state"], budget=budget,
                     self_check=self_check)


def verdict_of(report) -> str:
    """``sat``/``unsat``/``undecided``, or the failing report status."""
    if report.status == DECIDED:
        return "sat" if report.satisfiable else "unsat"
    if report.status == UNDECIDED:
        return "undecided"
    return report.status


def run_analyze(builder: CaseBuilder, spec: Dict[str, Any],
                self_check: Optional[bool] = None
                ) -> Tuple[Any, Any, Optional[SolverBudget]]:
    """Cold open + analyze; returns (analyzer, report, budget)."""
    case = builder.build(spec)
    budget = budget_for(spec)
    analyzer = open_analyzer(case, spec)
    report = analyzer.analyze(query_for(spec, budget, self_check))
    return analyzer, report, budget


def run_maximize(analyzer, spec: Dict[str, Any],
                 self_check: Optional[bool] = None):
    """I* bisection on an (incremental) exact session."""
    return analyzer.max_impact(
        tolerance=Fraction(spec["tolerance"]), self_check=self_check,
        query_attrs={"with_state_infection": spec["state"]})


def bracket_of(result) -> Dict[str, Optional[str]]:
    """The proved I* bracket of a maximize result, as exact strings."""
    def text(value):
        return None if value is None else str(value)
    return {"status": result.status, "lo": text(result.lower_bound),
            "hi": text(result.upper_bound)}
