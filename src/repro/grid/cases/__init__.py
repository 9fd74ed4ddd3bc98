"""Test-system registry.

``get_case(name)`` returns the :class:`~repro.grid.caseio.CaseDefinition`
for any of the systems the paper evaluates on:

* ``"5bus-study1"`` / ``"5bus-study2"`` — the paper's Fig.-3 system with
  the Table II / Table III scenarios,
* ``"ieee14"`` — the real IEEE 14-bus system,
* ``"ieee30"`` / ``"ieee57"`` / ``"ieee118"`` — IEEE-like systems with the
  authentic dimensions (see DESIGN.md for the substitution note).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.exceptions import ModelError
from repro.grid.caseio import CaseDefinition
from repro.grid.cases.five_bus import case_study_1, case_study_2
from repro.grid.cases.ieee14 import ieee14
from repro.grid.cases.synthetic import (
    ieee118,
    ieee30,
    ieee57,
    synth300,
    synth1354,
    synth2869,
    synth10000,
    synthetic_case,
)

_REGISTRY: Dict[str, Callable[[], CaseDefinition]] = {
    "5bus-study1": case_study_1,
    "5bus-study2": case_study_2,
    "ieee14": ieee14,
    "ieee30": ieee30,
    "ieee57": ieee57,
    "ieee118": ieee118,
    "synth300": synth300,
    "synth1354": synth1354,
    "synth2869": synth2869,
    "synth10000": synth10000,
}

#: The bus-count sweep of the paper's scalability evaluation (Section IV).
SCALABILITY_SWEEP = ["5bus-study2", "ieee14", "ieee30", "ieee57", "ieee118"]

#: The thousand-bus scaling axis enabled by sparse factorization.
SCALING_SWEEP = ["synth300", "synth1354", "synth2869", "synth10000"]


def case_names() -> List[str]:
    return sorted(_REGISTRY)


def get_case(name: str) -> CaseDefinition:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ModelError(
            f"unknown case {name!r}; available: {', '.join(case_names())}")


__all__ = [
    "SCALABILITY_SWEEP",
    "SCALING_SWEEP",
    "case_names",
    "case_study_1",
    "case_study_2",
    "get_case",
    "ieee14",
    "ieee30",
    "ieee57",
    "ieee118",
    "synth300",
    "synth1354",
    "synth2869",
    "synth10000",
    "synthetic_case",
]
