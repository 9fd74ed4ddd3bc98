"""Generate the expected-verdict table (``expected.json``).

Every pool entry of :mod:`perfbench.ops` is analyzed once in certified
mode (``self_check=True``: SAT models, UNSAT proofs and fast-path
witnesses are independently re-checked) and its verdict is stored under
the spec's fingerprint.  The 5-bus entries are checked against the
paper's case studies before the table is written.

    python3 perfbench/run.py --make-table perfbench/expected.json

takes a few minutes; the table is committed, so runs never regenerate it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from perfbench import harness, ops

#: the paper's case study 1: I* = 35/8 % and a 4.36 % achieved increase.
PAPER_STUDY1_ISTAR = Fraction(35, 8)
PAPER_STUDY1_ACHIEVED = 4.36


def _exclusion_capable(case) -> List[int]:
    return [s.index for s in case.line_specs
            if s.in_true_topology and not s.in_core
            and not s.status_secured]


def _adjacency(case) -> Dict[int, List[Tuple[int, int]]]:
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    capable = set(_exclusion_capable(case))
    for s in case.line_specs:
        if s.index in capable:
            adjacency.setdefault(s.from_bus, []).append((s.to_bus, s.index))
            adjacency.setdefault(s.to_bus, []).append((s.from_bus, s.index))
    return adjacency


def grid_specs(builder: harness.CaseBuilder, case: str, count: int,
               seed: int) -> List[Dict[str, Any]]:
    capable = _exclusion_capable(builder.base(case))
    return [ops.analyze_spec(case, "fast", None, alterable=pair)
            for pair in ops.line_pairs(capable, count, seed)]


def region_specs(builder: harness.CaseBuilder) -> List[Dict[str, Any]]:
    base = builder.base("ieee118")
    adjacency = _adjacency(base)
    rng = random.Random(118)
    variants: List[List[int]] = []
    for center in rng.sample(sorted(adjacency), len(adjacency)):
        lines = ops.regional_lines(adjacency, center,
                                   ops.IEEE118_REGION_BUSES,
                                   ops.IEEE118_REGION_LINES, rng)
        if lines and lines not in variants:
            variants.append(lines)
        if len(variants) == ops.IEEE118_REGIONS:
            break
    return [ops.analyze_spec("ieee118", "fast", target, alterable=lines)
            for lines in variants for target in ops.IEEE118_TARGETS]


def _analyze_entry(builder, spec) -> Dict[str, Any]:
    analyzer, report, _ = harness.run_analyze(builder, spec,
                                              self_check=True)
    entry: Dict[str, Any] = {"spec": spec,
                             "verdict": harness.verdict_of(report),
                             "certified": report.certified}
    if report.achieved_increase_percent is not None:
        entry["achieved_percent"] = round(
            float(report.achieved_increase_percent), 6)
    if spec["analyzer"] == "fast":
        evaluations = analyzer.evaluations
        entry["candidates"] = len(evaluations)
        entry["feasible"] = sum(e.best_increase_percent is not None
                                for e in evaluations)
    return entry


def _maximize_entry(builder, spec) -> Dict[str, Any]:
    case = builder.build(spec)
    analyzer = harness.open_analyzer(case, spec, incremental=True)
    result = harness.run_maximize(analyzer, spec, self_check=True)
    bracket = harness.bracket_of(result)
    return {"spec": spec, "verdict": "sat" if result.satisfiable
            else "unsat", "certified": result.certified, **bracket}


def _grid_class(entry: Dict[str, Any]) -> Any:
    if entry["verdict"] not in ("sat", "unsat") \
            or entry.get("candidates") != 2:
        return None
    return {0: "light", 1: "heavy"}.get(entry["feasible"])


def paper_checks(entries: Dict[str, Dict[str, Any]]) -> List[str]:
    """Mismatches between the table's 5-bus entries and the paper."""
    problems = []
    istar = ops.spec_key(ops.maximize_spec("5bus-study1", False,
                                           Fraction(1, 8)))
    if Fraction(entries[istar]["lo"]) != PAPER_STUDY1_ISTAR:
        problems.append(f"study 1 I* is {entries[istar]['lo']}, "
                        f"paper: {PAPER_STUDY1_ISTAR}")
    for spec in ops.five_bus_specs():
        entry = entries[ops.spec_key(spec)]
        if spec["case"] != "5bus-study1" or spec["state"]:
            continue
        expect = "sat" if Fraction(spec["target"]) <= PAPER_STUDY1_ISTAR \
            else "unsat"
        if entry["verdict"] != expect:
            problems.append(f"study 1 at {spec['target']}%: "
                            f"{entry['verdict']}, expected {expect}")
        if expect == "sat" and round(entry["achieved_percent"], 2) \
                != PAPER_STUDY1_ACHIEVED:
            problems.append(f"study 1 at {spec['target']}%: achieved "
                            f"{entry['achieved_percent']}%, paper "
                            f"{PAPER_STUDY1_ACHIEVED}%")
    return problems


def generate() -> Dict[str, Any]:
    builder = harness.CaseBuilder()
    jobs = [(_analyze_entry, spec) for spec in
            ops.five_bus_specs() + ops.ieee14_specs()
            + ops.fast_ieee_specs()
            + grid_specs(builder, "synth1354", ops.SYNTH1354_PAIRS, 1354)
            + grid_specs(builder, "synth300", ops.SYNTH300_PAIRS, 300)
            + region_specs(builder)]
    jobs += [(_maximize_entry, spec) for spec in ops.maximize_specs()]
    entries: Dict[str, Dict[str, Any]] = {}
    for number, (make, spec) in enumerate(jobs, 1):
        started = time.perf_counter()
        entry = make(builder, spec)
        if spec["case"] == "synth1354":
            entry["grid_class"] = _grid_class(entry)
        entries[ops.spec_key(spec)] = entry
        print(f"[{number}/{len(jobs)}] {json.dumps(spec)} -> "
              f"{entry['verdict']} ({time.perf_counter() - started:.2f}s)",
              file=sys.stderr, flush=True)
    problems = paper_checks(entries)
    if problems:
        raise SystemExit("table disagrees with the paper: "
                         + "; ".join(problems))
    return {"format": 1, "generated_with": "self_check=True",
            "entries": entries}


def write(path: str) -> None:
    table = generate()
    with open(path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
