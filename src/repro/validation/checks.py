"""Preflight checks for grid cases, measurement sets and attack specs.

:func:`validate_case` is the orchestrator every entry point runs before an
input reaches an encoder: structural checks first (dangling references,
inconsistent limits), then — only when the structure is sound — topology
degeneracy, load–capacity feasibility, measurement-set and attack-spec
checks.  :func:`validate_post_attack_topology` re-validates the *believed*
topology an attack induces, so an exclusion attack that islands a bus
degrades to a reported diagnostic instead of a simplex failure deep in
the OPF pipeline.

All checks work on the :class:`~repro.grid.caseio.CaseDefinition` level
(raw specs) rather than on a built :class:`~repro.grid.network.Grid`, so
malformed inputs are diagnosed *before* the eager component constructors
get a chance to raise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.caseio import CaseDefinition
from repro.validation.diagnostics import (
    DEGRADED,
    FATAL,
    WARNING,
    ValidationReport,
)


def _connected_components(buses: Sequence[int],
                          edges: Iterable[Tuple[int, int]]
                          ) -> List[Set[int]]:
    adjacency: Dict[int, Set[int]] = {b: set() for b in buses}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    components: List[Set[int]] = []
    seen: Set[int] = set()
    for start in buses:
        if start in seen:
            continue
        frontier = [start]
        component = {start}
        seen.add(start)
        while frontier:
            bus = frontier.pop()
            for neighbor in adjacency[bus]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    return components


# ---------------------------------------------------------------------------
# Structural checks (fatal findings classify as invalid_input)
# ---------------------------------------------------------------------------

def check_structure(case: CaseDefinition) -> ValidationReport:
    """Reference integrity and parameter sanity of the raw case specs."""
    report = ValidationReport(subject=case.name)
    bus_indices = [b for b, _, _ in case.bus_types]
    bus_set = set(bus_indices)

    if len(bus_set) != len(bus_indices):
        dupes = sorted({b for b in bus_indices if bus_indices.count(b) > 1})
        report.add("case.duplicate_bus", FATAL,
                   "duplicate bus rows in the bus-types section",
                   [f"bus:{b}" for b in dupes],
                   hint="each bus must appear exactly once")
    elif sorted(bus_indices) != list(range(1, len(bus_indices) + 1)):
        report.add("case.bus_indices_noncontiguous", FATAL,
                   f"bus indices must run 1..{len(bus_indices)}, got "
                   f"{sorted(bus_indices)}",
                   hint="renumber buses contiguously from 1")
    if not bus_indices:
        report.add("case.no_buses", FATAL, "the case defines no buses")

    line_indices = [s.index for s in case.line_specs]
    if len(set(line_indices)) != len(line_indices):
        dupes = sorted({i for i in line_indices
                        if line_indices.count(i) > 1})
        report.add("case.duplicate_line", FATAL,
                   "duplicate line rows in the topology section",
                   [f"line:{i}" for i in dupes])
    elif line_indices != list(range(1, len(line_indices) + 1)):
        report.add("case.line_indices_noncontiguous", FATAL,
                   f"line indices must run 1..{len(line_indices)} in "
                   f"order, got {line_indices}",
                   hint="renumber lines contiguously from 1")

    seen_pairs: Dict[Tuple[int, int], int] = {}
    for spec in case.line_specs:
        where = [f"line:{spec.index}"]
        if spec.from_bus not in bus_set or spec.to_bus not in bus_set:
            report.add("line.unknown_bus", FATAL,
                       f"line {spec.index} connects bus {spec.from_bus} "
                       f"to bus {spec.to_bus}, but not all endpoints "
                       f"exist", where,
                       hint="endpoints must be declared in bus types")
            continue
        if spec.from_bus == spec.to_bus:
            report.add("line.self_loop", FATAL,
                       f"line {spec.index} connects bus {spec.from_bus} "
                       f"to itself", where)
        if spec.admittance <= 0:
            report.add("line.nonpositive_admittance", FATAL,
                       f"line {spec.index} admittance "
                       f"{spec.admittance} is not positive (zero or "
                       f"negative reactance)", where,
                       hint="DC-model admittances must be > 0")
        if spec.capacity <= 0:
            report.add("line.nonpositive_capacity", FATAL,
                       f"line {spec.index} capacity {spec.capacity} is "
                       f"not positive", where)
        pair = tuple(sorted((spec.from_bus, spec.to_bus)))
        if pair in seen_pairs:
            report.add("line.duplicate_pair", WARNING,
                       f"lines {seen_pairs[pair]} and {spec.index} both "
                       f"connect buses {pair[0]} and {pair[1]}",
                       [f"line:{seen_pairs[pair]}", f"line:{spec.index}"])
        else:
            seen_pairs[pair] = spec.index

    gen_types = {b for b, is_gen, _ in case.bus_types if is_gen}
    load_types = {b for b, _, is_load in case.bus_types if is_load}
    seen_gens: Set[int] = set()
    for gen in case.generators:
        where = [f"bus:{gen.bus}"]
        if gen.bus not in bus_set:
            report.add("gen.unknown_bus", FATAL,
                       f"generator references unknown bus {gen.bus}",
                       where)
        if gen.bus in seen_gens:
            report.add("gen.duplicate_bus", FATAL,
                       f"more than one generator at bus {gen.bus}", where,
                       hint="the paper assumes one generator per bus")
        seen_gens.add(gen.bus)
        if gen.p_min < 0 or gen.p_max < gen.p_min:
            report.add("gen.limits_inconsistent", FATAL,
                       f"generator at bus {gen.bus} needs "
                       f"0 <= p_min <= p_max, got [{gen.p_min}, "
                       f"{gen.p_max}]", where)
        if gen.bus in bus_set and gen.bus not in gen_types:
            report.add("gen.bus_not_marked", WARNING,
                       f"bus {gen.bus} hosts a generator but is not "
                       f"marked as a generator bus", where,
                       hint="set the is-generator flag in bus types")

    seen_loads: Set[int] = set()
    for load in case.loads:
        where = [f"bus:{load.bus}"]
        if load.bus not in bus_set:
            report.add("load.unknown_bus", FATAL,
                       f"load references unknown bus {load.bus}", where)
        if load.bus in seen_loads:
            report.add("load.duplicate_bus", FATAL,
                       f"more than one load at bus {load.bus}", where)
        seen_loads.add(load.bus)
        if not (load.p_min <= load.existing <= load.p_max):
            report.add("load.bounds_inconsistent", FATAL,
                       f"load at bus {load.bus}: existing value "
                       f"{load.existing} outside [{load.p_min}, "
                       f"{load.p_max}]", where,
                       hint="Eq. 36 needs p_min <= existing <= p_max")
        if load.bus in bus_set and load.bus not in load_types:
            report.add("load.bus_not_marked", WARNING,
                       f"bus {load.bus} hosts a load but is not marked "
                       f"as a load bus", where)

    if case.reference_bus not in bus_set and bus_set:
        report.add("case.unknown_reference_bus", FATAL,
                   f"reference bus {case.reference_bus} does not exist",
                   [f"bus:{case.reference_bus}"])
    return report


# ---------------------------------------------------------------------------
# Degeneracy checks (fatal findings classify as degenerate_case)
# ---------------------------------------------------------------------------

def check_topology(case: CaseDefinition) -> ValidationReport:
    """Connectivity of the in-service (true) topology.

    Assumes :func:`check_structure` passed — bus references are valid.
    """
    report = ValidationReport(subject=case.name)
    buses = [b for b, _, _ in case.bus_types]
    if len(buses) <= 1:
        return report
    active = [s for s in case.line_specs if s.in_true_topology]
    if not active:
        report.add("topology.no_lines", FATAL,
                   "no line is in service: every bus is islanded",
                   hint="set at least one in-true-topology flag")
        return report
    incident: Set[int] = set()
    for spec in active:
        incident.add(spec.from_bus)
        incident.add(spec.to_bus)
    for bus in buses:
        if bus not in incident:
            report.add("topology.isolated_bus", FATAL,
                       f"bus {bus} has no in-service line",
                       [f"bus:{bus}"],
                       hint="an islanded bus makes the DC power flow "
                            "undefined")
    components = _connected_components(
        buses, ((s.from_bus, s.to_bus) for s in active))
    if len(components) > 1:
        others = sorted(components, key=len)[:-1]
        stranded = sorted(b for comp in others for b in comp)
        report.add("topology.disconnected", FATAL,
                   f"the in-service topology splits into "
                   f"{len(components)} islands; buses {stranded} are "
                   f"cut off from the main island",
                   [f"bus:{b}" for b in stranded])
    return report


def check_feasibility(case: CaseDefinition) -> ValidationReport:
    """Load–capacity balance: can any dispatch serve the demand?"""
    report = ValidationReport(subject=case.name)
    if not case.generators:
        report.add("grid.no_generators", FATAL,
                   "the case defines no generators; no dispatch exists")
        return report
    total_load = sum((l.existing for l in case.loads), Fraction(0))
    capacity = sum((g.p_max for g in case.generators), Fraction(0))
    minimum = sum((g.p_min for g in case.generators), Fraction(0))
    if not case.loads:
        report.add("grid.no_loads", DEGRADED,
                   "the case defines no loads; the OPF is trivial and "
                   "load-shift attacks are meaningless")
    if total_load > capacity:
        report.add("grid.load_exceeds_capacity", FATAL,
                   f"total load {total_load} exceeds total generation "
                   f"capacity {capacity}; the OPF is infeasible",
                   hint="raise generator p_max or lower the loads")
    if minimum > total_load:
        report.add("grid.min_generation_exceeds_load", FATAL,
                   f"total minimum generation {minimum} exceeds total "
                   f"load {total_load}; the power balance cannot hold",
                   hint="lower generator p_min or raise the loads")
    return report


# ---------------------------------------------------------------------------
# Measurement-set checks
# ---------------------------------------------------------------------------

def check_measurements(case: CaseDefinition,
                       observability: bool = True) -> ValidationReport:
    """Sensor references, duplicates and (optionally) observability."""
    report = ValidationReport(subject=case.name)
    expected = case.num_potential_measurements
    specs = case.measurement_specs
    if not specs:
        report.add("meas.none_defined", DEGRADED,
                   "the case defines no measurement section; "
                   "stealthiness against state estimation cannot be "
                   "assessed")
        return report
    if len(specs) != expected:
        report.add("case.measurement_count_mismatch", FATAL,
                   f"expected {expected} potential measurements "
                   f"(2l + b), got {len(specs)}",
                   hint="one row per potential measurement, flow "
                        "measurements first")
    indices = [s.index for s in specs]
    duplicates = sorted({i for i in indices if indices.count(i) > 1})
    if duplicates:
        report.add("meas.duplicate_index", FATAL,
                   f"duplicate measurement rows: {duplicates}",
                   [f"measurement:{i}" for i in duplicates])
    dangling = sorted({i for i in indices if not 1 <= i <= expected})
    if dangling:
        report.add("meas.index_out_of_range", FATAL,
                   f"measurement indices {dangling} reference "
                   f"non-existent sensors (valid range 1..{expected})",
                   [f"measurement:{i}" for i in dangling])
    if not duplicates and not dangling \
            and indices != sorted(indices):
        report.add("meas.index_order", FATAL,
                   "measurement rows are out of order; positional "
                   "lookups would silently read the wrong sensor",
                   hint="sort the measurement section by index")
    if not any(s.taken for s in specs):
        report.add("meas.none_taken", DEGRADED,
                   "no measurement is taken; the estimator sees nothing")
    elif observability and report.ok \
            and len(specs) == expected:
        report.extend(_check_observability(case))
    return report


def _check_observability(case: CaseDefinition) -> ValidationReport:
    """Numerical observability of the taken set (needs a sound case)."""
    from repro.estimation.measurement import MeasurementPlan
    from repro.estimation.observability import is_numerically_observable
    report = ValidationReport(subject=case.name)
    try:
        plan = MeasurementPlan.from_case(case)
        observable = is_numerically_observable(plan)
    except Exception:
        # Structure problems are reported by their own checks; the
        # observability probe never escalates them into a crash.
        return report
    if not observable:
        report.add("meas.unobservable", DEGRADED,
                   "the taken measurement set does not make the system "
                   "observable; state estimation is underdetermined",
                   hint="take more flow/consumption measurements")
    return report


# ---------------------------------------------------------------------------
# Attack-spec checks
# ---------------------------------------------------------------------------

def check_attack_spec(case: CaseDefinition) -> ValidationReport:
    """Attacker resources and per-line attribute consistency."""
    report = ValidationReport(subject=case.name)
    if case.resource_measurements < 0 or case.resource_buses < 0:
        report.add("attack.resource_invalid", FATAL,
                   f"attacker resources must be non-negative, got "
                   f"{case.resource_measurements} measurements / "
                   f"{case.resource_buses} buses")
    for spec in case.line_specs:
        where = [f"line:{spec.index}"]
        if spec.in_core and not spec.in_true_topology:
            report.add("attack.core_line_open", WARNING,
                       f"line {spec.index} is marked as a fixed core "
                       f"line yet is out of service", where,
                       hint="core lines are never legitimately opened")
    attackable = [
        s.index for s in case.line_specs
        if (s.in_true_topology and not s.in_core and not s.status_secured
            and s.status_alterable)
        or (not s.in_true_topology and not s.status_secured
            and s.status_alterable)]
    if not attackable:
        report.add("attack.no_candidates", WARNING,
                   "no line status is attackable; pure topology attacks "
                   "are trivially impossible")
    if case.min_increase_percent < 0:
        report.add("attack.target_negative", WARNING,
                   f"impact target {case.min_increase_percent}% is "
                   f"negative")
    if case.base_cost < 0:
        report.add("attack.base_cost_negative", WARNING,
                   f"declared base cost {case.base_cost} is negative",
                   hint="a zero base cost means 'compute it from the "
                        "attack-free OPF'")
    return report


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def validate_case(case: CaseDefinition,
                  observability: bool = True) -> ValidationReport:
    """Full preflight: structure, then degeneracy/measurements/attack.

    Topology, feasibility and measurement checks only run when the
    structural pass is clean — their results would be artifacts of the
    structural malformation otherwise.
    """
    report = check_structure(case)
    if report.ok:
        report.extend(check_topology(case))
        report.extend(check_feasibility(case))
        report.extend(check_measurements(case,
                                         observability=observability))
    report.extend(check_attack_spec(case))
    return report


def validate_post_attack_topology(grid, excluded: Sequence[int] = (),
                                  included: Sequence[int] = (),
                                  subject: str = "") -> ValidationReport:
    """Re-validate the believed topology a topology attack induces.

    ``grid`` is the physical :class:`~repro.grid.network.Grid`;
    ``excluded``/``included`` are the attack's line targets.  Detects
    references to nonexistent branches, duplicate/conflicting targets,
    and — the paper's core degeneracy — an exclusion attack that islands
    part of the network.
    """
    report = ValidationReport(subject=subject or "post-attack topology")
    known = {line.index for line in grid.lines}
    for kind, targets in (("exclusion", excluded), ("inclusion", included)):
        unknown = sorted({i for i in targets if i not in known})
        if unknown:
            report.add("attack.unknown_line", FATAL,
                       f"{kind} attack references nonexistent "
                       f"line(s) {unknown}",
                       [f"line:{i}" for i in unknown],
                       hint=f"valid line indices are 1..{len(known)}")
        duplicated = sorted({i for i in targets
                             if list(targets).count(i) > 1})
        if duplicated:
            report.add("attack.duplicate_target", WARNING,
                       f"{kind} attack names line(s) {duplicated} more "
                       f"than once",
                       [f"line:{i}" for i in duplicated])
    both = sorted(set(excluded) & set(included))
    if both:
        report.add("attack.conflicting_target", FATAL,
                   f"line(s) {both} are both excluded and included",
                   [f"line:{i}" for i in both])
    if not report.ok:
        return report

    for index in sorted(set(excluded)):
        if not grid.line(index).in_service:
            report.add("attack.exclude_open_line", WARNING,
                       f"exclusion target line {index} is already out "
                       f"of service", [f"line:{index}"])
    for index in sorted(set(included)):
        if grid.line(index).in_service:
            report.add("attack.include_closed_line", WARNING,
                       f"inclusion target line {index} is already in "
                       f"service", [f"line:{index}"])

    believed = ({l.index for l in grid.lines if l.in_service}
                - set(excluded)) | set(included)
    if not grid.is_connected(believed):
        components = _connected_components(
            [b.index for b in grid.buses],
            ((l.from_bus, l.to_bus) for l in grid.lines
             if l.index in believed))
        others = sorted(components, key=len)[:-1]
        stranded = sorted(b for comp in others for b in comp)
        report.add("topology.disconnected", FATAL,
                   f"the post-attack believed topology islands "
                   f"bus(es) {stranded}",
                   [f"bus:{b}" for b in stranded],
                   hint="the EMS's OPF on this view has no solution; "
                        "the attack degrades the case instead of "
                        "raising")
    return report
