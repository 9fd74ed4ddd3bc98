"""Seeded operation generators for the four workloads.

Every operation is described by a plain JSON-able *spec*; its
fingerprint (:func:`spec_key`) keys the expected-verdict table.  The
pools an operation can be drawn from are fixed lists (the ``*_specs``
functions and :mod:`perfbench.tables`); the table holds a certified
verdict for every pool entry, and the operation *classes* are read off
the table (for example "5-bus study 1, no state infection, verdict
sat").  A workload seed picks which pool
entries run and in which order, while the number of operations of each
class is fixed, so every run at every seed has the same class mix.

Nothing here imports ``repro``: the generators only need the table.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: pivot budget of every exact analysis (a work budget, never wall time).
PIVOT_BUDGET = 200

FIVE_BUS = ("5bus-study1", "5bus-study2")
#: exact 5-bus decision targets: k/4 percent, k = 1..32.
FIVE_BUS_TARGETS = [Fraction(k, 4) for k in range(1, 33)]
IEEE14_ATTACKER_SEEDS = list(range(1, 17))
MAX_TOLERANCES = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
#: fast dense-path targets on the IEEE 14/30 systems: k/4 percent.
FAST_IEEE_TARGETS = [Fraction(k, 4) for k in range(1, 25)]
#: synth1354 variants: number of random line pairs screened into the pool.
SYNTH1354_PAIRS = 20
SYNTH300_PAIRS = 4
#: regional ieee118 attacker variants used by the sweep workload.
IEEE118_REGIONS = 12
IEEE118_REGION_BUSES = 8
IEEE118_REGION_LINES = 3
IEEE118_TARGETS = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]


def spec_key(spec: Dict[str, Any]) -> str:
    """Fingerprint of an operation spec (canonical JSON, sha256)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def analyze_spec(case: str, analyzer: str, target: Optional[Fraction],
                 state: bool = False, *, attacker_seed: Optional[int] = None,
                 alterable: Optional[Sequence[int]] = None,
                 max_pivots: Optional[int] = None) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"op": "analyze", "case": case,
                            "analyzer": analyzer, "state": bool(state),
                            "target": None if target is None
                            else str(Fraction(target))}
    if attacker_seed is not None:
        spec["attacker_seed"] = attacker_seed
    if alterable is not None:
        spec["alterable"] = sorted(int(i) for i in alterable)
    if max_pivots is not None:
        spec["max_pivots"] = max_pivots
    return spec


def maximize_spec(case: str, state: bool,
                  tolerance: Fraction) -> Dict[str, Any]:
    return {"op": "maximize", "case": case, "analyzer": "smt",
            "state": bool(state), "tolerance": str(Fraction(tolerance))}


# ---------------------------------------------------------------------------
# Pools (what the table is generated for)
# ---------------------------------------------------------------------------

def five_bus_specs() -> List[Dict[str, Any]]:
    return [analyze_spec(case, "smt", target, state,
                         max_pivots=PIVOT_BUDGET)
            for case in FIVE_BUS for state in (False, True)
            for target in FIVE_BUS_TARGETS]


def ieee14_specs() -> List[Dict[str, Any]]:
    return [analyze_spec("ieee14", "smt", None, attacker_seed=seed,
                         max_pivots=PIVOT_BUDGET)
            for seed in IEEE14_ATTACKER_SEEDS]


def maximize_specs() -> List[Dict[str, Any]]:
    # study 2 with state infection is left out: its I* lies above 10%,
    # and the galloping search there costs ~20x a decision query.
    return [maximize_spec(case, state, tol) for case in FIVE_BUS
            for state in (False, True) for tol in MAX_TOLERANCES
            if (case, state) != ("5bus-study2", True)]


def fast_ieee_specs() -> List[Dict[str, Any]]:
    return [analyze_spec(case, "fast", target)
            for case in ("ieee14", "ieee30") for target in FAST_IEEE_TARGETS]


def line_pairs(candidates: Sequence[int], count: int,
               seed: int) -> List[List[int]]:
    """``count`` distinct sorted line pairs drawn from ``candidates``."""
    rng = random.Random(seed)
    pairs: List[List[int]] = []
    while len(pairs) < count:
        pair = sorted(rng.sample(list(candidates), 2))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def regional_lines(adjacency: Dict[int, List[Tuple[int, int]]],
                   center: int, buses: int, lines: int,
                   rng: random.Random) -> List[int]:
    """Lines inside the breadth-first region of ``buses`` around a bus.

    ``adjacency`` maps a bus to ``(neighbour, line index)`` pairs of the
    lines the attacker could spoof.  Returns ``lines`` of the region's
    internal lines, chosen with ``rng``.
    """
    region = [center]
    seen = {center}
    cursor = 0
    while cursor < len(region) and len(region) < buses:
        for neighbour, _ in sorted(adjacency.get(region[cursor], [])):
            if neighbour not in seen and len(region) < buses:
                seen.add(neighbour)
                region.append(neighbour)
        cursor += 1
    internal = sorted({line for bus in region
                       for neighbour, line in adjacency.get(bus, [])
                       if neighbour in seen})
    if len(internal) < lines:
        return []
    return sorted(rng.sample(internal, lines))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One timed operation."""

    id: int
    cls: str
    spec: Dict[str, Any]
    #: for ``repeat`` operations: the id of the earlier op repeated.
    ref: Optional[int] = None
    #: closed-loop client that sends the op (serve workload only).
    client: int = 0

    @property
    def key(self) -> str:
        return spec_key(self.spec)


def table_entries(table: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Table entries in a fixed order (by key)."""
    entries = table["entries"]
    return [dict(entries[key], key=key) for key in sorted(entries)]


def _five_bus_class(spec: Dict[str, Any], verdict: str) -> str:
    study = "s1" if spec["case"] == "5bus-study1" else "s2"
    return f"{study}{'x' if spec['state'] else ''}-{verdict}"


def classify(entry: Dict[str, Any]) -> Optional[Tuple[str, str]]:
    """(workload family, class name) of a table entry, None if unused."""
    spec = entry["spec"]
    verdict = entry["verdict"]
    if spec["op"] == "maximize":
        study = _five_bus_class(spec, "").rstrip("-")
        return ("max", f"max-{study}-{spec['tolerance']}")
    case = spec["case"]
    if case in FIVE_BUS:
        return ("smt5", _five_bus_class(spec, verdict))
    if case == "ieee14" and spec["analyzer"] == "smt":
        return ("smt14", "ieee14-budget")
    if case in ("ieee14", "ieee30") and spec["analyzer"] == "fast":
        return ("fastieee", f"{case}-fast")
    if case == "synth1354":
        return ("grid", entry.get("grid_class"))
    if case == "synth300":
        return ("gridwarm", "synth300")
    if case == "ieee118":
        return ("region", "ieee118")
    return None


def pools(table: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    """Table entries grouped by class name."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for entry in table_entries(table):
        label = classify(entry)
        if label is None or label[1] is None:
            continue
        grouped.setdefault(label[1], []).append(entry)
        if label[0] == "max":
            grouped.setdefault("max", []).append(entry)
    return grouped


#: per-round class counts of each workload.  One round is the unit of
#: timed work; ``rounds_for`` scales the number of rounds with --seconds.
ROUNDS = {
    # the 5-bus classes cost ~0.25 s (s1/s2 sat), ~0.4 s (s1 unsat,
    # s1x sat, s2 unsat), ~0.5-0.7 s (s2x sat, s1x unsat) and the heavy
    # ones over 1 s: four light and six slower ops around twelve middle
    # ones put the median in the middle of the ~0.4 s band.  The one
    # maximize op is always the paper's case study 1 (its cost does not
    # vary with the seed).
    "exact_smt": {"s1-sat": 2, "s2-sat": 2, "s1-unsat": 4, "s1x-sat": 4,
                  "s2-unsat": 4, "s2x-sat": 2, "s1x-unsat": 2,
                  "ieee14-budget": 1, "max-s1-1/8": 1},
    # light variants (two infeasible candidates) cost ~4.5 s, the heavy
    # one (one feasible candidate, bisected) more: three light ops below
    # one heavy op put the median among the light ones.
    "fast_grid": {"light": 3, "heavy": 1},
    # cache-read repeats ~0.05 s, warm exact sat ~0.09 s, exact unsat
    # ~0.3 s, fast ~0.4 s, maximize ~1.2 s: six repeats below and six
    # slower ops above the four sat ops put the median among the sat ops.
    "serve_mixed": {"repeat": 6, "s1-sat": 1, "s1x-sat": 1, "s2-sat": 1,
                    "s2x-sat": 1, "s1-unsat": 1, "s1x-unsat": 1,
                    "s2-unsat": 1, "ieee14-fast": 1, "ieee30-fast": 1,
                    "max": 1},
    "sweep_pool": {"sweep": 1},
}
#: nominal seconds one round takes on the reference host.
ROUND_SECONDS = {"exact_smt": 11.0, "fast_grid": 20.0,
                 "serve_mixed": 1.25, "sweep_pool": 6.0}
#: sweep operations: every regional group at three seeded targets.  All
#: groups take part because their costs differ up to ninefold, so a seed
#: choosing groups would choose the op's cost; three cells per group
#: because the engine splits a group into one unit per worker, and a
#: unit needs two cells to reuse a warm analyzer.
SWEEP_GROUPS = IEEE118_REGIONS
SWEEP_TARGETS = 3


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _draw(pool: List[Dict[str, Any]], count: int, rng: random.Random,
          taken: set) -> List[Dict[str, Any]]:
    free = [entry for entry in pool if entry["key"] not in taken]
    if len(free) < count:
        raise ValueError(f"pool too small: need {count}, have {len(free)}")
    chosen = rng.sample(free, count)
    taken.update(entry["key"] for entry in chosen)
    return chosen


def warmup_ops(workload: str, seed: int,
               table: Dict[str, Any]) -> List[Op]:
    """Untimed warm-up operations, disjoint from the timed ones."""
    grouped = pools(table)
    rng = _rng(workload, seed, "warmup")
    taken: set = set()
    specs: List[Dict[str, Any]] = []
    if workload == "exact_smt":
        for cls in ("s1-sat", "s1x-sat", "s2-sat", "s2x-sat"):
            specs += [e["spec"] for e in _draw(grouped[cls], 1, rng, taken)]
    elif workload == "fast_grid":
        specs += [e["spec"] for e in _draw(grouped["synth300"], 1, rng,
                                           taken)]
    elif workload == "serve_mixed":
        for cls in ("s1-sat", "s1x-sat", "s2-sat", "s2x-sat",
                    "ieee14-fast", "ieee30-fast"):
            specs += [e["spec"] for e in _draw(grouped[cls], 1, rng, taken)]
    elif workload == "sweep_pool":
        specs.append(_sweep_spec(grouped["ieee118"], rng))
    return [Op(i, "warmup", spec) for i, spec in enumerate(specs)]


def _sweep_spec(pool: List[Dict[str, Any]],
                rng: random.Random) -> Dict[str, Any]:
    variants = sorted({json.dumps(e["spec"]["alterable"]) for e in pool})
    groups = rng.sample(variants, SWEEP_GROUPS)
    targets = sorted(rng.sample([str(t) for t in IEEE118_TARGETS],
                                SWEEP_TARGETS), key=Fraction)
    cells = [analyze_spec("ieee118", "fast", Fraction(target),
                          alterable=json.loads(group))
             for group in groups for target in targets]
    return {"op": "sweep", "cells": cells}


def timed_ops(workload: str, seed: int, seconds: float,
              table: Dict[str, Any]) -> List[Op]:
    """The timed operations of one run, in execution order.

    Class counts are ``ROUNDS[workload]`` times the number of rounds;
    the seed picks pool entries (without replacement within a run, and
    never one the warm-up used) and shuffles the order.
    """
    grouped = pools(table)
    counts = {cls: n * rounds_for(workload, seconds)
              for cls, n in ROUNDS[workload].items()}
    taken = {op.key for op in warmup_ops(workload, seed, table)}
    rng = _rng(workload, seed, "timed")
    drawn: List[Tuple[str, Dict[str, Any]]] = []
    for cls in sorted(counts):
        if cls in ("repeat", "sweep"):
            continue
        drawn += [(cls, e["spec"])
                  for e in _draw(grouped[cls], counts[cls], rng, taken)]
    if workload == "sweep_pool":
        drawn += [("sweep", _sweep_spec(grouped["ieee118"], rng))
                  for _ in range(counts["sweep"])]
    rng.shuffle(drawn)
    ops = [Op(i, cls, spec) for i, (cls, spec) in enumerate(drawn)]
    if counts.get("repeat"):
        ops = _with_repeats(ops, counts["repeat"], rng)
    return ops


def _with_repeats(ops: List[Op], repeats: int,
                  rng: random.Random) -> List[Op]:
    """Assign the two serve clients and insert cache-read repeats.

    Ops alternate between the two closed-loop clients.  Each repeat goes
    to the client that sent its original, after that client's next
    request (or last, when the original is the client's last op), so
    the original has completed and been cached before the repeat is
    sent.
    """
    ops = [Op(op.id, op.cls, op.spec, client=i % 2)
           for i, op in enumerate(ops)]
    exact = [op for op in ops if op.spec["op"] == "analyze"
             and op.spec["analyzer"] == "smt"]
    result = list(ops)
    for original in rng.sample(exact, repeats):
        later = [i for i, op in enumerate(result)
                 if op.client == original.client
                 and i > result.index(original)]
        insert_at = later[0] + 1 if later else len(result)
        result.insert(insert_at, Op(-1, "repeat", original.spec,
                                    ref=original.id,
                                    client=original.client))
    renumber = {op.id: i for i, op in enumerate(result) if op.ref is None}
    return [Op(i, op.cls, op.spec,
               None if op.ref is None else renumber[op.ref], op.client)
            for i, op in enumerate(result)]
