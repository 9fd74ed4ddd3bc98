"""Synthetic IEEE-like systems for the scalability evaluation.

The paper scales its experiments over the IEEE 14/30/57/118-bus systems
with 5/6/7/23 generators respectively.  The archive data is not available
offline, so the 30/57/118-bus systems are synthesized with the authentic
dimensions — bus count, branch count (41/80/186) and generator count — and
realistic parameter distributions.  The evaluation only exercises *problem
size* (number of buses, lines, generators and measurements), which these
systems reproduce exactly; see DESIGN.md for the substitution rationale.

The topology generator produces meshed networks of the kind transmission
grids exhibit: a random geometric backbone (each bus connects to nearby
buses by index locality) plus longer chords, guaranteed connected.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.grid.caseio import CaseDefinition
from repro.grid.cases.builders import finalize_case


def random_topology(num_buses: int, num_lines: int, seed: int,
                    span: Optional[int] = None,
                    tie_probability: float = 0.15,
                    tie_span: Optional[int] = None
                    ) -> List[Tuple[int, int, float]]:
    """A connected meshed topology with seeded reactances.

    Strategy: chain backbone 1-2-...-n (locality), then add chords with
    index-local bias until the branch budget is exhausted.  Reactances are
    drawn from a spread matching typical transmission lines (0.02-0.35
    p.u. on a 100 MVA base).

    ``span`` bounds how far a chord reaches from its anchor bus (default:
    ``num_buses // 6``, the historical behaviour).  ``tie_probability``
    chords instead jump anywhere within ``tie_span`` of the anchor
    (default: the whole system).  The thousand-bus synthetic cases pass
    small spans so the susceptance matrix keeps a transmission-like
    bandwidth instead of degenerating into a random graph.

    The chord phase is randomized but the line count is *guaranteed*: a
    deterministic completion sweep fills any remaining budget with the
    nearest unused local pairs, so every call returns exactly
    ``num_lines`` branches.
    """
    if num_lines < num_buses - 1:
        raise ValueError("need at least n-1 lines for connectivity")
    if num_lines > num_buses * (num_buses - 1) // 2:
        raise ValueError("line budget exceeds the complete graph")
    rng = random.Random(seed)
    edges = set()
    branches: List[Tuple[int, int, float]] = []

    def add(f: int, t: int) -> bool:
        if f == t:
            return False
        key = (min(f, t), max(f, t))
        if key in edges:
            return False
        edges.add(key)
        reactance = round(rng.uniform(0.02, 0.35), 5)
        branches.append((key[0], key[1], reactance))
        return True

    # Backbone chain with occasional shuffling for irregularity.
    order = list(range(1, num_buses + 1))
    for i in range(len(order) - 1):
        add(order[i], order[i + 1])

    if span is None:
        span = max(2, num_buses // 6)
    attempts = 0
    while len(branches) < num_lines and attempts < num_lines * 200:
        attempts += 1
        f = rng.randint(1, num_buses)
        t = f + rng.randint(-span, span)
        if rng.random() < tie_probability:
            if tie_span is None:
                t = rng.randint(1, num_buses)  # long-distance tie
            else:
                t = f + rng.randint(-tie_span, tie_span)
        if 1 <= t <= num_buses:
            add(f, t)

    # Deterministic completion: nearest unused local pairs, shortest
    # reach first, so the returned branch count is always exact.
    reach = 2
    while len(branches) < num_lines and reach < num_buses:
        for f in range(1, num_buses - reach + 1):
            if len(branches) >= num_lines:
                break
            add(f, f + reach)
        reach += 1
    return branches


def synthetic_case(name: str, num_buses: int, num_lines: int,
                   num_generators: int, seed: int,
                   span: Optional[int] = None,
                   tie_probability: float = 0.15,
                   tie_span: Optional[int] = None) -> CaseDefinition:
    """A complete IEEE-like case with the given dimensions.

    The ``span``/``tie_probability``/``tie_span`` knobs are forwarded to
    :func:`random_topology`; the defaults reproduce the historical
    IEEE-30/57/118 substitutes byte for byte.
    """
    rng = random.Random(seed * 7919 + 13)
    branches = random_topology(num_buses, num_lines, seed, span=span,
                               tie_probability=tie_probability,
                               tie_span=tie_span)
    gen_buses = sorted(rng.sample(range(1, num_buses + 1), num_generators))
    # ~70% of the remaining buses carry load.
    load_buses = [b for b in range(1, num_buses + 1)
                  if b not in set(gen_buses) or rng.random() < 0.3]
    load_buses = [b for b in load_buses if rng.random() < 0.75]
    if not load_buses:
        load_buses = [b for b in range(1, num_buses + 1)
                      if b not in set(gen_buses)][:1]
    loads: Dict[int, float] = {
        bus: round(rng.uniform(0.05, 0.35), 3) for bus in load_buses
    }
    return finalize_case(name, branches, loads, gen_buses,
                         num_buses=num_buses, seed=seed)


def ieee30(seed: int = 30) -> CaseDefinition:
    """IEEE-30-like: 30 buses, 41 branches, 6 generators (paper's counts)."""
    return synthetic_case("ieee30", 30, 41, 6, seed)


def ieee57(seed: int = 57) -> CaseDefinition:
    """IEEE-57-like: 57 buses, 80 branches, 7 generators (paper's counts)."""
    return synthetic_case("ieee57", 57, 80, 7, seed)


def ieee118(seed: int = 118) -> CaseDefinition:
    """IEEE-118-like: 118 buses, 186 branches, 23 generators."""
    return synthetic_case("ieee118", 118, 186, 23, seed)


def _scaling_case(name: str, num_buses: int, num_lines: int,
                  num_generators: int, seed: int) -> CaseDefinition:
    """A thousand-bus-class case for the scaling axis.

    Small chord spans keep the susceptance matrix banded the way real
    transmission interconnects are (geographic locality), which is what
    makes sparse factorization pay off.  The 6% medium-range ties
    (span <= 512) bound the graph's effective diameter: without them a
    chain-of-thousands backbone drives the susceptance spectrum's
    spread (and hence the WLS gain matrix's) to the 1e-8 rank cutoff,
    where an LU-pivot rank decision turns fragile; with *global* ties
    instead, fill-reducing orderings cannot recover a narrow profile
    and LU fill-in explodes.  This middle ground keeps cond(B) ~
    1e5-1e6 at 2869 buses, so the gain rank is decisively full.
    """
    return synthetic_case(name, num_buses, num_lines, num_generators,
                          seed, span=8, tie_probability=0.06,
                          tie_span=512)


def synth300(seed: int = 300) -> CaseDefinition:
    """300 buses, 411 branches, 30 generators (Polish-300 dimensions)."""
    return _scaling_case("synth300", 300, 411, 30, seed)


def synth1354(seed: int = 1354) -> CaseDefinition:
    """1354 buses, 1991 branches, 80 generators (PEGASE-1354 class)."""
    return _scaling_case("synth1354", 1354, 1991, 80, seed)


def synth2869(seed: int = 2869) -> CaseDefinition:
    """2869 buses, 4582 branches, 120 generators (PEGASE-2869 class)."""
    return _scaling_case("synth2869", 2869, 4582, 120, seed)


def synth10000(seed: int = 10000) -> CaseDefinition:
    """10000 buses, 13500 branches, 250 generators (10k-bus class)."""
    return _scaling_case("synth10000", 10000, 13500, 250, seed)
