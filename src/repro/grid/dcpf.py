"""DC power flow: solve ``[B][theta] = [P]`` (paper Eq. 4 / Section II-A).

Given dispatched generation and loads, computes bus angles, line flows and
bus consumptions.  The reference (slack) bus absorbs any imbalance, which
is the standard DC treatment; callers that require strict balance can
check :attr:`DcPowerFlowResult.slack_mismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.grid.matrices import active_lines, susceptance_matrix
from repro.grid.network import Grid
from repro.numerics import guarded_solve


@dataclass
class DcPowerFlowResult:
    """Solution of a DC power flow.

    ``angles`` maps every bus to its voltage phase angle (radians, with the
    reference at exactly 0).  ``flows`` maps line index to the forward-
    direction flow ``P_i^L``; excluded lines carry no entry.
    ``consumption`` maps bus index to ``P_j^B`` (paper Eq. 8 convention:
    positive means the bus absorbs power).
    """

    angles: Dict[int, float]
    flows: Dict[int, float]
    consumption: Dict[int, float]
    slack_mismatch: float

    def flow(self, line_index: int) -> float:
        return self.flows.get(line_index, 0.0)


def net_injections(grid: Grid,
                   dispatch: Optional[Dict[int, float]] = None,
                   loads: Optional[Dict[int, float]] = None) -> np.ndarray:
    """Per-bus net injection vector (generation minus load), 0-based.

    ``dispatch`` maps generator bus to output; defaults to zero output.
    ``loads`` maps bus to demand; defaults to each load's ``existing``.
    """
    injections = np.zeros(grid.num_buses)
    if dispatch:
        for bus, power in dispatch.items():
            if bus not in grid.generators:
                raise ModelError(f"dispatch for non-generator bus {bus}")
            injections[bus - 1] += float(power)
    if loads is None:
        for load in grid.loads.values():
            injections[load.bus - 1] -= float(load.existing)
    else:
        for bus, demand in loads.items():
            injections[bus - 1] -= float(demand)
    return injections


def solve_dc_power_flow(grid: Grid,
                        dispatch: Optional[Dict[int, float]] = None,
                        loads: Optional[Dict[int, float]] = None,
                        line_indices: Optional[Iterable[int]] = None
                        ) -> DcPowerFlowResult:
    """Solve the DC power flow for the given dispatch and topology.

    ``line_indices`` selects the closed lines (defaults to the lines in
    service).  Raises :class:`ModelError` if the selected topology leaves
    the grid disconnected (singular susceptance matrix).
    """
    lines = active_lines(grid, line_indices)
    if not grid.is_connected(lines):
        raise ModelError("topology is disconnected; DC power flow undefined")

    injections = net_injections(grid, dispatch, loads)
    ref = grid.reference_bus - 1
    keep = [i for i in range(grid.num_buses) if i != ref]
    B = susceptance_matrix(grid, lines, reduced=True)
    try:
        theta_reduced = guarded_solve(B, injections[keep],
                                      context="DC power flow "
                                              "susceptance matrix")
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"singular susceptance matrix: {exc}") from exc

    theta = np.zeros(grid.num_buses)
    theta[keep] = theta_reduced

    flows: Dict[int, float] = {}
    for line_index in lines:
        line = grid.line(line_index)
        flows[line_index] = float(line.admittance) * (
            theta[line.from_bus - 1] - theta[line.to_bus - 1])

    consumption: Dict[int, float] = {}
    for bus in grid.buses:
        total = 0.0
        for line in grid.lines_in(bus.index):
            total += flows.get(line.index, 0.0)
        for line in grid.lines_out(bus.index):
            total -= flows.get(line.index, 0.0)
        consumption[bus.index] = total

    # The slack bus absorbs the global imbalance.
    slack_mismatch = float(np.sum(injections))
    angles = {bus.index: float(theta[bus.index - 1]) for bus in grid.buses}
    return DcPowerFlowResult(angles, flows, consumption, slack_mismatch)
