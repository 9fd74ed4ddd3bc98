"""Shift-factor (PTDF) formulation of DC-OPF with LODF/LCDF corrections.

This is the paper's second scalability idea (Section IV-A): replace the
angle variables with generation-to-load distribution factors so the OPF
has only the generator outputs as decision variables, and handle a single
line exclusion (or inclusion) through line-outage / line-closure
distribution factors instead of rebuilding the network equations.

The formulation is mathematically equivalent to the angle formulation for
the same topology (verified in the tests) but solves much faster because
the LP drops from ``b + g`` variables and ``b + 2l`` constraints to ``g``
variables and at most ``2l + 1`` constraints, and the susceptance
factorization is computed once per base topology.

The flow model is built from the *generator columns* of the PTDF (one
batched factorized solve) plus one solve per demand vector — the full
l x b PTDF array is never formed.  On large systems (at least
:data:`~repro.numerics.LARGE_SYSTEM_STATES` non-reference buses) the LP
additionally uses *row generation*: it starts with no line-capacity rows
and adds only the rows a candidate dispatch actually violates, so each
solve touches the handful of shift-factor rows it binds instead of all
``2l``.  (The restricted LP is a relaxation
of the full one, so an infeasible restriction proves infeasibility and a
violation-free optimum is the true optimum.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import ModelError
from repro.grid.matrices import active_lines
from repro.grid.network import Grid
from repro.grid.sensitivities import (
    compute_ptdf,
    lcdf_column,
    lodf_column,
)
from repro.numerics import LARGE_SYSTEM_STATES
from repro.opf.dcopf import DcOpfResult
from repro.smt.rational import to_fraction

#: Safety cap on row-generation rounds before falling back to the full LP.
_MAX_ROW_GENERATION_ROUNDS = 50


@dataclass
class TopologyChange:
    """A single-line deviation from the base topology."""

    kind: str          # "exclude" or "include"
    line_index: int

    def __post_init__(self) -> None:
        if self.kind not in ("exclude", "include"):
            raise ModelError(f"unknown topology change kind {self.kind!r}")


class ShiftFactorOpf:
    """Reusable PTDF-based OPF for one base topology.

    Build once, then call :meth:`solve` for many load vectors and
    single-line topology changes — the pattern of the framework's
    fast impact-analysis loop.
    """

    def __init__(self, grid: Grid,
                 base_topology: Optional[Iterable[int]] = None) -> None:
        self.grid = grid
        self.base_lines = active_lines(grid, base_topology)
        self.factors = compute_ptdf(grid, self.base_lines)
        self.gen_buses = sorted(grid.generators)
        #: cumulative work counters for sweep traces.
        self.solve_calls = 0
        self.solve_seconds = 0.0
        #: capacity rows materialized by row generation (large systems).
        self.rows_generated = 0
        self._row_generation = grid.num_buses - 1 >= LARGE_SYSTEM_STATES
        self._gen_flow: Optional[np.ndarray] = None
        # Warm-started active sets per topology change, so bisection
        # loops re-solve with yesterday's binding rows already present.
        self._active_rows: Dict[Optional[Tuple[str, int]],
                                Set[Tuple[int, int]]] = {}

    # -- flow model -----------------------------------------------------

    def gen_flow_matrix(self) -> np.ndarray:
        """Base-topology flows per unit generator output (l x g)."""
        if self._gen_flow is None:
            self._gen_flow = self.factors.columns(self.gen_buses)
        return self._gen_flow

    def _flow_model(self, change: Optional[TopologyChange],
                    demand: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """``(flow_gen, flow_base, line order)`` for a topology change.

        ``flows = flow_gen @ p + flow_base`` for generator outputs
        ``p``.  The base model is one batched solve for the generator
        columns plus one solve for the demand; changes are rank-1
        LODF/LCDF corrections of those vectors — never a new
        factorization.
        """
        flow_gen = self.gen_flow_matrix()
        flow_base = self.factors.flows_for_injections(-demand)
        lines = list(self.factors.lines)
        if change is None:
            return flow_gen, flow_base, lines
        if change.kind == "exclude":
            k = self.factors.row_of(change.line_index)
            column = lodf_column(self.factors, change.line_index)
            # flow_i' = flow_i + LODF_i * flow_k ; row k removed.
            flow_gen = flow_gen + np.outer(column, flow_gen[k])
            flow_base = flow_base + column * flow_base[k]
            flow_gen = np.delete(flow_gen, k, axis=0)
            flow_base = np.delete(flow_base, k)
            lines.pop(k)
            return flow_gen, flow_base, lines
        # Inclusion: the closed line's flow as a linear operator over
        # injections, from the cached base factorization.
        if change.line_index in self.factors.lines:
            raise ModelError(
                f"line {change.line_index} is already in the base topology")
        line = self.grid.line(change.line_index)
        y = float(line.admittance)
        x_thevenin = self.factors.thevenin_impedance(line.from_bus,
                                                     line.to_bus)
        scale = 1.0 / (1.0 + y * x_thevenin)
        # delta-theta sensitivity row over bus injections.
        dtheta = self.factors.open_line_flow_row(change.line_index)
        new_row_gen = scale * np.array(
            [dtheta[bus - 1] for bus in self.gen_buses])
        new_base = scale * float(dtheta @ (-demand))
        column = lcdf_column(self.factors, change.line_index)
        flow_gen = flow_gen + np.outer(column, new_row_gen)
        flow_base = flow_base + column * new_base
        flow_gen = np.vstack([flow_gen, new_row_gen])
        flow_base = np.append(flow_base, new_base)
        lines.append(change.line_index)
        return flow_gen, flow_base, lines

    # -- solve ------------------------------------------------------------

    def solve(self, loads: Optional[Dict[int, Fraction]] = None,
              change: Optional[TopologyChange] = None,
              binding_tolerance: float = 1e-6) -> DcOpfResult:
        """OPF for the given loads and optional single-line change."""
        started = time.perf_counter()
        try:
            return self._solve(loads, change, binding_tolerance)
        finally:
            self.solve_calls += 1
            self.solve_seconds += time.perf_counter() - started

    def _solve(self, loads: Optional[Dict[int, Fraction]],
               change: Optional[TopologyChange],
               binding_tolerance: float) -> DcOpfResult:
        grid = self.grid
        if change is not None and change.kind == "exclude":
            remaining = [i for i in self.base_lines
                         if i != change.line_index]
            if not grid.is_connected(remaining):
                return DcOpfResult(False, None)

        demand = np.zeros(grid.num_buses)
        if loads is None:
            for load in grid.loads.values():
                demand[load.bus - 1] = float(load.existing)
        else:
            for bus, value in loads.items():
                demand[bus - 1] = float(value)

        flow_gen, flow_base, line_order = self._flow_model(change, demand)

        num_gens = len(self.gen_buses)
        c = np.array([float(grid.generators[b].cost_beta)
                      for b in self.gen_buses])
        bounds = [(float(grid.generators[b].p_min),
                   float(grid.generators[b].p_max))
                  for b in self.gen_buses]
        capacities = np.array([float(grid.line(i).capacity)
                               for i in line_order])
        A_eq = np.ones((1, num_gens))
        b_eq = np.array([float(demand.sum())])

        if self._row_generation:
            result = self._solve_with_row_generation(
                change, c, bounds, A_eq, b_eq,
                flow_gen, flow_base, capacities)
        else:
            A_ub = np.vstack([flow_gen, -flow_gen])
            b_ub = np.concatenate([capacities - flow_base,
                                   capacities + flow_base])
            result = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             bounds=bounds, method="highs")
        if result is None or not result.success:
            return DcOpfResult(False, None)

        constant = sum(float(g.cost_alpha) for g in grid.generators.values())
        dispatch = {bus: to_fraction(round(result.x[k], 12))
                    for k, bus in enumerate(self.gen_buses)}
        flow_values = flow_gen @ result.x + flow_base
        flows = {line_index: to_fraction(round(float(flow_values[r]), 12))
                 for r, line_index in enumerate(line_order)}
        binding = [line_index for r, line_index in enumerate(line_order)
                   if abs(capacities[r] - abs(flow_values[r]))
                   <= binding_tolerance]
        return DcOpfResult(True,
                           to_fraction(round(result.fun + constant, 9)),
                           dispatch, flows, {}, binding)

    def _solve_with_row_generation(self, change: Optional[TopologyChange],
                                   c: np.ndarray, bounds, A_eq, b_eq,
                                   flow_gen: np.ndarray,
                                   flow_base: np.ndarray,
                                   capacities: np.ndarray):
        """Cutting-plane LP over the line-capacity rows.

        Each active row is a ``(line row, sign)`` pair for one side of
        ``|flow| <= capacity``.  The restricted LP is a relaxation of
        the full problem: infeasibility is conclusive, and an optimum
        violating no capacity is the full optimum.  The active set is
        warm-started per topology change across calls.
        """
        key = (change.kind, change.line_index) if change else None
        active = self._active_rows.setdefault(key, set())
        active = {(r, s) for r, s in active if r < flow_gen.shape[0]}
        feasibility_slack = 1e-9
        result = None
        for _ in range(_MAX_ROW_GENERATION_ROUNDS):
            if active:
                ordered = sorted(active)
                rows = np.array([r for r, _ in ordered])
                signs = np.array([float(s) for _, s in ordered])
                A_ub = signs[:, None] * flow_gen[rows]
                b_ub = capacities[rows] - signs * flow_base[rows]
            else:
                A_ub = None
                b_ub = None
            result = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                             b_eq=b_eq, bounds=bounds, method="highs")
            if not result.success:
                return result       # relaxation infeasible => infeasible
            flows = flow_gen @ result.x + flow_base
            over = flows - capacities > feasibility_slack
            under = -flows - capacities > feasibility_slack
            violated = ([(int(r), 1) for r in np.flatnonzero(over)]
                        + [(int(r), -1) for r in np.flatnonzero(under)])
            fresh = [rs for rs in violated if rs not in active]
            if not fresh:
                self._active_rows[key] = active
                return result
            active.update(fresh)
            self.rows_generated += len(fresh)
        # Degenerate cycling safety net: solve the full LP once.
        A_ub = np.vstack([flow_gen, -flow_gen])
        b_ub = np.concatenate([capacities - flow_base,
                               capacities + flow_base])
        return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       bounds=bounds, method="highs")
