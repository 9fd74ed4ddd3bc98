"""Weighted least squares state estimation (paper Eq. 1).

Estimates the non-reference bus angles from the taken measurements:

    x_hat = (H^T W H)^{-1} H^T W z

where ``H`` is the taken-rows slice of the full measurement matrix for the
topology the EMS currently believes (supplied by the topology processor),
and ``W`` is the diagonal inverse-variance weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelError, NotObservableError
from repro.estimation.measurement import MeasurementPlan
from repro.grid.matrices import measurement_matrix, state_order
from repro.grid.network import Grid
from repro.numerics import GuardedFactorization, guarded_rank, sparse_lu


@dataclass
class StateEstimate:
    """Result of a WLS estimation run.

    ``angles`` includes the reference bus (fixed at zero).  ``flows`` and
    ``loads`` are the quantities the EMS derives from the estimate and
    feeds into OPF: line flows of the believed topology and per-bus
    consumptions (paper: "summing up the net power flows incident on a bus
    yields the estimated power (or load) at that bus").
    """

    angles: Dict[int, float]
    flows: Dict[int, float]
    consumption: Dict[int, float]
    residual_norm: float
    estimated_measurements: np.ndarray
    taken_indices: List[int]

    def estimated_loads(self, grid: Grid,
                        dispatch: Dict[int, float]) -> Dict[int, float]:
        """Loads implied by the estimate given known generator outputs.

        Paper Eq. 9: P_j^B = P_j^D - P_j^G, so P_j^D = P_j^B + P_j^G.
        Generation measurements are assumed secure (paper Section II-F).
        """
        loads = {}
        for bus, consumption in self.consumption.items():
            loads[bus] = consumption + dispatch.get(bus, 0.0)
        return loads


class WlsEstimator:
    """WLS estimator bound to a measurement plan and a believed topology."""

    def __init__(self, plan: MeasurementPlan,
                 topology: Optional[Iterable[int]] = None,
                 weights: Optional[np.ndarray] = None) -> None:
        self.plan = plan
        self.grid = plan.grid
        self.topology = sorted(topology) if topology is not None else [
            line.index for line in self.grid.lines if line.in_service]
        self.taken = plan.taken_indices()
        if not self.taken:
            raise ModelError("no measurements taken")
        if weights is None:
            weights = np.ones(len(self.taken))
        if len(weights) != len(self.taken):
            raise ModelError("one weight per taken measurement required")
        self._weights = np.asarray(weights, dtype=float)
        self.H = measurement_matrix(self.grid, self.topology)[
            [i - 1 for i in self.taken]]
        self.W = sp.diags(self._weights, format="csr")
        gain = (self.H.T @ self.W @ self.H).tocsc()
        # Matrix-scaled rank tolerance: numpy's machine-epsilon default
        # lets near-rank-deficient plans pass observability and then
        # estimate garbage through a raw inverse of the near-singular
        # gain matrix.  One SuperLU factorization of the gain serves
        # both the rank (on large systems) and every solve.
        lu = sparse_lu(gain)
        rank = guarded_rank(gain, context="WLS gain matrix", lu=lu)
        if rank < self.grid.num_buses - 1:
            detail = ("singular gain (SuperLU zero pivot)" if lu is None
                      else f"gain rank {rank} < {self.grid.num_buses - 1}")
            raise NotObservableError(
                f"measurement set leaves the system unobservable "
                f"({detail})")
        self._gain = GuardedFactorization(gain, context="WLS gain matrix",
                                          lu=lu)
        self._hat: Optional[np.ndarray] = None
        self._residual_sensitivity: Optional[np.ndarray] = None

    def estimate(self, z: np.ndarray) -> StateEstimate:
        """Run WLS on readings *z* (taken-measurement order)."""
        if len(z) != len(self.taken):
            raise ModelError(
                f"expected {len(self.taken)} readings, got {len(z)}")
        z = np.asarray(z, dtype=float)
        x_hat = self._gain.solve(self.H.T @ (self._weights * z))
        estimated = self.H @ x_hat
        residual = float(np.linalg.norm(z - estimated))

        order = state_order(self.grid)
        angles = {self.grid.reference_bus: 0.0}
        for position, bus in enumerate(order):
            angles[bus] = float(x_hat[position])

        flows: Dict[int, float] = {}
        for line_index in self.topology:
            line = self.grid.line(line_index)
            flows[line_index] = float(line.admittance) * (
                angles[line.from_bus] - angles[line.to_bus])
        consumption: Dict[int, float] = {}
        for bus in self.grid.buses:
            total = 0.0
            for line in self.grid.lines_in(bus.index):
                total += flows.get(line.index, 0.0)
            for line in self.grid.lines_out(bus.index):
                total -= flows.get(line.index, 0.0)
            consumption[bus.index] = total

        return StateEstimate(angles, flows, consumption, residual,
                             estimated, list(self.taken))

    @property
    def hat_matrix(self) -> np.ndarray:
        """K = H (H^T W H)^{-1} H^T W — maps readings to fitted values.

        Computed once through the verified gain factorization (a solve,
        not the explicit inverse) and cached.  The hat matrix is dense
        m x m by definition, so it is materialized only when this
        property is read (bad-data detection runs on the small cases,
        not the 10k-bus sweeps).
        """
        if self._hat is None:
            self._hat = self.H @ self._gain.solve(
                (self.H.T @ self.W).toarray())
        return self._hat

    @property
    def residual_sensitivity(self) -> np.ndarray:
        """S = I - K — maps readings to residuals (cached)."""
        if self._residual_sensitivity is None:
            self._residual_sensitivity = \
                np.eye(len(self.taken)) - self.hat_matrix
        return self._residual_sensitivity
