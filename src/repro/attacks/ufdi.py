"""Undetected False Data Injection (UFDI) attack construction.

Implements the classic Liu-Ning-Reiter construction (CCS 2009): any attack
vector in the column space of the measurement matrix, ``a = H c``, shifts
the state estimate by ``c`` while leaving the bad-data residual unchanged.

Also implements the *restricted* variant the paper's attacker model needs:
find a non-zero ``c`` whose induced measurement changes touch only the
measurements the attacker can actually alter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.model import AttackerModel
from repro.estimation.measurement import MeasurementPlan
from repro.exceptions import ModelError
from repro.grid.matrices import measurement_matrix, state_order
from repro.grid.network import Grid


@dataclass
class UfdiAttack:
    """A stealthy state-shift attack.

    ``state_shift`` maps bus index to the injected angle error ``c_j``;
    ``measurement_deltas`` maps potential-measurement index to the false
    data that must be added to keep the shift undetected.
    """

    state_shift: Dict[int, float]
    measurement_deltas: Dict[int, float]

    @property
    def infected_states(self) -> List[int]:
        return sorted(b for b, shift in self.state_shift.items()
                      if abs(shift) > 1e-12)

    @property
    def altered_measurements(self) -> List[int]:
        return sorted(i for i, delta in self.measurement_deltas.items()
                      if abs(delta) > 1e-12)


def craft_attack(grid: Grid, state_shift: Dict[int, float],
                 topology: Optional[Sequence[int]] = None,
                 tolerance: float = 1e-12) -> UfdiAttack:
    """Build ``a = H c`` for a chosen state shift (perfect knowledge)."""
    order = state_order(grid)
    c = np.zeros(len(order))
    for bus, shift in state_shift.items():
        if bus == grid.reference_bus:
            raise ModelError("cannot shift the reference-bus angle")
        if bus not in order:
            raise ModelError(f"unknown state bus {bus}")
        c[order.index(bus)] = shift
    H = measurement_matrix(grid, topology)
    a = H @ c
    deltas = {i + 1: float(a[i]) for i in range(len(a))
              if abs(a[i]) > tolerance}
    shifts = {bus: float(shift) for bus, shift in state_shift.items()}
    return UfdiAttack(shifts, deltas)


def restricted_attack_space(attacker: AttackerModel,
                            topology: Optional[Sequence[int]] = None,
                            tolerance: float = 1e-9) -> np.ndarray:
    """Basis of state shifts feasible under the attacker's restrictions.

    A shift ``c`` is feasible when every *taken* measurement it perturbs
    is alterable by the attacker: rows of H belonging to taken but
    non-alterable measurements must vanish on ``c``.  Returns an
    orthonormal basis (columns) of that null space — empty (shape
    ``(n, 0)``) when the protected measurements pin every state, which is
    the Bobba et al. defense condition.
    """
    grid = attacker.grid
    H = measurement_matrix(grid, topology)
    protected_rows = [
        i - 1 for i in attacker.plan.taken_indices()
        if not attacker.can_alter_measurement(i)
    ]
    if not protected_rows:
        return np.eye(grid.num_buses - 1)
    # Null space via SVD of the (small, dense) protected rows.
    _, singular, vt = np.linalg.svd(H[protected_rows].toarray())
    rank = int(np.sum(singular > tolerance))
    return vt[rank:].T


def feasible_attack(attacker: AttackerModel,
                    magnitude: float = 0.05,
                    topology: Optional[Sequence[int]] = None
                    ) -> Optional[UfdiAttack]:
    """A concrete UFDI attack within the attacker's restrictions.

    Scales the first basis vector of the restricted space to the given
    angle magnitude and checks the resource budgets; returns None when no
    restricted stealthy attack exists (or budgets are exceeded by every
    basis direction).
    """
    basis = restricted_attack_space(attacker, topology)
    if basis.shape[1] == 0:
        return None
    grid = attacker.grid
    order = state_order(grid)
    for column in basis.T:
        scale = magnitude / max(abs(column).max(), 1e-12)
        shift = {bus: float(column[i] * scale)
                 for i, bus in enumerate(order)
                 if abs(column[i] * scale) > 1e-12}
        attack = craft_attack(grid, shift, topology)
        altered = {
            i for i in attack.altered_measurements
            if attacker.plan.is_taken(i)
        }
        if not attacker.check_alteration_set(altered):
            return attack
    return None
