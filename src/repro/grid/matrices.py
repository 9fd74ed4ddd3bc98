"""Network matrices of the DC model (paper Section II).

Conventions (matching the paper):

* The connectivity matrix **A** is l x b with ``A[i, f_i] = +1`` and
  ``A[i, e_i] = -1`` for line ``i`` (0-based internally).
* **D** is the diagonal branch-admittance matrix.
* Line flows: ``P_L = D A theta`` (forward direction).
* Bus *consumption* follows paper Eq. (8): incoming minus outgoing flow,
  i.e. ``P_B = -A^T D A theta``.  (The paper's Eq. (2) writes the last
  block as ``A^T D A``; with its own Eq. (8) sign convention for
  consumption the block is the negative — we follow Eq. (8) so that the
  measurement model, the attack equations and the case studies stay
  mutually consistent.)
* The measurement matrix **H** stacks forward flows, backward flows and
  bus consumptions, restricted to a chosen topology (set of closed lines)
  with the reference-bus column dropped.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.grid.network import Grid


def _active_line_list(grid: Grid,
                      line_indices: Optional[Iterable[int]]) -> List[int]:
    if line_indices is None:
        return [line.index for line in grid.lines if line.in_service]
    return sorted(set(line_indices))


def _line_terminals(grid: Grid, active: List[int]):
    """0-based (from, to) arrays and admittances for the active lines."""
    f = np.empty(len(active), dtype=np.int64)
    t = np.empty(len(active), dtype=np.int64)
    y = np.empty(len(active))
    for row, line_index in enumerate(active):
        line = grid.line(line_index)
        f[row] = line.from_bus - 1
        t[row] = line.to_bus - 1
        y[row] = float(line.admittance)
    return f, t, y


def _state_columns(grid: Grid) -> np.ndarray:
    """Bus (0-based) -> state column, ``-1`` for the reference bus."""
    ref = grid.reference_bus - 1
    columns = np.arange(grid.num_buses, dtype=np.int64)
    columns[ref + 1:] -= 1
    columns[ref] = -1
    return columns


def _stamp(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR from triplets, summing duplicate entries."""
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def connectivity_matrix(grid: Grid,
                        line_indices: Optional[Iterable[int]] = None
                        ) -> sp.csr_matrix:
    """The l_active x b connectivity (incidence) matrix **A**.

    Rows follow the order of ``sorted(line_indices)``; use
    :func:`active_lines` for the row-to-line mapping.
    """
    active = _active_line_list(grid, line_indices)
    f, t, _ = _line_terminals(grid, active)
    rows = np.repeat(np.arange(len(active), dtype=np.int64), 2)
    cols = np.column_stack([f, t]).ravel()
    vals = np.tile(np.array([1.0, -1.0]), len(active))
    return _stamp(rows, cols, vals, (len(active), grid.num_buses))


def active_lines(grid: Grid,
                 line_indices: Optional[Iterable[int]] = None) -> List[int]:
    """Line indices corresponding to matrix rows, in row order."""
    return _active_line_list(grid, line_indices)


def admittance_matrix(grid: Grid,
                      line_indices: Optional[Iterable[int]] = None
                      ) -> sp.csr_matrix:
    """The diagonal branch admittance matrix **D** for the active lines."""
    return sp.diags(admittance_values(grid, line_indices), format="csr")


def admittance_values(grid: Grid,
                      line_indices: Optional[Iterable[int]] = None
                      ) -> np.ndarray:
    """The branch admittances (the diagonal of **D**) in row order."""
    active = _active_line_list(grid, line_indices)
    return np.array([float(grid.line(i).admittance) for i in active])


def flow_matrix(grid: Grid,
                line_indices: Optional[Iterable[int]] = None
                ) -> sp.csr_matrix:
    """The flow operator ``D A`` (line flows per bus angle vector)."""
    return (admittance_matrix(grid, line_indices)
            @ connectivity_matrix(grid, line_indices)).tocsr()


def susceptance_matrix(grid: Grid,
                       line_indices: Optional[Iterable[int]] = None,
                       reduced: bool = True) -> sp.csr_matrix:
    """The nodal susceptance matrix ``B = A^T D A``.

    With ``reduced=True`` the reference-bus row and column are removed,
    yielding the invertible (b-1)-dimensional matrix of ``B theta = P``.
    Built directly from per-line stamps.
    """
    b = grid.num_buses
    f, t, y = _line_terminals(grid, _active_line_list(grid, line_indices))
    rows = np.concatenate([f, t, f, t])
    cols = np.concatenate([f, t, t, f])
    vals = np.concatenate([y, y, -y, -y])
    if not reduced:
        return _stamp(rows, cols, vals, (b, b))
    states = _state_columns(grid)
    rows, cols = states[rows], states[cols]
    kept = (rows >= 0) & (cols >= 0)
    return _stamp(rows[kept], cols[kept], vals[kept], (b - 1, b - 1))


def measurement_matrix(grid: Grid,
                       line_indices: Optional[Iterable[int]] = None
                       ) -> sp.csr_matrix:
    """The full potential-measurement matrix **H** (paper Eq. 2).

    Shape is ``(2 * l + b, b - 1)``: every *potential* measurement gets a
    row (flows of excluded lines are structurally zero), and states are
    the non-reference bus angles.  Row layout matches the paper's
    measurement numbering:

    * rows ``0 .. l-1``  — forward flow of line ``i+1``,
    * rows ``l .. 2l-1`` — backward flow of line ``i+1-l``,
    * rows ``2l .. 2l+b-1`` — consumption at bus ``j+1-2l``.

    Consumption follows paper Eq. 8 (incoming minus outgoing): the flow
    ``(theta_f - theta_t) * y`` leaves bus f and enters bus t.
    """
    l = grid.num_lines
    b = grid.num_buses
    active = _active_line_list(grid, line_indices)
    f, t, y = _line_terminals(grid, active)
    line_rows = np.array(active, dtype=np.int64) - 1
    rows = np.concatenate([
        line_rows, line_rows,                     # forward flows
        line_rows + l, line_rows + l,             # backward flows
        2 * l + f, 2 * l + f, 2 * l + t, 2 * l + t,
    ])
    cols = _state_columns(grid)[np.concatenate([f, t, f, t, f, t, f, t])]
    vals = np.concatenate([y, -y, -y, y, -y, y, y, -y])
    kept = cols >= 0
    return _stamp(rows[kept], cols[kept], vals[kept], (2 * l + b, b - 1))


def state_order(grid: Grid) -> List[int]:
    """Bus indices corresponding to the state-vector entries."""
    return [b.index for b in grid.buses if b.index != grid.reference_bus]
