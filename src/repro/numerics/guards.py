"""Condition-monitored, residual-verified linear algebra on scipy.sparse.

Replacements for raw ``inv`` / ``solve`` / ``matrix_rank`` calls in the
analysis core, all on one matrix type (``scipy.sparse``; ndarray inputs
are converted) and one factorization (SuperLU via
``scipy.sparse.linalg.splu``):

* :class:`GuardedFactorization` — an LU factorization that estimates
  its matrix's 1-norm condition number (Hager's method: a few solves
  per estimate once factorized), refuses to produce results past the
  policy's fail threshold, and verifies every solve with iterative
  refinement plus a relative-residual check.
* :func:`guarded_solve` / :func:`guarded_inverse` — one-shot wrappers.
* :func:`guarded_rank` — numerical rank with a cutoff *scaled to the
  matrix* (``s > s_max * rtol``) instead of numpy's machine-epsilon
  default, flagging near-rank-deficiency.  Below
  :data:`LARGE_SYSTEM_STATES` columns the values are singular values
  of a dense SVD; from there on they are SuperLU's ``|diag(U)|``.
* :class:`UpdatedSolver` — Sherman–Morrison/Woodbury rank-k updates of
  a factorization, for single-line outage/closure sensitivities.

Fail-level findings raise :class:`~repro.exceptions.NumericalInstability`
(the analysis layers surface these as a ``numerical_unstable`` status);
warning-level findings are emitted through
:func:`repro.numerics.diagnostics.collect_diagnostics` sinks.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.exceptions import NumericalInstability
from repro.numerics.diagnostics import (
    FATAL,
    WARNING,
    NumericalDiagnostic,
    emit,
)
from repro.numerics.policy import NumericsPolicy, default_policy

#: State count (matrix columns; non-reference buses) from which a
#: system counts as large: the reduced state of a 300-bus grid.  Large
#: systems take their rank from SuperLU pivots instead of a dense SVD,
#: and the shift-factor OPF generates capacity rows lazily.
LARGE_SYSTEM_STATES = 299


class SingularMatrixError(ValueError):
    """The matrix (or an update Schur complement) is numerically singular."""


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def _fail(operation: str, context: str, detail: str,
          condition: Optional[float] = None,
          residual: Optional[float] = None) -> NumericalInstability:
    diagnostic = NumericalDiagnostic(
        operation=operation, context=context, severity=FATAL,
        detail=detail, condition=condition, residual=residual)
    return NumericalInstability(diagnostic.render(), diagnostic)


def _warn(operation: str, context: str, detail: str,
          condition: Optional[float] = None,
          residual: Optional[float] = None) -> None:
    emit(NumericalDiagnostic(
        operation=operation, context=context, severity=WARNING,
        detail=detail, condition=condition, residual=residual))


def _require_finite(a: sp.csc_matrix, operation: str,
                    context: str) -> sp.csc_matrix:
    if not np.all(np.isfinite(a.data)):
        raise _fail(operation, context, "matrix contains non-finite entries")
    return a


def sparse_lu(matrix):
    """SuperLU factors of a square sparse matrix, or ``None`` when
    SuperLU finds it exactly singular (a zero pivot)."""
    try:
        return splu(sp.csc_matrix(matrix, dtype=float))
    except RuntimeError as exc:        # "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        return None


class GuardedFactorization:
    """A verified LU factorization of a square matrix.

    Factorizes once, estimates the condition number once, then serves
    any number of refined, residual-checked solves (vector or matrix
    right-hand sides) — the pattern behind the WLS gain matrix and the
    PTDF/LCDF base-susceptance matrix, where one matrix backs many
    solves.  ``lu`` reuses SuperLU factors of the same matrix already
    computed by the caller (the WLS rank check).
    """

    def __init__(self, matrix, context: str = "matrix",
                 policy: Optional[NumericsPolicy] = None,
                 lu=None) -> None:
        self.context = context
        self.policy = policy or default_policy()
        a = sp.csc_matrix(matrix, dtype=float)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"{context}: expected a square matrix, "
                             f"got shape {a.shape}")
        self._a = _require_finite(a, "factorize", context)
        self._n = a.shape[0]
        self.anorm = float(abs(a).sum(axis=0).max()) if self._n else 0.0
        self._lu = None
        if self._n:
            self._lu = lu if lu is not None else sparse_lu(a)
            if self._lu is None:
                raise _fail("factorize", context,
                            "matrix is singular to working precision")
        self.condition = self._estimate_condition()
        if self.condition >= self.policy.condition_fail:
            raise _fail(
                "factorize", context,
                f"condition estimate exceeds fail threshold "
                f"{self.policy.condition_fail:.1e}",
                condition=self.condition)
        if self.condition >= self.policy.condition_warn:
            _warn("factorize", context,
                  f"ill-conditioned (warn threshold "
                  f"{self.policy.condition_warn:.1e})",
                  condition=self.condition)

    def _raw_solve(self, rhs: np.ndarray,
                   transpose: bool = False) -> np.ndarray:
        if self._n == 0:
            return np.zeros_like(rhs)
        return self._lu.solve(rhs, trans="T" if transpose else "N")

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self._a @ x

    # -- condition estimation (Hager 1988 / Higham 1988) ---------------

    def _estimate_condition(self) -> float:
        n = self._n
        if n == 0:
            return 0.0
        with np.errstate(all="ignore"):
            x = np.full(n, 1.0 / n)
            estimate = 0.0
            for _ in range(5):
                y = self._raw_solve(x)
                if not np.all(np.isfinite(y)):
                    return float("inf")
                estimate = float(np.abs(y).sum())
                xi = np.where(y >= 0.0, 1.0, -1.0)
                z = self._raw_solve(xi, transpose=True)
                if not np.all(np.isfinite(z)):
                    return float("inf")
                j = int(np.argmax(np.abs(z)))
                if float(abs(z[j])) <= float(z @ x):
                    break
                x = np.zeros(n)
                x[j] = 1.0
        condition = self.anorm * estimate
        return condition if np.isfinite(condition) else float("inf")

    # -- verified solves ----------------------------------------------

    def _relative_residual(self, rhs: np.ndarray,
                           solution: np.ndarray) -> float:
        residual = rhs - self._matvec(solution)
        denominator = self.anorm * _max_abs(solution) + _max_abs(rhs)
        if denominator == 0.0:
            return _max_abs(residual)
        value = _max_abs(residual) / denominator
        return value if np.isfinite(value) else float("inf")

    def solve(self, rhs, operation: str = "solve") -> np.ndarray:
        """Solve ``A x = rhs`` with refinement and residual verification.

        ``rhs`` may be a vector or a matrix of stacked right-hand-side
        columns.  Raises :class:`NumericalInstability` when the verified
        relative residual cannot be driven below the policy's fail
        threshold.
        """
        b = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(b)):
            raise _fail(operation, self.context,
                        "right-hand side contains non-finite entries")
        with np.errstate(all="ignore"):
            x = self._raw_solve(b)
            if not np.all(np.isfinite(x)):
                raise _fail(operation, self.context,
                            "solve produced non-finite values",
                            condition=self.condition)
            residual = self._relative_residual(b, x)
            for _ in range(self.policy.refine_steps):
                if residual <= self.policy.residual_warn:
                    break
                correction = self._raw_solve(b - self._matvec(x))
                if not np.all(np.isfinite(correction)):
                    break
                refined = x + correction
                refined_residual = self._relative_residual(b, refined)
                if refined_residual >= residual:
                    break
                x, residual = refined, refined_residual
        if residual > self.policy.residual_fail:
            raise _fail(operation, self.context,
                        f"verified relative residual exceeds fail "
                        f"threshold {self.policy.residual_fail:.1e}",
                        condition=self.condition, residual=residual)
        if residual > self.policy.residual_warn:
            _warn(operation, self.context,
                  f"verified relative residual exceeds warn threshold "
                  f"{self.policy.residual_warn:.1e}",
                  condition=self.condition, residual=residual)
        return x

    def inverse(self) -> np.ndarray:
        """The verified explicit inverse (a solve against identity)."""
        return self.solve(np.eye(self._n), operation="inverse")

    def updated(self, updates, operation: str = "rank-1 update"
                ) -> UpdatedSolver:
        """A Sherman–Morrison/Woodbury solver for ``A + Σ α u v^T``.

        Solves against the updated matrix reuse this factorization's
        verified :meth:`solve`; a singular capacitance matrix (e.g. a
        bridge-line outage) raises :class:`NumericalInstability` with
        the same structured diagnostics as a direct factorization.
        """
        try:
            return UpdatedSolver(self.solve, self._matvec, updates)
        except SingularMatrixError as exc:
            raise _fail(operation, self.context, str(exc),
                        condition=self.condition) from None


def guarded_solve(matrix, rhs, context: str = "linear system",
                  policy: Optional[NumericsPolicy] = None) -> np.ndarray:
    """Factorize, condition-check and verify one solve of ``A x = b``."""
    return GuardedFactorization(matrix, context, policy).solve(rhs)


def guarded_inverse(matrix, context: str = "matrix inverse",
                    policy: Optional[NumericsPolicy] = None) -> np.ndarray:
    """A condition-checked, residual-verified replacement for
    ``np.linalg.inv`` (factorized solve against the identity)."""
    return GuardedFactorization(matrix, context, policy).inverse()


def guarded_rank(matrix, context: str = "matrix",
                 rtol: Optional[float] = None,
                 policy: Optional[NumericsPolicy] = None,
                 lu=None) -> int:
    """Numerical rank with a matrix-scaled cutoff.

    Counts values above ``s_max * rtol`` (policy ``rank_rtol`` by
    default, i.e. 1e-8 — far stricter than numpy's machine-epsilon
    default).  Below :data:`LARGE_SYSTEM_STATES` columns the values are
    the singular values of the matrix itself.  From there on they are
    the magnitudes of SuperLU's ``diag(U)`` for the matrix (square) or
    its Gram ``A^T A`` (rectangular; same rank for real entries);
    ``lu`` reuses factors of a square matrix the caller already holds.
    On that route a matrix SuperLU finds exactly singular returns
    ``n - 1``: SuperLU stops at the first zero pivot, so the value only
    says "deficient, at most ``n - 1``" and is not a measured rank.
    Emits a warning diagnostic when the smallest counted value sits
    within 10x of the cutoff: the rank decision itself is numerically
    fragile.
    """
    active = policy or default_policy()
    tolerance = active.rank_rtol if rtol is None else rtol
    if min(matrix.shape) == 0:
        return 0
    a = _require_finite(sp.csc_matrix(matrix, dtype=float), "rank", context)
    n = a.shape[1]
    if n < LARGE_SYSTEM_STATES:
        values = np.linalg.svd(a.toarray(), compute_uv=False)
        kind = "singular value"
    else:
        if a.shape[0] != n:
            a, lu = (a.T @ a).tocsc(), None
        if lu is None:
            lu = sparse_lu(a)
        pivots = None if lu is None else np.abs(lu.U.diagonal())
        if pivots is None or not np.all(np.isfinite(pivots)):
            return n - 1
        values = np.sort(pivots)[::-1]
        kind = "pivot"
    if values[0] == 0.0:
        return 0
    cutoff = float(values[0]) * tolerance
    rank = int(np.count_nonzero(values > cutoff))
    if rank and float(values[rank - 1]) <= cutoff * 10.0:
        _warn("rank", context,
              f"near-rank-deficient: smallest counted {kind} "
              f"{values[rank - 1]:.3e} within 10x of cutoff "
              f"{cutoff:.3e}")
    return rank


class UpdatedSolver:
    """Sherman–Morrison/Woodbury solver for ``A + U diag(alpha) V^T``.

    Wraps an existing solver for ``A`` (any callable accepting vector or
    matrix right-hand sides) with a rank-k correction.  For the
    topology-change use the updates are symmetric rank-1 terms
    ``±y_k a_k a_k^T`` (line k's admittance and reduced incidence
    vector), so adding/removing a line never re-factorizes the base.

    Raises :class:`SingularMatrixError` when the capacitance (Schur)
    matrix ``diag(1/alpha) + V^T A^-1 U`` is singular — exactly the
    bridge-outage condition of the LODF denominator.
    """

    def __init__(self, base_solve: Callable[[np.ndarray], np.ndarray],
                 base_matvec: Callable[[np.ndarray], np.ndarray],
                 updates: Sequence[Tuple[float, np.ndarray, np.ndarray]]
                 ) -> None:
        if not updates:
            raise ValueError("UpdatedSolver needs at least one update term")
        self._base_solve = base_solve
        self._base_matvec = base_matvec
        self._alphas = np.array([float(a) for a, _, _ in updates])
        if np.any(self._alphas == 0.0):
            raise ValueError("update coefficients must be nonzero")
        self._u = np.column_stack([np.asarray(u, dtype=float)
                                   for _, u, _ in updates])
        self._v = np.column_stack([np.asarray(v, dtype=float)
                                   for _, _, v in updates])
        self._z = base_solve(self._u)            # A^-1 U, one batched solve
        if self._z.ndim == 1:
            self._z = self._z[:, None]
        projected = self._v.T @ self._z
        capacitance = np.diag(1.0 / self._alphas) + projected
        k = capacitance.shape[0]
        # Singularity is cancellation between diag(1/alpha) and V^T Z,
        # so the scale must come from the *operands*: measured against
        # the (possibly fully cancelled) result, a near-zero capacitance
        # would read as full-scale and slip through.
        scale = float(max(np.max(np.abs(1.0 / self._alphas)),
                          np.max(np.abs(projected)) if projected.size
                          else 0.0))
        if scale == 0.0 or (
                abs(float(np.linalg.det(capacitance)))
                <= (scale ** k) * 1e-12):
            raise SingularMatrixError(
                "rank-1 update makes the matrix singular to working "
                "precision (capacitance matrix is singular)")
        self._capacitance = capacitance

    def solve(self, rhs) -> np.ndarray:
        """Solve ``(A + U diag(alpha) V^T) x = rhs``."""
        y = self._base_solve(np.asarray(rhs, dtype=float))
        w = np.linalg.solve(self._capacitance, self._v.T @ y)
        return y - self._z @ w

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        correction = self._u @ (self._alphas[:, None] * (self._v.T @ x)
                                if x.ndim == 2
                                else self._alphas * (self._v.T @ x))
        return self._base_matvec(x) + correction
