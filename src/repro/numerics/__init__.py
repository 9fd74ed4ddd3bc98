"""Numerical-integrity guardrails for the analysis core.

One linear-algebra path: ``scipy.sparse`` matrices factorized by
SuperLU (``scipy.sparse.linalg.splu``) behind condition-monitored,
residual-verified solves and a matrix-scaled rank
(:mod:`repro.numerics.guards`), the warn/fail threshold policy
(:mod:`repro.numerics.policy`) and the structured diagnostics the
guards emit (:mod:`repro.numerics.diagnostics`).  Fail-level findings
raise :class:`~repro.exceptions.NumericalInstability`, which the
analysis layers surface end to end as a ``numerical_unstable`` status
(report → sweep outcome → cache → service/fabric → CLI exit code 6)
instead of trusting silently-garbage floating point near the paper's
Eq. 37 decision boundaries.
"""

from repro.numerics.diagnostics import (
    FATAL,
    WARNING,
    NumericalDiagnostic,
    collect_diagnostics,
)
from repro.numerics.guards import (
    LARGE_SYSTEM_STATES,
    GuardedFactorization,
    SingularMatrixError,
    UpdatedSolver,
    guarded_inverse,
    guarded_rank,
    guarded_solve,
    sparse_lu,
)
from repro.numerics.policy import NumericsPolicy, default_policy, set_policy

__all__ = [
    "FATAL",
    "LARGE_SYSTEM_STATES",
    "WARNING",
    "GuardedFactorization",
    "NumericalDiagnostic",
    "NumericsPolicy",
    "SingularMatrixError",
    "UpdatedSolver",
    "collect_diagnostics",
    "default_policy",
    "guarded_inverse",
    "guarded_rank",
    "guarded_solve",
    "set_policy",
    "sparse_lu",
]
