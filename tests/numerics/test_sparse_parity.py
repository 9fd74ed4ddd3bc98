"""Differential tests for the sparse linear-algebra path against dense
numpy oracles.

The CSR matrices the network builders produce, the SuperLU
factorization behind the guards (solve, transpose solve, batched RHS,
fill), both routes of the matrix-scaled rank, the rank-1
Sherman-Morrison updates and the guarded layer on ndarray and sparse
inputs are checked against dense equivalents the tests compute
themselves, on randomized seeded systems.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.estimation.measurement import MeasurementPlan
from repro.estimation.wls import WlsEstimator
from repro.exceptions import NumericalInstability
from repro.grid.cases import get_case
from repro.grid.cases.synthetic import synthetic_case
from repro.grid.matrices import (
    connectivity_matrix,
    flow_matrix,
    measurement_matrix,
    susceptance_matrix,
)
from repro.numerics import (
    LARGE_SYSTEM_STATES,
    GuardedFactorization,
    SingularMatrixError,
    UpdatedSolver,
    guarded_rank,
    sparse_lu,
)


def _random_spd_system(n, seed, density=0.25):
    """A diagonally-dominant sparse system (always factorizable)."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense = dense + dense.T
    dense[np.arange(n), np.arange(n)] = np.abs(dense).sum(axis=1) + 1.0
    return dense


def _random_sparse(rows, cols, seed, density=0.3):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense


def _seeded_grid(seed):
    """A small randomized case (connected by construction)."""
    return synthetic_case(f"rand{seed}", 30, 45, 5, seed).build_grid()


def _dense_incidence(grid, lines):
    A = np.zeros((len(lines), grid.num_buses))
    for row, index in enumerate(lines):
        line = grid.line(index)
        A[row, line.from_bus - 1] = 1.0
        A[row, line.to_bus - 1] = -1.0
    return A


def _dense_measurement_matrix(grid, lines):
    """Paper Eq. 2 with the Eq. 8 consumption sign, entry by entry."""
    l, b = grid.num_lines, grid.num_buses
    forward = np.zeros((l, b))
    consumption = np.zeros((b, b))
    for index in lines:
        line = grid.line(index)
        y = float(line.admittance)
        f, t = line.from_bus - 1, line.to_bus - 1
        forward[index - 1, f] = y
        forward[index - 1, t] = -y
        consumption[f, f] -= y
        consumption[f, t] += y
        consumption[t, f] += y
        consumption[t, t] -= y
    H = np.vstack([forward, -forward, consumption])
    keep = [i for i in range(b) if i != grid.reference_bus - 1]
    return H[:, keep]


def _chain(n):
    dense = np.zeros((n, n))
    dense[np.arange(n), np.arange(n)] = 2.0
    dense[np.arange(n - 1), np.arange(1, n)] = -1.0
    dense[np.arange(1, n), np.arange(n - 1)] = -1.0
    return dense


def _off_diagonal_fill(lu, n):
    """Stored entries of L and U beyond one diagonal (L's is unit)."""
    return lu.L.nnz + lu.U.nnz - 2 * n


class TestCsrMatrix:
    """The CSR matrices of :mod:`repro.grid.matrices` against dense
    formulas assembled entry by entry."""

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_and_matvec(self, seed):
        grid = _seeded_grid(seed)
        lines = [line.index for line in grid.lines]
        H = measurement_matrix(grid)
        assert sp.isspmatrix_csr(H)
        dense = _dense_measurement_matrix(grid, lines)
        np.testing.assert_allclose(H.toarray(), dense, rtol=1e-15, atol=0)
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=dense.shape[1])
        y = rng.normal(size=dense.shape[0])
        assert np.allclose(H @ x, dense @ x)
        assert np.allclose(H.T @ y, dense.T @ y)
        X = rng.normal(size=(dense.shape[1], 4))
        assert np.allclose(H @ X, dense @ X)

    def test_from_coo_deduplicates(self):
        # Every bus's diagonal entry sums one stamp per incident line.
        grid = get_case("5bus-study1").build_grid()
        lines = [line.index for line in grid.lines]
        A = _dense_incidence(grid, lines)
        y = np.array([float(grid.line(i).admittance) for i in lines])
        np.testing.assert_allclose(
            susceptance_matrix(grid, reduced=False).toarray(),
            A.T @ np.diag(y) @ A, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_select_scale_transpose(self, seed):
        grid = _seeded_grid(seed)
        rng = np.random.default_rng(seed)
        lines = sorted(int(i) for i in rng.choice(
            [line.index for line in grid.lines], size=30, replace=False))
        dense = _dense_measurement_matrix(grid, lines)
        rows = sorted(int(r) for r in rng.choice(
            dense.shape[0], size=40, replace=False))
        np.testing.assert_allclose(
            measurement_matrix(grid, lines)[rows].toarray(), dense[rows],
            rtol=1e-15, atol=0)
        A = _dense_incidence(grid, lines)
        y = np.array([float(grid.line(i).admittance) for i in lines])
        assert np.array_equal(connectivity_matrix(grid, lines).toarray(), A)
        assert np.array_equal(flow_matrix(grid, lines).toarray(),
                              y[:, None] * A)
        assert np.array_equal(flow_matrix(grid, lines).T.toarray(),
                              (y[:, None] * A).T)
        keep = [i for i in range(grid.num_buses)
                if i != grid.reference_bus - 1]
        full = susceptance_matrix(grid, lines, reduced=False).toarray()
        np.testing.assert_allclose(
            susceptance_matrix(grid, lines).toarray(),
            full[np.ix_(keep, keep)], rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_matches_dense(self, seed):
        # The WLS gain H^T W H enters the hat matrix K = H G^-1 H^T W.
        grid = _seeded_grid(seed)
        plan = MeasurementPlan.full(grid)
        w = np.random.default_rng(seed).uniform(
            0.5, 2.0, len(plan.taken_indices()))
        estimator = WlsEstimator(plan, weights=w)
        H = _dense_measurement_matrix(
            grid, [line.index for line in grid.lines])
        W = np.diag(w)
        gain = H.T @ W @ H
        assert np.allclose(estimator.hat_matrix,
                           H @ np.linalg.solve(gain, H.T @ W), atol=1e-9)

    def test_one_norm(self):
        dense = np.array([[1.0, -4.0], [2.0, 0.5]])
        assert GuardedFactorization(dense).anorm == 4.5
        assert GuardedFactorization(sp.csr_matrix(dense)).anorm == \
            np.linalg.norm(dense, 1)


class TestSparseLU:
    """SuperLU as the guards use it, against numpy's dense LAPACK."""

    @pytest.mark.parametrize("seed", range(10))
    def test_solve_matches_numpy(self, seed):
        n = 20
        dense = _random_spd_system(n, seed)
        dense[0, 1] += 0.5                   # unsymmetric: trans matters
        lu = sparse_lu(sp.csc_matrix(dense))
        rng = np.random.default_rng(seed + 50)
        b = rng.normal(size=n)
        assert np.allclose(lu.solve(b), np.linalg.solve(dense, b),
                           atol=1e-10)
        assert np.allclose(lu.solve(b, trans="T"),
                           np.linalg.solve(dense.T, b), atol=1e-10)
        B = rng.normal(size=(n, 5))
        assert np.allclose(lu.solve(B), np.linalg.solve(dense, B),
                           atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_unsymmetric_with_pivoting(self, seed):
        rng = np.random.default_rng(seed)
        n = 15
        dense = _random_sparse(n, n, seed, density=0.4)
        dense += np.diag(rng.uniform(0.01, 0.1, n))  # weak diagonal
        if abs(np.linalg.det(dense)) < 1e-8:
            pytest.skip("singular draw")
        factorization = GuardedFactorization(sp.csr_matrix(dense))
        b = rng.normal(size=n)
        assert np.allclose(factorization.solve(b),
                           np.linalg.solve(dense, b), atol=1e-8)

    def test_singular_raises(self):
        dense = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert sparse_lu(sp.csc_matrix(dense)) is None
        with pytest.raises(NumericalInstability):
            GuardedFactorization(sp.csc_matrix(dense))

    @pytest.mark.parametrize("seed", range(10))
    def test_allow_singular_rank_matches_numpy(self, seed):
        """The LU route of guarded_rank (square and Gram) on rank-
        deficient matrices at the large-system size."""
        rng = np.random.default_rng(seed)
        n = LARGE_SYSTEM_STATES + 1
        r = n - 1 - (seed % 4)
        basis = rng.normal(size=(n, r))
        square = basis @ basis.T             # rank r, symmetric PSD
        assert guarded_rank(sp.csc_matrix(square)) == \
            np.linalg.matrix_rank(square) == r
        tall = rng.normal(size=(n + 40, r)) @ basis.T    # rank r
        assert guarded_rank(sp.csr_matrix(tall)) == \
            np.linalg.matrix_rank(tall) == r

    def test_ordering_bounds_fill_on_permuted_chain(self):
        rng = np.random.default_rng(3)
        n = 200
        perm = rng.permutation(n)
        permuted = _chain(n)[np.ix_(perm, perm)]
        lu = sparse_lu(sp.csc_matrix(permuted))
        assert _off_diagonal_fill(lu, n) <= 3 * n

    def test_fill_stays_bounded_on_chain(self):
        n = 200
        lu = sparse_lu(sp.csc_matrix(_chain(n)))
        assert _off_diagonal_fill(lu, n) <= 2 * n   # tridiagonal: no fill


class TestUpdatedSolver:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank1_update_matches_refactorization(self, seed):
        """The Sherman-Morrison path against the refactorize oracle."""
        n = 18
        dense = _random_spd_system(n, seed)
        base = GuardedFactorization(sp.csr_matrix(dense))
        rng = np.random.default_rng(seed + 10)
        u = np.zeros(n)
        u[rng.integers(0, n)] = 1.0
        u[rng.integers(0, n)] -= 1.0
        alpha = rng.uniform(0.5, 2.0)
        updated_dense = dense + alpha * np.outer(u, u)
        if abs(np.linalg.det(updated_dense)) < 1e-8:
            pytest.skip("update made the draw singular")
        solver = UpdatedSolver(base.solve, lambda x: dense @ x,
                               [(alpha, u, u)])
        b = rng.normal(size=n)
        oracle = np.linalg.solve(updated_dense, b)
        assert np.allclose(solver.solve(b), oracle, atol=1e-8)

    def test_singular_capacitance_raises(self):
        """Removing a bridge line makes the capacitance singular."""
        # 2-bus network reduced susceptance: B = [y]; removing the only
        # line (alpha = -y) zeroes it out.
        dense = np.array([[2.0]])
        base = GuardedFactorization(dense)
        with pytest.raises(SingularMatrixError):
            UpdatedSolver(base.solve,
                          lambda x: dense @ x,
                          [(-2.0, np.array([1.0]), np.array([1.0]))])


class TestGuardedSparseDispatch:
    """ndarray and sparse inputs are converted to one SuperLU path;
    each is checked against numpy's dense LAPACK on its own."""

    @pytest.mark.parametrize("seed", range(5))
    def test_guarded_factorization_parity(self, seed):
        n = 16
        dense = _random_spd_system(n, seed)
        b = np.random.default_rng(seed).normal(size=n)
        condition = np.linalg.cond(dense, 1)
        for matrix in (dense, sp.csr_matrix(dense)):
            factorization = GuardedFactorization(matrix,
                                                 context="parity test")
            # Hager's estimate is a lower bound on the 1-norm condition.
            assert condition / 10 <= factorization.condition \
                <= condition * (1 + 1e-9)
            assert np.allclose(factorization.solve(b),
                               np.linalg.solve(dense, b), atol=1e-10)

    def test_guarded_rank_parity(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 200)
            n, r = 10, 10 - (seed % 3)
            basis = rng.normal(size=(n, r))
            gram = basis @ basis.T
            for matrix in (gram, sp.csr_matrix(gram)):
                assert guarded_rank(matrix, context="t") == \
                    np.linalg.matrix_rank(gram)

    def test_sparse_singular_fails_guarded(self):
        dense = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalInstability):
            GuardedFactorization(sp.csr_matrix(dense),
                                 context="singular test").solve(
                                     np.ones(2))
