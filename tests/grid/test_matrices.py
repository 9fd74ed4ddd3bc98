"""Tests for network matrices (A, D, B, H)."""

import numpy as np
import pytest

from repro.grid.cases import get_case
from repro.grid.matrices import (
    active_lines,
    admittance_matrix,
    connectivity_matrix,
    measurement_matrix,
    state_order,
    susceptance_matrix,
)


@pytest.fixture
def grid():
    return get_case("5bus-study1").build_grid()


class TestConnectivity:
    def test_shape_and_entries(self, grid):
        A = connectivity_matrix(grid).toarray()
        assert A.shape == (7, 5)
        # Line 6: from 3 to 4.
        assert A[5, 2] == 1 and A[5, 3] == -1
        assert np.all(A.sum(axis=1) == 0)

    def test_row_selection(self, grid):
        A = connectivity_matrix(grid, [1, 6]).toarray()
        assert A.shape == (2, 5)
        assert active_lines(grid, [6, 1]) == [1, 6]

    def test_excluded_out_of_service(self, grid):
        modified = grid.with_line_statuses({6: False})
        assert active_lines(modified) == [1, 2, 3, 4, 5, 7]


class TestSusceptance:
    def test_symmetry(self, grid):
        B = susceptance_matrix(grid, reduced=False).toarray()
        assert np.allclose(B, B.T)

    def test_full_matrix_singular_reduced_not(self, grid):
        B_full = susceptance_matrix(grid, reduced=False).toarray()
        B_red = susceptance_matrix(grid, reduced=True).toarray()
        assert np.linalg.matrix_rank(B_full) == 4
        assert np.linalg.matrix_rank(B_red) == 4
        assert B_red.shape == (4, 4)

    def test_diagonal_is_sum_of_incident_admittances(self, grid):
        B = susceptance_matrix(grid, reduced=False).toarray()
        for bus in grid.buses:
            expected = sum(float(l.admittance)
                           for l in grid.lines_at(bus.index))
            assert B[bus.index - 1, bus.index - 1] == pytest.approx(expected)


class TestMeasurementMatrix:
    def test_shape(self, grid):
        H = measurement_matrix(grid).toarray()
        assert H.shape == (19, 4)

    def test_backward_rows_negate_forward(self, grid):
        H = measurement_matrix(grid).toarray()
        l = grid.num_lines
        assert np.allclose(H[:l], -H[l:2 * l])

    def test_consumption_rows_sum_flow_rows(self, grid):
        """Eq. 8: consumption at j = sum(in flows) - sum(out flows)."""
        H = measurement_matrix(grid).toarray()
        l = grid.num_lines
        for bus in grid.buses:
            expected = np.zeros(H.shape[1])
            for line in grid.lines_in(bus.index):
                expected += H[line.index - 1]
            for line in grid.lines_out(bus.index):
                expected -= H[line.index - 1]
            assert np.allclose(H[2 * l + bus.index - 1], expected)

    def test_excluded_line_rows_are_zero(self, grid):
        H = measurement_matrix(grid, [1, 2, 3, 4, 5, 7]).toarray()
        assert np.allclose(H[5], 0)      # forward flow of line 6
        assert np.allclose(H[12], 0)     # backward flow of line 6

    def test_state_order_skips_reference(self, grid):
        assert state_order(grid) == [2, 3, 4, 5]

    def test_full_rank_when_connected(self, grid):
        H = measurement_matrix(grid).toarray()
        assert np.linalg.matrix_rank(H) == grid.num_buses - 1


class TestAdmittance:
    def test_diagonal(self, grid):
        D = admittance_matrix(grid).toarray()
        assert D.shape == (7, 7)
        assert D[5, 5] == pytest.approx(5.85)
        assert np.allclose(D, np.diag(np.diag(D)))
