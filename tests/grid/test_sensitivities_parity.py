"""Differential suite for the analysis pipeline against dense oracles.

Every quantity the impact analysis consumes — PTDF, LODF/LCDF columns,
WLS estimates, shift-factor OPF results — is computed by the sparse
pipeline and required to agree to floating-point noise with an oracle
the test assembles itself from ``B.toarray()`` (dense ``numpy.linalg``
solves, and a full-row HiGHS LP for the OPF), on the bundled cases and
on randomized seeded grids.  The rank-1 outage update is additionally
checked against the refactorize-from-scratch oracle, and the bridge /
islanding edge cases must fail cleanly.
"""

import random

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.exceptions import ModelError
from repro.estimation.measurement import MeasurementPlan
from repro.estimation.wls import WlsEstimator
from repro.grid.cases import get_case
from repro.grid.cases.builders import proportional_dispatch
from repro.grid.cases.synthetic import synthetic_case
from repro.grid.dcpf import net_injections
from repro.grid.matrices import (
    active_lines,
    flow_matrix,
    measurement_matrix,
    susceptance_matrix,
)
from repro.grid.sensitivities import (
    compute_ptdf,
    flows_after_exclusion,
    lcdf_column,
    lodf_column,
)
from repro.numerics import LARGE_SYSTEM_STATES
from repro.opf.shift_factor import ShiftFactorOpf, TopologyChange

CASES = ["5bus-study1", "ieee14", "ieee118"]


def _seeded_grid(seed):
    """A small randomized case (connected by construction)."""
    case = synthetic_case(f"rand{seed}", 40, 62, 6, seed)
    return case.build_grid()


def _keep(grid):
    return [i for i in range(grid.num_buses) if i != grid.reference_bus - 1]


def _dense_ptdf(grid, line_indices=None):
    """l x b PTDF from a dense inverse of ``B.toarray()``."""
    lines = active_lines(grid, line_indices)
    keep = _keep(grid)
    B = susceptance_matrix(grid, lines).toarray()
    flow = flow_matrix(grid, lines).toarray()
    ptdf = np.zeros((len(lines), grid.num_buses))
    ptdf[:, keep] = flow[:, keep] @ np.linalg.inv(B)
    return ptdf


def _dense_transfer(grid, ptdf, line_index):
    line = grid.line(line_index)
    return ptdf[:, line.from_bus - 1] - ptdf[:, line.to_bus - 1]


def _dense_opf(grid, line_indices=None):
    """(feasible, cost, dispatch) of the full-row shift-factor LP."""
    lines = active_lines(grid, line_indices)
    if not grid.is_connected(lines):
        return False, None, None
    gens = sorted(grid.generators)
    demand = np.zeros(grid.num_buses)
    for load in grid.loads.values():
        demand[load.bus - 1] = float(load.existing)
    ptdf = _dense_ptdf(grid, lines)
    flow_gen = ptdf[:, [bus - 1 for bus in gens]]
    flow_base = ptdf @ -demand
    capacities = np.array([float(grid.line(i).capacity) for i in lines])
    result = linprog(
        [float(grid.generators[b].cost_beta) for b in gens],
        A_ub=np.vstack([flow_gen, -flow_gen]),
        b_ub=np.concatenate([capacities - flow_base,
                             capacities + flow_base]),
        A_eq=np.ones((1, len(gens))), b_eq=[demand.sum()],
        bounds=[(float(grid.generators[b].p_min),
                 float(grid.generators[b].p_max)) for b in gens],
        method="highs")
    if not result.success:
        return False, None, None
    constant = sum(float(g.cost_alpha) for g in grid.generators.values())
    return True, result.fun + constant, dict(zip(gens, result.x))


class TestPtdfParity:
    @pytest.mark.parametrize("name", CASES)
    def test_full_matrix(self, name):
        grid = get_case(name).build_grid()
        assert np.allclose(compute_ptdf(grid).ptdf, _dense_ptdf(grid),
                           atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grids(self, seed):
        grid = _seeded_grid(seed)
        assert np.allclose(compute_ptdf(grid).ptdf, _dense_ptdf(grid),
                           atol=1e-9)

    @pytest.mark.parametrize("name", CASES)
    def test_rows_and_columns(self, name):
        grid = get_case(name).build_grid()
        factors = compute_ptdf(grid)
        oracle = _dense_ptdf(grid)
        rng = random.Random(11)
        for line_index in rng.sample(factors.lines, 3):
            assert np.allclose(factors.row(line_index),
                               oracle[factors.row_of(line_index)],
                               atol=1e-9)
        for bus in rng.sample([b.index for b in grid.buses], 3):
            assert np.allclose(factors.column(bus), oracle[:, bus - 1],
                               atol=1e-9)


class TestLodfLcdfParity:
    @pytest.mark.parametrize("name", CASES)
    def test_lodf_columns(self, name):
        grid = get_case(name).build_grid()
        factors = compute_ptdf(grid)
        oracle = _dense_ptdf(grid)
        for outage in factors.lines:
            remaining = [i for i in factors.lines if i != outage]
            if not grid.is_connected(remaining):
                with pytest.raises(ModelError):
                    lodf_column(factors, outage)
                continue
            k = factors.row_of(outage)
            phi = _dense_transfer(grid, oracle, outage)
            expected = phi / (1.0 - phi[k])
            expected[k] = -1.0
            assert np.allclose(lodf_column(factors, outage), expected,
                               atol=1e-8), (name, outage)

    @pytest.mark.parametrize("name", ["5bus-study1", "ieee14"])
    def test_lcdf_columns(self, name):
        grid = get_case(name).build_grid()
        all_lines = [l.index for l in grid.lines]
        rng = random.Random(5)
        for new_line in rng.sample(all_lines, min(4, len(all_lines))):
            base = [i for i in all_lines if i != new_line]
            if not grid.is_connected(base):
                continue
            oracle = _dense_ptdf(grid, base)
            assert np.allclose(lcdf_column(compute_ptdf(grid, base),
                                           new_line),
                               -_dense_transfer(grid, oracle, new_line),
                               atol=1e-8)

    def test_bridge_rejected(self):
        grid = get_case("5bus-study1").build_grid()
        factors = compute_ptdf(grid, [1, 3, 4, 5, 6, 7])
        with pytest.raises(ModelError, match="bridge"):
            lodf_column(factors, 1)


class TestRankOneUpdateOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_outage_update_matches_refactorization(self, seed):
        """Sherman-Morrison outage solves equal a fresh factorization."""
        grid = _seeded_grid(seed + 20)
        factors = compute_ptdf(grid)
        rng = random.Random(seed)
        candidates = [i for i in factors.lines
                      if grid.is_connected(
                          [j for j in factors.lines if j != i])]
        injections = np.array(
            [rng.uniform(-0.3, 0.3) for _ in range(grid.num_buses)])
        reduced = injections[_keep(grid)]
        for outage in rng.sample(candidates, 3):
            updated = factors.outage_update(outage)
            remaining = [i for i in factors.lines if i != outage]
            oracle = np.linalg.solve(
                susceptance_matrix(grid, remaining).toarray(), reduced)
            assert np.allclose(updated.solve(reduced), oracle,
                               atol=1e-8), outage

    def test_bridge_outage_update_fails(self):
        grid = get_case("5bus-study1").build_grid()
        factors = compute_ptdf(grid, [1, 3, 4, 5, 6, 7])
        from repro.numerics import SingularMatrixError
        from repro.exceptions import NumericalInstability
        with pytest.raises((SingularMatrixError, NumericalInstability,
                            ModelError)):
            factors.outage_update(1).solve(
                np.zeros(grid.num_buses - 1))


class TestWlsParity:
    @pytest.mark.parametrize("name", CASES)
    def test_estimates_agree(self, name):
        grid = get_case(name).build_grid()
        plan = MeasurementPlan.full(grid)
        rng = np.random.default_rng(13)
        m = len(plan.taken_indices())
        weights = rng.uniform(0.5, 2.0, m)
        z = rng.normal(size=m)
        estimator = WlsEstimator(plan, weights=weights)
        estimate = estimator.estimate(z)
        H = measurement_matrix(grid).toarray()
        W = np.diag(weights)
        x_hat = np.linalg.solve(H.T @ W @ H, H.T @ W @ z)
        assert estimate.residual_norm == pytest.approx(
            float(np.linalg.norm(z - H @ x_hat)), abs=1e-9)
        angles = np.zeros(grid.num_buses)
        angles[_keep(grid)] = x_hat
        for bus, angle in estimate.angles.items():
            assert angle == pytest.approx(angles[bus - 1], abs=1e-9)
        for line_index, flow in estimate.flows.items():
            line = grid.line(line_index)
            expected = float(line.admittance) * (
                angles[line.from_bus - 1] - angles[line.to_bus - 1])
            assert flow == pytest.approx(expected, abs=1e-9)
        assert np.allclose(estimator.hat_matrix,
                           H @ np.linalg.solve(H.T @ W @ H, H.T @ W),
                           atol=1e-8)


class TestDcOpfParity:
    """The shift-factor OPF against the full-row LP oracle.

    synth300 and the 300-bus random grid sit at
    :data:`~repro.numerics.LARGE_SYSTEM_STATES`, where the OPF solves by
    row generation with warm-started active sets; the smaller grids
    take the full-row LP.
    """

    @staticmethod
    def _assert_agree(result, oracle, label):
        feasible, cost, dispatch = oracle
        assert result.feasible == feasible, label
        if feasible:
            assert float(result.cost) == pytest.approx(cost, abs=1e-5), \
                label
            for bus, value in result.dispatch.items():
                assert float(value) == pytest.approx(dispatch[bus],
                                                     abs=1e-5), label

    @staticmethod
    def _assert_row_generation(opf, grid):
        large = grid.num_buses - 1 >= LARGE_SYSTEM_STATES
        assert (opf.rows_generated > 0) == large

    @pytest.mark.parametrize("name", ["5bus-study1", "ieee14", "ieee118",
                                      "synth300"])
    def test_objective_and_dispatch_agree(self, name):
        grid = get_case(name).build_grid()
        opf = ShiftFactorOpf(grid)
        self._assert_agree(opf.solve(), _dense_opf(grid), name)
        self._assert_row_generation(opf, grid)

    @pytest.mark.parametrize("name", ["5bus-study1", "ieee14", "synth300"])
    def test_topology_changes_agree(self, name):
        grid = get_case(name).build_grid()
        opf = ShiftFactorOpf(grid)
        base = list(opf.factors.lines)
        connected = [line for line in base if grid.is_connected(
            [i for i in base if i != line])]
        lines = list(dict.fromkeys(base[:4] + connected[:6]))
        oracles = {line: _dense_opf(grid, [i for i in base if i != line])
                   for line in lines}
        # The second pass re-solves every change from its warm active set.
        for _ in range(2):
            for line in lines:
                feasible, cost, _ = oracles[line]
                result = opf.solve(change=TopologyChange("exclude", line))
                assert result.feasible == feasible, (name, line)
                if feasible:
                    assert float(result.cost) == pytest.approx(
                        cost, abs=1e-5), (name, line)
        assert any(oracle[0] for oracle in oracles.values()), name
        self._assert_row_generation(opf, grid)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_grid_objectives_agree(self, seed):
        grid = (_seeded_grid(seed + 40) if seed < 2 else synthetic_case(
            "rand300", 300, 411, 30, seed + 40).build_grid())
        opf = ShiftFactorOpf(grid)
        self._assert_agree(opf.solve(), _dense_opf(grid), seed)
        self._assert_row_generation(opf, grid)


class TestExclusionFlowsParity:
    @pytest.mark.parametrize("name", ["5bus-study1", "ieee14"])
    def test_flows_after_exclusion(self, name):
        grid = get_case(name).build_grid()
        dispatch = {b: float(p) for b, p in proportional_dispatch(
            list(grid.generators.values()), grid.total_load()).items()}
        injections = net_injections(grid, dispatch)
        factors = compute_ptdf(grid)
        base = factors.flows_for_injections(injections)
        assert np.allclose(base, _dense_ptdf(grid) @ injections, atol=1e-9)
        for outage in factors.lines:
            remaining = [i for i in factors.lines if i != outage]
            if not grid.is_connected(remaining):
                continue
            # Refactorized oracle: the outaged line's slot carries zero.
            expected = np.zeros(len(factors.lines))
            rows = [factors.row_of(i) for i in remaining]
            expected[rows] = _dense_ptdf(grid, remaining) @ injections
            assert np.allclose(
                flows_after_exclusion(factors, base, outage), expected,
                atol=1e-8)
