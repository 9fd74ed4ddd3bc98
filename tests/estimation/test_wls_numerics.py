"""Numerical-integrity regressions for the WLS estimator: matrix-scaled
rank tolerance on the gain matrix and the solve-based (never
stored-inverse) hat matrix / residual sensitivity."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repro.estimation.measurement import MeasurementPlan, TelemetrySimulator
from repro.estimation.observability import is_numerically_observable
from repro.estimation.wls import WlsEstimator
from repro.exceptions import NotObservableError
from repro.grid.cases import get_case
from repro.grid.cases.builders import proportional_dispatch
from repro.grid.dcpf import solve_dc_power_flow


def _bus3_weak_case(factor):
    """5bus-study1 with bus 3's only incident lines (3 and 6) scaled.

    At small factors every measurement touching the bus-3 angle carries
    a near-vanishing coefficient, so the gain matrix is numerically
    rank-deficient even though it is full rank in exact arithmetic.
    """
    base = get_case("5bus-study1")
    case = replace(base, line_specs=list(base.line_specs),
                   measurement_specs=list(base.measurement_specs))
    scale = Fraction(factor).limit_denominator(10 ** 12)
    for index in (3, 6):
        spec = case.line_specs[index - 1]
        case.line_specs[index - 1] = replace(
            spec, admittance=spec.admittance * scale)
    return case


class TestScaledRankTolerance:
    def test_near_unobservable_plan_rejected(self):
        # numpy's machine-epsilon rank default calls this gain matrix
        # full rank; the matrix-scaled cutoff must reject the plan
        # instead of estimating through a near-singular inverse.
        grid = _bus3_weak_case(1e-4).build_grid()
        plan = MeasurementPlan.full(grid)
        gain_rank = np.linalg.matrix_rank(_gain_of(plan))
        assert gain_rank == grid.num_buses - 1  # numpy says observable
        with pytest.raises(NotObservableError) as excinfo:
            WlsEstimator(plan)
        assert "unobservable" in str(excinfo.value)

    def test_healthy_plan_still_accepted(self):
        grid = _bus3_weak_case(1).build_grid()
        estimator = WlsEstimator(MeasurementPlan.full(grid))
        assert estimator.H.shape[1] == grid.num_buses - 1

    # The weak-plan ladder: the rank decisions are properties of the
    # plan.  H's singular values shrink like f, the gain's like f**2,
    # so the observability test (on H) holds out four decades longer
    # than the estimator (on the gain) against the same 1e-8 cutoff.
    LADDER = [1, 1e-2, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]

    @pytest.mark.parametrize("factor", LADDER)
    def test_ladder_observability(self, factor):
        plan = MeasurementPlan.full(_bus3_weak_case(factor).build_grid())
        assert is_numerically_observable(plan) == (factor >= 1e-7)

    @pytest.mark.parametrize("factor", LADDER)
    def test_ladder_estimator(self, factor):
        grid = _bus3_weak_case(factor).build_grid()
        plan = MeasurementPlan.full(grid)
        if factor >= 1e-3:
            estimator = WlsEstimator(plan)
            estimate = estimator.estimate(np.zeros(len(estimator.taken)))
            assert estimate.residual_norm == pytest.approx(0.0, abs=1e-9)
        else:
            with pytest.raises(NotObservableError):
                WlsEstimator(plan)

    def test_exactly_singular_large_system_reads_unobservable(self):
        # From 299 states the rank comes from SuperLU, which refuses an
        # exactly singular matrix outright; that must read as
        # rank-deficient, never escape as an exception.
        grid = get_case("synth300").build_grid()
        full = MeasurementPlan.full(grid)
        plan = MeasurementPlan(grid, [replace(spec, taken=spec.index <= 10)
                                      for spec in full.specs])
        assert not is_numerically_observable(plan)
        with pytest.raises(NotObservableError, match="zero pivot"):
            WlsEstimator(plan)


def _gain_of(plan):
    from repro.grid.matrices import measurement_matrix

    full = measurement_matrix(
        plan.grid, [l.index for l in plan.grid.lines if l.in_service])
    H = full[[i - 1 for i in plan.taken_indices()], :].toarray()
    return H.T @ H


class TestHatMatrix:
    @pytest.fixture
    def estimator(self):
        case = get_case("5bus-study1")
        grid = case.build_grid()
        plan = MeasurementPlan.from_case(case, grid)
        taken = len(plan.taken_indices())
        weights = np.linspace(1.0, 2.0, taken)  # non-trivial W
        return WlsEstimator(plan, weights=weights)

    def test_matches_explicit_inverse_formula(self, estimator):
        H, W = estimator.H.toarray(), estimator.W.toarray()
        gain = H.T @ W @ H
        explicit = H @ np.linalg.inv(gain) @ H.T @ W
        np.testing.assert_allclose(estimator.hat_matrix, explicit,
                                   atol=1e-10)

    def test_projection_properties(self, estimator):
        K = estimator.hat_matrix
        # K is the W-weighted projection onto range(H): idempotent and
        # it reproduces anything already in the column space.
        np.testing.assert_allclose(K @ K, K, atol=1e-9)
        H = estimator.H.toarray()
        np.testing.assert_allclose(K @ H, H, atol=1e-9)

    def test_residual_sensitivity_annihilates_consistent_readings(
            self, estimator):
        S = estimator.residual_sensitivity
        np.testing.assert_allclose(
            S, np.eye(len(estimator.taken)) - estimator.hat_matrix,
            atol=1e-12)
        H = estimator.H.toarray()
        np.testing.assert_allclose(S @ H, np.zeros_like(H), atol=1e-9)

    def test_both_matrices_cached(self, estimator):
        assert estimator.hat_matrix is estimator.hat_matrix
        assert estimator.residual_sensitivity \
            is estimator.residual_sensitivity

    def test_fitted_values_agree_with_estimate(self, estimator):
        case = get_case("5bus-study1")
        grid = estimator.grid
        dispatch = {b: float(p) for b, p in proportional_dispatch(
            list(grid.generators.values()), grid.total_load()).items()}
        pf = solve_dc_power_flow(grid, dispatch)
        z = TelemetrySimulator(estimator.plan, sigma=0.001,
                               seed=3).readings(pf.flows, pf.consumption)
        estimate = estimator.estimate(z)
        np.testing.assert_allclose(estimator.hat_matrix @ z,
                                   estimate.estimated_measurements,
                                   atol=1e-9)
