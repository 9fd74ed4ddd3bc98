"""Scalable impact analysis (paper Section IV-A enhancements).

The full SMT model becomes costly past ~14 buses (the paper reports the
same), so this analyzer restricts attention to *single-line* exclusion or
inclusion attacks — exactly the restriction the paper adopts for its
LODF/LCDF evaluation — and exploits problem structure:

* For a pure (no state infection) single-line attack the believed-load
  vector is a **one-parameter family**: both endpoint loads shift by the
  attacked line's flow ``f``.  The attacker-reachable range of ``f`` is
  an interval (an LP over operating points), the believed system's
  feasible range of ``f`` is an interval (parametric LP), and the
  believed optimal cost is convex in ``f`` — so the worst case sits at an
  interval endpoint, found by bisection + two OPF evaluations.

* OPF evaluations use the PTDF-based formulation with LODF/LCDF
  corrections (:class:`~repro.opf.shift_factor.ShiftFactorOpf`), so the
  network matrices are factored once per case.

* With state infection the believed loads gain extra degrees of freedom;
  the analyzer samples seeded vertices of the believed-load box
  (worst cases of a convex function lie on the boundary) and validates
  each sample against the attacker model by reconstructing the required
  state shift and measurement alterations.

Since the session refactor this module holds only the *search strategy*:
candidate enumeration and evaluation.  Preflight, budgets, certificate
bookkeeping, run notes and report assembly live once in
:class:`repro.core.session.AnalysisSession`; the
:class:`FastImpactAnalyzer` facade wires the two together.  The PTDF
factorization is inherently per-case, so the fast strategy is "warm"
from its second query onward — its ``encode_seconds`` is the one-time
pipeline build.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.attacks.model import AttackerModel
from repro.attacks.topology_poisoning import (
    craft_topology_attack,
    validate_against_attacker,
)
from repro.core.results import CandidateEvaluation, ImpactReport
from repro.core.session import AnalysisSession, SearchOutcome, SearchStrategy
from repro.exceptions import CertificateError
from repro.grid.caseio import CaseDefinition
from repro.grid.matrices import state_order
from repro.numerics import collect_diagnostics
from repro.opf.dcopf import solve_dc_opf
from repro.opf.shift_factor import ShiftFactorOpf, TopologyChange
from repro.smt.budget import SolverBudget
from repro.smt.rational import to_fraction

#: relative tolerance of the certified-mode cost recheck: the fast
#: analyzer's PTDF pipeline and the independent B-theta re-solve travel
#: different float paths, so bit-exact agreement is not expected.
_CERT_REL_TOL = 1e-6
#: absolute slack on Eq.-36 load-bound checks (believed loads are rounded
#: to 6 decimals when packed into the report).
_CERT_LOAD_TOL = 1e-5


@dataclass
class FastQuery:
    target_increase_percent: Optional[Fraction] = None
    with_state_infection: bool = False
    state_samples: int = 24
    seed: int = 0
    bisection_tolerance: float = 1e-4
    #: optional resource budget; checked between candidates (and between
    #: state-infection samples), so an exhausted run reports the best
    #: attack over the candidates already examined with
    #: ``status="budget_exhausted"``.
    budget: Optional[SolverBudget] = None
    #: certified mode: a SAT answer is re-verified by an *independent*
    #: exact OPF solve (B-theta formulation, not the PTDF pipeline that
    #: produced it) plus Eq.-36 load-bound and connectivity checks.  None
    #: defers to ``REPRO_SELF_CHECK``.  The fast analyzer's "unsat" is a
    #: bounded single-line search, so there is nothing to certify for it
    #: beyond "no check failed" — see the report's ``certified`` field.
    self_check: Optional[bool] = None
    #: Eq. 37 guard band (percentage points): when the best candidate's
    #: float cost increase lands within this band of the target, the
    #: verdict is not trusted to floating point — the believed OPF is
    #: re-solved on the exact rational path and the threshold comparison
    #: decided in Fractions (boundary escalation, noted on the report).
    #: The default is wide enough to cover the ``_CERT_REL_TOL`` slack
    #: region (1e-6 relative on cost is ~1e-4 percentage points), so a
    #: threshold replayed from an exact believed cost still escalates
    #: instead of being decided by the last bits of a float compare.
    escalation_band: float = 5e-4


class FastSearchStrategy(SearchStrategy):
    """Single-line LODF/LCDF candidate enumeration for a session."""

    kind = "fast"

    def __init__(self, case: CaseDefinition) -> None:
        self.case = case
        self._base_cost = Fraction(0)
        self.evaluations: List[CandidateEvaluation] = []
        self.attacker: Optional[AttackerModel] = None
        self.base_topology: List[int] = []
        self._sf_opf: Optional[ShiftFactorOpf] = None
        self._prepare_seconds = 0.0
        self._analyses = 0
        self._opf_calls_before = 0
        self._opf_seconds_before = 0.0

    @property
    def grid(self):
        return self.session.grid

    # ------------------------------------------------------------------
    # Session surface
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Build the per-case PTDF pipeline and solve the attack-free OPF.

        A :class:`~repro.exceptions.ModelError` propagates to the session
        (→ ``case.model_error`` rejection); an infeasible base OPF is
        reported through :meth:`AnalysisSession.note_base_infeasible`.
        """
        built = time.perf_counter()
        case, grid = self.case, self.session.grid
        self.attacker = AttackerModel.from_case(case, grid)
        self.base_topology = [l.index for l in grid.lines if l.in_service]
        self._sf_opf = ShiftFactorOpf(grid, self.base_topology)
        base = self._sf_opf.solve()
        self._prepare_seconds = time.perf_counter() - built
        if not base.feasible:
            self.session.note_base_infeasible(
                f"case {case.name}: attack-free OPF is infeasible")
            return
        self._base_cost = base.cost

    def base_cost(self) -> Fraction:
        return self._base_cost

    def make_query(self, percent: Fraction, **attrs) -> FastQuery:
        return FastQuery(target_increase_percent=percent, **attrs)

    def begin(self, query: FastQuery, threshold: Fraction) -> None:
        self.evaluations = []
        self._analyses += 1
        self._opf_calls_before = self._sf_opf.solve_calls
        self._opf_seconds_before = self._sf_opf.solve_seconds

    def search(self, query: FastQuery,
               threshold: Fraction) -> SearchOutcome:
        session = self.session
        budget = query.budget
        status = "complete"
        budget_reason: Optional[str] = None
        best: Optional[CandidateEvaluation] = None
        candidates = [("exclude", i)
                      for i in self.attacker.exclusion_candidates()]
        candidates += [("include", i)
                       for i in self.attacker.inclusion_candidates()]
        with collect_diagnostics() as search_warnings:
            for kind, line_index in candidates:
                if budget is not None and budget.exhausted():
                    status = "budget_exhausted"
                    budget_reason = budget.exhausted_reason
                    break
                evaluation = self._evaluate_candidate(
                    kind, line_index, threshold, query)
                self.evaluations.append(evaluation)
                session.record_candidate()
                if evaluation.best_increase_percent is None:
                    continue
                if best is None or (evaluation.best_increase_percent
                                    > best.best_increase_percent):
                    best = evaluation

        # The threshold encodes the target exactly, so this float equals
        # the query's target percentage bit-for-bit.
        target = float((threshold / self._base_cost - 1) * 100)
        # Eq. 37 boundary semantics: reaching the target exactly counts.
        satisfiable = best is not None \
            and best.best_increase_percent >= target
        believed_min: Optional[Fraction] = None
        in_band = best is not None \
            and abs(best.best_increase_percent - target) \
            <= query.escalation_band
        # A verdict computed under ill-conditioning warnings (from the
        # per-case PTDF build or this search's guarded solves) is never
        # trusted either, no matter how far from the boundary it lands.
        suspect = bool(search_warnings) or session.numerically_suspect
        if best is not None and (in_band or suspect):
            # Escalation: the float verdict either sits inside the guard
            # band around the Eq. 37 threshold or was computed on shaky
            # numerics, so it is re-decided on the exact path instead of
            # trusting the last few bits of a float comparison.
            exact = self._exact_verdict(best, threshold)
            if exact is None:
                satisfiable = False
            else:
                satisfiable, believed_min = exact
            session.note_boundary_escalation(
                best.kind, best.line_index, best.best_increase_percent,
                target, satisfiable,
                trigger=None if in_band else
                "was computed under ill-conditioning warnings")
        if satisfiable:
            if believed_min is None:
                believed_min = self._base_cost * to_fraction(
                    1 + best.best_increase_percent / 100)
            from repro.core.encoding import AttackVectorSolution
            solution = AttackVectorSolution(
                excluded=[best.line_index] if best.kind == "exclude" else [],
                included=[best.line_index] if best.kind == "include" else [],
                infected_states=[],
                altered_measurements=best.altered_measurements,
                compromised_buses=sorted(
                    {self.attacker.plan.location_of(m)
                     for m in best.altered_measurements}),
                believed_loads={b: to_fraction(round(v, 6))
                                for b, v in best.believed_loads.items()},
                state_shift={}, operating_dispatch={}, operating_flows={},
                operating_cost=Fraction(0))
            return SearchOutcome(satisfiable=True, solution=solution,
                                 believed_min=believed_min, status=status,
                                 budget_reason=budget_reason)
        return SearchOutcome(satisfiable=False, status=status,
                             budget_reason=budget_reason)

    def certify_outcome(self, outcome: SearchOutcome,
                        threshold: Fraction) -> None:
        stats = self._certify_solution(outcome.solution,
                                       outcome.believed_min, threshold)
        self.session.merge_cert_stats(stats)

    def _exact_verdict(self, best: CandidateEvaluation,
                       threshold: Fraction
                       ) -> Optional[Tuple[bool, Fraction]]:
        """Re-decide an Eq. 37 boundary verdict on the exact path.

        The best candidate's believed OPF is re-solved with the angle
        formulation — exact rational simplex up to 30 buses, mirroring
        the certified-mode method split — and the threshold comparison
        happens in Fractions, with the same :data:`_CERT_REL_TOL`
        relative slack the certified recheck applies (the candidate's
        loads travelled through the float PTDF pipeline, so demanding
        bit-exact threshold attainment would flip verdicts that
        certification itself accepts).  Returns ``(satisfiable,
        believed_cost)``, or None when the believed OPF is infeasible
        on the independent path (the candidate is then not trusted:
        verdict falls to unsat).
        """
        loads = {bus: to_fraction(round(value, 6))
                 for bus, value in best.believed_loads.items()}
        topology = self._believed_topology(best.kind, best.line_index)
        method = "exact" if self.grid.num_buses <= 30 else "highs"
        result = solve_dc_opf(self.grid, loads=loads,
                              line_indices=topology, method=method)
        if not result.feasible:
            return None
        satisfiable = result.cost >= threshold \
            or float(result.cost) \
            >= float(threshold) * (1 - _CERT_REL_TOL) - 1e-9
        return bool(satisfiable), to_fraction(result.cost)

    # ------------------------------------------------------------------
    # Trace hooks
    # ------------------------------------------------------------------

    def encode_info(self) -> Dict:
        if self._analyses <= 1:
            return {"warm": False, "encodings_built": 1,
                    "encode_seconds": self._prepare_seconds}
        return {"warm": True, "encodings_built": 0,
                "encode_seconds": 0.0}

    def opf_trace(self) -> Dict:
        if self._sf_opf is None:
            # prepare() degraded before the PTDF pipeline existed (e.g.
            # a numerically unstable susceptance matrix): no solves ran.
            return {"solves": 0, "seconds": 0.0}
        return {"solves": self._sf_opf.solve_calls - self._opf_calls_before,
                "seconds": (self._sf_opf.solve_seconds
                            - self._opf_seconds_before)}

    # ------------------------------------------------------------------
    # Certified recheck
    # ------------------------------------------------------------------

    def _certify_solution(self, solution, believed_min: Fraction,
                          threshold: Fraction) -> Dict:
        """Independently re-verify a fast-path SAT answer.

        The PTDF/LODF pipeline that found the attack is *not* reused: the
        believed system is re-solved from scratch with the B-theta OPF
        (exact rationals up to 30 buses, HiGHS beyond), and the believed
        topology, Eq.-36 load bounds and threshold claim are re-checked.
        Raises :class:`CertificateError` on any disagreement.
        """
        started = time.perf_counter()
        topology = solution.believed_topology(self.grid)
        if not self.grid.is_connected(topology):
            raise CertificateError(
                "certified recheck: believed topology is disconnected")
        for bus, value in solution.believed_loads.items():
            load = self.grid.loads.get(bus)
            if load is None:
                if abs(float(value)) > _CERT_LOAD_TOL:
                    raise CertificateError(
                        f"certified recheck: believed load at non-load "
                        f"bus {bus}")
                continue
            if float(value) < float(load.p_min) - _CERT_LOAD_TOL \
                    or float(value) > float(load.p_max) + _CERT_LOAD_TOL:
                raise CertificateError(
                    f"certified recheck: believed load at bus {bus} "
                    f"violates Eq. 36 bounds")
        method = "exact" if self.grid.num_buses <= 30 else "highs"
        result = solve_dc_opf(self.grid, loads=solution.believed_loads,
                              line_indices=topology, method=method)
        if not result.feasible:
            raise CertificateError(
                "certified recheck: believed OPF is infeasible (Eq. 38)")
        recomputed = float(result.cost)
        claimed = float(believed_min)
        if abs(recomputed - claimed) > _CERT_REL_TOL * max(
                1.0, abs(claimed)) + 1e-4 * abs(claimed):
            raise CertificateError(
                f"certified recheck: believed optimal cost {claimed:.6f} "
                f"disagrees with independent re-solve {recomputed:.6f}")
        if recomputed < float(threshold) * (1 - _CERT_REL_TOL) - 1e-9:
            raise CertificateError(
                f"certified recheck: re-solved cost {recomputed:.6f} is "
                f"below the threshold {float(threshold):.6f}")
        return {"enabled": True, "models_checked": 1,
                "recheck_method": method,
                "recheck_cost": recomputed,
                "seconds": time.perf_counter() - started}

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    def _believed_topology(self, kind: str, line_index: int) -> List[int]:
        if kind == "exclude":
            return [i for i in self.base_topology if i != line_index]
        return self.base_topology + [line_index]

    def _note_islanding(self, kind: str, line_index: int) -> None:
        excluded = [line_index] if kind == "exclude" else []
        included = [line_index] if kind == "include" else []
        self.session.note_islanding(excluded, included)

    def _evaluate_candidate(self, kind: str, line_index: int,
                            threshold: Fraction,
                            query: FastQuery) -> CandidateEvaluation:
        # Post-attack revalidation *before* the PTDF/LODF pipeline: a
        # bridge-line exclusion makes the believed susceptance matrix
        # singular, which used to surface as a numpy LinAlgError.
        if not self.grid.is_connected(
                self._believed_topology(kind, line_index)):
            self._note_islanding(kind, line_index)
            return CandidateEvaluation(
                kind, line_index, False,
                "believed topology is disconnected")
        problems = self._required_alterations(kind, line_index)
        if isinstance(problems, str):
            return CandidateEvaluation(kind, line_index, False, problems)
        altered = problems

        flow_range = self._reachable_flow_range(kind, line_index)
        if flow_range is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "flow unreachable in operation")
        lo, hi = flow_range

        # Believability bounds on the endpoint loads (Eq. 36) shrink the
        # usable flow range.
        line = self.grid.line(line_index)
        sign = 1.0 if kind == "exclude" else -1.0
        window = self._load_window(line.from_bus, sign)
        if window is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "from-bus has no load headroom")
        lo, hi = max(lo, window[0]), min(hi, window[1])
        window = self._load_window(line.to_bus, -sign)
        if window is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "to-bus has no load headroom")
        lo, hi = max(lo, window[0]), min(hi, window[1])
        if lo > hi:
            return CandidateEvaluation(kind, line_index, False,
                                       "believability bounds empty")

        best = self._maximize_over_interval(kind, line_index, lo, hi,
                                            query.bisection_tolerance)
        if best is None:
            return CandidateEvaluation(kind, line_index, False,
                                       "believed OPF never converges")
        best_f, best_cost, loads = best

        increase = 100 * (float(best_cost) / float(self._base_cost) - 1)
        evaluation = CandidateEvaluation(
            kind, line_index, True,
            best_increase_percent=increase,
            believed_loads=loads,
            altered_measurements=sorted(altered))

        if query.with_state_infection:
            sampled = self._state_infection_samples(
                kind, line_index, threshold, query)
            if sampled is not None and sampled[0] > increase:
                evaluation.best_increase_percent = sampled[0]
                evaluation.believed_loads = sampled[1]
                evaluation.altered_measurements = sampled[2]
        return evaluation

    def _required_alterations(self, kind: str, line_index: int):
        """Measurements a nonzero-flow single-line attack must alter."""
        plan = self.attacker.plan
        line = self.grid.line(line_index)
        l = self.grid.num_lines
        needed = set()
        for m in (line_index, l + line_index,
                  2 * l + line.from_bus, 2 * l + line.to_bus):
            if plan.is_taken(m):
                needed.add(m)
        if (plan.is_taken(line_index) or plan.is_taken(l + line_index)) \
                and not self.attacker.knows_admittance(line_index):
            return f"admittance of line {line_index} unknown"
        problems = self.attacker.check_alteration_set(needed)
        if problems:
            return "; ".join(problems)
        return needed

    def _reachable_flow_range(self, kind: str, line_index: int
                              ) -> Optional[Tuple[float, float]]:
        """Range of the attacked line's (would-be) flow over feasible
        operating points — an LP over dispatches."""
        grid = self.grid
        gens = sorted(grid.generators)
        factors = self._sf_opf.factors
        demand = np.zeros(grid.num_buses)
        for load in grid.loads.values():
            demand[load.bus - 1] = float(load.existing)

        if kind == "exclude":
            row = factors.row(line_index)
        else:
            # Would-be flow of the open line: d * (theta_f - theta_e),
            # a cached factorized solve on the base susceptance matrix.
            row = factors.open_line_flow_row(line_index)

        flow_gen = np.array([row[bus - 1] for bus in gens])
        flow_const = -float(row @ demand)

        # Operating constraints: all base-topology line capacities.
        M = self._sf_opf.gen_flow_matrix()
        base = factors.flows_for_injections(-demand)
        capacities = np.array([float(grid.line(i).capacity)
                               for i in factors.lines])
        A_ub = np.vstack([M, -M])
        b_ub = np.concatenate([capacities - base, capacities + base])
        A_eq = np.ones((1, len(gens)))
        b_eq = np.array([float(demand.sum())])
        bounds = [(float(grid.generators[b].p_min),
                   float(grid.generators[b].p_max)) for b in gens]

        extremes = []
        for direction in (1.0, -1.0):
            result = linprog(direction * flow_gen, A_ub=A_ub, b_ub=b_ub,
                             A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                             method="highs")
            if not result.success:
                return None
            extremes.append(float(flow_gen @ result.x) + flow_const)
        low, high = min(extremes), max(extremes)
        cap = float(self.grid.line(line_index).capacity)
        return max(low, -cap), min(high, cap)

    def _load_window(self, bus: int, sign: float
                     ) -> Optional[Tuple[float, float]]:
        """Flow interval keeping ``load + sign*f`` within Eq.-36 bounds."""
        load = self.grid.loads.get(bus)
        if load is None:
            # No load to absorb the change: only f = 0 is consistent,
            # which is a no-op attack.
            return None
        low = float(load.p_min - load.existing)
        high = float(load.p_max - load.existing)
        if sign > 0:
            return low, high
        return -high, -low

    def _believed_cost(self, kind: str, line_index: int,
                       f: float) -> Optional[Fraction]:
        line = self.grid.line(line_index)
        sign = 1.0 if kind == "exclude" else -1.0
        loads = {bus: float(load.existing)
                 for bus, load in self.grid.loads.items()}
        loads[line.from_bus] = loads.get(line.from_bus, 0.0) + sign * f
        loads[line.to_bus] = loads.get(line.to_bus, 0.0) - sign * f
        change = TopologyChange(kind, line_index)
        result = self._sf_opf.solve(
            loads={b: to_fraction(round(v, 9)) for b, v in loads.items()},
            change=change)
        if not result.feasible:
            return None
        return result.cost

    def _maximize_over_interval(self, kind: str, line_index: int,
                                lo: float, hi: float, tolerance: float
                                ) -> Optional[Tuple[float, Fraction, Dict]]:
        """Max believed cost over the flow interval (convex => endpoints).

        The believed system's feasible flow-set is itself an interval; its
        boundaries are located by bisection before evaluating the cost at
        the two boundary points.
        """
        feasible_points = [f for f in (lo, hi, 0.5 * (lo + hi))
                           if self._believed_cost(kind, line_index, f)
                           is not None]
        if not feasible_points:
            # Scan for any feasible point before giving up.
            probes = np.linspace(lo, hi, 9)
            feasible_points = [
                float(f) for f in probes
                if self._believed_cost(kind, line_index, float(f))
                is not None]
            if not feasible_points:
                return None
        anchor = feasible_points[0]

        def boundary(toward: float) -> float:
            good, bad = anchor, toward
            if self._believed_cost(kind, line_index, toward) is not None:
                return toward
            while abs(bad - good) > tolerance:
                mid = 0.5 * (good + bad)
                if self._believed_cost(kind, line_index, mid) is not None:
                    good = mid
                else:
                    bad = mid
            return good

        left = boundary(lo)
        right = boundary(hi)
        best = None
        for f in {left, right}:
            cost = self._believed_cost(kind, line_index, f)
            if cost is None:
                continue
            if best is None or cost > best[1]:
                line = self.grid.line(line_index)
                sign = 1.0 if kind == "exclude" else -1.0
                loads = {bus: float(load.existing)
                         for bus, load in self.grid.loads.items()}
                loads[line.from_bus] += sign * f
                loads[line.to_bus] -= sign * f
                best = (f, cost, loads)
        return best

    # ------------------------------------------------------------------
    # State-infection sampling
    # ------------------------------------------------------------------

    def _state_infection_samples(self, kind: str, line_index: int,
                                 threshold: Fraction, query: FastQuery
                                 ) -> Optional[Tuple[float, Dict, List[int]]]:
        """Seeded boundary samples of the believed-load box.

        Each sample is validated by reconstructing the state shift that
        realizes it (least squares on the consumption operator) and
        checking the induced measurement alterations against the attacker
        model.
        """
        grid = self.grid
        rng = random.Random(query.seed * 7919 + line_index)
        load_buses = sorted(grid.loads)
        if len(load_buses) < 2:
            return None
        believed_topology = [i for i in self.base_topology
                             if i != line_index] \
            if kind == "exclude" else self.base_topology + [line_index]
        if not grid.is_connected(believed_topology):
            return None

        # Consumption-change operator over the believed topology:
        # delta_B = C @ delta_theta (reduced states).
        order = state_order(grid)
        C = np.zeros((grid.num_buses, len(order)))
        for line in grid.lines:
            if line.index not in set(believed_topology):
                continue
            y = float(line.admittance)
            f, t = line.from_bus, line.to_bus
            for bus, s in ((f, -1.0), (t, 1.0)):
                # d(consumption at from) = -y*(dth_f - dth_t), at to: +y*...
                if f != grid.reference_bus:
                    C[bus - 1, order.index(f)] += s * y
                if t != grid.reference_bus:
                    C[bus - 1, order.index(t)] -= s * y

        best: Optional[Tuple[float, Dict, List[int]]] = None
        operating = solve_dc_opf(grid, method="highs")
        if not operating.feasible:
            return None
        flows = {i: float(v) for i, v in operating.flows.items()}
        angles = {b: float(v) for b, v in operating.angles.items()}

        for _ in range(query.state_samples):
            if query.budget is not None and query.budget.exhausted():
                break
            target: Dict[int, float] = {}
            total_shift = 0.0
            chosen = rng.sample(load_buses,
                                min(len(load_buses), rng.randint(2, 4)))
            for bus in chosen[:-1]:
                load = grid.loads[bus]
                extreme = float(load.p_max) if rng.random() < 0.5 \
                    else float(load.p_min)
                target[bus] = extreme
                total_shift += extreme - float(load.existing)
            balance_bus = chosen[-1]
            load = grid.loads[balance_bus]
            balanced = float(load.existing) - total_shift
            if not float(load.p_min) <= balanced <= float(load.p_max):
                continue
            target[balance_bus] = balanced

            delta_b = np.zeros(grid.num_buses)
            for bus, value in target.items():
                delta_b[bus - 1] = value - float(grid.loads[bus].existing)
            # Account for the topology part of the load change.
            line = grid.line(line_index)
            f_now = flows.get(line_index, 0.0) if kind == "exclude" else \
                float(line.admittance) * (angles[line.from_bus]
                                          - angles[line.to_bus])
            sign = 1.0 if kind == "exclude" else -1.0
            topo_part = np.zeros(grid.num_buses)
            topo_part[line.from_bus - 1] += sign * f_now
            topo_part[line.to_bus - 1] -= sign * f_now
            residual_target = delta_b - topo_part

            dtheta, residuals, _, _ = np.linalg.lstsq(
                C, residual_target, rcond=None)
            if np.linalg.norm(C @ dtheta - residual_target) > 1e-8:
                continue  # load vector not realizable by state shifts

            shift = {bus: float(dtheta[pos])
                     for pos, bus in enumerate(order)
                     if abs(dtheta[pos]) > 1e-10}
            attack = craft_topology_attack(
                grid, flows, angles,
                excluded=[line_index] if kind == "exclude" else [],
                included=[line_index] if kind == "include" else [],
                state_shift=shift)
            if validate_against_attacker(attack, self.attacker):
                continue

            loads = {bus: float(load.existing) + delta_b[bus - 1]
                     for bus, load in grid.loads.items()}
            result = self._sf_opf.solve(
                loads={b: to_fraction(round(v, 9))
                       for b, v in loads.items()},
                change=TopologyChange(kind, line_index))
            if not result.feasible:
                continue
            increase = 100 * (float(result.cost)
                              / float(self._base_cost) - 1)
            if best is None or increase > best[0]:
                best = (increase, loads, attack.altered_measurements)
        return best


class FastImpactAnalyzer:
    """Single-line topology-attack impact analysis at IEEE-118 scale.

    A thin facade over :class:`AnalysisSession` +
    :class:`FastSearchStrategy`; the PTDF pipeline is built once in the
    constructor and reused across :meth:`analyze` calls.
    """

    def __init__(self, case: CaseDefinition,
                 preflight: bool = True) -> None:
        self._strategy = FastSearchStrategy(case)
        self.session = AnalysisSession(case, self._strategy,
                                       preflight=preflight)

    @property
    def case(self) -> CaseDefinition:
        return self.session.case

    @property
    def preflight(self):
        return self.session.preflight

    @property
    def grid(self):
        return self.session.grid

    @property
    def base_cost(self) -> Fraction:
        return self._strategy.base_cost()

    @property
    def evaluations(self) -> List[CandidateEvaluation]:
        return self._strategy.evaluations

    @property
    def attacker(self) -> Optional[AttackerModel]:
        return self._strategy.attacker

    @property
    def base_topology(self) -> List[int]:
        return self._strategy.base_topology

    @property
    def _sf_opf(self) -> Optional[ShiftFactorOpf]:
        return self._strategy._sf_opf

    def threshold_for(self, percent) -> Fraction:
        return self.session.threshold_for(percent)

    def analyze(self, query: Optional[FastQuery] = None) -> ImpactReport:
        return self.session.analyze(query or FastQuery())

    def solve_at(self, percent=None, **attrs) -> ImpactReport:
        """Analyze at a new target percentage, reusing the warm pipeline."""
        return self.session.solve_at(percent, **attrs)

    def max_impact(self, tolerance=None, **search_kwargs):
        """Bisect to the maximum achievable increase I* (see
        :class:`repro.search.MaxImpactSearch`)."""
        from repro.search import DEFAULT_TOLERANCE, MaxImpactSearch
        if tolerance is None:
            tolerance = DEFAULT_TOLERANCE
        query_attrs = search_kwargs.pop("query_attrs", {})
        return MaxImpactSearch(self, tolerance=tolerance,
                               **search_kwargs).run(**query_attrs)
