"""The parallel scenario-sweep engine.

The paper's evaluation grids — (case × target-% × attacker-scenario)
cells, each an independent impact analysis — are embarrassingly parallel,
so :class:`SweepEngine` fans :class:`~repro.runner.spec.ScenarioSpec`
tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* scenarios that share an *encoding group* (same resolved case, analyzer
  kind and state-infection flag — a Fig. 4-style threshold sweep) are
  batched into warm units: one worker builds one
  :class:`~repro.core.encoding.AttackModelEncoding` and re-solves each
  threshold incrementally inside solver ``push()``/``pop()`` scopes,
  paying ``encode_seconds`` once instead of per scenario.  Groups are
  split so batching never drops below ``workers``-way parallelism, and
  verdicts are unchanged (SAT witness *vectors* may differ — any model
  is valid, and certified mode re-checks each independently);
* results are served from the on-disk :class:`~repro.runner.cache.
  ResultCache` when the (case, query, code) fingerprint matches a prior
  run, so repeated sweeps and benchmark reruns short-circuit;
* each finished ``ok`` outcome is checkpointed to the cache *as it
  completes*, so a killed or interrupted sweep resumes from where it
  left off instead of recomputing;
* each task has an optional wall-clock budget (``task_timeout``) that is
  shipped into the worker as an in-solver
  :class:`~repro.smt.budget.SolverBudget` deadline: a solver-bound task
  comes back as ``unknown`` with partial statistics.  The pool-level
  ``timeout`` verdict remains as a backstop for tasks stuck outside the
  solvers; when it fires, pending tasks are migrated to a fresh pool so
  hung workers cannot starve the rest of the sweep;
* a worker-process crash (OOM kill, segfault in a native library) breaks
  the pool — the engine rebuilds it and retries the affected scenarios up
  to ``retries`` times; a unit whose budget runs out gets one *isolated*
  dispatch (own single-worker pool) before being recorded as ``crashed``,
  because a shared-pool breakage fails every in-flight future and the
  victim may never have crashed itself;
* when process pools are unavailable (restricted environments) or
  ``workers <= 1``, the engine degrades gracefully to in-process serial
  execution with identical results (including budget enforcement — the
  in-solver deadline works the same in-process).

Execution is deterministic per scenario, so parallel and serial runs are
interchangeable; only wall-clock differs.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from fractions import Fraction

from repro.core.fast import FastImpactAnalyzer, FastQuery
from repro.core.framework import ImpactAnalyzer, ImpactQuery
from repro.exceptions import BudgetExhausted, CaseFieldError, \
    InputFormatError, NumericalInstability
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.spec import ScenarioSpec
from repro.runner.trace import (
    CERTIFICATE_ERROR,
    CRASHED,
    ERROR,
    INVALID_INPUT,
    NUMERICAL_UNSTABLE,
    OK,
    REJECTED_STATUSES,
    TIMEOUT,
    UNKNOWN,
    ScenarioOutcome,
    SweepTrace,
)
from repro.search import DEFAULT_TOLERANCE, MaxImpactResult, \
    MaxImpactSearch
from repro.smt.budget import SolverBudget
from repro.smt.certificates import self_check_default
from repro.validation import FATAL, ValidationReport, validate_case


class GroupInterrupted(BaseException):
    """A warm unit was interrupted (SIGINT/SIGTERM) mid-run.

    Carries the outcomes completed *before* the interrupt so the engine
    can checkpoint them to the cache before re-raising
    :class:`KeyboardInterrupt` — a supervised sweep stays resumable at
    per-cell granularity even when cells are batched into warm units.
    Derives from ``BaseException`` so generic worker error handling
    cannot swallow it.
    """

    def __init__(self, outcomes: Sequence) -> None:
        super().__init__(f"{len(outcomes)} outcome(s) salvaged")
        self.outcomes = list(outcomes)


def parse_failure_report(subject: str,
                         exc: Exception) -> ValidationReport:
    """A one-finding report for a case text that failed to parse."""
    report = ValidationReport(subject=subject)
    components = [f"field:{exc.path}"] \
        if isinstance(exc, CaseFieldError) else []
    report.add("parse.malformed", FATAL, str(exc), components,
               hint="fix the case text at the reported field path"
               if components else "the case text does not follow the "
               "paper's input format")
    return report


def _rejected_outcome(spec: ScenarioSpec, fingerprint: str,
                      report: ValidationReport) -> ScenarioOutcome:
    """An outcome for an input preflight (or the parser) refused."""
    fatal = [d.code for d in report.fatal]
    return ScenarioOutcome(
        spec=spec, fingerprint=fingerprint,
        status=report.fatal_status() or INVALID_INPUT,
        error="; ".join(fatal),
        diagnostics=report.to_dict())


@dataclass
class SweepConfig:
    """Engine knobs."""

    workers: int = 4
    #: per-task wall-clock budget in seconds (None: unlimited).  Enforced
    #: cooperatively inside the solvers in *both* modes (tasks come back
    #: ``unknown`` with partial statistics); parallel mode additionally
    #: keeps the pool-level wait as a backstop for hung workers.
    task_timeout: Optional[float] = None
    #: how many times a scenario is resubmitted after its worker crashed.
    retries: int = 1
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    use_cache: bool = True
    #: extra per-task resource limits (conflicts/decisions/pivots/wall);
    #: every task gets a *fresh* budget built from these limits, with
    #: ``task_timeout`` folded in as a wall-clock bound.
    budget: Optional[SolverBudget] = None
    #: certified mode for every scenario: each analyzer answer is checked
    #: against an independent certificate before it is reported, and
    #: cache hits must additionally carry ``certified=True`` to be
    #: served.  None (the default) defers to ``REPRO_SELF_CHECK`` —
    #: resolved inside each worker, so the environment variable works in
    #: parallel mode too.
    self_check: Optional[bool] = None


def _outcome_from_report(outcome: ScenarioOutcome, report,
                         started: float) -> ScenarioOutcome:
    """Fill a scenario outcome from a finished analyzer report.

    The one place the :class:`~repro.core.results.ImpactReport` statuses
    map onto sweep statuses — shared by the cold per-scenario path and
    the warm group runner.
    """
    if report.status == "budget_exhausted":
        outcome.status = UNKNOWN
        outcome.error = report.budget_reason or "resource budget exhausted"
    elif report.status == "certificate_error":
        # The verdict failed its independent check: never record it as
        # sat/unsat.
        outcome.status = CERTIFICATE_ERROR
        outcome.error = report.certificate_error or "certificate rejected"
    elif report.status == "numerical_unstable":
        # The guarded linear algebra refused to return an unverified
        # result: a deterministic degradation, never a sat/unsat.
        outcome.status = NUMERICAL_UNSTABLE
        outcome.error = report.numeric_reason or "numerically unstable"
    elif report.is_rejected:
        # Preflight refused the input: a deterministic verdict with the
        # findings attached, not an error.
        outcome.status = report.status
        outcome.error = "; ".join(
            d.code for d in report.diagnostics.fatal)
    outcome.certified = report.certified
    if report.diagnostics is not None:
        outcome.diagnostics = report.diagnostics.to_dict()
    outcome.satisfiable = report.satisfiable
    outcome.base_cost = str(report.base_cost)
    outcome.threshold = str(report.threshold)
    if report.believed_min_cost is not None:
        outcome.believed_min_cost = str(report.believed_min_cost)
    if report.achieved_increase_percent is not None:
        outcome.achieved_increase_percent = float(
            report.achieved_increase_percent)
    outcome.candidates_examined = report.candidates_examined
    outcome.solver_calls = report.solver_calls
    outcome.analysis_seconds = report.elapsed_seconds
    if report.trace is not None:
        outcome.trace = report.trace.to_dict()
    outcome.task_seconds = time.perf_counter() - started
    return outcome


def _query_attrs(spec: ScenarioSpec, kind: str,
                 budget: Optional[SolverBudget],
                 self_check: Optional[bool]) -> Dict[str, Any]:
    """A spec's per-query fields, minus the target percentage."""
    attrs: Dict[str, Any] = {
        "with_state_infection": spec.with_state_infection,
        "budget": budget,
        "self_check": self_check,
    }
    if kind == "smt":
        attrs["max_candidates"] = spec.max_candidates
    else:
        attrs["state_samples"] = spec.state_samples
        attrs["seed"] = spec.sample_seed
    return attrs


def _analysis_query(spec: ScenarioSpec, kind: str,
                    budget: Optional[SolverBudget],
                    self_check: Optional[bool]):
    """The analyzer query a spec's parameters describe."""
    attrs = _query_attrs(spec, kind, budget, self_check)
    if kind == "smt":
        return ImpactQuery(
            target_increase_percent=spec.target_fraction(), **attrs)
    return FastQuery(
        target_increase_percent=spec.target_fraction(), **attrs)


def _run_max_impact(spec: ScenarioSpec, kind: str, analyzer,
                    budget: Optional[SolverBudget],
                    self_check: Optional[bool]) -> MaxImpactResult:
    """Bisect the spec's case to I* on the given (warm or cold) analyzer."""
    search = MaxImpactSearch(
        analyzer,
        tolerance=spec.tolerance_fraction() or DEFAULT_TOLERANCE,
        lo=spec.target_fraction() or Fraction(0))
    return search.run(**_query_attrs(spec, kind, budget, self_check))


def _outcome_from_max_result(outcome: ScenarioOutcome,
                             result: MaxImpactResult,
                             started: float) -> ScenarioOutcome:
    """Fill a scenario outcome from a finished maximize search.

    Verdict fields mirror the decision path's shape — ``threshold`` and
    ``believed_min_cost`` describe the *witness at I\\** — so downstream
    consumers (cache verification, trace totals, renderers) keep their
    arithmetic; the search-specific bracket lives in ``max_impact``.
    """
    source = result.witness_report or result.last_report
    if result.status == "budget_exhausted":
        outcome.status = UNKNOWN
        outcome.error = result.budget_reason or "resource budget exhausted"
    elif result.status == "certificate_error":
        outcome.status = CERTIFICATE_ERROR
        outcome.error = result.certificate_error or "certificate rejected"
    elif result.status == "numerical_unstable":
        outcome.status = NUMERICAL_UNSTABLE
        reason = result.last_report.numeric_reason \
            if result.last_report is not None else None
        outcome.error = reason or "numerically unstable analysis"
    elif result.is_rejected:
        outcome.status = result.status
        if result.diagnostics is not None:
            outcome.error = "; ".join(
                d.code for d in result.diagnostics.fatal)
    if not result.is_rejected:
        # Partial brackets are worth keeping on unknown/cert-error
        # outcomes too (they are never cached).
        outcome.max_impact = result.to_dict()
    outcome.certified = result.certified
    if result.diagnostics is not None:
        outcome.diagnostics = result.diagnostics.to_dict()
    outcome.satisfiable = result.satisfiable
    if not result.is_rejected:
        outcome.base_cost = str(result.base_cost)
        bound = result.lower_bound if result.satisfiable \
            else result.upper_bound
        if bound is not None:
            outcome.threshold = str(
                result.base_cost * (1 + bound / 100))
    if result.witness_cost is not None:
        outcome.believed_min_cost = str(result.witness_cost)
    if result.witness_report is not None and \
            result.witness_report.achieved_increase_percent is not None:
        outcome.achieved_increase_percent = float(
            result.witness_report.achieved_increase_percent)
    outcome.candidates_examined = result.candidates_examined
    outcome.solver_calls = result.solver_calls
    outcome.analysis_seconds = result.elapsed_seconds
    if source is not None and source.trace is not None:
        trace = source.trace.to_dict()
        trace.setdefault("session", {})["search"] = {
            "mode": "maximize",
            "status": result.status,
            "solve_at_calls": result.solve_at_calls,
            "solver_calls": result.solver_calls,
            "encodings_built": result.encodings_built,
            "warm_solves": result.warm_solves,
            "lower_bound": None if result.lower_bound is None
            else str(result.lower_bound),
            "upper_bound": None if result.upper_bound is None
            else str(result.upper_bound),
            "tolerance": str(result.tolerance),
        }
        outcome.trace = trace
    outcome.task_seconds = time.perf_counter() - started
    return outcome


def plan_units(specs: Sequence[ScenarioSpec], pending: Sequence[int],
               chunks: int = 1,
               max_cells: Optional[int] = None) -> List[List[int]]:
    """Group pending scenario indices into warm execution units.

    Scenarios with equal :meth:`ScenarioSpec.encoding_group` keys (same
    resolved case, analyzer kind and state-infection flag) are batched so
    one warm analyzer serves them all.  Each group is split into at most
    ``chunks`` pieces (the sweep engine passes its worker count so
    grouping never *reduces* parallelism), and ``max_cells`` additionally
    caps the unit size — the distributed fabric uses that to keep lease
    durations bounded.  Shared by :class:`SweepEngine` and the fabric
    coordinator so both plan byte-identical units for one grid.
    """
    groups: Dict[str, List[int]] = {}
    order: List[str] = []
    for idx in pending:
        try:
            key = specs[idx].encoding_group()
        except Exception:
            # An unresolvable spec cannot be grouped; run it alone so
            # its error surfaces through the legacy path.
            key = f"solo:{idx}"
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(idx)
    units: List[List[int]] = []
    for key in order:
        members = groups[key]
        pieces = max(1, min(max(1, chunks), len(members)))
        size = -(-len(members) // pieces)   # ceil division
        if max_cells is not None:
            size = max(1, min(size, max_cells))
        for start in range(0, len(members), size):
            units.append(members[start:start + size])
    return units


def build_analyzer(case, kind: str, warm: bool = False):
    """The analyzer a resolved case runs on (warm = incremental SMT)."""
    if kind == "smt":
        return ImpactAnalyzer(case, incremental=warm)
    return FastImpactAnalyzer(case)


def execute_with_analyzer(spec: ScenarioSpec, fingerprint: str,
                          analyzer, kind: str,
                          budget: Optional[SolverBudget] = None,
                          self_check: Optional[bool] = None,
                          started: Optional[float] = None,
                          outcome: Optional[ScenarioOutcome] = None
                          ) -> ScenarioOutcome:
    """Run one scenario on an already-built (possibly warm) analyzer.

    The shared execution core behind the cold per-scenario path, the
    warm group runner and the analysis-service workers: runs the spec's
    decision or maximize query, maps analyzer statuses onto sweep
    statuses, and converts stray :class:`BudgetExhausted`/exceptions
    into ``unknown``/``error`` outcomes instead of letting them escape.
    """
    if started is None:
        started = time.perf_counter()
    if outcome is None:
        outcome = ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                                  worker_pid=os.getpid())
    try:
        if budget is not None:
            budget.start()
        if spec.search == "maximize":
            result = _run_max_impact(spec, kind, analyzer, budget,
                                     self_check)
            return _outcome_from_max_result(outcome, result, started)
        report = analyzer.analyze(
            _analysis_query(spec, kind, budget, self_check))
    except BudgetExhausted as exc:
        # The analyzers convert in-loop exhaustion into partial reports;
        # this catches exhaustion outside those loops (e.g. the base OPF
        # during analyzer construction).
        outcome.status = UNKNOWN
        outcome.error = exc.reason
        outcome.task_seconds = time.perf_counter() - started
        return outcome
    except NumericalInstability as exc:
        # The session converts in-run instability into degraded reports;
        # this catches refusals outside analyze() (e.g. warm analyzer
        # machinery between scenarios).
        outcome.status = NUMERICAL_UNSTABLE
        outcome.error = exc.reason
        outcome.task_seconds = time.perf_counter() - started
        return outcome
    except Exception as exc:
        outcome.status = ERROR
        outcome.error = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()
        outcome.task_seconds = time.perf_counter() - started
        return outcome

    return _outcome_from_report(outcome, report, started)


def execute_scenario(spec: ScenarioSpec, fingerprint: str = "",
                     budget: Optional[SolverBudget] = None,
                     self_check: Optional[bool] = None
                     ) -> ScenarioOutcome:
    """Run one scenario in-process and record its outcome + trace."""
    started = time.perf_counter()
    outcome = ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                              worker_pid=os.getpid())
    try:
        if budget is not None:
            budget.start()   # the deadline covers case build + analysis
        try:
            case = spec.resolve_case()
        except InputFormatError as exc:
            # A deterministic verdict about the input, not a runtime
            # failure: reject with a structured diagnostic.
            rejected = _rejected_outcome(
                spec, fingerprint, parse_failure_report(spec.case, exc))
            rejected.worker_pid = os.getpid()
            rejected.task_seconds = time.perf_counter() - started
            return rejected
        kind = spec.resolved_analyzer(case)
        # Maximize mode re-solves the same encoding at many thresholds,
        # so warm incremental mode pays off even within one scenario;
        # decision mode keeps the cold single-shot path (bit-identical
        # witnesses).
        analyzer = build_analyzer(case, kind,
                                  warm=spec.search == "maximize")
    except BudgetExhausted as exc:
        outcome.status = UNKNOWN
        outcome.error = exc.reason
        outcome.task_seconds = time.perf_counter() - started
        return outcome
    except NumericalInstability as exc:
        outcome.status = NUMERICAL_UNSTABLE
        outcome.error = exc.reason
        outcome.task_seconds = time.perf_counter() - started
        return outcome
    except Exception as exc:
        outcome.status = ERROR
        outcome.error = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()
        outcome.task_seconds = time.perf_counter() - started
        return outcome

    return execute_with_analyzer(spec, fingerprint, analyzer, kind,
                                 budget, self_check, started=started,
                                 outcome=outcome)


def execute_scenario_group(specs: Sequence[ScenarioSpec],
                           fingerprints: Sequence[str],
                           budget_limits: Optional[Dict[str, Any]] = None,
                           self_check: Optional[bool] = None
                           ) -> List[ScenarioOutcome]:
    """Run scenarios sharing one encoding group through a warm analyzer.

    All specs must have equal :meth:`ScenarioSpec.encoding_group` keys —
    same resolved case, analyzer kind and state-infection flag, varying
    only per-query parameters (the target threshold, candidate caps,
    sampling seeds).  One analyzer is built for the whole group: the SMT
    strategy in incremental mode re-solves each threshold inside a
    solver ``push()``/``pop()`` scope of one
    :class:`~repro.core.encoding.AttackModelEncoding`; the fast
    strategy's PTDF factorization is per-case anyway.  Each scenario
    still gets a *fresh* budget built from ``budget_limits`` and its
    own outcome with per-scenario timings.

    Verdicts are deterministic either way; SAT *witness vectors* may
    depend on the warm solver's accumulated learned clauses (any model
    is valid, and certified mode re-checks each one independently).
    """
    outcomes: List[ScenarioOutcome] = []
    analyzer = None
    for spec, fingerprint in zip(specs, fingerprints):
        started = time.perf_counter()
        budget = SolverBudget.from_dict(budget_limits) \
            if budget_limits else None
        outcome = ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                                  worker_pid=os.getpid())
        try:
            if budget is not None:
                budget.start()
            try:
                case = spec.resolve_case()
            except InputFormatError as exc:
                rejected = _rejected_outcome(
                    spec, fingerprint,
                    parse_failure_report(spec.case, exc))
                rejected.worker_pid = os.getpid()
                rejected.task_seconds = time.perf_counter() - started
                outcomes.append(rejected)
                continue
            kind = spec.resolved_analyzer(case)
            if analyzer is None:
                analyzer = build_analyzer(case, kind, warm=True)
        except KeyboardInterrupt:
            # A SIGINT/SIGTERM mid-unit: hand the completed outcomes
            # back so the engine checkpoints them before re-raising —
            # per-cell resumability must not depend on unit boundaries.
            raise GroupInterrupted(outcomes)
        except BudgetExhausted as exc:
            outcome.status = UNKNOWN
            outcome.error = exc.reason
            outcome.task_seconds = time.perf_counter() - started
            outcomes.append(outcome)
            continue
        except NumericalInstability as exc:
            outcome.status = NUMERICAL_UNSTABLE
            outcome.error = exc.reason
            outcome.task_seconds = time.perf_counter() - started
            outcomes.append(outcome)
            continue
        except Exception as exc:
            outcome.status = ERROR
            outcome.error = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
            outcome.task_seconds = time.perf_counter() - started
            outcomes.append(outcome)
            # The warm solver state may be mid-scope after an arbitrary
            # failure; rebuild for the remaining scenarios.
            analyzer = None
            continue
        try:
            finished = execute_with_analyzer(
                spec, fingerprint, analyzer, kind, budget, self_check,
                started=started, outcome=outcome)
        except KeyboardInterrupt:
            raise GroupInterrupted(outcomes)
        outcomes.append(finished)
        if finished.status == ERROR:
            analyzer = None
    return outcomes


def _worker_entry(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (picklable) process-pool entry point."""
    spec = ScenarioSpec.from_dict(payload["spec"])
    budget_spec = payload.get("budget")
    budget = SolverBudget.from_dict(budget_spec) if budget_spec else None
    return execute_scenario(spec, payload["fingerprint"], budget,
                            self_check=payload.get("self_check")).to_dict()


def _group_worker_entry(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Top-level (picklable) pool entry point for a warm scenario group."""
    specs = [ScenarioSpec.from_dict(s) for s in payload["specs"]]
    outcomes = execute_scenario_group(
        specs, payload["fingerprints"], payload.get("budget"),
        self_check=payload.get("self_check"))
    return [outcome.to_dict() for outcome in outcomes]


def _verify_cached_max_impact(outcome: ScenarioOutcome,
                              spec: ScenarioSpec, base: Fraction,
                              threshold: Fraction) -> None:
    """Semantic re-verification of a cached maximize outcome.

    The bracket must parse, respect the spec's anchor and tolerance, and
    agree with the verdict fields mirrored onto the outcome; any
    inconsistency raises :class:`ValueError` (a cache miss upstream).
    """
    payload = outcome.max_impact
    if not isinstance(payload, dict):
        raise ValueError(
            "cached maximize outcome has no max_impact payload")
    status = payload.get("status")
    if status not in ("complete", "capped"):
        raise ValueError(
            f"cached maximize outcome has non-definitive search "
            f"status {status!r}")
    try:
        tolerance = Fraction(payload["tolerance"])
        lower = None if payload.get("lower_bound") is None \
            else Fraction(payload["lower_bound"])
        upper = None if payload.get("upper_bound") is None \
            else Fraction(payload["upper_bound"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cached max_impact bounds unparsable: {exc}")
    if tolerance != (spec.tolerance_fraction() or DEFAULT_TOLERANCE):
        raise ValueError(
            "cached max_impact tolerance disagrees with the spec")
    anchor = spec.target_fraction() or Fraction(0)
    if bool(outcome.satisfiable) != (lower is not None):
        raise ValueError(
            "cached maximize verdict disagrees with its bounds")
    if lower is not None:
        if lower < anchor:
            raise ValueError(
                "cached max_impact lower bound is below the spec anchor")
        if threshold != base * (1 + lower / 100):
            raise ValueError(
                "cached maximize threshold is inconsistent with I*")
        if outcome.believed_min_cost is None:
            raise ValueError("cached sat maximize outcome has no "
                             "believed cost")
        try:
            believed = Fraction(outcome.believed_min_cost)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cached believed cost is unparsable: {exc}")
        if float(believed) < float(threshold) * (1 - 1e-6) - 1e-9:
            raise ValueError(
                "cached maximize witness cost is below its threshold")
        if outcome.achieved_increase_percent is not None:
            expected = float((believed / base - 1) * 100)
            if abs(outcome.achieved_increase_percent - expected) > 1e-6:
                raise ValueError(
                    "cached achieved-increase disagrees with its costs")
        if status == "complete" and (upper is None
                                     or upper - lower > tolerance):
            raise ValueError(
                "cached complete maximize bracket is wider than its "
                "tolerance")
        if status == "capped" and upper is not None:
            raise ValueError(
                "cached capped maximize outcome carries an upper bound")
    else:
        if status != "complete" or upper is None or upper != anchor:
            raise ValueError(
                "cached unsat maximize outcome must close the bracket "
                "at its anchor")
        if threshold != base * (1 + upper / 100):
            raise ValueError(
                "cached maximize threshold is inconsistent with the "
                "anchor bound")
        if outcome.believed_min_cost is not None:
            raise ValueError(
                "cached unsat maximize outcome carries a believed cost")


def verify_cached_outcome(outcome: ScenarioOutcome, spec: ScenarioSpec,
                          require_certified: bool = False) -> None:
    """Re-verify a cache-served outcome before trusting it.

    Structural validation (:meth:`ScenarioOutcome.from_dict`) already ran;
    this checks the *semantics*: the recorded numbers must be internally
    consistent with the spec's query, and in certified mode the outcome
    must have been produced with its certificates verified.  Raises
    :class:`ValueError` on any inconsistency — the engine treats that as
    a cache miss and recomputes.
    """
    if outcome.status in REJECTED_STATUSES:
        # Structural validation already guaranteed fatal diagnostics
        # matching the status; re-run preflight on the resolved case so a
        # stale rejection (case since repaired, or aliased) is recomputed
        # instead of served.  Preflight involves no solver answers, so
        # certified sweeps may serve rejections too.
        try:
            case = spec.resolve_case()
        except InputFormatError:
            raise ValueError(
                "cached rejection is for a case that no longer parses")
        report = validate_case(case, observability=False)
        if report.fatal_status() != outcome.status:
            raise ValueError(
                f"cached {outcome.status} rejection no longer matches "
                f"preflight (now {report.fatal_status()!r})")
        return
    if outcome.status == NUMERICAL_UNSTABLE:
        # Deterministic for a given case and numerics policy — and the
        # active policy is part of the fingerprint, so a threshold change
        # misses the cache instead of serving a stale refusal.  The
        # numeric reason is guaranteed by structural validation; costs
        # may legitimately be absent or zero (the guard can refuse
        # before the base OPF exists).  No solver answer is involved, so
        # certified sweeps may serve these like rejections.
        if outcome.satisfiable is True:
            raise ValueError(
                "cached numerical_unstable outcome claims a verdict")
        return
    if outcome.status != OK:
        raise ValueError(
            f"cached outcome has non-definitive status {outcome.status!r}")
    if outcome.satisfiable is None:
        raise ValueError("cached ok outcome has no verdict")
    try:
        base = Fraction(outcome.base_cost)
        threshold = Fraction(outcome.threshold)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cached outcome has unparsable costs: {exc}")
    if base <= 0:
        raise ValueError(f"cached base cost {base} is not positive")
    if spec.search == "maximize":
        _verify_cached_max_impact(outcome, spec, base, threshold)
        if require_certified and outcome.certified is not True:
            raise ValueError(
                "certified sweep: cached outcome was not produced with "
                "certificates verified")
        return
    target = spec.target_fraction()
    if target is not None and threshold != base * (1 + target / 100):
        raise ValueError(
            "cached threshold is inconsistent with the spec's target")
    if outcome.satisfiable:
        if outcome.believed_min_cost is None:
            raise ValueError("cached sat outcome has no believed cost")
        try:
            believed = Fraction(outcome.believed_min_cost)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cached believed cost is unparsable: {exc}")
        # The fast analyzer's believed cost travels through floats, so
        # allow the same relative slack its certification uses.
        if float(believed) < float(threshold) * (1 - 1e-6) - 1e-9:
            raise ValueError(
                "cached sat outcome's believed cost is below threshold")
        if outcome.achieved_increase_percent is not None:
            expected = float((believed / base - 1) * 100)
            if abs(outcome.achieved_increase_percent - expected) > 1e-6:
                raise ValueError(
                    "cached achieved-increase disagrees with its costs")
    elif outcome.believed_min_cost is not None:
        # Definitive unsat outcomes carry no believed cost (partial ones
        # do, but those are never cached): a leftover cost means the
        # verdict was rewritten in place.
        raise ValueError("cached unsat outcome carries a believed cost")
    if require_certified and outcome.certified is not True:
        raise ValueError(
            "certified sweep: cached outcome was not produced with "
            "certificates verified")


class SweepEngine:
    """Runs scenario grids with caching, parallelism and retry."""

    def __init__(self, config: Optional[SweepConfig] = None,
                 task: Optional[Callable[[Dict[str, Any]],
                                         Dict[str, Any]]] = None,
                 cache: Optional[ResultCache] = None) -> None:
        self.config = config or SweepConfig()
        #: injectable for tests (e.g. a crashing task); must be a
        #: module-level callable so worker processes can unpickle it.
        self._task = task or _worker_entry
        #: injectable for tests (e.g. a cache whose writes fail).
        self._cache = cache

    # -- public API -----------------------------------------------------

    def run(self, specs: Sequence[ScenarioSpec]) -> SweepTrace:
        started = time.perf_counter()
        config = self.config
        if self._cache is not None:
            cache = self._cache if config.use_cache else None
        else:
            cache = ResultCache(config.cache_dir) \
                if config.use_cache and config.cache_dir else None

        # Fingerprinting resolves the case; a spec that cannot resolve
        # (unknown name, unparsable text) is recorded as an error outcome
        # rather than aborting the whole sweep.
        fingerprints: List[str] = []
        outcomes: List[Optional[ScenarioOutcome]] = [None] * len(specs)
        for idx, spec in enumerate(specs):
            try:
                fingerprints.append(spec.fingerprint())
            except InputFormatError as exc:
                # The case text does not parse: a deterministic verdict
                # about the input (no fingerprint, so never cached).
                fingerprints.append("")
                outcomes[idx] = _rejected_outcome(
                    spec, "", parse_failure_report(spec.case, exc))
            except Exception as exc:
                fingerprints.append("")
                outcomes[idx] = ScenarioOutcome(
                    spec=spec, fingerprint="", status=ERROR,
                    error="".join(traceback.format_exception_only(
                        type(exc), exc)).strip())
        certify = self_check_default(config.self_check)
        cache_rejected = 0
        pending: List[int] = []
        for idx, fingerprint in enumerate(fingerprints):
            if outcomes[idx] is not None:
                continue
            hit = cache.get(fingerprint) if cache else None
            if hit is None:
                pending.append(idx)
                continue
            try:
                outcome = ScenarioOutcome.from_dict(hit)
                verify_cached_outcome(outcome, specs[idx],
                                      require_certified=certify)
            except ValueError:
                # Malformed, stale or semantically inconsistent cached
                # payload: a miss — recompute (and overwrite the bad
                # entry on completion).
                cache_rejected += 1
                pending.append(idx)
                continue
            outcome.cache_hit = True
            outcomes[idx] = outcome

        mode = "serial"
        if pending:
            units = self._plan_units(specs, pending)
            if config.workers > 1 and len(units) > 1:
                if self._run_parallel(specs, fingerprints, units,
                                      outcomes, cache):
                    mode = "parallel"
                # else: _run_parallel already fell back to serial
            else:
                self._run_serial(specs, fingerprints, units, outcomes,
                                 cache)

        return SweepTrace(
            outcomes=[o for o in outcomes if o is not None],
            wall_seconds=time.perf_counter() - started,
            workers=config.workers if mode == "parallel" else 1,
            mode=mode,
            cache_dir=str(cache.root) if cache else None,
            cache_rejected=cache_rejected)

    # -- unit planning ----------------------------------------------------

    def _plan_units(self, specs: Sequence[ScenarioSpec],
                    pending: Sequence[int]) -> List[List[int]]:
        """Execution units for this engine (see :func:`plan_units`).

        Singleton units keep the exact legacy per-scenario protocol, and
        an injected ``task`` (test seams, fault injection) only speaks
        that protocol, so it always gets singleton units.
        """
        if self._task is not _worker_entry:
            return [[idx] for idx in pending]
        return plan_units(specs, pending,
                          chunks=max(1, self.config.workers))

    # -- task plumbing ---------------------------------------------------

    def _task_budget(self) -> Optional[Dict[str, Any]]:
        """Per-task budget limits (a fresh budget is built per task)."""
        config = self.config
        limits = dict(config.budget.to_dict()) \
            if config.budget is not None else {}
        if config.task_timeout is not None:
            wall = limits.get("wall_seconds")
            limits["wall_seconds"] = config.task_timeout if wall is None \
                else min(wall, config.task_timeout)
        return limits or None

    def _task_payload(self, spec: ScenarioSpec,
                      fingerprint: str) -> Dict[str, Any]:
        payload = {"spec": spec.to_dict(), "fingerprint": fingerprint}
        budget = self._task_budget()
        if budget is not None:
            payload["budget"] = budget
        if self.config.self_check is not None:
            payload["self_check"] = self.config.self_check
        return payload

    def _group_payload(self, unit: Sequence[int], specs,
                       fingerprints) -> Dict[str, Any]:
        """Like :meth:`_task_payload`, for a multi-scenario warm unit."""
        payload = {
            "specs": [specs[idx].to_dict() for idx in unit],
            "fingerprints": [fingerprints[idx] for idx in unit],
        }
        budget = self._task_budget()
        if budget is not None:
            payload["budget"] = budget
        if self.config.self_check is not None:
            payload["self_check"] = self.config.self_check
        return payload

    def _execute_unit(self, unit: Sequence[int], specs,
                      fingerprints) -> List[Dict[str, Any]]:
        """Run one unit in-process: one outcome payload per index."""
        if len(unit) == 1:
            idx = unit[0]
            return [self._task(self._task_payload(
                specs[idx], fingerprints[idx]))]
        return _group_worker_entry(
            self._group_payload(unit, specs, fingerprints))

    def _pool_wait(self, size: int = 1) -> Optional[float]:
        """Pool-level wait: the in-solver deadline plus grace, so a
        solver-bound task reports ``unknown`` (with statistics) before
        the blunt pool ``timeout`` backstop fires.  A multi-scenario
        warm unit runs its scenarios sequentially, each with its own
        fresh in-solver deadline, so the unit's wait scales with its
        size."""
        timeout = self.config.task_timeout
        if timeout is None:
            return None
        return timeout * 1.25 * max(1, size) + 0.25

    def _record(self, idx: int, outcome: ScenarioOutcome, spec,
                fingerprints, outcomes,
                cache: Optional[ResultCache]) -> None:
        """Commit an outcome and checkpoint it to the cache immediately.

        Definitive ``ok`` outcomes, deterministic preflight rejections
        (``invalid_input``/``degenerate_case``) and numeric refusals
        (``numerical_unstable`` — deterministic for a given case and
        numerics policy, and the policy is part of the fingerprint) are
        cached; budget-dependent (``unknown``/``timeout``) and transient
        failures must recompute next run.  The outcome's spec must equal the
        submitted spec — a worker that analyzed something else (fault
        injection, memory corruption) must not poison the submitted
        spec's cache slot.  A failed write degrades to
        ``cache_write_error``.
        """
        outcomes[idx] = outcome
        cacheable = outcome.status == OK \
            or outcome.status in REJECTED_STATUSES \
            or outcome.status == NUMERICAL_UNSTABLE
        if cache is not None and cacheable and fingerprints[idx] \
                and outcome.spec.to_dict() == spec.to_dict():
            error = cache.try_put(fingerprints[idx], outcome.to_dict())
            if error is not None:
                outcome.cache_write_error = error

    # -- execution strategies -------------------------------------------

    def _parse_unit_payloads(self, unit, payloads, specs,
                             fingerprints) -> List[ScenarioOutcome]:
        """Outcomes of a finished unit; ERROR outcomes on bad payloads."""
        try:
            if len(payloads) != len(unit):
                raise ValueError(
                    f"unit returned {len(payloads)} outcomes for "
                    f"{len(unit)} scenarios")
            return [ScenarioOutcome.from_dict(p) for p in payloads]
        except Exception as exc:
            message = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
            return [ScenarioOutcome(
                spec=specs[idx], fingerprint=fingerprints[idx],
                status=ERROR, error=message) for idx in unit]

    def _run_serial(self, specs, fingerprints, units, outcomes,
                    cache) -> None:
        for unit in units:
            try:
                payloads = self._execute_unit(unit, specs, fingerprints)
                parsed = self._parse_unit_payloads(
                    unit, payloads, specs, fingerprints)
            except GroupInterrupted as exc:
                # Checkpoint what the interrupted warm unit completed,
                # then propagate as the interrupt it is: the sweep stays
                # resumable at per-cell granularity.
                for idx, outcome in zip(unit, exc.outcomes):
                    self._record(idx, outcome, specs[idx], fingerprints,
                                 outcomes, cache)
                raise KeyboardInterrupt from None
            except Exception as exc:
                # KeyboardInterrupt deliberately propagates: completed
                # outcomes are already checkpointed, so an interrupted
                # sweep resumes from the cache.
                message = "".join(traceback.format_exception_only(
                    type(exc), exc)).strip()
                parsed = [ScenarioOutcome(
                    spec=specs[idx], fingerprint=fingerprints[idx],
                    status=ERROR, error=message) for idx in unit]
            for idx, outcome in zip(unit, parsed):
                self._record(idx, outcome, specs[idx], fingerprints,
                             outcomes, cache)

    def _run_parallel(self, specs, fingerprints, units, outcomes,
                      cache) -> bool:
        """Returns False when it had to degrade to serial execution."""
        config = self.config
        attempts = {tuple(unit): 0 for unit in units}
        to_run = [list(unit) for unit in units]
        while to_run:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(config.workers, len(to_run)))
            except (OSError, ValueError, ImportError):
                # No usable multiprocessing primitives here (sandboxes,
                # missing /dev/shm, ...): degrade to serial.
                self._run_serial(specs, fingerprints, to_run, outcomes,
                                 cache)
                return False
            next_round: List[List[int]] = []
            suspects: List[Tuple[List[int], BaseException]] = []
            try:
                futures = {}
                for unit in to_run:
                    key = tuple(unit)
                    attempts[key] += 1
                    if len(unit) == 1:
                        idx = unit[0]
                        futures[key] = pool.submit(
                            self._task, self._task_payload(
                                specs[idx], fingerprints[idx]))
                    else:
                        futures[key] = pool.submit(
                            _group_worker_entry, self._group_payload(
                                unit, specs, fingerprints))
                # Waiting in submission order gives every unit up to
                # the pool wait of dedicated time on top of whatever
                # overlap it had with earlier waits — an approximate but
                # cheap per-task budget.
                timed_out = False
                for unit in to_run:
                    key = tuple(unit)
                    future = futures[key]
                    if timed_out and not future.done():
                        # A timeout poisoned this pool: hung workers
                        # cannot be cancelled, and tasks queued behind
                        # them (already handed to the call queue, so
                        # cancel() fails for them too) would inherit the
                        # dead slots.  Reschedule everything unfinished
                        # on a fresh pool — tasks are deterministic and
                        # workers side-effect-free, so the possible
                        # double execution of a genuinely-running task
                        # is safe.
                        future.cancel()
                        attempts[key] -= 1
                        next_round.append(unit)
                        continue
                    try:
                        payload = future.result(
                            timeout=self._pool_wait(len(unit)))
                    except GroupInterrupted as exc:
                        # A signal reached the worker (e.g. Ctrl-C to
                        # the process group): checkpoint what the unit
                        # completed and surface the interrupt.
                        for idx, outcome in zip(unit, exc.outcomes):
                            self._record(idx, outcome, specs[idx],
                                         fingerprints, outcomes, cache)
                        raise KeyboardInterrupt from None
                    except FuturesTimeoutError:
                        timed_out = True
                        future.cancel()
                        for idx in unit:
                            self._record(idx, ScenarioOutcome(
                                spec=specs[idx],
                                fingerprint=fingerprints[idx],
                                status=TIMEOUT, attempts=attempts[key],
                                error=f"exceeded {config.task_timeout}s "
                                      f"task budget"),
                                specs[idx], fingerprints, outcomes,
                                cache)
                    except BrokenExecutor as exc:
                        if attempts[key] <= config.retries:
                            next_round.append(unit)
                        else:
                            # One worker death fails every in-flight
                            # future of the shared pool, so this unit
                            # may have exhausted its budget as
                            # collateral without ever crashing itself.
                            # Decide with one isolated dispatch below
                            # (own pool: breakage is unambiguous).
                            suspects.append((unit, exc))
                    except Exception as exc:  # pickling and kin
                        message = "".join(
                            traceback.format_exception_only(
                                type(exc), exc)).strip()
                        for idx in unit:
                            self._record(idx, ScenarioOutcome(
                                spec=specs[idx],
                                fingerprint=fingerprints[idx],
                                status=ERROR, attempts=attempts[key],
                                error=message),
                                specs[idx], fingerprints, outcomes,
                                cache)
                    else:
                        payloads = [payload] if len(unit) == 1 \
                            else payload
                        parsed = self._parse_unit_payloads(
                            unit, payloads, specs, fingerprints)
                        for idx, outcome in zip(unit, parsed):
                            outcome.attempts = attempts[key]
                            self._record(idx, outcome, specs[idx],
                                         fingerprints, outcomes, cache)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            for unit, exc in suspects:
                self._isolated_attempt(unit, exc, attempts, specs,
                                       fingerprints, outcomes, cache)
            to_run = next_round
        return True

    def _isolated_attempt(self, unit, exc, attempts, specs,
                          fingerprints, outcomes, cache) -> None:
        """Last-chance dispatch for a unit whose pool broke with its
        retry budget already spent.

        A single worker death fails every in-flight future of the
        shared pool, so a unit can exhaust its budget without ever
        having crashed itself.  Re-running it alone in a fresh
        single-worker pool makes breakage unambiguous: success clears
        the unit, a second breakage convicts it as ``crashed``.
        """
        key = tuple(unit)

        def convict(error: str) -> None:
            for idx in unit:
                self._record(idx, ScenarioOutcome(
                    spec=specs[idx], fingerprint=fingerprints[idx],
                    status=CRASHED, attempts=attempts[key],
                    error=error or "worker process died"),
                    specs[idx], fingerprints, outcomes, cache)

        try:
            pool = ProcessPoolExecutor(max_workers=1)
        except (OSError, ValueError, ImportError):
            # No pool, no safe way to re-run a suspected crasher
            # in-process: keep the conviction.
            convict(str(exc))
            return
        try:
            if len(unit) == 1:
                idx = unit[0]
                future = pool.submit(self._task, self._task_payload(
                    specs[idx], fingerprints[idx]))
            else:
                future = pool.submit(
                    _group_worker_entry,
                    self._group_payload(unit, specs, fingerprints))
            try:
                payload = future.result(
                    timeout=self._pool_wait(len(unit)))
            except GroupInterrupted as interrupted:
                for idx, outcome in zip(unit, interrupted.outcomes):
                    self._record(idx, outcome, specs[idx],
                                 fingerprints, outcomes, cache)
                raise KeyboardInterrupt from None
            except FuturesTimeoutError:
                future.cancel()
                for idx in unit:
                    self._record(idx, ScenarioOutcome(
                        spec=specs[idx],
                        fingerprint=fingerprints[idx],
                        status=TIMEOUT, attempts=attempts[key],
                        error=f"exceeded {self.config.task_timeout}s "
                              f"task budget"),
                        specs[idx], fingerprints, outcomes, cache)
            except BrokenExecutor as broken:
                convict(str(broken))
            except Exception as error:  # pickling and kin
                message = "".join(traceback.format_exception_only(
                    type(error), error)).strip()
                for idx in unit:
                    self._record(idx, ScenarioOutcome(
                        spec=specs[idx],
                        fingerprint=fingerprints[idx],
                        status=ERROR, attempts=attempts[key],
                        error=message),
                        specs[idx], fingerprints, outcomes, cache)
            else:
                payloads = [payload] if len(unit) == 1 else payload
                parsed = self._parse_unit_payloads(
                    unit, payloads, specs, fingerprints)
                for idx, outcome in zip(unit, parsed):
                    outcome.attempts = attempts[key]
                    self._record(idx, outcome, specs[idx],
                                 fingerprints, outcomes, cache)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
