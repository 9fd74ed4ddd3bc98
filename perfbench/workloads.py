"""The four workloads and the run that measures one of them.

A run sets up (several times, reporting the median), warms up without
timing, calibrates the host, times the seeded operations, calibrates
again, re-verifies any operation the table lists as undecided but the
run decided, and prints the result line.  With tracing on, in-process
workloads time the same operations twice, untraced then traced, and
report per-layer numbers from the traced pass.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from perfbench import common, metrics, ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE_PATH = os.path.join(HERE, "expected.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 3


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def info(message: str) -> None:
    print(f"# {message}", flush=True)


@dataclass
class OpResult:
    op: ops.Op
    latency: float = 0.0
    verdict: Optional[str] = None
    ok: bool = False
    resolved: bool = False
    error: Optional[str] = None
    #: the table said "undecided" but this run decided the op.
    reverify: bool = False
    #: calibration kernel seconds around the op (None: phase median).
    host_s: Optional[float] = None
    counts: Dict[str, float] = field(default_factory=dict)


def check(op: ops.Op, table: Dict[str, Any], verdict: str,
          bracket: Optional[Dict[str, Any]] = None) -> OpResult:
    """Compare one op's verdict (and I* bracket) with the table."""
    result = OpResult(op, verdict=verdict)
    entry = table["entries"].get(op.key)
    if entry is None:
        result.error = f"no expected entry for {json.dumps(op.spec)}"
        return result
    result.resolved = verdict in ("sat", "unsat")
    if bracket is not None:
        result.ok = (bracket["status"] == entry["status"]
                     and bracket["lo"] == entry["lo"]
                     and bracket["hi"] == entry["hi"])
        if not result.ok:
            result.error = f"I* bracket {bracket} != table {entry}"
    elif entry["verdict"] == "undecided" and result.resolved:
        result.ok = True
        result.reverify = True
    else:
        result.ok = verdict == entry["verdict"]
        if not result.ok:
            result.error = (f"verdict {verdict} != expected "
                            f"{entry['verdict']} for {json.dumps(op.spec)}")
    return result


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

class InProcess:
    """Shared driver of the single-threaded in-process workloads."""

    exit_code = 0

    def __init__(self, name: str, seed: int, seconds: float,
                 table: Dict[str, Any]) -> None:
        from perfbench import harness
        self.harness = harness
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.table = table
        self.warm = ops.warmup_ops(name, seed, table)
        self.ops = ops.timed_ops(name, seed, seconds, table)
        self.builder = None
        self.sessions: Dict[Tuple[str, bool], Any] = {}

    def setup(self) -> None:
        """Load every case the run needs and open the warm sessions."""
        builder = self.harness.CaseBuilder()
        for op in self.warm + self.ops:
            builder.build(op.spec)
        self.builder = builder
        self.sessions = {}
        for op in self.ops:
            if op.spec["op"] == "maximize":
                key = (op.spec["case"], op.spec["state"])
                if key not in self.sessions:
                    self.sessions[key] = self.harness.open_analyzer(
                        builder.build(op.spec), op.spec, incremental=True)

    def setup_pass(self) -> float:
        """Seconds a fresh interpreter takes to import and set up."""
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             self.name, "--seed", str(self.seed), "--seconds",
             str(self.seconds), "--setup-probe"], check=True, timeout=120,
            stdout=subprocess.DEVNULL)
        return time.perf_counter() - started

    def warmup(self) -> None:
        for op in self.warm:
            self.harness.run_analyze(self.builder, op.spec)
        # every warm session answers one decision query at a warm-up
        # target before the timed phase (never a timed target).
        for (case, state), session in self.sessions.items():
            probe = next((op.spec for op in self.warm
                          if op.spec["case"] == case), self.warm[0].spec)
            session.solve_at(Fraction(probe["target"] or 1),
                             with_state_infection=state)

    def execute(self, op: ops.Op) -> OpResult:
        from repro.smt import SolverBudget
        spec = op.spec
        if spec["op"] == "maximize":
            budget = SolverBudget()
            session = self.sessions[(spec["case"], spec["state"])]
            outcome = session.max_impact(
                tolerance=Fraction(spec["tolerance"]), budget=budget,
                query_attrs={"with_state_infection": spec["state"]})
            bracket = self.harness.bracket_of(outcome)
            verdict = "sat" if outcome.satisfiable else "unsat"
            result = check(op, self.table, verdict, bracket)
            result.resolved = outcome.status == "complete"
            result.counts = {"probes": len(outcome.probes),
                             "warm_solves": outcome.warm_solves}
        else:
            analyzer, report, budget = self.harness.run_analyze(
                self.builder, spec)
            result = check(op, self.table, self.harness.verdict_of(report))
            result.counts = self._fast_counts(analyzer, report)
        if budget is not None:
            result.counts.update(pivots=budget.pivots,
                                 decisions=budget.decisions,
                                 conflicts=budget.conflicts)
        return result

    @staticmethod
    def _fast_counts(analyzer, report) -> Dict[str, float]:
        if not hasattr(analyzer, "evaluations"):
            return {}
        evaluations = analyzer.evaluations
        sf = analyzer._sf_opf
        return {"candidates": len(evaluations),
                "feasible": sum(e.best_increase_percent is not None
                                for e in evaluations),
                "escalations": report.trace.session.get(
                    "boundary_escalations", 0),
                "rows_generated": 0 if sf is None else sf.rows_generated}

    def reverify(self, result: OpResult) -> OpResult:
        """Certified re-run plus the fast-SAT => exact-SAT direction rule."""
        spec = result.op.spec
        _, report, _ = self.harness.run_analyze(self.builder, spec,
                                                self_check=True)
        certified = self.harness.verdict_of(report)
        fast_spec = dict(spec, analyzer="fast")
        fast_spec.pop("max_pivots", None)
        _, fast_report, _ = self.harness.run_analyze(self.builder,
                                                     fast_spec)
        if certified != result.verdict or report.certified is False:
            result.ok = False
            result.error = (f"certified re-run says {certified}, timed "
                            f"run said {result.verdict}")
        elif self.harness.verdict_of(fast_report) == "sat" \
                and result.verdict != "sat":
            result.ok = False
            result.error = "fast analyzer found an attack the exact " \
                           "run calls unsat"
        return result

    def peak_rss_mb(self) -> float:
        return common.self_peak_rss_mb()

    def layer_metrics(self, results: List[OpResult], tracer,
                      wall: float, untraced_wall: float
                      ) -> Dict[str, float]:
        from repro.smt.terms import Atom
        totals = tracer.totals()

        def self_s(name):
            entry = totals.get(name)
            return entry.self_seconds if entry else 0.0

        def calls(name):
            entry = totals.get(name)
            return entry.calls if entry else 0

        def inclusive(name):
            entry = totals.get(name)
            return entry.seconds if entry else 0.0

        count = _summed_counts(results)
        pivots = count.get("pivots", 0)
        candidates = count.get("candidates", 0)
        return {
            "smt.simplex.check_s": self_s("smt.simplex.check"),
            "smt.simplex.pivots": pivots,
            "smt.simplex.us_per_pivot":
                1e6 * self_s("smt.simplex.check") / pivots if pivots else 0,
            "smt.sat.solve_s": self_s("smt.sat.solve"),
            "smt.sat.decisions": count.get("decisions", 0),
            "smt.sat.conflicts": count.get("conflicts", 0),
            "smt.optimize.calls": calls("smt.optimize"),
            "smt.optimize.s": inclusive("smt.optimize"),
            "search.max_impact.probes": count.get("probes", 0),
            "core.session.warm_solves": count.get("warm_solves", 0),
            "smt.terms.interned_atoms": len(Atom._interned),
            "core.encoding.builds": calls("core.encoding.build"),
            "core.encoding.encode_s": self_s("core.encoding.build"),
            "opf.lp.exact_solves": calls("opf.lp.exact"),
            "opf.lp.exact_s": self_s("opf.lp.exact"),
            "validation.preflight_s": self_s("validation.preflight"),
            "estimation.observability_s":
                self_s("estimation.observability"),
            "numerics.factorizations": calls("numerics.factor"),
            "numerics.factor_s": self_s("numerics.factor"),
            "numerics.solves": calls("numerics.solve"),
            "numerics.solve_s": self_s("numerics.solve"),
            "numerics.rank_s": self_s("numerics.rank"),
            "grid.sensitivities.ptdf_s": self_s("grid.sensitivities.ptdf"),
            "grid.sensitivities.lodf_calls":
                calls("grid.sensitivities.lodf"),
            "grid.sensitivities.rank1_updates":
                calls("grid.sensitivities.rank1"),
            "opf.shift_factor.solves": calls("opf.shift_factor.solve"),
            "opf.shift_factor.rows_generated":
                count.get("rows_generated", 0),
            "opf.highs.calls": calls("opf.highs"),
            "opf.highs.s": self_s("opf.highs"),
            "core.fast.candidates": candidates,
            "core.fast.feasible_ratio":
                count.get("feasible", 0) / candidates if candidates else 0,
            "core.fast.escalations": count.get("escalations", 0),
            "core.session.open_s": inclusive("core.session.open"),
            "core.session.analyze_s": inclusive("core.session.analyze"),
            "trace.overhead_ratio": wall / untraced_wall,
            "trace.self_time_coverage": tracer.self_sum() / wall,
        }

    def close(self) -> None:
        self.sessions = {}


def _summed_counts(results: List[OpResult]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for result in results:
        for key, value in result.counts.items():
            total[key] = total.get(key, 0) + value
    return total


def run_inprocess_phase(workload: InProcess, tracer=None,
                        calibrator=None
                        ) -> Tuple[List[OpResult], List[Tuple[float, float]]]:
    """Time every op; returns the results and ``(seconds, host seconds)``
    per op.

    A closed loop of one thread: throughput is ops over the summed op
    time, so the calibration samples taken between ops are not counted.
    """
    results: List[OpResult] = []
    before = calibrator.sample() if calibrator is not None else None
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.id
            root = tracer.enter("op")
        begin = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # the run goes on; the op is failed
            result = OpResult(op, error=f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.exit(root)
        result.latency = time.perf_counter() - begin
        if calibrator is not None:
            after = calibrator.sample()
            result.host_s = (before + after) / 2
            before = after
        results.append(result)
    return results, [(r.latency, r.host_s) for r in results]


# ---------------------------------------------------------------------------
# serve_mixed: a `repro serve` subprocess and two closed-loop clients
# ---------------------------------------------------------------------------

class Server:
    """One ``python -m repro serve --workers 2`` child process."""

    def __init__(self, work_dir: str, tag: str) -> None:
        self.cache_dir = os.path.join(work_dir, f"cache-{tag}")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.log = open(os.path.join(work_dir, f"serve-{tag}.log"), "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--session-limit", "8",
             "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            cwd=work_dir, env=env)
        self.url = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        from repro.service.client import ServiceClient
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"serve did not start: {banner!r}")
        self.url = banner.split()[4]
        ServiceClient(self.url, sleep=lambda _: time.sleep(0.01)
                      ).wait_ready(timeout)
        return time.perf_counter() - self.started

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()
        return self.proc.returncode


def _serve_payload(spec: Dict[str, Any]) -> Tuple[str, Dict[str, Any],
                                                  Dict[str, Any]]:
    payload: Dict[str, Any] = {"case": spec["case"],
                               "analyzer": spec["analyzer"],
                               "with_state_infection": spec["state"]}
    options: Dict[str, Any] = {}
    if spec["op"] == "maximize":
        payload["tolerance"] = spec["tolerance"]
        return "maximize", payload, options
    if spec.get("target") is not None:
        payload["target"] = spec["target"]
    if spec.get("max_pivots"):
        options["budget"] = {"max_pivots": spec["max_pivots"]}
    return "analyze", payload, options


class ServeMixed:
    """``serve_mixed``: the service child process and its two clients."""

    def __init__(self, seed: int, seconds: float, table: Dict[str, Any],
                 work_dir: str) -> None:
        self.table = table
        self.work_dir = work_dir
        self.warm = ops.warmup_ops("serve_mixed", seed, table)
        self.ops = ops.timed_ops("serve_mixed", seed, seconds, table)
        self.server: Optional[Server] = None
        self._setups = 0
        self.outcomes: Dict[int, Dict[str, Any]] = {}
        self.rss_mb = 0.0
        self.exit_code = 0

    def setup_pass(self) -> float:
        """Start a server and wait until it is ready (the last one stays)."""
        if self.server is not None:
            self.server.stop()
        self._setups += 1
        self.server = Server(self.work_dir, str(self._setups))
        return self.server.wait_ready()

    def setup(self) -> None:
        """The timed server of the run is the last set-up pass's."""

    def _client(self):
        from repro.service.client import ServiceClient
        return ServiceClient(self.server.url, retries=5)

    def _send(self, client, op: ops.Op) -> OpResult:
        kind, payload, options = _serve_payload(op.spec)
        begin = time.perf_counter()
        try:
            call = client.maximize if kind == "maximize" \
                else client.analyze
            response = call(payload, **options)
        except Exception as exc:  # dropped after retries, or rejected
            result = OpResult(op, error=f"{type(exc).__name__}: {exc}")
            result.latency = time.perf_counter() - begin
            return result
        latency = time.perf_counter() - begin
        outcome = response["outcome"]
        self.outcomes[op.id] = outcome
        status = outcome["status"]
        if status == "ok":
            verdict = "sat" if outcome["satisfiable"] else "unsat"
        elif status == "unknown":
            verdict = "undecided"
        else:
            verdict = status
        bracket = None
        if kind == "maximize" and outcome.get("max_impact"):
            mi = outcome["max_impact"]
            bracket = {"status": mi["status"], "lo": mi["lower_bound"],
                       "hi": mi["upper_bound"]}
        result = check(op, self.table, verdict, bracket)
        if bracket is not None:
            result.resolved = bracket["status"] == "complete"
        if op.ref is not None and not outcome.get("cache_hit"):
            result.ok = False
            result.error = f"repeat of op {op.ref} was not a cache hit"
        result.latency = latency
        return result

    def warmup(self) -> None:
        client = self._client()
        for op in self.warm:
            self._send(client, op)
        self.outcomes.clear()

    def run_phase(self, calibrator: common.Calibrator
                  ) -> Tuple[List[OpResult], List[Tuple[float, float]]]:
        """Send the ops round by round from two closed-loop clients.

        Both clients finish a round before the next starts, and a
        calibration sample is taken between rounds while the service is
        idle; each round is scaled by the samples on either side of it.
        Returns the results and ``(round seconds, host seconds)``.
        """
        size = sum(ops.ROUNDS["serve_mixed"].values())
        clients = [self._client(), self._client()]
        results: Dict[int, OpResult] = {}
        segments: List[Tuple[float, float]] = []

        def drive(client, lane: List[ops.Op]) -> None:
            for op in lane:
                results[op.id] = self._send(client, op)

        before = calibrator.sample()
        for start in range(0, len(self.ops), size):
            chunk = self.ops[start:start + size]
            threads = [threading.Thread(
                target=drive, args=(clients[c],
                                    [op for op in chunk if op.client == c]))
                for c in (0, 1)]
            began = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
            seconds = time.perf_counter() - began
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("serve clients did not finish")
            after = calibrator.sample()
            host = (before + after) / 2
            for op in chunk:
                results[op.id].host_s = host
            segments.append((seconds, host))
            before = after
        return [results[op.id] for op in self.ops], segments

    def stats(self) -> Dict[str, Any]:
        return self._client().stats()

    def finish(self) -> None:
        """Read the process-tree peak RSS, then stop the service."""
        self.rss_mb = common.tree_peak_rss_mb([self.server.proc.pid])
        self.exit_code = self.server.stop()
        self.server = None

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def layer_metrics(self, results: List[OpResult], stats: Dict[str, Any],
                      wall: float) -> Dict[str, float]:
        computed = [r for r in results if r.op.id in self.outcomes
                    and not self.outcomes[r.op.id].get("cache_hit")]
        hits = [r for r in results if r.op.id in self.outcomes
                and self.outcomes[r.op.id].get("cache_hit")]
        overhead = [r.latency - self.outcomes[r.op.id]["task_seconds"]
                    for r in computed]
        task = sum(self.outcomes[r.op.id]["task_seconds"]
                   for r in computed)
        smt = [self.outcomes[r.op.id]["trace"].get("smt", {})
               for r in computed]
        session = [self.outcomes[r.op.id]["trace"].get("session", {})
                   for r in computed]
        opf_exact = [self.outcomes[r.op.id]["trace"].get("opf", {})
                     for r in computed if r.op.spec["analyzer"] == "smt"]
        fast = [self.outcomes[r.op.id] for r in computed
                if r.op.spec["analyzer"] == "fast"]
        maxes = [self.outcomes[r.op.id]["max_impact"] for r in computed
                 if self.outcomes[r.op.id].get("max_impact")]
        counters = stats["counters"]
        info(f"service overhead samples: {len(overhead)} computed, "
             f"{len(hits)} cache hits")
        return {
            "smt.simplex.pivots": sum(s.get("simplex_pivots", 0)
                                      for s in smt),
            "smt.sat.solve_s": sum(s.get("total_seconds", 0.0)
                                   for s in smt),
            "smt.sat.decisions": sum(s.get("decisions", 0) for s in smt),
            "smt.sat.conflicts": sum(s.get("conflicts", 0) for s in smt),
            "search.max_impact.probes": sum(len(m["probes"])
                                            for m in maxes),
            "core.session.warm_solves": sum(m["warm_solves"]
                                            for m in maxes),
            "core.encoding.builds": sum(s.get("encodings_built", 0)
                                        for s in session),
            "core.encoding.encode_s": sum(s.get("encode_seconds", 0.0)
                                          for s in session),
            "opf.lp.exact_solves": sum(o.get("solves", 0)
                                       for o in opf_exact),
            "opf.lp.exact_s": sum(o.get("seconds", 0.0) for o in opf_exact),
            "opf.shift_factor.solves": sum(
                o["trace"].get("opf", {}).get("solves", 0) for o in fast),
            "core.fast.candidates": sum(o["candidates_examined"]
                                        for o in fast),
            "service.overhead_p50_s": common.percentile(overhead, 0.5),
            "service.overhead_p95_s": common.percentile(overhead, 0.95),
            "service.worker_busy_ratio": task / (wall * 2),
            "service.retried": counters["retried"],
            "service.shed": counters["shed"],
            "service.failed": counters["failed"],
            "service.restarts": sum(w["restarts"]
                                    for w in stats["workers"]),
            "runner.cache.hit_ratio": len(hits) / len(results),
            "runner.cache.hit_latency_p50_s":
                common.percentile([r.latency for r in hits], 0.5)
                if hits else 0,
            "core.session.warm_hit_ratio": stats["warm_hit_ratio"],
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# ---------------------------------------------------------------------------
# sweep_pool: SweepEngine process pools over regional ieee118 grids
# ---------------------------------------------------------------------------

class SweepPool(InProcess):
    """``sweep_pool``: one SweepEngine process pool per operation."""

    def __init__(self, seed: int, seconds: float, table: Dict[str, Any],
                 work_dir: str) -> None:
        super().__init__("sweep_pool", seed, seconds, table)
        self.work_dir = work_dir
        self.grids: Dict[int, List[Any]] = {}
        self._runs = 0
        self.traces: List[Any] = []

    def setup(self) -> None:
        from repro.grid.caseio import write_case
        from repro.runner.spec import ScenarioSpec
        builder = self.harness.CaseBuilder()
        texts: Dict[str, str] = {}
        grids = {}
        for op in self.warm + self.ops:
            cells = []
            for cell in op.spec["cells"]:
                group = json.dumps(cell["alterable"])
                if group not in texts:
                    texts[group] = write_case(builder.build(cell))
                cells.append(ScenarioSpec.build(
                    f"ieee118-r{cell['alterable'][0]}", analyzer="fast",
                    case_text=texts[group], target=cell["target"]))
            grids[id(op)] = cells
        self.builder, self.grids = builder, grids

    def _sweep(self, op: ops.Op):
        from repro.runner.engine import SweepConfig, SweepEngine
        self._runs += 1
        cache_dir = os.path.join(self.work_dir, f"sweep-{self._runs}")
        return SweepEngine(SweepConfig(workers=2, cache_dir=cache_dir)
                           ).run(self.grids[id(op)])

    def warmup(self) -> None:
        for op in self.warm:
            self._sweep(op)

    def execute(self, op: ops.Op) -> OpResult:
        trace = self._sweep(op)
        self.traces.append(trace)
        cells = [check(ops.Op(op.id, "cell", cell), self.table,
                       _sweep_verdict(outcome))
                 for cell, outcome in zip(op.spec["cells"], trace.outcomes)]
        result = OpResult(op, verdict="sweep")
        result.ok = len(cells) == len(op.spec["cells"]) \
            and all(c.ok for c in cells)
        result.resolved = all(c.resolved for c in cells)
        errors = [c.error for c in cells if c.error]
        result.error = errors[0] if errors else None
        return result

    def peak_rss_mb(self) -> float:
        return max(common.self_peak_rss_mb(), common.children_peak_rss_mb())

    def sweep_metrics(self) -> Dict[str, float]:
        outcomes = [o for t in self.traces for o in t.outcomes]
        cells = len(outcomes)
        task = sum(o.task_seconds for o in outcomes)
        capacity = sum(t.wall_seconds * t.workers for t in self.traces)
        session = [o.trace.get("session", {}) for o in outcomes]
        return {
            "runner.engine.overhead_per_cell_s": (capacity - task) / cells,
            "runner.engine.busy_ratio": task / capacity,
            "runner.engine.encodings_per_cell":
                sum(s.get("encodings_built", 0) for s in session) / cells,
            "runner.engine.retries": sum(o.attempts - 1 for o in outcomes),
            "runner.cache.hit_ratio": sum(o.cache_hit for o in outcomes)
            / cells,
            "core.encoding.builds": sum(s.get("encodings_built", 0)
                                        for s in session),
            "core.encoding.encode_s": sum(s.get("encode_seconds", 0.0)
                                          for s in session),
            "core.fast.candidates": sum(o.candidates_examined
                                        for o in outcomes),
            "opf.shift_factor.solves": sum(
                o.trace.get("opf", {}).get("solves", 0) for o in outcomes),
        }


def _sweep_verdict(outcome) -> str:
    if outcome.status == "ok":
        return "sat" if outcome.satisfiable else "unsat"
    if outcome.status == "unknown":
        return "undecided"
    return outcome.status


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    """Set-up passes: raw seconds and seconds scaled to the reference."""

    raw: List[float]
    scaled: List[float]


def _timed_setup(workload, calibrator: common.Calibrator,
                 reference_s: float) -> Setup:
    """Time ``SETUP_REPEATS`` set-up passes, each between two samples."""
    setup = Setup([], [])
    before = calibrator.sample()
    for _ in range(SETUP_REPEATS):
        seconds = workload.setup_pass()
        after = calibrator.sample()
        setup.raw.append(seconds)
        setup.scaled.append(seconds * common.scale_factor(
            reference_s, (before + after) / 2))
        before = after
    return setup


def probe_setup(name: str, seed: int, seconds: float) -> int:
    """One set-up pass in a fresh interpreter (``--setup-probe``)."""
    table = load_json(TABLE_PATH)
    workload = SweepPool(seed, seconds, table, WORK_DIR) \
        if name == "sweep_pool" else InProcess(name, seed, seconds, table)
    workload.setup()
    return 0


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    table = load_json(TABLE_PATH)
    reference = load_json(REFERENCE_PATH)
    work_dir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(name, seed, seconds, traced, table, reference,
                    work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def _run(name, seed, seconds, traced, table, reference, work_dir) -> int:
    if name == "serve_mixed":
        workload = ServeMixed(seed, seconds, table, work_dir)
    elif name == "sweep_pool":
        workload = SweepPool(seed, seconds, table, work_dir)
    else:
        workload = InProcess(name, seed, seconds, table)
    calibrator = common.Calibrator()
    try:
        setup = _timed_setup(workload, calibrator, reference["calib_s"])
        workload.setup()
        workload.warmup()
        calibrator.sample(5)
        layer: Dict[str, float] = {}
        if name == "serve_mixed":
            results, segments = workload.run_phase(calibrator)
        else:
            results, segments = run_inprocess_phase(workload,
                                                    calibrator=calibrator)
        wall = sum(seconds for seconds, _ in segments)
        if traced and name in ("exact_smt", "fast_grid"):
            layer, results = _traced_pass(workload, wall)
        elif traced:
            # the subprocess workloads' layer numbers come back with the
            # results; tracing only costs their extraction
            started = time.perf_counter()
            layer = workload.sweep_metrics() if name == "sweep_pool" \
                else workload.layer_metrics(results, workload.stats(), wall)
            layer["trace.overhead_ratio"] = \
                (wall + time.perf_counter() - started) / wall
        if name == "serve_mixed":
            workload.finish()
        calibrator.sample(5)
        rss = workload.peak_rss_mb()
        for result in results:
            if result.reverify and result.ok:
                workload.reverify(result)
    finally:
        workload.close()
    exit_code = workload.exit_code
    return report(name, seed, traced, results, segments, setup,
                  calibrator, rss, layer, reference, exit_code)


def _traced_pass(workload: InProcess, untraced_wall: float
                 ) -> Tuple[Dict[str, float], List[OpResult]]:
    """The same ops again with every layer entry point wrapped in spans."""
    from perfbench import tracer as tracing
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        results, segments = run_inprocess_phase(workload, tracer)
        wall = sum(seconds for seconds, _ in segments)
    finally:
        uninstall()
    return workload.layer_metrics(results, tracer, wall,
                                  untraced_wall), results


def report(name, seed, traced, results: List[OpResult],
           segments: List[Tuple[float, float]], setup: Setup, calibrator,
           rss, layer, reference, exit_code) -> int:
    """Print the diagnostics and the result line.

    Time metrics are also given scaled to the reference host: each op
    latency by the host speed measured around it, throughput by the
    summed scaled ``segments`` of the phase, set-up pass by pass.
    ``reference.json`` names, per workload, the metrics reported scaled.
    """
    wall = sum(seconds for seconds, _ in segments)
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    latencies = [r.latency for r in results]
    summary = common.latency_summary(latencies)
    factor = common.scale_factor(reference["calib_s"], calibrator.seconds)
    scaled = reference["scaled"][name]
    raw = {"setup_s": statistics.median(setup.raw),
           "ops_per_s": attempted / wall,
           "latency_p50_s": summary["p50"],
           "ok_ratio": (attempted - failed) / attempted,
           "resolved_ratio": sum(r.resolved for r in results) / attempted,
           "peak_rss_mb": rss}
    ref = reference["calib_s"]
    median = calibrator.seconds
    each = [r.latency * common.scale_factor(ref, r.host_s or median)
            for r in results]
    scaled_wall = sum(seconds * common.scale_factor(ref, host or median)
                      for seconds, host in segments)
    adjusted = dict(raw, setup_s=statistics.median(setup.scaled),
                    ops_per_s=attempted / scaled_wall,
                    latency_p50_s=common.percentile(each, 0.5))
    info(f"workload {name} seed {seed}: {attempted} ops in {wall:.3f}s "
         f"({_class_mix(results)})")
    samples = calibrator.samples
    info(f"calib_s {calibrator.seconds:.6f} (median of {len(samples)} "
         f"samples, {min(samples):.6f}..{max(samples):.6f}; reference "
         f"{reference['calib_s']:.6f}, scale {factor:.4f}); "
         f"reported scaled: {', '.join(scaled) or 'none'}")
    info(f"setup passes {[round(s, 4) for s in setup.raw]} raw, "
         f"{[round(s, 4) for s in setup.scaled]} scaled")
    info("latency " + ", ".join(
        f"{k}={v:.6f}s" if k != "n" else f"n={v}"
        for k, v in summary.items()))
    for key, _ in metrics.END_TO_END:
        info(f"{key}: raw {raw[key]:.6f} scaled {adjusted[key]:.6f}")
    for result in results:
        if not result.ok:
            info(f"FAILED op {result.op.id} ({result.op.cls}): "
                 f"{result.error}")
    if exit_code not in (0, None):
        info(f"serve exited with code {exit_code}")
        failed = max(failed, 1)
    if traced:
        values = {key: layer.get(key, 0) for key, _ in metrics.PER_LAYER}
    else:
        values = {key: adjusted[key] if key in scaled else raw[key]
                  for key, _ in metrics.END_TO_END}
    payload = {key: common.metric(value, metrics.UNITS[key])
               for key, value in values.items()}
    print(common.result_line(failed == 0, attempted, failed, payload),
          flush=True)
    return 0


def _class_mix(results: List[OpResult]) -> str:
    """Per class: op count and median latency (where p50 falls)."""
    mix: Dict[str, List[float]] = {}
    for result in results:
        mix.setdefault(result.op.cls, []).append(result.latency)
    return ", ".join(f"{k}={len(v)}@{statistics.median(v):.3f}s"
                     for k, v in sorted(mix.items()))
