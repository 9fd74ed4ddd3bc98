"""Scaling curves for the sparse linear-algebra path (300 → 10000 buses).

Each case runs the full analysis pipeline — matrix encode, PTDF/LODF
sensitivities, WLS estimation, and a warm shift-factor OPF sweep — in
its *own subprocess*, so peak RSS is a per-case measurement, not
polluted by earlier cases in the same process, and a runaway case is
stopped by a hard timeout instead of hanging the benchmark.

Each stage runs twice: an *untraced* pass for the reported seconds and
a tracemalloc pass for the allocation high-water mark (tracemalloc
hooks every allocation and would distort the timings).

Gates:

* every case completes;
* the synth2869 pipeline finishes inside ``BUDGET_SECONDS``;
* Sherman–Morrison rank-1 outage updates are measurably faster than
  refactorizing from scratch at synth1354 and synth2869.

Results are written to ``BENCH_scaling.json`` at the repository root.
Run a single case by hand with::

    PYTHONPATH=src python -m benchmarks.bench_scaling synth1354
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock budget for the synth2869 pipeline (README "Scaling the
#: grid axis").
BUDGET_SECONDS = 60
#: Safety timeout for a child (it should finish far sooner).
CHILD_TIMEOUT_SECONDS = 600

CASES = ("synth300", "synth1354", "synth2869", "synth10000")

LODF_SAMPLES = 12
ROW_SAMPLES = 4
SWEEP_CHANGES = 6
RANK1_SAMPLES = 8


# -- child: one case's pipeline -----------------------------------------

def _non_bridge_sample(grid, lines, count, seed):
    """Deterministic sample of outage-safe (non-bridge) lines."""
    rng = random.Random(seed)
    shuffled = list(lines)
    rng.shuffle(shuffled)
    picked = []
    for line in shuffled:
        if grid.is_connected([l for l in lines if l != line]):
            picked.append(line)
            if len(picked) == count:
                break
    return picked


def run_pipeline(case_name):
    """Run the four-stage pipeline; returns a JSON-ready dict."""
    from repro.benchlib import profile_resources, measured
    from repro.estimation.measurement import MeasurementPlan
    from repro.estimation.wls import WlsEstimator
    from repro.grid.cases import get_case
    from repro.grid.matrices import (
        flow_matrix,
        measurement_matrix,
        susceptance_matrix,
    )
    from repro.grid.sensitivities import compute_ptdf, lodf_column
    from repro.opf.shift_factor import ShiftFactorOpf, TopologyChange

    grid = get_case(case_name).build_grid()
    all_lines = [line.index for line in grid.lines]
    stages = {}

    def record(name, fn):
        result, seconds = measured(fn)        # untraced timing pass
        _, prof = profile_resources(fn)       # traced memory pass
        stages[name] = {
            "seconds": round(seconds, 4),
            "peak_alloc_mb": round(prof.peak_alloc_mb, 2),
            "peak_rss_mb": round(prof.peak_rss_mb, 2),
        }
        return result

    def encode():
        susceptance_matrix(grid, reduced=True)
        flow_matrix(grid)
        measurement_matrix(grid)

    record("encode", encode)

    outages = _non_bridge_sample(grid, all_lines, LODF_SAMPLES, seed=7)

    def ptdf_lodf():
        factors = compute_ptdf(grid)
        factors.columns(sorted(grid.generators))
        for line in outages:
            lodf_column(factors, line)
        for line in outages[:ROW_SAMPLES]:
            factors.row(line)
        return factors

    factors = record("ptdf_lodf", ptdf_lodf)

    def wls():
        plan = MeasurementPlan.full(grid)
        m = len(plan.taken_indices())
        estimator = WlsEstimator(plan, weights=np.ones(m))
        rng = np.random.default_rng(3)
        x_true = rng.normal(size=grid.num_buses - 1)
        estimator.estimate(estimator.H @ x_true)

    record("wls", wls)

    def warm_sweep():
        opf = ShiftFactorOpf(grid)
        opf.solve()
        for line in outages[:SWEEP_CHANGES]:
            opf.solve(change=TopologyChange("exclude", line))

    record("warm_sweep", warm_sweep)

    # Rank-1 Sherman-Morrison outage solve vs refactorize-and-solve.
    rng = np.random.default_rng(11)
    rhs = rng.normal(size=grid.num_buses - 1)
    rank1_lines = outages[:RANK1_SAMPLES]
    _, update_s = measured(lambda: [
        factors.outage_update(line).solve(rhs) for line in rank1_lines])
    _, refact_s = measured(lambda: [
        compute_ptdf(grid, [l for l in all_lines if l != line])
        .factorization.solve(rhs) for line in rank1_lines])
    return {
        "case": case_name,
        "status": "ok",
        "total_seconds": round(
            sum(s["seconds"] for s in stages.values()), 4),
        "stages": stages,
        "rank1": {
            "outages": len(rank1_lines),
            "update_seconds": round(update_s, 4),
            "refactorize_seconds": round(refact_s, 4),
            "speedup": round(refact_s / update_s, 2)
            if update_s > 0 else float("inf"),
        },
    }


# -- parent: orchestrate subprocesses, gate, write artifact -------------

def _run_child(case_name):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.bench_scaling", case_name],
            cwd=REPO_ROOT, env=env, timeout=CHILD_TIMEOUT_SECONDS,
            capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"status": "dnf",
                "budget_seconds": CHILD_TIMEOUT_SECONDS,
                "elapsed_seconds": round(
                    time.perf_counter() - started, 1)}
    if proc.returncode != 0:
        raise RuntimeError(f"{case_name} child failed:\n{proc.stderr}")
    line = [l for l in proc.stdout.splitlines() if l.strip()][-1]
    return json.loads(line)


@pytest.mark.paper("Sec. VI scalability (1k-10k bus growth curves)")
def test_scaling_pipeline(benchmark):
    from repro.grid.cases import get_case
    results = {}

    def run_all():
        for case_name in CASES:
            results[case_name] = _run_child(case_name)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for case_name in CASES:
        case = get_case(case_name)
        result = results[case_name]
        # Gate 1: the pipeline always completes.
        assert result["status"] == "ok", (case_name, result)
        rows.append((case_name, str(case.num_buses), str(case.num_lines),
                     f"{result['total_seconds']:.2f}",
                     f"{result['rank1']['speedup']:.1f}x"))

    # Gate 2: synth2869 fits the pipeline budget.
    assert results["synth2869"]["total_seconds"] < BUDGET_SECONDS
    # Gate 3: rank-1 updates measurably beat refactorization at scale.
    for case_name in ("synth1354", "synth2869"):
        rank1 = results[case_name]["rank1"]
        assert rank1["speedup"] > 1.0, (case_name, rank1)

    from repro.benchlib import format_table
    print()
    print(format_table(
        f"pipeline scaling (budget {BUDGET_SECONDS}s at synth2869)",
        ("case", "buses", "lines", "seconds", "rank-1 speedup"),
        rows))

    ARTIFACT.write_text(json.dumps({
        "benchmark": "scaling",
        "budget_seconds": BUDGET_SECONDS,
        "stages": ["encode", "ptdf_lodf", "wls", "warm_sweep"],
        "cases": {
            name: {
                "buses": get_case(name).num_buses,
                "lines": get_case(name).num_lines,
                **results[name],
            } for name in CASES
        },
    }, indent=2) + "\n")
    print(f"artifact written: {ARTIFACT}")


if __name__ == "__main__":
    print(json.dumps(run_pipeline(sys.argv[1])))
