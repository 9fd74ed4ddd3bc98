"""Steadiness mode: one workload, one seed, N fresh runs.

Prints every metric's median, quartiles and maximum relative spread,
and fails (exit code 1) naming the counter when a work count differs
between runs — counts come from the program's deterministic work (pivots,
decisions, conflicts, HiGHS calls, factorizations, candidates, encodings)
and from the verdict checks (``ok_ratio``, ``resolved_ratio``), so any
difference is a determinism bug, not noise.  Use ``--trace 1`` to check
the per-layer counters, ``--trace 0`` for the end-to-end metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

from perfbench import common, metrics

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def one_run(workload: str, seed: int, seconds: float,
            trace: int) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed with exit code {done.returncode}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"run reported failures: {last}")
    return {key: entry["value"] for key, entry in last["metrics"].items()}


#: counts that legitimately vary between runs of one seed.  The service
#: dispatches each request to whichever worker is idle (there is no
#: session affinity), so which warm session, and how warm, answers a
#: request depends on timing; the SMT work of serve requests follows.
ROUTING_DEPENDENT = {"serve_mixed": {"smt.simplex.pivots",
                                     "smt.sat.decisions",
                                     "smt.sat.conflicts"}}


def differing_counts(workload: str,
                     runs: List[Dict[str, float]]) -> List[str]:
    """Names of the count metrics whose value is not identical in all runs."""
    exempt = ROUTING_DEPENDENT.get(workload, set())
    return [name for name in metrics.COUNTS
            if name in runs[0] and name not in exempt
            and len({run[name] for run in runs}) > 1]


def run(workload: str, seed: int, seconds: float, repeats: int,
        trace: int) -> int:
    runs = []
    for index in range(repeats):
        runs.append(one_run(workload, seed, seconds, trace))
        print(f"# run {index + 1}/{repeats} done", flush=True)
    for name in runs[0]:
        values = [r[name] for r in runs]
        s = common.spread(values)
        print(f"{name:40s} median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} max-spread {100 * s['max_rel']:.2f}%")
    bad = differing_counts(workload, runs)
    for name in bad:
        print(f"COUNT DIFFERS: {name}: {[r[name] for r in runs]}")
    return 1 if bad else 0
