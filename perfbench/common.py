"""Measurement helpers shared by every workload.

Everything here is independent of ``repro``: percentiles with the
sample-count rule, the host-speed calibration kernel and its scaling
arithmetic, process-tree peak RSS, and the one-line JSON result.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

#: a tail percentile is reported only when at least this many samples lie
#: beyond it (p90 needs 100 samples, p95 needs 200).
TAIL_MIN_BEYOND = 10
TAILS = (("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def allowed_tails(count: int) -> List[str]:
    """Tail percentiles with >= TAIL_MIN_BEYOND samples beyond them."""
    return [name for name, q in TAILS
            if count * (1 - q) >= TAIL_MIN_BEYOND - 1e-9]


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """p50 always, plus every tail the sample count supports."""
    summary = {"n": len(values), "p50": percentile(values, 0.5)}
    for name, q in TAILS:
        if name in allowed_tails(len(values)):
            summary[name] = percentile(values, q)
    return summary


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the IQR as a share of the median."""
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "iqr_rel": 0.0,
                "max_rel": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else 0.0
    max_rel = (max(values) - min(values)) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_rel": rel,
            "max_rel": max_rel}


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------

def calibration_kernel() -> float:
    """One pass of the fixed reference work; returns its wall seconds.

    Pure-Python ``Fraction`` arithmetic (the exact path's cost model),
    one small dense numpy solve and one HiGHS ``linprog`` — the three
    kinds of work the workloads spend their time in.  Independent of
    ``repro``.
    """
    import numpy as np
    from scipy.optimize import linprog

    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 12001):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 13 + 7)
        if acc.denominator > 10 ** 40:
            acc = Fraction(acc.numerator % 1000003, 7)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 30)) + 30 * np.eye(30)
    np.linalg.solve(a, np.ones(30))
    c = np.arange(1.0, 41.0)
    a_ub = -np.abs(rng.standard_normal((30, 40)))
    linprog(c, A_ub=a_ub, b_ub=-np.ones(30), bounds=(0, 10),
            method="highs")
    return time.perf_counter() - started


class Calibrator:
    """Samples of the calibration kernel taken around and during a phase.

    Host speed on a shared machine moves within seconds, so one pass
    before and one after a timed phase say little about the phase
    itself.  In-process workloads sample between operations and scale
    each operation by the mean of the samples on either side of it;
    the others use the median of the samples before and after.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        calibration_kernel()    # pays imports and first-touch costs

    def sample(self, passes: int = 1) -> float:
        """Take ``passes`` samples; returns the last one."""
        # The cyclic collector's cost grows with the process's live
        # heap; with it off the kernel measures the host, not the heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.extend(calibration_kernel()
                                for _ in range(passes))
        finally:
            if enabled:
                gc.enable()
        return self.samples[-1]

    @property
    def seconds(self) -> float:
        return statistics.median(self.samples)


def calibrate(passes: int = 9) -> float:
    """Median kernel seconds over ``passes`` passes."""
    calibrator = Calibrator()
    calibrator.sample(passes)
    return calibrator.seconds


def scale_factor(reference_s: float, measured_s: float) -> float:
    """Multiplier that maps raw times on this host to the reference host.

    A host running 10% slow makes the kernel 10% slower, and the factor
    takes that 10% back out of every time metric.
    """
    if measured_s <= 0 or reference_s <= 0:
        raise ValueError("calibration times must be positive")
    return reference_s / measured_s


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child (e.g. pool workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process in MB, None when it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (via /proc children lists)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    kids = [int(p) for p in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def tree_peak_rss_mb(pids: Iterable[int]) -> float:
    """Maximum ``VmHWM`` over the given processes and their descendants."""
    peaks = []
    for pid in pids:
        for member in [pid] + descendants(pid):
            value = vm_hwm_mb(member)
            if value is not None:
                peaks.append(value)
    if not peaks:
        raise RuntimeError("no live process to read VmHWM from")
    return max(peaks)


# ---------------------------------------------------------------------------
# Result line
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
