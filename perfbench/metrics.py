"""Metric names and units (the same lists BENCHMARK.json declares)."""

from __future__ import annotations

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("ok_ratio", "ratio"),
    ("resolved_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("smt.simplex.check_s", "s"),
    ("smt.simplex.pivots", "count"),
    ("smt.simplex.us_per_pivot", "us"),
    ("smt.sat.solve_s", "s"),
    ("smt.sat.decisions", "count"),
    ("smt.sat.conflicts", "count"),
    ("smt.optimize.calls", "count"),
    ("smt.optimize.s", "s"),
    ("search.max_impact.probes", "count"),
    ("core.session.warm_solves", "count"),
    ("smt.terms.interned_atoms", "count"),
    ("core.encoding.builds", "count"),
    ("core.encoding.encode_s", "s"),
    ("opf.lp.exact_solves", "count"),
    ("opf.lp.exact_s", "s"),
    ("validation.preflight_s", "s"),
    ("estimation.observability_s", "s"),
    ("numerics.factorizations", "count"),
    ("numerics.factor_s", "s"),
    ("numerics.solves", "count"),
    ("numerics.solve_s", "s"),
    ("numerics.rank_s", "s"),
    ("grid.sensitivities.ptdf_s", "s"),
    ("grid.sensitivities.lodf_calls", "count"),
    ("grid.sensitivities.rank1_updates", "count"),
    ("opf.shift_factor.solves", "count"),
    ("opf.shift_factor.rows_generated", "count"),
    ("opf.highs.calls", "count"),
    ("opf.highs.s", "s"),
    ("core.fast.candidates", "count"),
    ("core.fast.feasible_ratio", "ratio"),
    ("core.fast.escalations", "count"),
    ("core.session.open_s", "s"),
    ("core.session.analyze_s", "s"),
    ("service.overhead_p50_s", "s"),
    ("service.overhead_p95_s", "s"),
    ("service.worker_busy_ratio", "ratio"),
    ("service.retried", "count"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("service.restarts", "count"),
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.cache.hit_latency_p50_s", "s"),
    ("core.session.warm_hit_ratio", "ratio"),
    ("runner.engine.overhead_per_cell_s", "s"),
    ("runner.engine.busy_ratio", "ratio"),
    ("runner.engine.encodings_per_cell", "count"),
    ("runner.engine.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_coverage", "ratio"),
]

#: work counters that must repeat exactly between runs at one seed.
COUNTS = [name for name, unit in PER_LAYER if unit == "count"] \
    + ["ok_ratio", "resolved_ratio"]

UNITS = dict(END_TO_END + PER_LAYER)
