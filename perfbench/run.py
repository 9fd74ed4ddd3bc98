"""Benchmark entry point.

    python3 perfbench/run.py --workload exact_smt --seed 1 --seconds 10 --trace 0

prints diagnostics on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.

Other modes:

    --steady N          run the workload N times at one seed (fresh
                        processes) and report each metric's spread;
                        fails if any count differs between runs
    --make-table PATH   regenerate the expected-verdict table
    --calibrate         print the calibration kernel time
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact_smt", "fast_grid", "serve_mixed", "sweep_pool")


def _bootstrap() -> None:
    """Put the checkout's sources on the path; refuse to run without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    parser.add_argument("--make-table", metavar="PATH")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()

    if args.make_table:
        from perfbench import tables
        tables.write(args.make_table)
        return 0
    if args.calibrate:
        from perfbench import common
        print(f"calib_s {common.calibrate():.6f}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        from perfbench import workloads
        return workloads.probe_setup(args.workload, args.seed,
                                     args.seconds)
    if args.steady:
        from perfbench import steady
        return steady.run(args.workload, args.seed, args.seconds,
                          args.steady, args.trace)
    from perfbench import workloads
    return workloads.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
