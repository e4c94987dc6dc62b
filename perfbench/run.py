#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it start with ``#``.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, fixed before numpy loads: a two-thread request is
# fast only while both vCPUs are fast, and they often switch independently.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="kreinx CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "kreinx" / "__init__.py").is_file():
        print(f"error: no kreinx package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    import kreinx

    if Path(kreinx.__file__).resolve().parent != SRC / "kreinx":
        print(f"error: kreinx was imported from {kreinx.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import runner

    runner.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
