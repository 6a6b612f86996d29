#!/usr/bin/env python3
"""Tracking benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 trackbench/run.py --workload reg6min --seed 0 --seconds 20 --trace 0

Run from the repository root. The tracker is imported from ``src/``. With
``--trace 0`` the run sets the workload up (median over set-ups), tracks it,
checks every output and prints the end-to-end metrics. With
``--trace 1`` it tracks the workload once untraced and once with every layer
wrapped, checks that both give identical outputs and prints the per-layer
metrics. The last line of output is one JSON object. See README.md.
"""

import os

# One thread per process for BLAS and OpenMP; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("reg6min", "pipeline21", "tiled-large")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the acceptance gate's inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; sets how many tracking passes a run makes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="track the acceptance gate's complete workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "colony_track" / "__init__.py").is_file():
        print(f"trackbench: no colony_track sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from trackbench.bench import run_traced, run_untraced
    from trackbench.workloads import SetupError

    warnings.filterwarnings("ignore", message=".*sizes differ.*")
    try:
        if args.trace:
            return run_traced(args.workload, args.seed, args.full)
        return run_untraced(args.workload, args.seed, args.seconds, args.full)
    except SetupError as exc:
        print(f"trackbench: set-up failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
