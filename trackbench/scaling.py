#!/usr/bin/env python3
"""Traced scaling pass: per-layer seconds against cell count.

    python3 trackbench/scaling.py --tiles 1 2 4

Tracks the last pair of the pipeline21 run with each frame tiled T x T
(about 95, 380 and 1500 cells for T = 1, 2, 4), one traced pair per size,
and prints each build and anneal layer's seconds with the growth exponent
between consecutive sizes. Not a gated workload: run it by hand when
choosing which layer to make cheaper.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from trackbench import layers  # noqa: E402
from trackbench.measure import track_pass  # noqa: E402
from trackbench.spans import Tracer  # noqa: E402
from trackbench.workloads import tiled_large  # noqa: E402

LAYERS = (
    "division.build_pch_s",
    "division.build_children_bm_s",
    "division.max_disjoint_s",
    "division.children_to_bm_s",
    "annealer.swap_s",
    "division.select_short_lineages_s",
    "geometry.build_neighbor_graph_s",
    "registration.build_problem_s",
    "registration.fit_likelihood_s",
    "registration.to_bm_s",
    "registration.initial_assignment_s",
    "annealer.async_s",
    "registration.register_s",
    "pipeline.track_pair_self_s",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiles", type=int, nargs="+", default=[1, 2, 4])
    args = parser.parse_args(argv)
    warnings.filterwarnings("ignore", message=".*sizes differ.*")
    rows = []
    for tiles in args.tiles:
        wl = tiled_large(tiles=tiles, pairs=1)
        tracer = Tracer()
        layers.install(tracer)
        with tracer:
            out = track_pass(wl)
        per = layers.per_layer(tracer)
        rows.append((len(wl.frames[0]), out.track_s, {k: per[k][0] for k in LAYERS}))
        print(f"tiles {tiles}x{tiles}: {len(wl.frames[0])} cells, "
              f"pair {out.track_s:.2f} s", file=sys.stderr)
    sizes = [n for n, _, _ in rows]
    print(f"{'layer (seconds)':36s}" + "".join(f"{f'n={n}':>11s}" for n in sizes)
          + "   exponent")
    for name in LAYERS + ("track_pair",):
        values = [t if name == "track_pair" else layer[name] for _, t, layer in rows]
        slopes = [
            f"{math.log(b / a) / math.log(m / n):.2f}" if a > 0 and b > 0 else "-"
            for n, m, a, b in zip(sizes, sizes[1:], values, values[1:])
        ]
        print(f"{name:36s}" + "".join(f"{v:11.3f}" for v in values) + "   " + " ".join(slopes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
