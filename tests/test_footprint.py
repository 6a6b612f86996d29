"""No command loads scipy or numpy.ma (which ``np.unique`` and numpy's set
functions import, at about 1 MB of RSS), every command runs with networkx
blocked from import, an infeasible division included, no module calls BLAS
or LAPACK, the chunked pairwise passes and the calibration rows keep their
working sets small, frames and children candidates hold few bytes per cell
and per candidate, with no object per candidate, and the registration
machine keeps no per-clique copy of its incidence rows.

The commands run in a fresh interpreter, since this test session has already
imported both packages elsewhere.
"""

import ast
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from conftest import THREE_IN_A_ROW

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import sys
from pathlib import Path

sys.modules["networkx"] = None  # any import of networkx now fails

from colony_track.cli import main
from colony_track.io import read_lineage_csv

def loaded():
    names = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    return names + [m for m in sys.modules if m == "numpy.ma"]

out, infeasible = Path(sys.argv[1]), sys.argv[2]
(out / "sim.json").write_text(json.dumps({
    "seed": 7, "n_frames": 10, "initial_cells": 4, "w": 45.0,
    "interframe_minutes": 1.0, "motion_sigma": 1.5, "substeps": 3,
}))
(out / "pipe.json").write_text(json.dumps({"w": 100.0, "tau": 45.0}))
frames, truth = str(out / "sim" / "frames.jsonl"), str(out / "sim" / "lineage.csv")
tracked = str(out / "track" / "tracking.csv")
commands = {
    "simulate": ["--config", str(out / "sim.json"), "--out", str(out / "sim")],
    "track": ["--frames", frames, "--config", str(out / "pipe.json"), "--seed", "3",
              "--out", str(out / "track")],
    "score": ["--predicted", tracked, "--ground-truth", truth],
    "calibrate": ["--frames", frames, "--ground-truth", truth, "--config",
                  str(out / "pipe.json"), "--out", str(out / "cal")],
    "track-infeasible": ["--frames", infeasible, "--out", str(out / "none")],
}
for name, args in commands.items():
    expected = 3 if name == "track-infeasible" else 0
    assert main([name.split("-")[0], *args, "--quiet"]) == expected, name
    print(name, loaded())
print(sum(len(rec.divided) for rec in read_lineage_csv(tracked)))
"""


def test_commands_leave_scipy_and_networkx_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(THREE_IN_A_ROW)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *commands, divisions = done.stdout.splitlines()
    names = ("simulate", "track", "score", "calibrate", "track-infeasible")
    assert commands == [f"{name} []" for name in names]
    assert int(divisions) > 0


# numpy names that hand their work to BLAS or LAPACK
BLAS_NAMES = {"linalg", "dot", "matmul", "inner", "vdot", "tensordot", "einsum"}


def _is_blas(dotted: str) -> bool:
    head, _, rest = dotted.partition(".")
    return head in ("np", "numpy") and rest.split(".")[0] in BLAS_NAMES


def test_no_module_calls_blas_or_lapack():
    # BLAS and LAPACK kernels round differently from one CPU to another
    # (FMA, blocking), so every product and solve in the tracker is written
    # as elementwise sums; ``@`` also goes to BLAS
    found = []
    for path in sorted((SRC / "colony_track").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if _is_blas(f"{node.value.id}.{node.attr}"):
                    found.append((path.name, node.lineno, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
                if any(_is_blas(prefix + alias.name) for alias in node.names):
                    found.append((path.name, node.lineno, "import"))
    assert found == []


def _peak_kib(run) -> float:
    """Peak of traced memory while ``run()`` runs, above what was allocated
    before it, in KiB; a first untraced call warms any caches."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        tracemalloc.stop()


def test_pairwise_passes_stay_within_their_memory_budget():
    # the last pipeline21 pair, 95 target cells: with chunks of 1 << 14
    # elements the graph peaked at 1 084 KiB and build_pch at 850 KiB
    from colony_track.division import build_pch
    from colony_track.geometry import build_neighbor_graph, pairs_within
    from trackbench import workloads

    wl = workloads.pipeline21(0)
    frame, next_frame = wl.frames[wl.pairs[-1]], wl.frames[wl.pairs[-1] + 1]
    assert _peak_kib(lambda: build_neighbor_graph(next_frame, 80.0)) < 400
    assert _peak_kib(lambda: build_pch(frame, next_frame)) < 500
    # the last tiled-large pair, 380 target cells and 19 174 candidate pairs
    # within 80 px: a one-pass pair search peaked at 1 362 KiB, the graph
    # at 1 504 KiB and build_pch at 798 KiB; runs of at most 4 096
    # candidates give 364, 505 and 579 KiB
    wl = workloads.tiled_large(0)
    frame, next_frame = wl.frames[wl.pairs[-1]], wl.frames[wl.pairs[-1] + 1]
    x, y = next_frame.centers().T
    assert _peak_kib(lambda: pairs_within(x, y, 80.0)) < 600
    assert _peak_kib(lambda: build_neighbor_graph(next_frame, 80.0)) < 800
    assert _peak_kib(lambda: build_pch(frame, next_frame)) < 700


def test_calibration_rows_stay_within_their_memory_budget(six_minute_run):
    # the six-minute run's pair 2: 1 366 rows of four penalty changes (43 KiB)
    # and their (site, alternative) labels. Rows written in place into one
    # array peak at about 140 KiB, mostly the labels; an array per row,
    # stacked at the end, peaked at 474 KiB
    import numpy as np

    from colony_track.calibration import build_perturbations
    from colony_track.registration import build_problem

    frames, lineage = six_minute_run.frames, six_minute_run.lineage
    src, dst = frames[2], frames[3]
    problem = build_problem(src, dst, w=100.0, rho=80.0, g_rate=1.005**6)
    truth = np.array([dst.position(lineage[2].moved[c.id]) for c in src.cells])
    inst = build_perturbations(truth, problem, all_alternatives=True)
    assert inst.perturbations.shape == (1366, 4)
    assert _peak_kib(lambda: build_perturbations(truth, problem, all_alternatives=True)) < 300


def test_tracking_a_tiled_pair_stays_within_its_memory_budget():
    # tiled-large pair 2 (368 source and 380 target cells, 12 divisions).
    # The peak came from the one-pass pair search, then from to_bm while
    # the untrimmed children candidates were still held, then from the
    # incidence rows' temporaries: 1 905 KiB with all three, 1 548 without
    from colony_track.pipeline import track_pair
    from trackbench import measure, workloads

    wl = workloads.tiled_large(0)
    k = wl.pairs[-1]
    frame, next_frame = wl.frames[k], wl.frames[k + 1]
    assert k == 2 and (len(frame), len(next_frame)) == (368, 380)
    assert _peak_kib(lambda: track_pair(frame, next_frame, measure.PIPELINE_CONFIG, k)) < 1700


def _held_bytes(build):
    """Traced memory still held once ``build()`` has returned, with what it
    returned; a first untraced call warms any caches."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base, built
    finally:
        tracemalloc.stop()


def _held_bytes_per_cell(build) -> float:
    """:func:`_held_bytes` of ``build()``'s frames, per cell."""
    held, frames = _held_bytes(build)
    return held / sum(len(f) for f in frames)


def test_frames_hold_few_bytes_per_cell(tmp_path):
    # a frame holds its cells as rows of endpoint, width, length, axis and
    # center arrays plus an id tuple and an id index, and builds Cell objects
    # only on request: 159 B per simulated cell and 207 B per cell read from
    # a file (distinct id strings). Frames that kept a Cell per cell, with
    # two endpoint arrays each, held 457 and 499 B.
    from colony_track.io import read_frames_jsonl, write_frames_jsonl
    from trackbench import workloads

    assert _held_bytes_per_cell(lambda: workloads.pipeline21(0).frames) < 250
    path = tmp_path / "frames.jsonl"
    write_frames_jsonl(workloads.pipeline21(0).frames, path)
    assert _held_bytes_per_cell(lambda: read_frames_jsonl(path)) < 250


def test_children_candidates_hold_few_bytes_each():
    # build_pch returns its candidates as arrays (two cell indices, a parent
    # index and five penalties) beside the frames' own id tuples: 64 B per
    # candidate and the array headers. A frozen dataclass row per candidate
    # held about 328 B on this pair.
    from colony_track.division import build_pch
    from trackbench import workloads

    wl = workloads.pipeline21(0)
    frame, next_frame = wl.frames[wl.pairs[-1]], wl.frames[wl.pairs[-1] + 1]
    held, candidates = _held_bytes(lambda: build_pch(frame, next_frame))
    assert len(candidates) > 300
    assert held / len(candidates) <= 120


def test_children_candidates_have_no_row_type():
    # the candidates are arrays from build_pch to the lineages: division
    # defines no class per candidate, and the kept candidates of a tracked
    # dividing pipeline21 pair hold arrays beside the frames' id tuples only
    import inspect

    import numpy as np

    from colony_track import division
    from colony_track.pipeline import track_pair
    from trackbench import measure, workloads

    own = [name for name, obj in vars(division).items()
           if inspect.isclass(obj) and obj.__module__ == division.__name__]
    assert [name for name in own if "Candidate" in name] == ["PairCandidates"]
    wl = workloads.pipeline21(0)
    record, diag = track_pair(wl.frames[16], wl.frames[17], measure.PIPELINE_CONFIG, 16)
    assert len(record.divided) == 2
    kept = diag.kept
    assert type(kept) is division.PairCandidates and not hasattr(kept, "__dict__")
    assert (kept.ids, kept.parent_ids) == (wl.frames[17].ids, wl.frames[16].ids)
    held = {name: type(getattr(kept, name)) for name in kept.__slots__}
    assert held == {"ids": tuple, "parent_ids": tuple, "cells": np.ndarray,
                    "parent": np.ndarray, "penalties": np.ndarray}


def test_registration_machine_holds_no_per_clique_copies():
    # pipeline21 pair 35 (division-free, 47 sites, 475 cliques). Only the
    # 332 cliques whose table holds a 1 are compiled, with 897 incidences
    # (1 323 for all 475). Per incidence the machine keeps a table base, its
    # own stride, two other sites with their strides and a weight (56 B); per
    # kept clique only its first site and that site's incidence row (16 B);
    # per candidate a target and a match cost, and the per-site offsets,
    # sizes, incidence starts and positions, each no longer than the
    # candidate list (48 B). A machine that also kept each clique's sites,
    # strides, base and weight (64 B per clique) would hold 81 140 B against
    # this budget's 62 996 B, bits included.
    import dataclasses

    import numpy as np

    from colony_track.registration import RegistrationProblem, build_problem
    from trackbench import measure, workloads

    wl, cfg = workloads.pipeline21(0), measure.PIPELINE_CONFIG
    problem = build_problem(
        wl.frames[35], wl.frames[36], w=cfg.w, rho=cfg.rho,
        weights=cfg.registration_weights, g_rate=cfg.g_rate,
    )
    assert "source_graph" not in {f.name for f in dataclasses.fields(RegistrationProblem)}
    assert not hasattr(problem, "source_graph")
    bm = problem.to_bm()
    held = vars(bm)
    assert all(isinstance(v, (np.ndarray, int, float)) for v in held.values())
    array_bytes = sum(v.nbytes for v in held.values() if isinstance(v, np.ndarray))
    incidences, cliques = len(bm.inc_base), len(bm.clique_rows)
    assert (incidences, cliques, sum(problem.clique_counts[1:])) == (897, 332, 475)
    budget = 56 * incidences + 16 * cliques + 48 * len(bm.targets)
    assert array_bytes <= budget + bm.bits.nbytes
