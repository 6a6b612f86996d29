"""``build_pch`` and ``estimate_parent`` against a scalar reference.

The reference is the per-candidate, per-parent scalar code that
``division.build_pch`` ran before its array passes: one ``estimate_parent``
scan over the source frame per candidate and a 2 x 2 tip loop per pair,
emitting one ``(pair, lin, gap, dev, ratio, rank, parent)`` tuple per
candidate. The array passes keep its float operations, so the rows of
``build_pch``'s arrays must come out equal to the reference's tuples, not
merely close. No golden float hash is pinned: numpy's SIMD ``arccos``
moves the last bits of ``lin`` across CPUs, in both codes alike.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from colony_track import division
from colony_track.division import DistortionWeights, build_pch, estimate_parent
from colony_track.geometry import Cell

from conftest import candidate_rows, make_cell, make_frame, random_frame

pytestmark = pytest.mark.kernels

ROOT = Path(__file__).resolve().parents[1]


# -- scalar reference ---------------------------------------------------------


def ref_line_angle(u, v) -> float:
    nu = float(np.hypot(u[0], u[1]))
    nv = float(np.hypot(v[0], v[1]))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = abs(float(u[0] * v[0] + u[1] * v[1])) / (nu * nv)
    return float(np.arccos(min(1.0, c)))


# A cell is given as its frame and its position there; the references read
# the frame's centers, unit axes and lengths one row at a time.


def ref_distortion(frame, p, kids, k1, k2, weights) -> float:
    pc, pa, pl = frame.centers()[p], frame.axes[p], frame.lengths[p].item()
    (c1, c2), (a1, a2) = kids.centers()[[k1, k2]], kids.axes[[k1, k2]]
    cen = float(np.hypot(*(pc - (c1 + c2) / 2.0)))
    siz = abs(pl - (kids.lengths[k1].item() + kids.lengths[k2].item()))
    ang = ref_line_angle(pa, a1) + ref_line_angle(pa, a2) + ref_line_angle(pa, c2 - c1)
    return weights.cen * cen + weights.siz * siz + weights.ang * ang


def ref_shlin_admits(frame, p, kids, k1, k2, w) -> bool:
    pc, centers = frame.centers()[p], kids.centers()
    reach = w + frame.lengths[p].item() / 4.0
    return (
        float(np.hypot(*(centers[k1] - pc))) <= reach
        and float(np.hypot(*(centers[k2] - pc))) <= reach
    )


def ref_estimate_parent(kids, k1, k2, frame, w, weights, exclude=None):
    best = None
    for p, cid in enumerate(frame.ids):
        if exclude and cid in exclude:
            continue
        if not ref_shlin_admits(frame, p, kids, k1, k2, w):
            continue
        key = (ref_distortion(frame, p, kids, k1, k2, weights), cid)
        if best is None or key < best:
            best = key
    return None if best is None else (best[1], best[0])


def ref_pair_penalties(kids, k1, k2, l_min):
    best = None
    for x in (kids.e[k1], kids.h[k1]):
        for y in (kids.e[k2], kids.h[k2]):
            d = float(np.hypot(*(x - y)))
            if best is None or d < best[0]:
                best = (d, x, y)
    gap, x1, x2 = best
    m1, m2 = kids.centers()[[k1, k2]]
    sep = m2 - m1
    norm = float(np.hypot(*sep))
    if norm == 0.0:
        dev = math.inf
    else:
        d1 = abs(float(sep[0] * (x1 - m1)[1] - sep[1] * (x1 - m1)[0])) / norm
        d2 = abs(float(sep[0] * (x2 - m1)[1] - sep[1] * (x2 - m1)[0])) / norm
        dev = (d1 + d2) / norm
    l1, l2 = kids.lengths[k1].item(), kids.lengths[k2].item()
    ratio = abs(l1 / l2 + l2 / l1 - 2.0)
    rank = abs(l1 / l_min - 1.0) + abs(l2 / l_min - 1.0)
    return gap, dev, ratio, rank


def ref_build_pch(frame, next_frame, tau, w, weights):
    l_min = min(next_frame.lengths.tolist())
    centers = next_frame.centers()
    n = len(next_frame)
    out = []
    for i in range(n):
        dists = np.hypot(*(centers[i + 1 :] - centers[i]).T) if i + 1 < n else []
        for off, d in enumerate(dists):
            if d >= tau:
                continue
            k = i + 1 + off
            gap, dev, ratio, rank = ref_pair_penalties(next_frame, i, k, l_min)
            if not math.isfinite(dev):
                continue
            parent = ref_estimate_parent(next_frame, i, k, frame, w, weights)
            if parent is None:
                continue
            out.append(((next_frame.ids[i], next_frame.ids[k]), parent[1], gap, dev, ratio, rank,
                        parent[0]))
    return out


def assert_same(got, want):
    """Equal sequences ``got`` and ``want``. A failure shows the first
    difference only: pytest's full diff of two long candidate lists takes
    minutes."""
    diff = [(g, w) for g, w in zip(got, want) if g != w]
    assert (len(got), len(diff)) == (len(want), 0), diff[:1]


def assert_matches_reference(frame, next_frame, tau, w, weights=DistortionWeights()):
    got = candidate_rows(build_pch(frame, next_frame, tau, w, weights))
    assert_same(got, ref_build_pch(frame, next_frame, tau, w, weights))
    for pair, *_, parent in got:
        k1, k2 = map(next_frame.position, pair)
        for exclude in (None, {parent}):
            assert estimate_parent(
                next_frame, pair, frame, w, weights, exclude
            ) == ref_estimate_parent(next_frame, k1, k2, frame, w, weights, exclude)
    return got


# -- the gate's frames --------------------------------------------------------


def test_build_pch_matches_reference_on_every_pipeline_division_pair():
    from test_acceptance import PIPELINE_CONFIG
    from trackbench import workloads

    cfg = PIPELINE_CONFIG
    weights = cfg.division_weights.distortion
    wl = workloads.pipeline21(0)
    pairs = [k for k in wl.pairs if len(wl.frames[k + 1]) > len(wl.frames[k])]
    assert len(pairs) > 20
    total = 0
    for k in pairs:
        frame, next_frame = wl.frames[k], wl.frames[k + 1]
        got = candidate_rows(build_pch(frame, next_frame, cfg.tau, cfg.w, weights))
        assert_same(got, ref_build_pch(frame, next_frame, cfg.tau, cfg.w, weights))
        total += len(got)
    assert total > 1000


BLAS_PROBE = """
from colony_track import division
from trackbench import workloads

wl = workloads.pipeline21(0)
pairs = [k for k in wl.pairs if len(wl.frames[k + 1]) > len(wl.frames[k])][-4:]
for k in pairs:
    got = division.build_pch(wl.frames[k], wl.frames[k + 1])
    for j in range(len(got)):
        print(got.pair(j), *got.penalties[j].tolist(), got.parent_id(j))
"""


def test_candidates_equal_under_a_baseline_blas_kernel(capsys):
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Prescott",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }
    run = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True, check=True
    )
    exec(BLAS_PROBE, {})
    assert_same(run.stdout.splitlines(), capsys.readouterr().out.splitlines())


# -- constructed edge cases ---------------------------------------------------


def test_equal_distortion_parents_resolve_to_the_lower_id():
    twins = [make_cell(cid, (0, 0), length=40.0) for cid in ("q", "p", "r")]
    kids = make_frame([make_cell("a", (-10, 1), length=20.0), make_cell("b", (10, 1), length=20.0)])
    got = assert_matches_reference(make_frame(twins), kids, tau=45.0, w=45.0)
    assert [row[-1] for row in got] == ["p"]
    assert estimate_parent(kids, ("a", "b"), make_frame(twins), 45.0, exclude={"p"})[0] == "q"


def test_pair_exactly_tau_apart_is_excluded():
    frame = make_frame([make_cell("p", (13, 18), length=60.0)])
    kids = make_frame([make_cell("a", (0, 0), length=20.0), make_cell("b", (27, 36), length=20.0)])
    assert assert_matches_reference(frame, kids, tau=45.0, w=45.0) == []
    assert len(assert_matches_reference(frame, kids, tau=np.nextafter(45.0, 50.0), w=45.0)) == 1
    assert assert_matches_reference(frame, kids, tau=-45.0, w=45.0) == []


def test_child_exactly_at_the_reach_is_admitted():
    # reach = w + L/4 = 10 + 40/4 = 20
    frame = make_frame([make_cell("p", (0, 0), length=40.0)])
    kids = make_frame([make_cell("a", (-20, 0), length=20.0), make_cell("b", (20, 0), length=20.0)])
    assert [row[-1] for row in assert_matches_reference(frame, kids, tau=45.0, w=10.0)] == ["p"]
    assert assert_matches_reference(frame, kids, tau=45.0, w=9.999999) == []


def test_child_at_the_reach_after_rounding_is_admitted():
    # |-14.22 - 2.55| rounds to the reach 6.77 + 40/4 = 16.77, while
    # -14.22 + 16.77 rounds below 2.55: the parent search's x-band must
    # allow for rounding to keep this parent
    frame = make_frame([Cell("p", (2.55, -20.0), (2.55, 20.0), 7.0)])
    kids = make_frame(
        [Cell("a", (-14.22, -10.0), (-14.22, 10.0), 7.0), Cell("b", (2.55, 0.0), (2.55, 20.0), 7.0)]
    )
    assert [row[-1] for row in assert_matches_reference(frame, kids, tau=45.0, w=6.77)] == ["p"]


def test_equidistant_tips_match_the_reference():
    frame = make_frame([make_cell("p", (5, 1), angle=np.pi / 2, length=40.0)])
    kids = make_frame(
        [Cell("a", (0, -10), (0, 10), 7.0), Cell("b", (10, -8), (10, 12), 7.0)]
    )
    ((_, _, gap, *_),) = assert_matches_reference(frame, kids, tau=45.0, w=45.0)
    assert gap == float(np.hypot(10.0, 2.0))


def test_coincident_children_centers_are_dropped():
    frame = make_frame([make_cell("p", (0, 0), length=40.0)])
    kids = make_frame(
        [make_cell("a", (0, 0), length=20.0), make_cell("b", (0, 0), angle=np.pi / 2, length=20.0)]
    )
    assert assert_matches_reference(frame, kids, tau=45.0, w=45.0) == []


def test_pair_without_admissible_parent_is_dropped():
    frame = make_frame([make_cell("p", (300, 300), length=40.0)])
    kids = make_frame([make_cell("a", (-10, 0), length=20.0), make_cell("b", (10, 0), length=20.0)])
    assert assert_matches_reference(frame, kids, tau=45.0, w=45.0) == []
    assert estimate_parent(kids, ("a", "b"), frame, 45.0) is None


def test_parent_search_chunks_keep_the_lowest_id_tie_rule(monkeypatch):
    # 300 children give candidates over several chunks of the parent search,
    # whose rows it sorts by x; twins of every fifth parent, with ids sorting
    # before and after it, tie with it on distortion
    rng = np.random.default_rng(5)
    kids = random_frame(rng, 300, span=600.0, index=1)
    parents = random_frame(rng, 150, span=600.0).cells
    twins = [Cell(tag + c.id, c.e, c.h, c.width) for c in parents[::5] for tag in ("a", "z")]
    frame = make_frame(list(parents) + twins)
    calls = []
    distortion = division._distortion
    with monkeypatch.context() as patch:
        patch.setattr(division, "_distortion", lambda *args: calls.append(1) or distortion(*args))
        build_pch(frame, kids, 45.0, 45.0)
    assert len(calls) >= 3
    got = assert_matches_reference(frame, kids, tau=45.0, w=45.0)
    winners = {row[-1][0] for row in got}
    assert "a" in winners and "z" not in winners


# integer centers, eighth-turn angles and integer lengths make exact ties
# likely: Pythagorean distances equal to tau or to a reach, twin parents,
# coincident centers, equidistant tips
rod = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 7), st.integers(4, 32))


@given(
    st.lists(rod, min_size=1, max_size=6),
    st.lists(rod, min_size=2, max_size=9),
    st.integers(0, 2),
    st.sampled_from([5.0, 10.0, 15.0, 25.0]),
    st.sampled_from([0.0, 5.0, 8.0, 10.0]),
)
def test_build_pch_matches_reference_on_grid_frames(parents, kids, twins, tau, w):
    def cells(prefix, rods):
        return [
            make_cell(f"{prefix}{k}", (x, y), angle=turn * np.pi / 4, length=float(length))
            for k, (x, y, turn, length) in enumerate(rods)
        ]

    source = cells("p", parents)
    # copies of the first parent whose ids sort before and after it
    source += [Cell(cid, source[0].e, source[0].h, 5.0) for cid in ("a", "z")[:twins]]
    assert_matches_reference(make_frame(source), make_frame(cells("k", kids), index=1), tau, w)
