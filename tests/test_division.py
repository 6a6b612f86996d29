import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colony_track import division, io, pipeline
from colony_track.annealer import Schedule
from colony_track.division import (
    DEFAULT_TRIM_THRESHOLDS,
    PENALTY_NAMES,
    DistortionWeights,
    DivisionWeights,
    PairCandidates,
    build_children_bm,
    build_pch,
    estimate_parent,
    reduce_frames,
    select_short_lineages,
    solve_children_bm,
    trim_candidates,
)
from colony_track.errors import InfeasibleError, ValidationError
from colony_track.geometry import Frame

from conftest import candidate_rows, candidates_from_rows, make_cell, make_frame


def cell_between(cid, a, b, length=12.0, angle=0.0):
    return make_cell(cid, (np.asarray(a) + np.asarray(b)) / 2.0, angle=angle, length=length)


# -- plausible pair construction --------------------------------------------


def test_pch_center_distance_boundary():
    parent = make_cell("p", (0, 0), length=40.0)
    frame = make_frame([parent])
    near = [make_cell("a", (-22, 0), length=18.0), make_cell("b", (22, 0), length=18.0)]
    nxt = make_frame(near, index=1)
    got = build_pch(frame, nxt, tau=45.0, w=45.0)
    assert [got.pair(j) for j in range(len(got))] == [("a", "b")]
    exact = make_frame(
        [make_cell("a", (-22.5, 0), length=18.0), make_cell("b", (22.5, 0), length=18.0)],
        index=1,
    )
    assert len(build_pch(frame, exact, tau=45.0, w=45.0)) == 0  # distance exactly tau


def test_pch_drops_pairs_without_feasible_parent():
    frame = make_frame([make_cell("p", (500, 500), length=20.0)])
    nxt = make_frame(
        [make_cell("a", (0, 0), length=18.0), make_cell("b", (20, 0), length=18.0)],
        index=1,
    )
    assert len(build_pch(frame, nxt, tau=45.0, w=45.0)) == 0


def test_pch_matches_bruteforce_pair_filter():
    rng = np.random.default_rng(3)
    parents = [
        make_cell(f"p{i}", rng.uniform(20, 180, size=2), angle=rng.uniform(0, np.pi), length=35.0)
        for i in range(6)
    ]
    frame = make_frame(parents)
    kids = [
        make_cell(f"k{i}", rng.uniform(20, 180, size=2), angle=rng.uniform(0, np.pi), length=16.0)
        for i in range(10)
    ]
    nxt = make_frame(kids, index=1)
    cands = build_pch(frame, nxt, tau=60.0, w=200.0)
    got = {frozenset(cands.pair(j)) for j in range(len(cands))}
    # quadratic oracle: all pairs below tau (every pair has a feasible parent
    # because w is large)
    want = set()
    centers = nxt.centers()
    for a, b in itertools.combinations(range(len(nxt)), 2):
        if np.hypot(*(centers[a] - centers[b])) < 60.0:
            want.add(frozenset((nxt.ids[a], nxt.ids[b])))
    assert got == want


# -- distortion ---------------------------------------------------------------


def distortion_of(parent, c1, c2, weights=DistortionWeights()):
    """The distortion ``estimate_parent`` reports for the only, feasible, parent."""
    kids = make_frame([c1, c2], index=1)
    return estimate_parent(kids, (c1.id, c2.id), make_frame([parent]), 1e3, weights)[1]


def test_distortion_zero_for_perfect_split():
    parent = make_cell("p", (0, 0), length=40.0)
    c1 = make_cell("a", (-10, 0), length=20.0)
    c2 = make_cell("b", (10, 0), length=20.0)
    assert distortion_of(parent, c1, c2) == pytest.approx(0.0, abs=1e-12)


def test_distortion_maximal_angles():
    w = DistortionWeights(cen=0.0, siz=0.0, ang=1.0)
    parent = make_cell("p", (0, 0), length=40.0)
    # children pair rotated 90 degrees as a unit around the parent center
    c1 = make_cell("a", (0, -10), angle=np.pi / 2, length=20.0)
    c2 = make_cell("b", (0, 10), angle=np.pi / 2, length=20.0)
    assert distortion_of(parent, c1, c2, w) == pytest.approx(3 * np.pi / 2, abs=1e-12)


def test_distortion_coincident_children_centers():
    w = DistortionWeights(cen=0.0, siz=0.0, ang=1.0)
    parent = make_cell("p", (0, 0), length=40.0)
    c1 = make_cell("a", (5, 5), angle=0.0, length=20.0)
    c2 = make_cell("b", (5, 5), angle=0.0, length=20.0)
    # separation angle of coincident centers counts as zero
    assert distortion_of(parent, c1, c2, w) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 300))
def test_distortion_matches_reference_formula(seed):
    rng = np.random.default_rng(seed)
    cells = [
        make_cell(
            str(i),
            rng.uniform(-30, 30, size=2),
            angle=rng.uniform(0, np.pi),
            length=rng.uniform(10, 40),
        )
        for i in range(3)
    ]
    p, c1, c2 = cells
    w = DistortionWeights(*rng.uniform(0.01, 2.0, size=3))

    def line_angle_ref(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 0.0
        c = abs(np.dot(u, v)) / (nu * nv)
        return math.acos(min(1.0, c))

    frame = make_frame(cells)
    (pc, c1c, c2c), (pa, c1a, c2a) = frame.centers(), frame.axes
    expected = (
        w.cen * np.linalg.norm(pc - (c1c + c2c) / 2.0)
        + w.siz * abs(p.length - c1.length - c2.length)
        + w.ang
        * (
            line_angle_ref(pa, c1a)
            + line_angle_ref(pa, c2a)
            + line_angle_ref(pa, c2c - c1c)
        )
    )
    assert distortion_of(p, c1, c2, w) == pytest.approx(expected, abs=1e-12)


# -- parent estimation --------------------------------------------------------


def test_estimate_parent_single_feasible():
    parent = make_cell("p", (0, 0), length=40.0)
    far = make_cell("q", (400, 400), length=40.0)
    frame = make_frame([parent, far])
    kids = make_frame([make_cell("a", (-10, 1), length=20.0), make_cell("b", (10, 1), length=20.0)])
    got = estimate_parent(kids, ("a", "b"), frame, w=45.0)
    # only the 1 px offset of the children midpoint costs: cen * 1
    assert got is not None and got[0] == "p"
    assert got[1] == pytest.approx(DistortionWeights().cen)


def test_estimate_parent_empty_feasible_set():
    frame = make_frame([make_cell("p", (400, 400), length=20.0)])
    kids = make_frame([make_cell("a", (-10, 0), length=20.0), make_cell("b", (10, 0), length=20.0)])
    assert estimate_parent(kids, ("a", "b"), frame, w=45.0) is None


@given(st.integers(0, 200))
def test_estimate_parent_symmetric_in_children(seed):
    rng = np.random.default_rng(seed)
    frame = make_frame(
        [
            make_cell(f"p{i}", rng.uniform(-40, 40, size=2), angle=rng.uniform(0, np.pi), length=30.0)
            for i in range(4)
        ]
    )
    kids = make_frame(
        [make_cell(cid, rng.uniform(-30, 30, size=2), length=15.0) for cid in ("a", "b")], index=1
    )
    want = estimate_parent(kids, ("a", "b"), frame, w=45.0)
    assert estimate_parent(kids, ("b", "a"), frame, w=45.0) == want


def test_estimate_parent_against_simulator_truth(minute_run):
    frames, lineage = minute_run.frames, minute_run.lineage
    total = correct = 0
    for rec in lineage:
        if not rec.divided:
            continue
        f0, f1 = frames[rec.frame_index], frames[rec.frame_index + 1]
        for parent, (k1, k2) in rec.divided.items():
            got = estimate_parent(f1, (k1, k2), f0, w=45.0)
            total += 1
            correct += got is not None and got[0] == parent
    assert total > 50
    assert correct / total >= 0.95


# -- pair penalties -----------------------------------------------------------


def kid_penalties(c1, c2, l_min):
    """(gap, dev, ratio, rank) that ``build_pch``'s kernel gives the pair, as floats."""
    kids = make_frame([c1, c2], index=1)
    return [float(v[0]) for v in division._pair_penalties(kids, [0], [1], l_min)]


def test_penalties_ideal_newborn_pair():
    c1 = make_cell("a", (-10, 0), length=20.0)
    c2 = make_cell("b", (10, 0), length=20.0)  # endpoints touch at origin
    gap, dev, ratio, rank = kid_penalties(c1, c2, l_min=20.0)
    assert gap == pytest.approx(0.0, abs=1e-12)
    assert dev == pytest.approx(0.0, abs=1e-12)
    assert ratio == pytest.approx(0.0)
    assert rank == pytest.approx(0.0)


def test_ratio_for_double_length():
    c1 = make_cell("a", (-10, 0), length=20.0)
    c2 = make_cell("b", (10, 0), length=10.0)
    _, _, ratio, _ = kid_penalties(c1, c2, l_min=10.0)
    assert ratio == pytest.approx(abs(2.0 + 0.5 - 2.0))


def test_dev_sentinel_for_coincident_centers():
    c1 = make_cell("a", (0, 0), length=20.0)
    c2 = make_cell("b", (0, 0), angle=0.3, length=20.0)
    _, dev, _, _ = kid_penalties(c1, c2, l_min=20.0)
    assert math.isinf(dev)


@given(st.integers(0, 300))
def test_penalties_match_reference_formulas(seed):
    rng = np.random.default_rng(seed)
    c1 = make_cell("a", rng.uniform(-20, 20, size=2), angle=rng.uniform(0, np.pi), length=rng.uniform(8, 30))
    c2 = make_cell("b", rng.uniform(-20, 20, size=2), angle=rng.uniform(0, np.pi), length=rng.uniform(8, 30))
    l_min = float(rng.uniform(5, 12))
    gap, dev, ratio, rank = kid_penalties(c1, c2, l_min)
    tips = [(x, y) for x in (c1.e, c1.h) for y in (c2.e, c2.h)]
    dists = [np.linalg.norm(x - y) for x, y in tips]
    assert gap == pytest.approx(min(dists), abs=1e-12)
    x1, x2 = tips[int(np.argmin(dists))]
    m1, m2 = make_frame([c1, c2]).centers()
    sep = m2 - m1
    norm = np.linalg.norm(sep)
    d1 = abs(sep[0] * (x1 - m1)[1] - sep[1] * (x1 - m1)[0]) / norm
    d2 = abs(sep[0] * (x2 - m1)[1] - sep[1] * (x2 - m1)[0]) / norm
    assert dev == pytest.approx((d1 + d2) / norm, abs=1e-12)
    assert ratio == pytest.approx(abs(c1.length / c2.length + c2.length / c1.length - 2))
    assert rank == pytest.approx(abs(c1.length / l_min - 1) + abs(c2.length / l_min - 1))


# -- trimming -----------------------------------------------------------------


def _candidate(pair, lin=0.1, gap=1.0, dev=0.1, ratio=0.1, rank=0.1, parent="p"):
    return pair, lin, gap, dev, ratio, rank, parent


def test_trim_rejects_only_when_all_exceed():
    thresholds = {"gap": 5.0, "dev": 0.5, "rank": 1.0}
    bad = _candidate(("a", "b"), gap=9.0, dev=2.0, rank=3.0)
    saved = _candidate(("a", "c"), gap=9.0, dev=0.2, rank=3.0)
    kept = trim_candidates(candidates_from_rows([bad, saved]), thresholds)
    assert candidate_rows(kept) == [saved]


def test_trim_unknown_name_rejected():
    with pytest.raises(ValidationError):
        trim_candidates(candidates_from_rows([_candidate(("a", "b"))]), {"bogus": 1.0})


# -- children BM --------------------------------------------------------------


def _toy_candidates(rng, m, cells=8):
    names = [f"t{i}" for i in range(cells)]
    cands = []
    seen = set()
    while len(cands) < m:
        a, b = rng.choice(cells, size=2, replace=False)
        key = frozenset((names[a], names[b]))
        if key in seen:
            continue
        seen.add(key)
        cands.append(
            _candidate(
                (names[a], names[b]),
                lin=float(rng.uniform(0, 2)),
                gap=float(rng.uniform(0, 5)),
                dev=float(rng.uniform(0, 0.5)),
                ratio=float(rng.uniform(0, 0.3)),
                rank=float(rng.uniform(0, 1)),
                parent=f"p{len(cands)}",
            )
        )
    return cands


def test_children_bm_energy_contract():
    rng = np.random.default_rng(0)
    cands = candidates_from_rows(_toy_candidates(rng, 6))
    problem = build_children_bm(cands, div_count=2)
    bm = problem.to_bm()
    assert bm.energy(np.zeros(6, np.int64)) == 0.0
    # two candidates sharing exactly one cell score the quadratic penalty
    share = None
    for j in range(6):
        for k in range(j + 1, 6):
            if problem.q[j, k]:
                share = (j, k)
    if share is None:
        pytest.skip("no conflicting pair in this draw")
    z = np.zeros(6)
    z[list(share)] = 1
    expected = problem.v[list(share)].sum() + problem.lambda_q * 2.0
    assert bm.energy(z.astype(np.int64)) == pytest.approx(expected, abs=1e-12)


def test_children_bm_exhaustive_small():
    rng = np.random.default_rng(5)
    cands = candidates_from_rows(_toy_candidates(rng, 5))
    problem = build_children_bm(cands, div_count=2)
    bm = problem.to_bm()
    best = min(
        bm.energy(np.array([1 if i in comb else 0 for i in range(5)]))
        for comb in itertools.combinations(range(5), 2)
    )
    picked = solve_children_bm(problem, rng_seed=1)
    z = np.zeros(5, np.int64)
    z[picked] = 1
    assert bm.energy(z) == pytest.approx(best, abs=1e-9)


def test_children_bm_validation_and_infeasibility():
    with pytest.raises(ValidationError):
        build_children_bm(candidates_from_rows([]), 1)
    rng = np.random.default_rng(2)
    cands = candidates_from_rows(_toy_candidates(rng, 3, cells=3))  # only 3 cells: max 1 disjoint
    assert division.max_disjoint_candidates(cands) == 1
    problem = build_children_bm(cands, div_count=2)
    with pytest.raises(InfeasibleError, match="no disjoint selection of 2 children pairs"):
        solve_children_bm(problem, rng_seed=0)


@given(st.integers(0, 10**6))
def test_conflict_matrix_matches_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(2, 12))
    cands = _toy_candidates(rng, int(rng.integers(1, cells * (cells - 1) // 2 + 1)), cells)
    m = len(cands)
    expected = np.zeros((m, m), dtype=np.uint8)
    for j in range(m):
        for k in range(j + 1, m):
            if len(set(cands[j][0]) & set(cands[k][0])) == 1:
                expected[j, k] = expected[k, j] = 1
    q = build_children_bm(candidates_from_rows(cands), 1).q
    assert q.dtype == np.uint8 and np.array_equal(q, expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_candidates_from_rows_and_from_arrays_build_the_same_problem(seed):
    # the rows number their cells by first appearance, the arrays in reverse
    # id order: the problems must agree up to that relabelling
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(2, 8))
    rows = _toy_candidates(rng, int(rng.integers(1, cells * (cells - 1) // 2 + 1)), cells)
    div_count = int(rng.integers(1, len(rows) + 1))
    weights = DivisionWeights(**{name: float(rng.uniform(0, 2)) for name in PENALTY_NAMES})
    ids = sorted({cid for row in rows for cid in row[0]}, reverse=True)
    parents = sorted({row[-1] for row in rows})
    arrays = PairCandidates(
        ids,
        [[ids.index(cid) for cid in row[0]] for row in rows],
        parents,
        [parents.index(row[-1]) for row in rows],
        [row[1:6] for row in rows],
    )
    from_rows = candidates_from_rows(rows)
    assert candidate_rows(arrays) == rows == candidate_rows(from_rows)
    w = weights
    combined = [
        w.lin * lin + w.gap * gap + w.dev * dev + w.ratio * ratio + w.rank * rank
        for _, lin, gap, dev, ratio, rank, _ in rows
    ]
    problems = [build_children_bm(cands, div_count, weights) for cands in (from_rows, arrays)]
    schedule = Schedule(c=5.0, eta=0.995, epoch_cap=30)
    picks = []
    for problem in problems:
        assert problem.v.tolist() == combined  # bit for bit
        named = [[problem.candidates.ids[c] for c in pair] for pair in problem.cells.tolist()]
        assert named == [list(row[0]) for row in rows]
        try:
            picks.append(solve_children_bm(problem, schedule, rng_seed=seed))
        except InfeasibleError as exc:  # both problems must fail alike
            picks.append(str(exc))
    first, second = problems
    assert np.array_equal(first.q, second.q)
    assert first.lambda_q == second.lambda_q
    assert picks[0] == picks[1]


def test_candidate_arrays_select_by_slice_mask_and_index():
    rows = _toy_candidates(np.random.default_rng(4), 6)
    cands = candidates_from_rows(rows)
    assert len(cands) == 6 and candidate_rows(cands) == rows
    assert (cands.pair(2), cands.parent_id(2)) == (rows[2][0], rows[2][-1])
    assert candidate_rows(cands[1:4]) == rows[1:4]
    assert candidate_rows(cands[np.array([5, 0])]) == [rows[5], rows[0]]
    assert candidate_rows(cands[cands.penalties[:, 0] > 1.0]) == [r for r in rows if r[1] > 1.0]
    assert candidate_rows(trim_candidates(cands, {})) == rows
    assert len(PairCandidates([], np.empty((0, 2)), [], [], [])) == 0
    with pytest.raises(ValueError):
        cands.cells[0, 0] = 1  # read-only
    with pytest.raises(ValueError, match="distinct ids"):
        PairCandidates(["a", "a"], [[0, 1]], ["p"], [0], [[0.0] * 5])


def test_children_bm_rejects_repeated_or_one_cell_pairs():
    cands = _toy_candidates(np.random.default_rng(1), 3)
    flipped = (cands[0][0][::-1], 0.0, 0.0, 0.0, 0.0, 0.0, None)
    one_cell = (("t0", "t0"), 0.0, 0.0, 0.0, 0.0, 0.0, None)
    for bad in (flipped, one_cell):
        with pytest.raises(ValidationError, match="distinct pairs of two cells"):
            build_children_bm(candidates_from_rows(cands + [bad]), 1)


@given(st.integers(0, 10**6))
def test_solve_raises_exactly_when_the_matching_oracle_falls_short(seed):
    # every selection of an infeasible count shares a cell, so any schedule
    # must raise there; a short one keeps the test fast
    import networkx as nx

    rng = np.random.default_rng(seed)
    cells = int(rng.integers(2, 7))
    cands = _toy_candidates(rng, int(rng.integers(1, cells * (cells - 1) // 2 + 1)), cells)
    graph = nx.Graph([row[0] for row in cands])
    oracle = len(nx.max_weight_matching(graph, maxcardinality=True))
    short = Schedule(c=5.0, eta=0.995, epoch_cap=30)
    with mock.patch.object(
        division, "max_disjoint_candidates", wraps=division.max_disjoint_candidates
    ) as matching:
        for div_count in range(1, len(cands) + 1):
            problem = build_children_bm(candidates_from_rows(cands), div_count)
            if oracle < div_count:
                text = f"no disjoint selection of {div_count} children pairs was found"
                with pytest.raises(InfeasibleError, match=text):
                    solve_children_bm(problem, short)
            else:
                picked = solve_children_bm(problem)
                used = [cid for j in picked for cid in cands[j][0]]
                assert len(picked) == div_count and len(used) == len(set(used))
    assert matching.call_count == 0  # tracking never runs the exact matching


def test_selected_pairs_disjoint_when_possible(minute_run):
    frames, lineage = minute_run.frames, minute_run.lineage
    rec = max(lineage, key=lambda r: r.n_divisions)
    f0, f1 = frames[rec.frame_index], frames[rec.frame_index + 1]
    cands = trim_candidates(build_pch(f0, f1, tau=45.0, w=45.0))
    problem = build_children_bm(cands, rec.n_divisions)
    picked = solve_children_bm(problem, rng_seed=3)
    used = [cid for j in picked for cid in cands.pair(j)]
    assert len(used) == len(set(used))
    assert len(picked) == rec.n_divisions


# sha256 over (pair index, selected candidate pairs) of every division pair
# of the full-pipeline gate run; pins the swap chain's trajectory bit for bit
GOLDEN_SELECTION_DIGEST = "72c9e0292d930baa96fb81deca9c9a369b79573467779512adc9d768f37fc8de"


@pytest.mark.kernels
def test_children_selections_match_golden_digest():
    from test_acceptance import PIPELINE_CONFIG
    from trackbench import workloads

    cfg = PIPELINE_CONFIG
    wl = workloads.pipeline21(0)
    h = hashlib.sha256()
    for k in wl.pairs:
        frame, next_frame = wl.frames[k], wl.frames[k + 1]
        div_count = len(next_frame) - len(frame)
        if div_count == 0:
            continue
        cands = trim_candidates(
            build_pch(frame, next_frame, cfg.tau, cfg.w, cfg.division_weights.distortion),
            cfg.trim_thresholds,
        )
        problem = build_children_bm(cands, div_count, cfg.division_weights)
        picked = solve_children_bm(
            problem,
            cfg.children_schedule,
            rng_seed=pipeline._pair_seed(cfg.seed, k, 0),
        )
        h.update(repr((k, [cands.pair(j) for j in picked])).encode())
    assert h.hexdigest() == GOLDEN_SELECTION_DIGEST


def test_children_bm_memory_linear_in_candidates():
    # the energy keeps two cell ids per candidate; a dense m x m conflict
    # matrix on this pair (m = 1 616) would take 2.6 MB
    import tracemalloc

    from trackbench import measure, workloads

    cfg = measure.PIPELINE_CONFIG
    wl = workloads.tiled_large(0)
    frame, next_frame = wl.frames[wl.pairs[0]], wl.frames[wl.pairs[0] + 1]
    cands = trim_candidates(
        build_pch(frame, next_frame, cfg.tau, cfg.w, cfg.division_weights.distortion),
        cfg.trim_thresholds,
    )
    assert len(cands) > 1000
    tracemalloc.start()
    try:
        build_children_bm(cands, len(next_frame) - len(frame), cfg.division_weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


# -- lineages and reduction ---------------------------------------------------


def test_select_short_lineages_resolves_parent_conflicts():
    p1 = make_cell("p1", (0, 0), length=40.0)
    p2 = make_cell("p2", (6, 6), length=38.0)
    frame = make_frame([p1, p2])
    kids = [
        make_cell("a1", (-10, 0), length=20.0),
        make_cell("a2", (10, 0), length=20.0),
        make_cell("b1", (-4, 6), length=19.0),
        make_cell("b2", (16, 6), length=19.0),
    ]
    nxt = make_frame(kids, index=1)
    cands = build_pch(frame, nxt, tau=45.0, w=45.0)
    by_pair = {frozenset(cands.pair(j)): j for j in range(len(cands))}
    picks = [by_pair[frozenset(("a1", "a2"))], by_pair[frozenset(("b1", "b2"))]]
    divided, dropped = select_short_lineages(frame, nxt, cands, picks, w=45.0)
    assert not dropped
    assert set(divided) == {"p1", "p2"}


def test_select_short_lineages_re_estimates_a_taken_parent_from_frame_rows(monkeypatch):
    # both selected pairs estimate p1; the second is re-estimated, from the
    # target frame's rows, while frames refuse to build Cell objects
    frame = make_frame(
        [make_cell("p1", (0, 0), length=40.0), make_cell("p2", (0, 30), length=40.0)]
    )
    kids = {"a1": (-10, 0), "a2": (10, 0), "b1": (-10, 12), "b2": (10, 12)}
    nxt = make_frame([make_cell(cid, xy, length=20.0) for cid, xy in kids.items()], index=1)
    cands = build_pch(frame, nxt, tau=45.0, w=45.0)
    pairs = [cands.pair(j) for j in range(len(cands))]
    picks = [pairs.index(("a1", "a2")), pairs.index(("b1", "b2"))]
    assert [cands.parent_id(j) for j in picks] == ["p1", "p1"]
    want = select_short_lineages(frame, nxt, cands, picks, w=45.0)

    def refuse(*args):
        raise AssertionError("the children stage built Cell objects from a frame")

    monkeypatch.setattr(Frame, "cells", property(refuse))
    calls = []
    estimate = division.estimate_parent
    monkeypatch.setattr(
        division, "estimate_parent", lambda *a, **k: calls.append(a) or estimate(*a, **k)
    )
    divided, dropped = select_short_lineages(frame, nxt, cands, picks, w=45.0)
    assert (divided, dropped) == want and len(calls) == 1
    assert list(divided.items()) == [("p1", ("a1", "a2")), ("p2", ("b1", "b2"))]
    assert not dropped


def test_reduce_frames_cardinalities():
    parents = [make_cell(f"p{i}", (40.0 * i, 0), length=40.0) for i in range(4)]
    frame = make_frame(parents)
    kids = [make_cell(f"k{i}", (40.0 * i, 1.0), length=20.0) for i in range(5)]
    nxt = make_frame(kids + [make_cell("k9", (60, 40), length=20.0)], index=1)
    red_b, red_b_plus = reduce_frames(frame, nxt, {"p1": ("k1", "k2"), "p3": ("k3", "k4")})
    assert len(red_b) == len(frame) - 2
    assert len(red_b_plus) == len(nxt) - 4
    assert "p1" not in red_b.ids and "k1" not in red_b_plus.ids


def test_reduce_frames_no_divisions_identity():
    frame = make_frame([make_cell("a", (0, 0))])
    nxt = make_frame([make_cell("a", (1, 0))], index=1)
    red_b, red_b_plus = reduce_frames(frame, nxt, {})
    assert red_b.ids == frame.ids and red_b_plus.ids == nxt.ids


def test_reduce_frames_rejects_overlapping_lineages():
    frame = make_frame([make_cell("p1", (0, 0)), make_cell("p2", (30, 0))])
    nxt = make_frame(
        [make_cell(k, (10.0 * i, 0)) for i, k in enumerate(["k1", "k2", "k3"])], index=1
    )
    with pytest.raises(ValidationError, match="non-disjoint"):
        reduce_frames(frame, nxt, {"p1": ("k1", "k2"), "p2": ("k2", "k3")})


def test_reduction_matches_ground_truth(minute_run):
    frames, lineage = minute_run.frames, minute_run.lineage
    rec = max(lineage, key=lambda r: r.n_divisions)
    f0, f1 = frames[rec.frame_index], frames[rec.frame_index + 1]
    red_b, red_b_plus = reduce_frames(f0, f1, rec.divided)
    assert len(red_b) == len(red_b_plus) == len(f0) - rec.n_divisions
    assert set(red_b.ids) == set(f0.ids) - set(rec.divided)


def test_weights_roundtrip():
    w = DivisionWeights(lin=2.0)
    again = io.from_json(DivisionWeights, dataclasses.asdict(w), "division weights")
    assert again == w
    with pytest.raises(ValidationError):
        io.from_json(DivisionWeights, {"bogus": 1.0}, "division weights")
    # lambda is derived from the penalties; no weight sets it
    with pytest.raises(ValidationError, match="'q'"):
        io.from_json(DivisionWeights, {"q": 50.0}, "division weights")
