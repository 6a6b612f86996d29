import hashlib
import math
import struct
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from colony_track import io, simulator
from colony_track.errors import ValidationError
from colony_track.geometry import Rect, segment_distance, segments_distance
from colony_track.simulator import (
    LineageRecord,
    SimConfig,
    _Colony,
    _PairList,
    simulate,
    true_motion_bound,
)

from conftest import make_cell, make_frame

pytestmark = pytest.mark.kernels


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(growth_rate=0.99)
    with pytest.raises(ValidationError):
        SimConfig(split_ratio_range=(0.3, 0.55))
    with pytest.raises(ValidationError):
        SimConfig(growth_rate=1.2, interframe_minutes=4.0)  # could divide twice
    with pytest.raises(ValidationError):
        io.from_json(SimConfig, {"nonsense": 1}, "simulator config")
    # a length cap below the birth length would shrink every cell at once
    with pytest.raises(ValidationError, match="max_length 19.5 is below birth_length"):
        SimConfig(divide=False, max_length=19.5)
    SimConfig(divide=False, max_length=20.0)


def test_seeded_colony_rejects_a_length_cap_that_shrinks_its_cells():
    # seeded lengths reach 1.8 * birth_length, and _grow cuts a cell to its cap
    # at once: 0.8 * max_length at the least, or max_length without jitter
    shrinking = SimConfig(n_frames=3, max_length=20.0, divide=False, initial_cells=4, seed=0)
    match = r"max_length 20.0 would shrink seeded cells: its lowest cap 16 \(growth_jitter 0.02\)"
    with pytest.raises(ValidationError, match=match + r" is below 1.8 \* birth_length = 36"):
        simulate(shrinking)
    match = r"max_length 35.9 would shrink seeded cells: its lowest cap 35.9 \(growth_jitter 0.0\)"
    with pytest.raises(ValidationError, match=match):
        simulate(SimConfig(n_frames=2, max_length=35.9, growth_jitter=0.0, divide=False))
    # the lowest caps that seeding cannot exceed
    for cap, jitter in ((45.0, 0.02), (36.0, 0.0)):
        run = simulate(replace(shrinking, max_length=cap, growth_jitter=jitter))
        assert (run.frames[1].lengths > 0.95 * run.frames[0].lengths).all()
    # an adopted frame keeps its cells, capped or not
    start = make_frame([make_cell("c000001", (300.0, 300.0), length=30.0)])
    assert len(simulate(shrinking, initial_frame=start).frames) == 3


def test_deterministic_given_seed():
    cfg = SimConfig(seed=5, n_frames=12, initial_cells=3, motion_sigma=1.5)
    a = simulate(cfg)
    b = simulate(cfg)
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.ids == fb.ids
        assert np.array_equal(fa.centers(), fb.centers())
        for ca, cb in zip(fa.cells, fb.cells):
            assert np.array_equal(ca.e, cb.e) and np.array_equal(ca.h, cb.h)
    assert [r.moved for r in a.lineage] == [r.moved for r in b.lineage]
    assert [r.divided for r in a.lineage] == [r.divided for r in b.lineage]


def _sim_digest(result):
    """sha256 over every cell's id, endpoint bytes and width, and the lineage."""
    h = hashlib.sha256()
    for frame in result.frames:
        for c in frame.cells:
            h.update(c.id.encode())
            h.update(np.asarray(c.e, "<f8").tobytes())
            h.update(np.asarray(c.h, "<f8").tobytes())
            h.update(struct.pack("<d", c.width))
    for r in result.lineage:
        h.update(
            repr((r.frame_index, sorted(r.moved.items()), sorted(r.divided.items()))).encode()
        )
    return h.hexdigest()


def _golden_runs():
    dividing = simulate(SimConfig(seed=5, n_frames=12, initial_cells=3, motion_sigma=1.5))
    # divisions off, lengths capped; a small budget and trap make pushes hit
    # both the displacement cap and the trap clamp
    adopted = simulate(
        SimConfig(
            seed=6,
            n_frames=10,
            divide=False,
            max_length=30.0,
            interframe_minutes=6.0,
            w=12.0,
            growth_rate=1.01,
            motion_sigma=2.5,
            substeps=4,
            trap_bounds=Rect(250.0, 250.0, 350.0, 350.0),
        ),
        initial_frame=dividing.frames[-1],
    )
    crowded = simulate(CROWDED)
    # the benchmark's pipeline colony at another seed: 110 cells at frame 50
    seed210 = simulate(
        SimConfig(
            seed=210, n_frames=51, initial_cells=8, w=45.0, interframe_minutes=1.0,
            motion_sigma=1.0, substeps=3,
        )
    )
    return {"dividing": dividing, "adopted": adopted, "crowded": crowded, "seed210": seed210}


# a dense colony in a small trap: about 13 000 relaxation pushes, enough that a
# last-bit change in a distance alters the output
CROWDED = SimConfig(
    seed=9,
    n_frames=50,
    initial_cells=6,
    trap_bounds=Rect.of_size(220.0, 220.0),
    motion_sigma=1.5,
    substeps=2,
    relax_iterations=300,
)


# only a deliberate change to the simulation may re-record these
GOLDEN_DIGESTS = {
    "dividing": "c054b3e663458a8e10da4541d313fdff1a769c41f23080ea93abb5f55d72d5f2",
    "adopted": "a4774549e5b0cf4a04a0390c74f0ffb5ef80bb8a93592a24ec4af95faea8b06c",
    "crowded": "52b31236d48f0f3e009473788c31523dbeb3a64c9a2a79ec6c6e233d560d0930",
    "seed210": "d592789d0c0ec4763386067fbef76dd76be37ef31e58120004745e874696df24",
}


def test_simulator_output_matches_golden_digests():
    # the relaxation is a sequential float computation: a one-ulp change in
    # any distance can change the colony, which same-code determinism misses
    runs = _golden_runs()
    assert not any(r.truncated for r in runs.values())
    assert {k: _sim_digest(r) for k, r in runs.items()} == GOLDEN_DIGESTS


def _kdtree_pairs(x, y, r):
    """cKDTree's pairs within ``r``, sorted into ``(i, j)`` order."""
    pairs = cKDTree(np.column_stack((x, y))).query_pairs(r, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return pairs[:, 0], pairs[:, 1]


def _reference_relax(colony):
    """All-pairs relaxation: a fresh KD-tree and broadcast gaps on every iteration.

    Pairs are listed in ``(i, j)`` order and pushed deepest first by a stable
    sort, so pairs of equal gap go in ``(i, j)`` order. Returns the exit flag
    and how many pushes hit the budget cap and the trap.
    """
    cfg, w, hits = colony.cfg, colony.widths, {"capped": 0, "clamped": 0}
    reach = float(colony.lengths.max() + w.max()) + 1.0
    half = colony.axes * (colony.lengths[:, None] / 2.0)
    b = cfg.trap_bounds
    ext = np.abs(colony.axes) * (colony.lengths[:, None] / 2.0) + w[:, None] / 2.0
    lo, hi = np.array([b.xmin, b.ymin]) + ext, np.array([b.xmax, b.ymax]) - ext
    lo, hi, budget = np.minimum(lo, hi), np.maximum(lo, hi), 0.98 * cfg.w / 2.0

    def pair_gaps(pairs):
        e, h = colony.centers - half, colony.centers + half
        i, j = pairs[:, 0], pairs[:, 1]
        return segments_distance(e[i], h[i], e[j], h[j]) - (w[i] + w[j]) / 2.0

    def move(i, d):
        p = colony.centers[i] + d
        off = p - colony.anchors[i]
        norm = np.hypot(*off)
        if norm > budget:
            p, hits["capped"] = colony.anchors[i] + off * (budget / norm), hits["capped"] + 1
        colony.centers[i] = np.clip(p, lo[i], hi[i])
        hits["clamped"] += bool((colony.centers[i] != p).any())

    def all_gaps():
        pairs = np.column_stack(_kdtree_pairs(*colony.centers.T, reach))
        return pairs, pair_gaps(pairs)

    for _ in range(cfg.relax_iterations):
        pairs, gaps = all_gaps()
        mask = gaps < -cfg.overlap_tol * 0.5
        if not mask.any():
            return True, hits
        for i, j in pairs[np.flatnonzero(mask)[np.argsort(gaps[mask], kind="stable")]]:
            depth = -float(pair_gaps(np.array([[i, j]]))[0])
            if depth <= cfg.overlap_tol * 0.5:
                continue
            d = colony.centers[j] - colony.centers[i]
            norm = np.hypot(*d)
            if norm < 1e-9:
                theta = colony.rng.uniform(0, 2 * math.pi)
                d, norm = np.array([math.cos(theta), math.sin(theta)]), 1.0
            step = (depth / 2.0 + 0.05) * (d / norm)
            move(i, -step)
            move(j, step)
    return bool((all_gaps()[1] > -cfg.overlap_tol).all()), hits


def _crowded_colony(seed):
    """Rods thrown into a small trap, some on top of each other, or equal rods
    laid end to end, where an overlap forms at a center distance close to the
    neighbour list's reach."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        n = int(rng.integers(2, 16))
        side = float(rng.uniform(35.0, 110.0))
        centers = rng.uniform(0.15 * side, 0.85 * side, size=(n, 2))
        theta = rng.uniform(0.0, math.pi, size=n)
        lengths = rng.uniform(8.0, 40.0, size=n)
        widths = rng.uniform(5.0, 8.0, size=n)
    else:
        n = int(rng.integers(3, 10))
        length = float(rng.uniform(15.0, 40.0))
        theta = np.full(n, rng.uniform(0.0, math.pi))
        lengths, widths = np.full(n, length), np.full(n, 7.0)
        along = np.cumsum(rng.uniform(0.2, 1.4, size=n) * (length + 7.0))
        side = float(along[-1] - along[0]) + 2.0 * length + 20.0
        axis = np.array([math.cos(theta[0]), math.sin(theta[0])])
        centers = side / 2.0 + (along - along.mean())[:, None] * axis
    cfg = SimConfig(
        trap_bounds=Rect.of_size(side, side),
        w=float(rng.uniform(3.0, 50.0)),
        relax_iterations=int(rng.integers(1, 60)),
    )
    colony = _Colony(cfg, np.random.default_rng(seed))
    colony.ids = [f"c{k:06d}" for k in range(n)]
    if rng.random() < 0.3:
        centers[1] = centers[0]  # coincident centers draw a direction
    colony.centers = centers
    colony.axes = np.column_stack([np.cos(theta), np.sin(theta)])
    colony.lengths, colony.widths, colony.div_len = lengths, widths, 2.0 * lengths
    colony.anchors = centers + rng.normal(0.0, 2.0, size=(n, 2))
    return colony


def _chain_colony(seed):
    """A chain of rods at random angles joined by point-like cells on their
    axis lines. Each rod and point overlap by exactly ``overlap_tol / 2``, so
    rounding decides which of them are pushed, and the bounds that let the
    relaxation skip a pair are tried at their edge."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    theta = rng.uniform(0.0, math.pi, size=n)
    lengths = np.where(np.arange(n) % 2 == 0, rng.uniform(15.0, 40.0, size=n), 0.0)
    # a point this far beyond a rod's end overlaps it by overlap_tol / 2
    beyond = 7.0 - SimConfig.overlap_tol / 2.0
    centers = np.zeros((n, 2))
    for k in range(1, n):
        rod = k if k % 2 == 0 else k - 1
        axis = np.array([math.cos(theta[rod]), math.sin(theta[rod])])
        centers[k] = centers[k - 1] + axis * (lengths[rod] / 2.0 + beyond)
    lo, hi = centers.min(axis=0) - 30.0, centers.max(axis=0) + 30.0
    side = float((hi - lo).max())
    cfg = SimConfig(
        trap_bounds=Rect.of_size(side, side),
        w=float(rng.uniform(3.0, 50.0)),
        relax_iterations=int(rng.integers(1, 60)),
    )
    colony = _Colony(cfg, np.random.default_rng(seed))
    colony.ids = [f"c{k:06d}" for k in range(n)]
    colony.centers = centers + (side - lo - hi) / 2.0
    colony.axes = np.column_stack([np.cos(theta), np.sin(theta)])
    colony.lengths, colony.widths, colony.div_len = lengths, np.full(n, 7.0), 2.0 * lengths
    colony.anchors = colony.centers + rng.normal(0.0, 2.0, size=(n, 2))
    return colony


def _relax_against_reference(seed, make=_crowded_colony):
    """Assert ``_relax`` equals the reference bit for bit; report what it exercised."""
    colony, reference = make(seed), make(seed)
    start = colony.centers.copy()
    ok = colony._relax()
    ref_ok, hits = _reference_relax(reference)
    assert ok == ref_ok
    assert colony.centers.tobytes() == reference.centers.tobytes()
    assert colony.rng.bit_generator.state == reference.rng.bit_generator.state
    moved = np.hypot(*(colony.centers - start).T).max()
    # a cell that ends half the skin away from its start forced a list rebuild
    return {"rebuilt": bool(moved >= simulator.RELAX_SKIN / 2.0), **hits}


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_relax_matches_all_pairs_reference(seed):
    _relax_against_reference(seed)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_relax_matches_all_pairs_reference_on_chains(seed):
    _relax_against_reference(seed, _chain_colony)


def test_relax_reference_cases_rebuild_cap_and_clamp():
    seen = [_relax_against_reference(seed) for seed in range(30)]
    assert sum(s["rebuilt"] for s in seen) >= 5
    assert sum(s["capped"] > 0 for s in seen) >= 5
    assert sum(s["clamped"] > 0 for s in seen) >= 5


def _collinear_row(seed):
    """Rods on one line with one axis, each overlapping the next by exactly
    ``overlap_tol / 2``. The cross product of such a pair's axes is rounding
    noise, which a crossing test must not take for a crossing: a gap measured
    as 0 would fall far below its bound."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    lengths = rng.uniform(15.0, 40.0, size=n)
    spacing = (lengths[:-1] + lengths[1:]) / 2.0 + 7.0 - SimConfig.overlap_tol / 2.0
    along = np.concatenate(([0.0], np.cumsum(spacing)))
    theta = np.full(n, rng.uniform(0.0, math.pi))
    axis = np.array([math.cos(theta[0]), math.sin(theta[0])])
    side = float(along[-1]) + 2.0 * lengths.max() + 20.0
    colony = _Colony(
        SimConfig(trap_bounds=Rect.of_size(side, side), relax_iterations=60),
        np.random.default_rng(seed),
    )
    colony.ids = [f"c{k:06d}" for k in range(n)]
    colony.centers = side / 2.0 + (along - along.mean())[:, None] * axis
    colony.axes = np.column_stack([np.cos(theta), np.sin(theta)])
    colony.lengths, colony.widths, colony.div_len = lengths, np.full(n, 7.0), 2.0 * lengths
    colony.anchors = colony.centers + rng.normal(0.0, 2.0, size=(n, 2))
    return colony


def test_relax_does_not_depend_on_the_skin():
    # the skin sets only when the neighbour list is rebuilt: every skin gives
    # the all-pairs reference's centers and RNG state, and the golden colony
    # (the default skin is covered by the reference and golden-digest tests)
    builds = Counter()
    build = _PairList._build

    def counted(self):
        builds[simulator.RELAX_SKIN] += 1
        build(self)

    for skin in (1.0, 4.0, 24.0):
        with mock.patch.object(simulator, "RELAX_SKIN", skin), mock.patch.object(
            _PairList, "_build", counted
        ):
            for make in (_crowded_colony, _chain_colony, _collinear_row):
                for seed in range(20):
                    _relax_against_reference(seed, make)
            assert _sim_digest(simulate(CROWDED)) == GOLDEN_DIGESTS["crowded"]
    assert builds[1.0] > builds[4.0] > builds[24.0]


def _watch_pair_list(on_update):
    """Patch ``_PairList.update`` to call ``on_update(pair_list, moved, before)``
    before and after it."""
    update = _PairList.update

    def watched(self, moved, x0, y0):
        on_update(self, moved, before=True)
        update(self, moved, x0, y0)
        on_update(self, moved, before=False)

    return mock.patch.object(_PairList, "update", watched)


def _fresh_gaps(pl):
    x, y = np.array(pl.xs), np.array(pl.ys)
    e, h = np.column_stack((x - pl.hx, y - pl.hy)), np.column_stack((x + pl.hx, y + pl.hy))
    return segments_distance(e[pl.i], h[pl.i], e[pl.j], h[pl.j]) - pl.hw


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from([_crowded_colony, _chain_colony, _collinear_row]))
def test_pair_list_holds_every_gap_below_threshold_exactly(seed, make):
    # what makes the relaxation exact: after every iteration, each listed pair
    # whose gap, measured afresh, is below the threshold holds exactly that
    # gap, and no other pair holds a value below it
    def check(pl, moved, before):
        if not before:
            fresh = _fresh_gaps(pl)
            below = fresh < pl.threshold
            assert pl.gaps[below].tobytes() == fresh[below].tobytes()
            assert (pl.gaps[~below] >= pl.threshold).all()

    colony = make(seed)
    with _watch_pair_list(check):
        colony._relax()


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([_crowded_colony, _chain_colony, _collinear_row]))
def test_measure_writes_the_same_gaps_pair_by_pair_and_stacked(seed, make):
    # _measure takes the scalar loop or the stacked kernel by batch size; at
    # every call in a relaxation, both measure all listed pairs to the same bytes
    measure = _PairList._measure

    def checked(pl, k):
        out = []
        for batch in (0, 10**9):
            gaps, slack = pl.gaps.copy(), pl.slack.copy()
            with mock.patch.object(simulator, "RELAX_SCALAR_BATCH", batch):
                measure(pl, np.arange(len(pl.i)))
            out.append(pl.gaps.tobytes())
            pl.gaps, pl.slack = gaps, slack
        assert out[0] == out[1]
        measure(pl, k)

    with mock.patch.object(_PairList, "_measure", checked):
        make(seed)._relax()


def test_relax_remeasures_fewer_than_half_of_touched_pairs():
    # the gap bounds spare most pairs with a moved cell from being measured
    counts = {"touched": 0, "measured": 0}
    measure = _PairList._measure

    def count_touched(pl, moved, before):
        if before:
            touched = np.zeros(len(pl.xs), bool)
            touched[moved] = True
            counts["touched"] += int((touched[pl.i] | touched[pl.j]).sum())
        counts["updating"] = before

    def counted(self, k):
        if counts.get("updating"):
            counts["measured"] += len(k)
        measure(self, k)

    with _watch_pair_list(count_touched), mock.patch.object(_PairList, "_measure", counted):
        assert _sim_digest(simulate(CROWDED)) == GOLDEN_DIGESTS["crowded"]
    assert counts["touched"] > 100_000
    assert counts["measured"] < counts["touched"] / 2


def test_division_at_deterministic_growth_threshold():
    # one cell of length L0, no noise: division in the first frame k with
    # L0 * rate**k >= 2*L0 + eps (eps = 0 here)
    L0 = 20.0
    start = make_frame([make_cell("c000001", (300.0, 300.0), length=L0)])
    cfg = SimConfig(
        seed=0,
        n_frames=20,
        growth_rate=1.05,
        growth_jitter=0.0,
        motion_sigma=0.0,
        rotation_sigma=0.0,
        division_eps_range=(0.0, 0.0),
        substeps=1,
    )
    result = simulate(cfg, initial_frame=start)
    sizes = [len(f) for f in result.frames]
    first_divided = next(k for k, s in enumerate(sizes) if s == 2)
    expected = next(k for k in range(1, 30) if L0 * 1.05**k >= 2 * L0)
    assert first_divided == expected


def test_children_lengths_sum_to_division_length():
    L0 = 20.0
    start = make_frame([make_cell("c000001", (300.0, 300.0), length=L0)])
    cfg = SimConfig(
        seed=3,
        n_frames=17,
        growth_rate=1.05,
        growth_jitter=0.0,
        motion_sigma=0.0,
        rotation_sigma=0.0,
        division_eps_range=(0.0, 0.0),
        substeps=1,
    )
    result = simulate(cfg, initial_frame=start)
    rec = next(r for r in result.lineage if r.n_divisions == 1)
    frame_after = result.frames[rec.frame_index + 1]
    cells, children = frame_after.cells, next(iter(rec.divided.values()))
    c1, c2 = (cells[frame_after.position(t)] for t in children)
    # with one substep the division happens right after growth, so the
    # children are emitted unchanged
    div_length = L0 * 1.05 ** (rec.frame_index + 1)
    assert c1.length + c2.length == pytest.approx(div_length, abs=1e-9)
    ratio = c1.length / (c1.length + c2.length)
    assert 0.45 <= ratio <= 0.55


def test_newborn_siblings_measure_one_pixel_apart():
    # children split their parent with a 1 px gap on its axis; the capsule
    # distance once measured 0 for about 19 in 5 000 such pairs, and the
    # relaxation pushed those children 1 px too deep
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = 500
        colony = _Colony(SimConfig(), np.random.default_rng(int(rng.integers(2**32))))
        colony.ids = [f"p{k}" for k in range(n)]
        colony.centers = rng.uniform(50.0, 550.0, size=(n, 2))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        colony.axes = np.column_stack([np.cos(theta), np.sin(theta)])
        colony.lengths, colony.widths = rng.uniform(30.0, 60.0, size=n), np.full(n, 7.0)
        colony.div_len, colony.anchors = colony.lengths.copy(), colony.centers.copy()
        colony._divide_ripe(set(colony.ids), {})
        e, h = colony.endpoints()  # every parent divided: rows 2k and 2k + 1 are siblings
        rows = np.hstack((e[0::2], h[0::2], e[1::2], h[1::2])).tolist()
        got = segments_distance(e[0::2], h[0::2], e[1::2], h[1::2])
        assert np.allclose(got, 1.0, rtol=0.0, atol=1e-9)
        assert np.allclose([segment_distance(*row) for row in rows], 1.0, rtol=0.0, atol=1e-9)


def test_motion_bound_respected_minute_frames():
    cfg = SimConfig(seed=7, n_frames=50, initial_cells=4, w=45.0, motion_sigma=1.5)
    result = simulate(cfg)
    assert true_motion_bound(result.frames, result.lineage) <= 45.0 / 2.0


def test_motion_bound_respected_six_minute_frames(six_minute_run):
    assert true_motion_bound(six_minute_run.frames, six_minute_run.lineage) <= 100.0 / 2.0


def test_motion_bound_static_and_translated():
    a = make_cell("a", (0.0, 0.0))
    f0 = make_frame([a], index=0)
    f1 = make_frame([make_cell("a", (0.0, 0.0))], index=1)
    rec = LineageRecord(0, {"a": "a"}, {})
    assert true_motion_bound([f0, f1], [rec]) == 0.0
    f2 = make_frame([make_cell("a", (7.0, 0.0))], index=1)
    assert true_motion_bound([f0, f2], [rec]) == pytest.approx(7.0)


def test_divided_motion_uses_children_midpoint():
    f0 = make_frame([make_cell("p", (0.0, 0.0), length=40.0)], index=0)
    kids = [
        make_cell("k1", (-10.0, 3.0), length=20.0),
        make_cell("k2", (10.0, 3.0), length=20.0),
    ]
    f1 = make_frame(kids, index=1)
    rec = LineageRecord(0, {}, {"p": ("k1", "k2")})
    assert true_motion_bound([f0, f1], [rec]) == pytest.approx(3.0)


def test_emitted_frames_have_no_deep_overlaps():
    cfg = SimConfig(seed=13, n_frames=40, initial_cells=6, motion_sigma=1.2, substeps=3)
    result = simulate(cfg)
    for frame in result.frames:
        i, j = np.triu_indices(len(frame), 1)
        dist = segments_distance(frame.e[i], frame.h[i], frame.e[j], frame.h[j])
        assert (dist - (frame.widths[i] + frame.widths[j]) / 2.0 > -0.5).all()


def test_lineage_records_validate_against_frames():
    cfg = SimConfig(seed=11, n_frames=30, initial_cells=2, motion_sigma=1.0)
    result = simulate(cfg)
    for rec in result.lineage:
        rec.validate(result.frames[rec.frame_index], result.frames[rec.frame_index + 1])
        assert len(result.frames[rec.frame_index + 1]) - len(
            result.frames[rec.frame_index]
        ) == rec.n_divisions


def test_lineage_forms_forest_rooted_at_frame_zero():
    cfg = SimConfig(seed=19, n_frames=45, initial_cells=2, motion_sigma=1.0)
    result = simulate(cfg)
    known = set(result.frames[0].ids)
    for rec in result.lineage:
        parents = rec.sources()
        assert parents <= known or parents == known  # sources already known
        fresh = rec.targets()
        assert len(fresh) == len(set(fresh))
        known = set(fresh)
    # every cell in the final frame reaches frame 0 through a unique chain
    parent_of = {}
    for rec in result.lineage:
        for a, b in rec.moved.items():
            parent_of.setdefault(rec.frame_index + 1, {})[b] = a
        for a, (b1, b2) in rec.divided.items():
            parent_of.setdefault(rec.frame_index + 1, {})[b1] = a
            parent_of.setdefault(rec.frame_index + 1, {})[b2] = a
    for cid in result.frames[-1].ids:
        k, cur = len(result.frames) - 1, cid
        while k > 0:
            cur = parent_of[k][cur]
            k -= 1
        assert cur in set(result.frames[0].ids)


def test_truncation_on_overfull_trap():
    from colony_track.geometry import Rect

    start_cells = [
        make_cell(f"c{i:06d}", (20.0 + 18.0 * i, 30.0), angle=np.pi / 2, length=26.0)
        for i in range(3)
    ]
    from colony_track.geometry import Frame

    start = Frame(0, tuple(start_cells), Rect.of_size(70.0, 60.0))
    cfg = SimConfig(
        seed=2,
        n_frames=60,
        trap_bounds=Rect.of_size(70.0, 60.0),
        growth_rate=1.09,
        interframe_minutes=1.0,
        motion_sigma=0.0,
        substeps=2,
        relax_iterations=15,
    )
    result = simulate(cfg, initial_frame=start)
    assert result.truncated
    assert len(result.frames) < 60
    assert len(result.lineage) == len(result.frames) - 1


def test_validate_rejects_inconsistent_records():
    f0 = make_frame([make_cell("a", (0, 0)), make_cell("b", (30, 0))], index=0)
    f1 = make_frame([make_cell("a", (0, 0)), make_cell("b", (30, 0))], index=1)
    with pytest.raises(ValidationError):
        LineageRecord(0, {"a": "a"}, {}).validate(f0, f1)  # b unaccounted
    with pytest.raises(ValidationError):
        LineageRecord(0, {"a": "a", "b": "a"}, {}).validate(f0, f1)  # duplicate target


@settings(max_examples=40)
@given(st.integers(0, 5000))
def test_short_runs_keep_invariants(seed):
    cfg = SimConfig(
        seed=seed,
        n_frames=4,
        initial_cells=int(np.random.default_rng(seed).integers(1, 4)),
        motion_sigma=1.0,
        substeps=2,
    )
    result = simulate(cfg)
    for rec in result.lineage:
        rec.validate(result.frames[rec.frame_index], result.frames[rec.frame_index + 1])
