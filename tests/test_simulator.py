import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colony_track.errors import ValidationError
from colony_track.geometry import Rect, capsule_gap
from colony_track.simulator import LineageRecord, SimConfig, simulate, true_motion_bound

from conftest import make_cell, make_frame


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(growth_rate=0.99)
    with pytest.raises(ValidationError):
        SimConfig(split_ratio_range=(0.3, 0.55))
    with pytest.raises(ValidationError):
        SimConfig(growth_rate=1.2, interframe_minutes=4.0)  # could divide twice
    with pytest.raises(ValidationError):
        SimConfig.from_dict({"nonsense": 1})


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
    # a dense colony in a small trap: about 13 000 relaxation pushes, enough
    # that a last-bit change in a distance alters the output
    crowded = simulate(
        SimConfig(
            seed=9,
            n_frames=50,
            initial_cells=6,
            trap_bounds=Rect.of_size(220.0, 220.0),
            motion_sigma=1.5,
            substeps=2,
            relax_iterations=300,
        )
    )
    return {"dividing": dividing, "adopted": adopted, "crowded": crowded}


# only a deliberate change to the simulation may re-record these
GOLDEN_DIGESTS = {
    "dividing": "c054b3e663458a8e10da4541d313fdff1a769c41f23080ea93abb5f55d72d5f2",
    "adopted": "a4774549e5b0cf4a04a0390c74f0ffb5ef80bb8a93592a24ec4af95faea8b06c",
    "crowded": "52b31236d48f0f3e009473788c31523dbeb3a64c9a2a79ec6c6e233d560d0930",
}


def test_simulator_output_matches_golden_digests():
    # the relaxation is a sequential float computation: a one-ulp change in
    # any distance can change the colony, which same-code determinism misses
    runs = _golden_runs()
    assert not any(r.truncated for r in runs.values())
    assert {k: _sim_digest(r) for k, r in runs.items()} == GOLDEN_DIGESTS


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
    c1, c2 = (frame_after.cell(t) for t in next(iter(rec.divided.values())))
    # with one substep the division happens right after growth, so the
    # children are emitted unchanged
    div_length = L0 * 1.05 ** (rec.frame_index + 1)
    assert c1.length + c2.length == pytest.approx(div_length, abs=1e-9)
    ratio = c1.length / (c1.length + c2.length)
    assert 0.45 <= ratio <= 0.55


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
        cells = frame.cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                assert capsule_gap(cells[i], cells[j]) > -0.5


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
