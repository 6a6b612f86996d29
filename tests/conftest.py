from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from colony_track.division import PairCandidates
from colony_track.geometry import Cell, Frame, Rect

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("default")

# frames in which one source cell divides into three target cells in a row:
# two divisions, but every pair of the three targets shares a cell
THREE_IN_A_ROW = Path(__file__).resolve().parent / "data" / "three_in_a_row.jsonl"


def make_cell(cid, center, angle=0.0, length=20.0, width=7.0):
    center = np.asarray(center, dtype=float)
    u = np.array([np.cos(angle), np.sin(angle)])
    return Cell(cid, center - u * length / 2.0, center + u * length / 2.0, width)


def make_frame(cells, index=0, pad=50.0):
    centers = np.array([(c.e + c.h) / 2.0 for c in cells])
    lo = centers.min(axis=0) - pad
    hi = centers.max(axis=0) + pad
    return Frame(index, tuple(cells), Rect(lo[0], lo[1], hi[0], hi[1]))


def random_frame(rng, n, span=200.0, min_dist=12.0, length_range=(15.0, 40.0), index=0):
    """Scatter n rod cells with pairwise center distance at least min_dist."""
    cells = []
    centers = []
    guard = 0
    while len(cells) < n:
        guard += 1
        if guard > 20000:
            raise RuntimeError("could not scatter cells")
        p = rng.uniform(0.0, span, size=2)
        if centers and np.min(np.hypot(*(np.array(centers) - p).T)) < min_dist:
            continue
        centers.append(p)
        cells.append(
            make_cell(
                f"r{len(cells):03d}",
                p,
                angle=rng.uniform(0, np.pi),
                length=rng.uniform(*length_range),
                width=6.0,
            )
        )
    return make_frame(cells, index=index)


def jittered_copy(frame, rng, shift=3.0, grow=1.05, index=1):
    """A target frame: every cell shifted, slightly rotated, and grown."""
    cells = []
    rows = zip(frame.ids, frame.centers(), frame.axes, frame.lengths.tolist())
    for cid, center, u, length in rows:
        theta = rng.normal(0, 0.05)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        u2 = rot @ u
        length = length * grow * (1 + rng.normal(0, 0.02))
        center = center + rng.normal(0, shift, size=2)
        cells.append(
            make_cell(
                cid + "+", center, angle=np.arctan2(u2[1], u2[0]), length=length
            )
        )
    return make_frame(cells, index=index)


def same_frame(a, b, bounds=True):
    """Whether frames ``a`` and ``b`` hold the same index, ids and rows
    (``e``, ``h``, ``widths``), and with ``bounds`` the same bounds."""
    return (
        a.index == b.index
        and (not bounds or a.bounds == b.bounds)
        and a.ids == b.ids
        and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("e", "h", "widths"))
    )


def random_cells(rng, m, n_cells):
    """``m`` distinct two-cell candidates over ``n_cells`` cells, as an
    ``(m, 2)`` array of cell ids in random order."""
    pairs = np.array([(a, b) for a in range(n_cells) for b in range(a + 1, n_cells)])
    return rng.permuted(pairs[rng.choice(len(pairs), size=m, replace=False)], axis=1)


def small_registration_problem(seed=0, n=8, w=60.0, shift=3.0, weights=None):
    """Division-free instance: a random frame against its jittered copy."""
    from colony_track.registration import RegistrationWeights, build_problem

    rng = np.random.default_rng(seed)
    src = random_frame(rng, n, span=110.0, min_dist=16.0)
    dst = jittered_copy(src, rng, shift=shift)
    return build_problem(
        src, dst, w=w, rho=80.0,
        weights=weights or RegistrationWeights(), g_rate=1.05,
    )


@pytest.fixture(scope="session")
def minute_run():
    """Ground-truth sequence at 1-minute interframes with divisions on."""
    from colony_track.simulator import SimConfig, simulate

    cfg = SimConfig(
        seed=12,
        n_frames=101,
        initial_cells=1,
        w=45.0,
        interframe_minutes=1.0,
        motion_sigma=1.2,
        substeps=3,
    )
    result = simulate(cfg)
    assert not result.truncated
    return result


@pytest.fixture(scope="session")
def six_minute_chain():
    """Benchmark stages: grown colony, settled colony, division-free six-minute run.

    A colony is grown with divisions at 1-minute frames, left to settle (slow
    decompression after the dense growth phase), then continued with
    6-minute-interframe motion and growth but divisions off, so every
    benchmark pair is division-free.
    """
    from colony_track.simulator import SimConfig, simulate

    burn = SimConfig(
        seed=42,
        n_frames=82,
        initial_cells=2,
        w=45.0,
        interframe_minutes=1.0,
        motion_sigma=1.0,
        substeps=2,
    )
    grown = simulate(burn)
    assert not grown.truncated
    settle = SimConfig(
        seed=40,
        n_frames=5,
        initial_cells=1,
        interframe_minutes=6.0,
        w=100.0,
        divide=False,
        growth_rate=1.0005,
        growth_jitter=0.0,
        max_length=90.0,
        motion_sigma=0.4,
        rotation_sigma=0.01,
        substeps=8,
        relax_iterations=150,
    )
    settled = simulate(settle, initial_frame=grown.frames[-1])
    assert not settled.truncated
    bench = SimConfig(
        seed=43,
        n_frames=23,
        initial_cells=1,
        interframe_minutes=6.0,
        w=100.0,
        divide=False,
        growth_rate=1.005,
        growth_jitter=0.03,
        max_length=85.0,
        motion_sigma=2.2,
        rotation_sigma=0.04,
        substeps=6,
        relax_iterations=120,
    )
    result = simulate(bench, initial_frame=settled.frames[-1])
    assert not result.truncated
    assert 80 <= len(result.frames[0]) <= 100
    return {"grown": grown, "settled": settled, "bench": result}


@pytest.fixture(scope="session")
def six_minute_run(six_minute_chain):
    return six_minute_chain["bench"]


def candidates_from_rows(rows):
    """The :class:`PairCandidates` of ``(pair, lin, gap, dev, ratio, rank,
    parent)`` tuples, numbering cell and parent ids by first appearance."""
    ids, parent_ids = {}, {}
    cells = [[ids.setdefault(cid, len(ids)) for cid in row[0]] for row in rows]
    parent = [-1 if row[-1] is None else parent_ids.setdefault(row[-1], len(parent_ids))
              for row in rows]
    penalties = [row[1:6] for row in rows]
    return PairCandidates(ids, np.reshape(cells, (-1, 2)), parent_ids, parent, penalties)


def candidate_rows(candidates):
    """The ``(pair, lin, gap, dev, ratio, rank, parent)`` tuple of each candidate."""
    return [
        (candidates.pair(j), *candidates.penalties[j].tolist(), candidates.parent_id(j))
        for j in range(len(candidates))
    ]
