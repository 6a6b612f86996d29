import itertools
import math
import pickle
from copy import deepcopy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colony_track import geometry
from colony_track.geometry import (
    Cell,
    Frame,
    Rect,
    build_neighbor_graph,
    cross2,
    pairs_within,
    segment_distance,
    segments_distance,
    stacked_segments_distance,
    window_mask,
)

from conftest import make_cell, make_frame, random_frame, same_frame


# -- segment distance ------------------------------------------------------


def _sampled_segdist(p0, p1, q0, q1, k=400):
    t = np.linspace(0, 1, k)[:, None]
    a = p0 + t * (p1 - p0)
    b = q0 + t * (q1 - q0)
    d = a[:, None, :] - b[None, :, :]
    return np.sqrt((d**2).sum(-1)).min()


@given(st.integers(0, 300))
def test_segments_distance_matches_dense_sampling(seed):
    rng = np.random.default_rng(seed)
    p0, p1, q0, q1 = rng.uniform(-5, 5, size=(4, 2))
    exact = float(segments_distance(p0, p1, q0, q1))
    sampled = _sampled_segdist(p0, p1, q0, q1)
    assert exact <= sampled + 1e-9
    assert sampled - exact < 0.05  # grid resolution bound


# two segments 10 px apart on one line, whose crossing test once saw a
# rounding-noise denominator and an s of -0.0, and reported distance 0
_COLLINEAR_10PX = (
    (38.90220687652984, 49.057698770500316), (65.35345911959502, 66.732787908638),
    (73.668020571766, 72.288691782723), (100.11927281483116, 89.96378092086069),
)


def _three_forms(p0, p1, q0, q1):
    """The distances of segments p0-p1 and q0-q1, arrays of points ``(..., 2)``,
    by :func:`segments_distance`, :func:`stacked_segments_distance` and
    :func:`segment_distance` row by row, each flattened to a list."""
    pts = np.stack(np.broadcast_arrays(p0, p1, q0, q1)).reshape(4, -1, 2)
    rows = pts.transpose(1, 0, 2).reshape(-1, 8).tolist()
    return (
        np.ravel(segments_distance(p0, p1, q0, q1)).tolist(),
        stacked_segments_distance(pts[..., 0], pts[..., 1]).tolist(),
        [segment_distance(*row) for row in rows],
    )


def test_segments_distance_crossing_and_degenerate():
    assert segments_distance([0, -1], [0, 1], [-1, 0], [1, 0]) == 0.0
    # point against segment
    assert float(segments_distance([0, 2], [0, 2], [-1, 0], [1, 0])) == pytest.approx(2.0)
    # collinear overlap
    assert float(segments_distance([0, 0], [2, 0], [1, 0], [3, 0])) == 0.0
    # collinear, apart
    for form in _three_forms(*np.array(_COLLINEAR_10PX)):
        assert form == [pytest.approx(10.0, abs=1e-9)]


def _collinear_pairs(rng, m, gap):
    """``m`` pairs of segments on one line, ``gap`` apart, each segment in a
    random orientation: (p0, p1, q0, q1), each ``(m, 2)``."""
    origin = rng.uniform(0.0, 600.0, size=(m, 1, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(m, 1))
    axis = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    l1, l2 = rng.uniform(5.0, 60.0, size=(2, m, 1))
    along = np.concatenate([np.zeros((m, 1)), l1, l1 + gap, l1 + gap + l2], axis=1)
    pts = origin + along[..., None] * axis  # (m, 4, 2)
    flip = rng.random((m, 2)) < 0.5
    pts[flip[:, 0], :2] = pts[flip[:, 0], 1::-1]
    pts[flip[:, 1], 2:] = pts[flip[:, 1], :1:-1]
    return tuple(pts.transpose(1, 0, 2))


@pytest.mark.kernels
@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 10.0))
def test_collinear_segments_measure_their_gap(seed, gap):
    # up to 1 in 40 such pairs once measured 0: the crossing test divided
    # rounding noise by rounding noise
    pairs = _collinear_pairs(np.random.default_rng(seed), 100, gap)
    for form in _three_forms(*pairs):
        assert np.allclose(form, gap, rtol=0.0, atol=1e-9)


@pytest.mark.kernels
@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.floats(-5.0, 10.0), st.sampled_from([1e-12, 1e-6, 1.0]))
def test_distance_near_collinear_layouts_moves_less_than_its_segments(seed, gap, scale):
    # the relaxation's gap bounds assume that moving one segment by (dx, dy)
    # changes the distance by at most |dx| + |dy|; a negative gap overlaps
    # the segments along their line
    rng = np.random.default_rng(seed)
    p0, p1, q0, q1 = _collinear_pairs(rng, 100, gap)
    # turn segment q slightly about q0, or leave it on the line
    turn = rng.choice([0.0, 1e-13, 1e-9, 1e-6], size=(100, 1)) * rng.choice([-1.0, 1.0], (100, 1))
    d = q1 - q0
    q1 = q0 + np.column_stack([d[:, 0] - turn[:, 0] * d[:, 1], d[:, 1] + turn[:, 0] * d[:, 0]])
    delta = rng.uniform(-scale, scale, size=(100, 2))
    bound = np.abs(delta).sum(axis=1) + 1e-9
    moved = _three_forms(p0, p1, q0 + delta, q1 + delta)
    for before, after in zip(_three_forms(p0, p1, q0, q1), moved):
        assert (np.abs(np.subtract(after, before)) <= bound).all()


# small integer coordinates make degenerate layouts (zero length, collinear,
# parallel, touching) common; bounded floats keep the arithmetic finite
_coord = st.one_of(st.integers(-4, 4).map(float), st.floats(-1e6, 1e6))
_point = st.tuples(_coord, _coord)


def _assert_scalar_matches(p0, p1, q0, q1):
    # near-zero denominators overflow to inf in both forms alike
    with np.errstate(over="ignore"):
        expected = float(segments_distance(p0, p1, q0, q1))
    assert segment_distance(*p0, *p1, *q0, *q1) == expected


@pytest.mark.kernels
@settings(max_examples=500)
@given(_point, _point, _point, _point)
def test_segment_distance_equals_broadcast_form(p0, p1, q0, q1):
    _assert_scalar_matches(p0, p1, q0, q1)


@pytest.mark.kernels
def test_segment_distance_equals_broadcast_form_in_bulk():
    # last-bit differences (e.g. from math.hypot) occur in a few of every
    # thousand random pairs, too rarely for the example count above
    rng = np.random.default_rng(0)
    p0, p1, q0, q1 = rng.uniform(-60.0, 60.0, size=(4, 20_000, 2))
    expected = segments_distance(p0, p1, q0, q1).tolist()
    got = [
        segment_distance(*a, *b, *c, *d)
        for a, b, c, d in zip(p0.tolist(), p1.tolist(), q0.tolist(), q1.tolist())
    ]
    assert got == expected


@pytest.mark.kernels
def test_abs_complex_equals_np_hypot_bitwise():
    # segment_distance and the relaxation take a scalar hypot as
    # abs(complex(x, y)), which must equal np.hypot bit for bit; math.hypot
    # differs from np.hypot in the last bit of about 0.14% of these pairs
    rng = np.random.default_rng(0)
    scale = 10.0 ** rng.uniform(-3.0, 6.0, size=(2, 1_000_000))
    x, y = rng.uniform(-1.0, 1.0, size=(2, 1_000_000)) * scale
    tiny = float(np.nextafter(0.0, 1.0))
    normal = float(np.finfo(np.float64).tiny)
    # zeros, subnormals, the smallest normal, and finite results near 1e308
    special = [0.0, -0.0, tiny, -3 * tiny, 0.5 * normal, normal, 1.0, 1e308, -1.2e308]
    sx, sy = np.array([(a, b) for a in special for b in special]).T
    x, y = np.concatenate((x, sx)), np.concatenate((y, sy))
    got = np.array([abs(complex(a, b)) for a, b in zip(x.tolist(), y.tolist())])
    assert got.tobytes() == np.hypot(x, y).tobytes()
    # where np.hypot overflows to inf, abs(complex) raises; trap-bounded
    # coordinates never come near
    with np.errstate(over="ignore"):
        assert np.hypot(1.5e308, 1.5e308) == np.inf
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))


@pytest.mark.kernels
@pytest.mark.parametrize(
    "p0, p1, q0, q1",
    [
        ((1, 1), (1, 1), (2, 3), (2, 3)),  # both zero-length
        ((1, 1), (1, 1), (-1, 0), (1, 0)),  # one zero-length
        ((0.5, 0), (0.5, 0), (-1, 0), (1, 0)),  # zero-length lying on the other
        ((0, 0), (2, 0), (1, 0), (3, 0)),  # collinear, overlapping
        ((0, 0), (3, 0), (1, 0), (2, 0)),  # collinear, one contains the other
        ((0, 0), (1, 0), (2.5, 0), (4, 0)),  # collinear, disjoint
        ((0, 0), (4, 1), (1, 2), (5, 3)),  # parallel, offset
        ((0, -1), (0, 1), (-1, 0), (1, 0)),  # crossing
        ((0.1, -0.7), (0.3, 0.9), (-0.4, 0.2), (0.7, 0.1)),  # crossing, off-grid
        ((0, 0), (2, 0), (1, 0), (1, 5)),  # endpoint touches the interior
        ((0, 0), (2, 0), (2, 0), (3, 4)),  # shared endpoint
        _COLLINEAR_10PX,  # collinear, apart, with a rounding-noise cross product
    ],
)
def test_segment_distance_equals_broadcast_form_on_degenerate_layouts(p0, p1, q0, q1):
    p0, p1, q0, q1 = (tuple(map(float, p)) for p in (p0, p1, q0, q1))
    _assert_scalar_matches(p0, p1, q0, q1)
    _assert_scalar_matches(q1, q0, p1, p0)


@pytest.mark.kernels
def test_stacked_segments_distance_equals_scalar_form():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-60.0, 60.0, size=(4, 5000, 2))
    pts[:, :1000] = np.round(pts[:, :1000] / 20.0)  # small integers: degenerate layouts
    got = stacked_segments_distance(pts[..., 0], pts[..., 1])
    rows = pts.transpose(1, 0, 2).reshape(-1, 8).tolist()
    assert got.tobytes() == np.array([segment_distance(*row) for row in rows]).tobytes()


@pytest.mark.kernels
@pytest.mark.parametrize(
    "p_shape, q_shape, shape",
    [
        ((2,), (2,), ()),  # one pair
        ((2,), (6, 2), (6,)),  # one segment against many: _Colony._fits
        ((6, 2), (2,), (6,)),
        ((6, 2), (6, 2), (6,)),  # pair lists
    ],
)
def test_segments_distance_broadcast_shapes(p_shape, q_shape, shape):
    rng = np.random.default_rng(3)
    p0, p1 = rng.uniform(-20.0, 20.0, size=(2, *p_shape))
    q0, q1 = rng.uniform(-20.0, 20.0, size=(2, *q_shape))
    got = segments_distance(p0, p1, q0, q1)
    assert got.shape == shape
    rows = [np.broadcast_to(a, (*shape, 2)).reshape(-1, 2).tolist() for a in (p0, p1, q0, q1)]
    assert got.ravel().tolist() == [segment_distance(*a, *b, *c, *d) for a, b, c, d in zip(*rows)]


# -- neighbor graph --------------------------------------------------------


def test_two_isolated_cells_within_rho_are_neighbors():
    a = make_cell("a", (0, 0))
    b = make_cell("b", (50, 0))
    g = build_neighbor_graph(make_frame([a, b]), rho=80.0)
    assert np.argwhere(np.triu(g, 1)).tolist() == [[0, 1]]


def test_blocking_capsule_breaks_neighborhood():
    a = make_cell("a", (0, 0), angle=0.0)
    b = make_cell("b", (50, 0), angle=0.0)
    blocker = make_cell("x", (25, 0), angle=np.pi / 2, length=20.0, width=8.0)
    g = build_neighbor_graph(make_frame([a, b, blocker]), rho=80.0)
    assert np.argwhere(np.triu(g, 1)).tolist() == [[0, 2], [1, 2]]  # a-x and b-x, not a-b


def test_rho_bound_excludes_far_pair():
    a = make_cell("a", (0, 0))
    b = make_cell("b", (90, 0))
    g = build_neighbor_graph(make_frame([a, b]), rho=80.0)
    assert not g.any()


def _brute_force_graph(frame, rho):
    """All-pairs reference: Delaunay edge, no capsule hit, within rho."""
    from scipy.spatial import Delaunay

    n = len(frame)
    centers = frame.centers()
    try:
        tri = Delaunay(centers)
        dedges = set()
        for s in tri.simplices:
            for i in range(3):
                e = tuple(sorted((int(s[i]), int(s[(i + 1) % 3]))))
                dedges.add(e)
    except Exception:
        dedges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    adj = np.zeros((n, n), dtype=bool)
    for i, j in dedges:
        if np.hypot(*(centers[i] - centers[j])) > rho:
            continue
        blocked = False
        for k in range(n):
            if k in (i, j):
                continue
            cell = frame.cells[k]
            # sample the edge densely and test against the capsule core
            t = np.linspace(0, 1, 800)[:, None]
            pts = centers[i] + t * (centers[j] - centers[i])
            seg = cell.h - cell.e
            denom = float(seg @ seg)
            tt = np.clip((pts - cell.e) @ seg / denom, 0, 1)
            proj = cell.e + tt[:, None] * seg
            if np.min(np.hypot(*(pts - proj).T)) < cell.width / 2.0 - 1e-7:
                blocked = True
                break
        if not blocked:
            adj[i, j] = adj[j, i] = True
    return adj


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_neighbor_graph_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, 20, span=180.0)
    g = build_neighbor_graph(frame, rho=80.0)
    expected = _brute_force_graph(frame, 80.0)
    assert np.array_equal(g, expected)


@given(st.integers(0, 150), st.floats(30.0, 120.0))
def test_neighbor_graph_symmetry_and_rho(seed, rho):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, int(rng.integers(2, 14)), span=150.0)
    g = build_neighbor_graph(frame, rho=rho)
    assert np.array_equal(g, g.T)
    assert not np.any(np.diag(g))
    centers = frame.centers()
    for i, j in np.argwhere(g):
        assert np.hypot(*(centers[i] - centers[j])) <= rho + 1e-9


def test_fallback_below_three_cells():
    a = make_cell("a", (0, 0))
    b = make_cell("b", (40, 0))
    g = build_neighbor_graph(make_frame([a, b]), rho=80.0)
    assert np.argwhere(np.triu(g, 1)).tolist() == [[0, 1]]
    lone = build_neighbor_graph(make_frame([a]), rho=80.0)
    assert lone.sum(axis=1).tolist() == [0]


def test_fallback_collinear_centers():
    cells = [make_cell(f"c{i}", (30.0 * i, 0.0), angle=np.pi / 2, length=10) for i in range(4)]
    g = build_neighbor_graph(make_frame(cells), rho=35.0)
    assert np.argwhere(np.triu(g, 1)).tolist() == [[0, 1], [1, 2], [2, 3]]


def test_cocircular_square_keeps_both_diagonals():
    # Qhull picks one diagonal of a square arbitrarily; the empty-circle test
    # keeps every edge whose circle has the tied centers on it
    cells = [make_cell(f"s{k}", p) for k, p in enumerate([(0, 0), (40, 0), (40, 40), (0, 40)])]
    g = build_neighbor_graph(make_frame(cells), rho=80.0)
    assert g.sum() == 2 * 6


# -- neighbor graph against the per-edge reference -------------------------


def _ref_is_delaunay_edge(centers, i, j):
    """The empty-circle test of each pair ``i, j`` as a separate pass, in
    chunks of ``1 << 14`` elements (see ``build_neighbor_graph``)."""
    x, y = centers[:, 0], centers[:, 1]
    out = np.zeros(i.shape[0], dtype=bool)
    chunk = max(1, (1 << 14) // max(1, x.shape[0]))
    for lo in range(0, i.shape[0], chunk):
        ci, cj = centers[i[lo : lo + chunk]], centers[j[lo : lo + chunk]]
        d = cj - ci
        m = (ci + cj) / 2.0
        rx = x - m[:, :1]
        ry = y - m[:, 1:]
        s = rx * -d[:, 1:] + ry * d[:, :1]
        q = rx * rx + ry * ry - ((d * d).sum(axis=1) / 4.0)[:, None]
        twin = ((x == ci[:, :1]) & (y == ci[:, 1:])) | ((x == cj[:, :1]) & (y == cj[:, 1:]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = q / s
        below = np.where((s < 0.0) & ~twin, ratio, -np.inf).max(axis=1)
        above = np.where((s > 0.0) & ~twin, ratio, np.inf).min(axis=1)
        between = ((s == 0.0) & (q < 0.0) & ~twin).any(axis=1)
        out[lo : lo + chunk] = (below <= above) & ~between
    return out


def ref_neighbor_graph(frame, rho):
    """Adjacency of ``build_neighbor_graph`` by the per-edge loop: each kept
    Delaunay edge against every cell with one broadcast ``segments_distance``."""
    n = len(frame)
    adj = np.zeros((n, n), dtype=bool)
    if n < 2:
        return adj
    centers = frame.centers()
    i, j = pairs_within(centers[:, 0], centers[:, 1], rho)
    keep = _ref_is_delaunay_edge(centers, i, j)
    e_all = np.array([c.e for c in frame.cells])
    h_all = np.array([c.h for c in frame.cells])
    half_w = np.array([c.width for c in frame.cells]) / 2.0
    for a, b in zip(i[keep].tolist(), j[keep].tolist()):
        blocked = segments_distance(centers[a], centers[b], e_all, h_all) < half_w
        blocked[[a, b]] = False
        if not blocked.any():
            adj[a, b] = adj[b, a] = True
    return adj


@pytest.mark.kernels
@pytest.mark.parametrize("name", ["reg6min", "pipeline21", "tiled-large"])
def test_neighbor_graph_matches_reference_on_every_workload_frame(name):
    from trackbench import workloads

    for frame in workloads.GENERATORS[name](0).frames:
        got = build_neighbor_graph(frame, 80.0)
        assert got.tobytes() == ref_neighbor_graph(frame, 80.0).tobytes(), frame.index


_turn = st.integers(0, 7)  # eighth turns; turn 0 lays a row's cells along the row


@st.composite
def degenerate_layouts(draw):
    """Frames of collinear rows, cocircular squares, cells sharing a center
    and cells at float positions, on small integer coordinates."""
    spots = []
    corner = st.tuples(st.integers(0, 150), st.integers(0, 150))
    rows = st.tuples(corner, st.integers(6, 40), st.integers(2, 6))
    for (x0, y0), step, count in draw(st.lists(rows, min_size=1, max_size=3)):
        turn = draw(_turn)
        spots += [((x0 + k * step, y0), turn) for k in range(count)]
    for (x0, y0), side in draw(st.lists(st.tuples(corner, st.integers(6, 60)), max_size=2)):
        for dx, dy in ((0, 0), (side, 0), (side, side), (0, side)):
            spots.append(((x0 + dx, y0 + dy), draw(_turn)))
    floats = st.floats(0.0, 200.0)
    spots += [((draw(floats), draw(floats)), draw(_turn)) for _ in range(draw(st.integers(0, 5)))]
    for k in draw(st.lists(st.integers(0, len(spots) - 1), max_size=2)):
        spots.append((spots[k][0], draw(_turn)))
    lengths, widths = st.integers(4, 40), st.sampled_from([0.0, 3.0, 7.0, 12.0])
    return make_frame(
        [
            make_cell(f"c{k:02d}", p, turn * np.pi / 4, float(draw(lengths)), draw(widths))
            for k, (p, turn) in enumerate(spots)
        ]
    )


@pytest.mark.kernels
@settings(max_examples=200)
@given(
    degenerate_layouts(),
    st.sampled_from([20.0, 45.0, 80.0, 1e9]),
    st.sampled_from([1, 5, 64, geometry.CHUNK_ELEMENTS]),
)
def test_neighbor_graph_matches_reference_on_degenerate_layouts(frame, rho, budget):
    # tiny float coordinates overflow the same divisions in both forms alike
    with mock.patch.object(geometry, "CHUNK_ELEMENTS", budget), np.errstate(over="ignore"):
        got = build_neighbor_graph(frame, rho)
        assert got.tobytes() == ref_neighbor_graph(frame, rho).tobytes()


def test_blocked_edge_across_chunk_boundaries():
    # a-b is a Delaunay edge that only x's capsule blocks; the budgets move
    # the boundaries of the chunks, and of the batched crossing tests,
    # across every position of the pair
    cells = [
        *(make_cell(f"r{k}", (40.0 * k, 60.0)) for k in range(4)),
        make_cell("a", (0, 0)),
        make_cell("x", (25, 12), angle=np.pi / 2, length=40.0, width=8.0),
        make_cell("b", (50, 0)),
    ]
    a, x, b = 4, 5, 6
    thin = Cell("x", cells[x].e, cells[x].h, 0.0)
    assert ref_neighbor_graph(make_frame([*cells[:x], thin, cells[b]]), 80.0)[a, b]
    frame = make_frame(cells)
    want = ref_neighbor_graph(frame, 80.0)
    assert not want[a, b] and want[a, x] and want[x, b]
    for budget in range(1, 8 * len(frame)):
        with mock.patch.object(geometry, "CHUNK_ELEMENTS", budget):
            assert build_neighbor_graph(frame, 80.0).tobytes() == want.tobytes(), budget


def _empty_circle_edges(centers, rho):
    """Edges of the neighbor graph of zero-width cells centred at ``centers``,
    which no capsule can block, and the cells' centers."""
    cells = [Cell(f"c{k}", (x - 0.5, y), (x + 0.5, y), 0.0) for k, (x, y) in enumerate(centers)]
    frame = make_frame(cells)
    edges = np.argwhere(np.triu(build_neighbor_graph(frame, rho), 1)).tolist()
    return set(map(tuple, edges)), frame.centers()


def _qhull_edges(centers, rho):
    from scipy.spatial import Delaunay

    edges = set()
    for simplex in Delaunay(centers).simplices:
        for a in range(3):
            i, j = sorted((int(simplex[a]), int(simplex[(a + 1) % 3])))
            d = centers[j] - centers[i]
            if d @ d <= rho * rho:
                edges.add((i, j))
    return edges


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_delaunay_edges_match_qhull_on_float_frames(seed):
    # up to 150 centers, so the edge test runs in several chunks
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 300.0, size=(int(rng.integers(3, 150)), 2))
    rho = float(rng.uniform(20.0, 450.0))
    got, centers = _empty_circle_edges(centers, rho)
    assert got == _qhull_edges(centers, rho)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_coincident_centers_share_their_edges(seed):
    # a twin of a pair's end must not act as a witness against the pair
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 200.0, size=(int(rng.integers(3, 40)), 2))
    n = len(centers)
    twin = int(rng.integers(n))
    got, centers = _empty_circle_edges(np.vstack([centers, centers[twin]]), 1e9)
    edges = _qhull_edges(centers[:n], 1e9)
    others = [i + j - twin for i, j in edges if twin in (i, j)]
    assert got == edges | {(k, n) for k in others} | {(twin, n)}


# -- pair search -----------------------------------------------------------


@pytest.mark.kernels
@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(-1, 2),
    st.sampled_from([1, 7, 64, geometry.CHUNK_ELEMENTS]),
)
def test_pairs_within_matches_kdtree(seed, decimals, budget):
    # rounded coordinates put coincident points and pairs exactly r apart;
    # the search takes the points in runs of at most 2 * budget candidates
    # (or one point), so most larger draws, at the density of the small ones,
    # make several runs at every budget
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    n = int(rng.choice([rng.integers(2, 60), rng.integers(60, 2001)]))
    half = 50.0 * max(1.0, np.sqrt(n / 60))
    pts = rng.uniform(-half, half, size=(n, 2))
    if decimals >= 0:
        pts = np.round(pts, decimals)
    r = float(rng.choice([rng.uniform(0.0, 40.0), 5.0, 1.0, 0.0]))
    with mock.patch.object(geometry, "CHUNK_ELEMENTS", budget):
        i, j = pairs_within(pts[:, 0], pts[:, 1], r)
    assert i.dtype == j.dtype == np.intp
    got = list(zip(i.tolist(), j.tolist()))
    assert got == sorted(got) and all(a < b for a, b in got)
    expected = cKDTree(pts).query_pairs(r, output_type="ndarray")
    assert set(got) == set(map(tuple, expected.tolist()))


def test_pairs_within_pinned_cases():
    x, y = np.array([6.0, 0.0, 3.0, 3.0]), np.array([8.0, 0.0, 4.0, 4.0])
    i, j = pairs_within(x, y, 5.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert all(len(a) == 0 for a in pairs_within(x[:1], y[:1], 5.0))
    assert all(len(a) == 0 for a in pairs_within(x[:0], y[:0], 5.0))
    assert all(len(a) == 0 for a in pairs_within(x, y, -5.0))


# -- motion window ---------------------------------------------------------


def test_window_inclusion_boundaries():
    inside = make_cell("t1", (49, 49))
    outside = make_cell("t2", (51, 0))
    edge = make_cell("t3", (50, 0))
    nxt = make_frame([inside, outside, edge], index=1)
    assert window_mask((0.0, 0.0), nxt.centers(), w=100.0).tolist() == [True, False, True]
    assert window_mask((0.0, 0.0), nxt.centers()[:0], w=100.0).shape == (0,)


@given(st.integers(0, 200), st.floats(10, 60), st.floats(0, 60))
def test_window_monotone_in_width(seed, w1, extra):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, 10, span=120.0, index=1)
    probe = rng.uniform(0, 120, size=2)
    small = window_mask(probe, frame.centers(), w1)
    large = window_mask(probe, frame.centers(), w1 + extra)
    assert not (small & ~large).any()


def test_simulator_successor_always_in_window(minute_run):
    frames, lineage = minute_run.frames, minute_run.lineage
    w = 45.0
    for rec in lineage[:60]:
        src, dst = frames[rec.frame_index], frames[rec.frame_index + 1]
        for a, b in rec.moved.items():
            window = window_mask(src.centers()[src.position(a)], dst.centers(), w)
            assert window[dst.position(b)]


# -- containers ------------------------------------------------------------


def test_frame_rejects_duplicate_ids():
    a = make_cell("a", (0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        Frame(0, (a, make_cell("a", (30, 0))), Rect(-50, -50, 80, 50))


def test_frame_rejects_center_outside_bounds():
    with pytest.raises(ValueError, match="outside"):
        Frame(0, (make_cell("a", (100, 0)),), Rect(0, -10, 50, 10))
    # the message names the first offending cell; a center within 1e-6 is inside
    cells = [make_cell("a", (50 + 9e-7, 0)), make_cell("b", (25, -10.1)), make_cell("c", (-1, 0))]
    first = r"^cell 'b' center \[ 25.  -10.1\] outside frame bounds$"
    with pytest.raises(ValueError, match=first):
        Frame(0, cells, Rect(0, -10, 50, 10))
    assert Frame(0, cells[:1], Rect(0, -10, 50, 10)).centers().shape == (1, 2)
    assert Frame(0, (), Rect(0, -10, 50, 10)).centers().shape == (0, 2)


def test_frames_keep_their_values_when_pickled_or_copied():
    # cells given as ints, tuples or arrays, with -0.0 for 0.0, stack to
    # equal rows; pickling and deep-copying keep them, read-only
    a = Cell("a", [0, 0], [10, 0], 8)
    same = Cell("a", np.array([-0.0, 0.0]), (10.0, 0.0), 8.0)
    bounds = Rect(-5, -5, 20, 5)
    frame = Frame(0, (a, make_cell("b", (10, 0))), bounds)
    copy = Frame(0, (same, make_cell("b", (10, 0))), Rect(-5.0, -5.0, 20.0, 5.0))
    assert same_frame(frame, copy)
    assert not same_frame(frame, Frame(1, frame.cells, bounds))
    assert not same_frame(frame, Frame(0, frame.cells, Rect(-5, -5, 20, 6)))
    assert not same_frame(frame, Frame(0, frame.cells[::-1], bounds))
    assert not same_frame(frame, frame.without(["b"]))
    moved = Frame(0, (Cell("a", [0, 1e-12], [10, 0], 8), frame.cells[1]), bounds)
    assert not same_frame(frame, moved)
    for again in (pickle.loads(pickle.dumps(frame)), deepcopy(frame)):
        assert same_frame(again, frame) and not again.e.flags.writeable


def test_cells_keep_their_values_when_pickled_or_copied():
    # a cell comes back through its checking constructor: read-only endpoints
    # and the same length bits, for a built cell and for a frame's cell
    rng = np.random.default_rng(5)
    e, h = rng.uniform(-50, 50, (2, 2))
    frame = Frame.from_arrays(0, ["a"], [e], [h], [3.0], Rect(-100, -100, 100, 100))
    for cell in (Cell("a", [0, 0], [3, 4], 2), Cell("b", e, h, 3.0), frame.cells[0]):
        for again in (pickle.loads(pickle.dumps(cell)), deepcopy(cell)):
            assert type(again) is Cell and (again.id, again.width) == (cell.id, cell.width)
            assert again.e.tolist() == cell.e.tolist() and again.h.tolist() == cell.h.tolist()
            assert np.float64(again.length).tobytes() == np.float64(cell.length).tobytes()
            assert not (again.e.flags.writeable or again.h.flags.writeable)


def test_cells_and_frames_hold_read_only_endpoints():
    # a cell copies the caller's array: writing to it afterwards changes
    # neither the cell (its endpoints and length) nor a frame built from it
    a = np.array([0.0, 0.0])
    c = Cell("a", a, [10, 0], 8)
    bounds = Rect(-5, -5, 15, 5)
    frame = Frame(0, (c,), bounds)
    a[0] = 6.0
    assert c.e.tolist() == [0.0, 0.0] and c.length == 10.0
    assert frame.centers()[0].tolist() == [5.0, 0.0]
    again = frame.cells[frame.position("a")]
    assert (again.id, again.e.tolist(), again.h.tolist(), again.width) == ("a", [0, 0], [10, 0], 8)
    e = np.array([[0.0, 0.0]])
    copied = Frame.from_arrays(0, ["a"], e, [[10.0, 0.0]], [8.0], bounds)
    e[0, 0] = 6.0
    assert same_frame(copied, frame)
    for array in (
        c.e, c.h, frame.e, frame.h, frame.widths, frame.lengths, frame.centers(), frame.axes,
        frame.cells[0].e, copied.axes, frame.without([]).axes,
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        frame.index = 1


@pytest.mark.kernels
@pytest.mark.parametrize("seed", range(4))
def test_frames_from_arrays_equal_frames_from_cells(seed):
    # the two constructors, without() and unpickling give equal frames with
    # bit-identical, read-only lengths, centers and axes, also for rods a few
    # ulps or subnormals long, far from the origin, axis-aligned or of zero
    # width
    rng = np.random.default_rng(seed)
    n = 400
    e = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.integers(-3, 8, (n, 1))
    h = e + rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-12, 3, (n, 1))
    h[::7, 1] = e[::7, 1]
    h[::11] = np.nextafter(e[::11], np.inf)
    h[::13] = np.nextafter(np.nextafter(e[::13], -np.inf), -np.inf)
    e[:3] = 0.0
    h[:3] = [[5e-324, 0.0], [5e-324, 5e-324], [1e-310, -3e-310]]
    widths = rng.uniform(0.0, 10.0, n)
    widths[::5] = 0.0
    d = h - e
    keep = np.hypot(d[:, 0], d[:, 1]) > 0.0
    e, h, widths = e[keep], h[keep], widths[keep]
    ids = [f"c{k}" for k in range(len(e))]
    lo, hi = np.minimum(e, h).min(axis=0) - 1.0, np.maximum(e, h).max(axis=0) + 1.0
    bounds = Rect(lo[0], lo[1], hi[0], hi[1])
    cells = [Cell(cid, a, b, w) for cid, a, b, w in zip(ids, e, h, widths)]
    by_cells = Frame(seed, cells, bounds)
    by_arrays = Frame.from_arrays(seed, ids, e, h, widths, bounds)
    assert same_frame(by_arrays, by_cells)
    per_cell = (
        np.array([(c.e + c.h) / 2.0 for c in cells]),
        np.array([(c.h - c.e) / c.length for c in cells]),
        np.array([c.length for c in cells]),
    )
    every, kept = slice(None), np.arange(len(ids)) % 3 > 0
    for frame, rows in [
        (by_arrays, every), (by_cells, every), (pickle.loads(pickle.dumps(by_arrays)), every),
        (by_cells.without(ids[::3]), kept),
    ]:
        got = (frame.centers(), frame.axes, frame.lengths, frame.e, frame.h)
        for value, want in zip(got, (*per_cell, e, h)):
            assert value.tobytes() == want[rows].tobytes()
            assert not value.flags.writeable


def test_from_arrays_rejects_what_cells_reject():
    bounds = Rect(-50, -50, 50, 50)
    for e, h, width in [
        ([0, 0], [0, 0], 1.0),
        ([0, 0], [np.inf, 0], 1.0),
        ([1e308, 0], [-1e308, 0], 1.0),
        ([0, 0], [1, 0], -1.0),
        ([0, 0], [1, 0], np.nan),
    ]:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as cell_error:
                Cell("b", e, h, width)
            with pytest.raises(ValueError) as frame_error:
                Frame.from_arrays(0, ["a", "b"], [[0, 0], e], [[5, 0], h], [1.0, width], bounds)
        assert str(frame_error.value) == f"cell 'b': {cell_error.value}"
    with pytest.raises(ValueError, match="duplicate cell id 'a'"):
        Frame.from_arrays(0, ["a", "a"], [[0, 0], [1, 0]], [[5, 0], [6, 0]], [1.0, 1.0], bounds)
    with pytest.raises(ValueError, match="^cell 'a' center .* outside frame bounds$"):
        Frame.from_arrays(0, ["a"], [[95, 0]], [[105, 0]], [1.0], bounds)
    with pytest.raises(ValueError, match="shape"):
        Frame.from_arrays(0, ["a", "b"], [[0, 0]], [[5, 0]], [1.0], bounds)


def test_neighbor_graph_adjacency_cannot_change_after_the_checks():
    a, b = make_cell("a", (0, 0)), make_cell("b", (40, 0))
    graph = build_neighbor_graph(make_frame([a, b]), rho=80.0)
    lone = build_neighbor_graph(make_frame([a]), rho=80.0)
    with pytest.raises(ValueError, match="read-only"):
        graph[0, 1] = False
    with pytest.raises(ValueError, match="read-only"):
        lone[0, 0] = True
    assert graph.tolist() == [[False, True], [True, False]]
    assert graph.sum(axis=1).tolist() == [1, 1]


@pytest.mark.kernels
@pytest.mark.parametrize("name", ["reg6min", "pipeline21", "tiled-large"])
def test_stacked_geometry_is_bit_identical_to_the_per_cell_formulas(name):
    # a frame's centers, axes and lengths, which the penalty kernels read,
    # against each cell's center, axis and length as one cell's arithmetic
    # gives them
    from trackbench import workloads

    for frame in workloads.GENERATORS[name](0).frames:
        cells = frame.cells
        lengths = np.array([float(np.hypot(*(c.h - c.e))) for c in cells])
        centers = np.array([(c.e + c.h) / 2.0 for c in cells])
        axes = np.array([(c.h - c.e) / length for c, length in zip(cells, lengths.tolist())])
        assert np.array([c.length for c in cells]).tobytes() == lengths.tobytes()
        # the frame's own arrays, and those of a frame of freshly built cells,
        # which compute their lengths one at a time (a frame's cells carry its
        # lengths)
        fresh = Frame(frame.index, [Cell(c.id, c.e, c.h, c.width) for c in cells], frame.bounds)
        for built in (frame, fresh):
            assert built.centers().tobytes() == centers.tobytes(), frame.index
            assert built.axes.tobytes() == axes.tobytes(), frame.index
            assert built.lengths.tobytes() == lengths.tobytes(), frame.index


def test_cell_invariants():
    c = make_cell("a", (3, 4), angle=0.3, length=17.0)
    assert np.hypot(*(c.h - c.e)) == pytest.approx(c.length, rel=1e-9)
    frame = make_frame([c])
    assert np.allclose(frame.centers()[0], (3, 4), atol=1e-6)
    assert np.hypot(*frame.axes[0]) == pytest.approx(1.0, rel=1e-12)
    assert abs(cross2(frame.axes[0], c.h - c.e)) < 1e-9
    with pytest.raises(ValueError):
        Cell("bad", [0, 0], [0, 0], 5.0)


def test_frame_cells_index_like_a_tuple():
    # ints from either end, numpy integers, slices and iteration give the
    # rows in order, each cell carrying its row; an index past either end
    # raises IndexError, and one that is not an integer TypeError
    frame = make_frame([make_cell(cid, (30.0 * k, 2.0 * k), angle=k) for k, cid in enumerate("abcd")])
    cells, n, ids = frame.cells, len(frame), list(frame.ids)
    assert [c.id for c in cells] == ids
    for k in range(-n, n):
        for index in (k, np.int64(k), np.intp(k), np.int32(k)):
            c = cells[index]
            assert c.id == ids[k]
            assert (c.e.tobytes(), c.h.tobytes()) == (frame.e[k].tobytes(), frame.h[k].tobytes())
            assert (c.width, c.length) == (frame.widths[k], frame.lengths[k])
            assert type(c.width) is float and type(c.length) is float
    for index in (n, -n - 1, np.int64(n), np.int64(-n - 1), 10**20, -(10**20)):
        with pytest.raises(IndexError):
            cells[index]
    for index in (1.0, "a", None, np.float64(1.0)):
        with pytest.raises(TypeError):
            cells[index]
    for part in (slice(None), slice(1, 3), slice(None, None, -1), slice(-3, None, 2), slice(5, 9)):
        got = cells[part]
        assert type(got) is tuple and [c.id for c in got] == ids[part]
    empty = Frame(0, (), Rect(0, 0, 1, 1)).cells
    assert list(empty) == [] and empty[:] == ()
    for index in (0, -1):
        with pytest.raises(IndexError):
            empty[index]


def _rod_error_by_np_isfinite(length, width):
    """``geometry._rod_error`` as written with ``np.isfinite``."""
    if not np.isfinite(length):
        return "degenerate cell: length is not a finite number"
    if length <= 0.0:
        return "degenerate cell: endpoints coincide"
    if width < 0.0 or not np.isfinite(width):
        return "cell width must be a finite non-negative number"
    return None


def test_rod_error_verdicts_of_python_and_numpy_floats():
    values = [1.0, 0.0, -0.0, -1.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
    with np.errstate(over="ignore"):
        for length, width in itertools.product(values, repeat=2):
            for kind in (float, np.float64, np.float32):
                got = geometry._rod_error(kind(length), kind(width))
                assert got == _rod_error_by_np_isfinite(kind(length), kind(width))
    assert geometry._rod_error(1.0, -0.0) is None
    assert geometry._rod_error(-0.0, 1.0) == "degenerate cell: endpoints coincide"
    assert geometry._rod_error(np.float64(np.nan), 1.0) == (
        "degenerate cell: length is not a finite number"
    )
    assert geometry._rod_error(2.0, -np.inf) == "cell width must be a finite non-negative number"


_EXTREME_COORDINATES = [
    0.0, -0.0, 5e-324, -5e-324, 3e-320, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.5e308, -1.5e308,
]
_coordinate = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EXTREME_COORDINATES),
)


@pytest.mark.kernels
@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_coordinate, _coordinate), st.tuples(_coordinate, _coordinate),
    st.integers(0, 2**32 - 1),
)
def test_cell_length_is_np_hypot_bitwise(e, h, seed):
    # a cell takes its length as abs(complex(dx, dy)); it must be np.hypot's
    # bytes, and a length that np.hypot makes 0 or infinite must be rejected.
    # Besides the drawn endpoints, 64 pairs at scales 1e-3 to 1e6 per example:
    # math.hypot differs from np.hypot in the last bit of about 0.14% of them
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 6.0, size=(64, 1, 1))
    ends = [(e, h), *(rng.uniform(-1.0, 1.0, size=(64, 2, 2)) * scale).tolist()]
    for e, h in ends:
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.hypot(*(np.array(h) - np.array(e))))
        if 0.0 < want < math.inf:
            length = Cell("a", e, h, 1.0).length
            assert np.float64(length).tobytes() == np.float64(want).tobytes(), (e, h)
        else:
            with pytest.raises(ValueError, match="^degenerate cell: "):
                Cell("a", e, h, 1.0)
