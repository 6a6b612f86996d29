"""Rod-cell geometry, capsule distance tests, neighbor graphs, and motion windows.

A cell is modeled as a capsule: the segment between its two endpoints dilated
by half its width. All coordinates are pixels with y increasing downward.
A :class:`Frame` holds its cells as read-only arrays, one row per cell, and
the tracker computes on those arrays; :class:`Cell` objects are views of one
row, built on request.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Elements per temporary array of a chunked pairwise pass (16 KB of float64):
# the neighbor graph here and the parent search of ``division``. About ten
# such arrays are alive at once. On the last pipeline21 pair (95 target cells)
# chunks of 1 << 14 elements gave tracemalloc peaks of 1 083 KiB in
# ``build_neighbor_graph`` and 842 KiB in ``division.build_pch``; 1 << 11
# gives 216 and 322 KiB. The extra chunks cost some time: the parent search
# takes up to about 10% longer on pipeline21's small frames. ``pairs_within``
# takes its points in runs of at most twice as many candidate pairs: on the
# last tiled-large frame (380 cells, 19 174 candidates within 80 px) that
# peaks at 364 KiB against 1 362 KiB in one pass, while frames of up to 99
# simulated cells (about 2 300 candidates) still take one run.
CHUNK_ELEMENTS = 1 << 11
# Segments whose directions meet at an angle with a smaller sine do not
# cross properly (see stacked_segments_distance).
CROSSING_SIN = 1e-12
# stacked_segments_distance measures row k against the segment _SEG_A[k]-_SEG_B[k]
_SEG_A, _SEG_B = np.array([2, 2, 0, 0]), np.array([3, 3, 1, 1])


def _pt(p) -> np.ndarray:
    """A read-only float64 copy of the 2D point ``p``."""
    a = np.array(p, dtype=np.float64)
    if a.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {a.shape}")
    a.flags.writeable = False
    return a


def cross2(a: np.ndarray, b: np.ndarray):
    """z-component of the 2D cross product, broadcasting over leading axes."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def line_angle(u, v):
    """Angle in [0, pi/2] between the non-oriented lines carried by u and v,
    broadcasting over leading axes.

    A zero-length argument is treated as parallel (angle 0). The dot product
    is elementwise, not ``np.dot``: BLAS kernels differ in FMA use across CPUs.
    """
    ux, uy = _xy(u)
    vx, vy = _xy(v)
    nu = np.hypot(ux, uy)
    nv = np.hypot(vx, vy)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.abs(ux * vx + uy * vy) / (nu * nv)
    return np.where((nu == 0.0) | (nv == 0.0), 0.0, np.arccos(np.fmin(1.0, c)))[()]


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError(f"empty rectangle {self}")

    @classmethod
    def of_size(cls, width: float, height: float) -> "Rect":
        return cls(0.0, 0.0, float(width), float(height))

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0])

    def contains(self, p):
        """Whether point ``p`` lies in the rectangle widened by 1e-6,
        broadcasting over the leading axes of ``p``; NaN lies outside."""
        x, y = _xy(p)
        within_x = (self.xmin - 1e-6 <= x) & (x <= self.xmax + 1e-6)
        return within_x & (self.ymin - 1e-6 <= y) & (y <= self.ymax + 1e-6)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cell:
    """A rod-shaped cell: segment from endpoint ``e`` to endpoint ``h`` plus width.

    A cell stores its id, read-only copies of its endpoints, its width and
    ``length``, which is checked at construction. Frames hold their cells as
    arrays and build a cell from its row only when asked for it (see
    :class:`Frame`), which also gives the centers and unit axes.
    """

    id: str
    e: np.ndarray
    h: np.ndarray
    width: float
    length: float = field(init=False, repr=False)

    def __init__(self, id: str, e, h, width: float):
        e, h, width = _pt(e), _pt(h), float(width)
        (ex, ey), (hx, hy) = e.tolist(), h.tolist()
        # abs(complex(dx, dy)) is libm's hypot, as np.hypot; it raises where hypot overflows
        try:
            length = abs(complex(hx - ex, hy - ey))
        except OverflowError:
            length = math.inf
        error = _rod_error(length, width)
        if error:
            raise ValueError(error)
        self._fill(id, e, h, width, length)

    def __reduce__(self):
        return Cell, (self.id, self.e, self.h, self.width)

    def _fill(self, cell_id: str, e: np.ndarray, h: np.ndarray, width: float, length: float):
        """Set the five fields past the frozen ``__setattr__``; return the cell.
        ``Frame._cell`` fills a bare cell with a row it has checked, ``e`` and
        ``h`` read-only views of its arrays."""
        put = object.__setattr__
        put(self, "id", cell_id)
        put(self, "e", e)
        put(self, "h", h)
        put(self, "width", width)
        put(self, "length", length)
        return self


def _rod_error(length: float, width: float) -> str | None:
    """Why a cell of this length and width is invalid, or None."""
    if not math.isfinite(length):
        return "degenerate cell: length is not a finite number"
    if length <= 0.0:
        return "degenerate cell: endpoints coincide"
    if width < 0.0 or not math.isfinite(width):
        return "cell width must be a finite non-negative number"
    return None


def _stacked(cells) -> tuple[np.ndarray, ...]:
    """(E, H, widths, lengths) of ``cells``, one row per cell."""
    return (
        np.array([c.e for c in cells], np.float64).reshape(-1, 2),
        np.array([c.h for c in cells], np.float64).reshape(-1, 2),
        np.array([c.width for c in cells], np.float64),
        np.array([c.length for c in cells], np.float64),
    )


class Frame:
    """The cells observed at one time point, held as read-only arrays.

    Row k of ``e`` and ``h`` (each ``(n, 2)``), of ``widths`` and ``lengths``
    (each ``(n,)``) is the cell ``ids[k]``'s ``e``, ``h``, ``width`` and
    ``length``, bit for bit; row k of :meth:`centers` is ``(e + h) / 2`` and
    of ``axes`` the unit, unoriented axis ``(h - e) / length``.
    ``Frame(index, cells, bounds)`` stacks the given cells once and keeps no
    reference to them; :meth:`from_arrays` takes the arrays themselves, with
    the same checks and the same float operations, so both give the same
    arrays. ``cells`` builds :class:`Cell` objects from the rows on request
    and does not keep them, so ``frame.cells[frame.position(id)]`` is the
    cell of an id; tracking reads the arrays.
    """

    __slots__ = ("index", "bounds", "ids", "e", "h", "widths", "lengths", "axes",
                 "_centers", "_by_id")
    index: int
    bounds: Rect
    ids: tuple[str, ...]
    e: np.ndarray
    h: np.ndarray
    widths: np.ndarray
    lengths: np.ndarray
    axes: np.ndarray

    def __init__(self, index: int, cells: Iterable[Cell], bounds: Rect):
        cells = tuple(cells)
        self._fill(index, tuple(c.id for c in cells), *_stacked(cells), bounds)

    @classmethod
    def from_arrays(cls, index: int, ids, e, h, widths, bounds: Rect) -> "Frame":
        """The frame of the cells ``Cell(ids[k], e[k], h[k], widths[k])``,
        built without them: the arrays are copied, the lengths take the
        cells' float operations, and the first invalid row raises its cell's
        error, prefixed by its id."""
        ids = tuple(ids)
        e, h = np.array(e, np.float64), np.array(h, np.float64)
        widths = np.array(widths, np.float64)
        n = len(ids)
        if e.shape != (n, 2) or h.shape != (n, 2) or widths.shape != (n,):
            raise ValueError(f"expected {n} ids, endpoints of shape ({n}, 2) and {n} widths")
        d = h - e
        lengths = np.hypot(d[:, 0], d[:, 1])
        valid = np.isfinite(lengths) & (lengths > 0.0) & np.isfinite(widths) & (widths >= 0.0)
        if not valid.all():
            k = int(np.argmin(valid))
            raise ValueError(f"cell {ids[k]!r}: {_rod_error(lengths[k], widths[k])}")
        return cls._of(index, ids, e, h, widths, lengths, bounds)

    @classmethod
    def _of(cls, index, ids, e, h, widths, lengths, bounds) -> "Frame":
        frame = object.__new__(cls)
        frame._fill(index, ids, e, h, widths, lengths, bounds)
        return frame

    def _fill(self, index, ids, e, h, widths, lengths, bounds) -> None:
        """Check ids and bounds; store the arrays, centers and axes read-only."""
        by_id = dict(zip(ids, range(len(ids))))
        if len(by_id) < len(ids):
            seen = set()
            for cid in ids:
                if cid in seen:
                    raise ValueError(f"duplicate cell id {cid!r} in frame {index}")
                seen.add(cid)
        centers = (e + h) / 2.0
        inside = bounds.contains(centers)
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValueError(f"cell {ids[k]!r} center {centers[k]} outside frame bounds")
        axes = (h - e) / lengths[:, None]
        for a in (e, h, widths, lengths, axes, centers):
            a.flags.writeable = False
        values = (index, bounds, ids, e, h, widths, lengths, axes, centers, by_id)
        for name, value in zip(Frame.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frame")

    def __reduce__(self):
        return Frame._of, (self.index, self.ids, self.e, self.h, self.widths, self.lengths, self.bounds)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def cells(self) -> "FrameCells":
        return FrameCells(self)

    def _cell(self, pos: int) -> Cell:
        return object.__new__(Cell)._fill(
            self.ids[pos], self.e[pos], self.h[pos], self.widths.item(pos), self.lengths.item(pos)
        )

    def centers(self) -> np.ndarray:
        return self._centers

    def position(self, cell_id: str) -> int:
        return self._by_id[cell_id]

    def without(self, removed_ids: Iterable[str]) -> "Frame":
        gone = set(removed_ids)
        missing = gone - self._by_id.keys()
        if missing:
            raise KeyError(f"ids not in frame {self.index}: {sorted(missing)}")
        keep = [k for k, cid in enumerate(self.ids) if cid not in gone]
        return Frame._of(
            self.index, tuple(self.ids[k] for k in keep),
            self.e[keep], self.h[keep], self.widths[keep], self.lengths[keep], self.bounds,
        )


class FrameCells(Sequence):
    """A frame's cells as a read-only sequence: each item read builds its
    :class:`Cell` from the frame's rows."""

    __slots__ = ("_frame",)

    def __init__(self, frame: Frame):
        self._frame = frame

    def __len__(self) -> int:
        return len(self._frame)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._frame._cell, range(len(self))[k]))
        # the ids tuple takes a negative k from the end and raises IndexError out of range
        return self._frame._cell(operator.index(k))

    def __iter__(self):
        return map(self._frame._cell, range(len(self)))


def _xy(p) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(p, np.float64)
    return a[..., 0], a[..., 1]


def segments_distance(p0, p1, q0, q1):
    """Minimum distance between segments p0-p1 and q0-q1.

    The arguments are points of shape ``(..., 2)`` that broadcast against each
    other over their leading axes, e.g. one segment ``(2,)`` against many
    ``(N, 2)``. The points are broadcast and stacked for
    :func:`stacked_segments_distance`, which defines the distance.
    """
    pts = np.stack(np.broadcast_arrays(*(np.asarray(p, np.float64) for p in (p0, p1, q0, q1))))
    return stacked_segments_distance(pts[..., 0], pts[..., 1])


def stacked_segments_distance(x, y):
    """Minimum distance between segments p0-p1 and q0-q1, endpoints stacked on axis 0.

    ``x[0], y[0]`` hold the coordinates of p0, and rows 1 to 3 those of p1,
    q0 and q1. Segments that do not cross attain their minimum at an endpoint
    of one against the other, so four point-segment distances suffice; they
    come from one elementwise pass over four times the rows. A pair crosses,
    and is at distance zero, when its segments meet at an angle whose sine
    exceeds ``CROSSING_SIN``: ``den² > CROSSING_SIN² |u|² |v|²``, with ``den``
    the cross product of the directions ``u`` and ``v``. Nearer parallel,
    ``den`` can be rounding noise and so can the crossing parameters; such a
    pair takes its endpoint distance, which a true crossing keeps below
    ``CROSSING_SIN`` times a segment length.
    """
    ax, ay = x[_SEG_A], y[_SEG_A]
    dx, dy = x[_SEG_B] - ax, y[_SEG_B] - ay
    px, py = x - ax, y - ay
    dd = dx * dx + dy * dy
    positive = dd > 0.0
    t = ((px * dx + py * dy) / np.where(positive, dd, 1.0)).clip(0.0, 1.0)
    t = np.where(positive, t, 0.0)
    d = np.hypot(x - (ax + t * dx), y - (ay + t * dy)).min(axis=0)
    # rows 2 and 0 of dx, dy are u = p1 - p0 and v = q1 - q0; w = q0 - p0 is row 2 of px, py
    den = dx[2] * dy[0] - dy[2] * dx[0]
    crossing = den * den > CROSSING_SIN * CROSSING_SIN * dd[2] * dd[0]
    # the crossing parameters: t along p (row 0) and s along q (row 1)
    ts = (px[2] * dy[::2] - py[2] * dx[::2]) / np.where(crossing, den, 1.0)
    inside = (ts >= 0.0) & (ts <= 1.0)
    crossing &= inside[0] & inside[1]
    return np.where(crossing, 0.0, d)


def segment_distance(p0x, p0y, p1x, p1y, q0x, q0y, q1x, q1y) -> float:
    """:func:`stacked_segments_distance` of one pair of segments given as plain floats.

    It performs the same float operations in the same order, so it returns
    bit-for-bit the same value without the per-call cost of array dispatch.
    A hypot is ``abs(complex(x, y))``, which computes libm's ``hypot`` as
    ``np.hypot`` does; ``math.hypot`` can differ in the last bit.
    """
    ux, uy, vx, vy = p1x - p0x, p1y - p0y, q1x - q0x, q1y - q0y
    uu, vv = ux * ux + uy * uy, vx * vx + vy * vy
    den = ux * vy - uy * vx
    if den * den > CROSSING_SIN * CROSSING_SIN * uu * vv:
        wx, wy = q0x - p0x, q0y - p0y
        t = (wx * vy - wy * vx) / den
        s = (wx * uy - wy * ux) / den
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            return 0.0
    # the nearest points to p0 and p1 on segment q, and to q0 and q1 on p
    a = b = c = d = 0.0
    if vv > 0.0:
        a = ((p0x - q0x) * vx + (p0y - q0y) * vy) / vv
        a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
        b = ((p1x - q0x) * vx + (p1y - q0y) * vy) / vv
        b = 0.0 if b < 0.0 else 1.0 if b > 1.0 else b
    if uu > 0.0:
        c = ((q0x - p0x) * ux + (q0y - p0y) * uy) / uu
        c = 0.0 if c < 0.0 else 1.0 if c > 1.0 else c
        d = ((q1x - p0x) * ux + (q1y - p0y) * uy) / uu
        d = 0.0 if d < 0.0 else 1.0 if d > 1.0 else d
    return min(
        abs(complex(p0x - (q0x + a * vx), p0y - (q0y + a * vy))),
        abs(complex(p1x - (q0x + b * vx), p1y - (q0y + b * vy))),
        abs(complex(q0x - (p0x + c * ux), q0y - (p0y + c * uy))),
        abs(complex(q1x - (p0x + d * ux), q1y - (p0y + d * uy))),
    )


def pairs_within(x, y, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``i < j`` of points with ``dx² + dy² <= r²``, as index arrays.

    The pairs come in ``(i, j)`` order; a negative ``r`` gives none. The
    points are sorted by x; each one's candidates are the points after it in
    that order whose x lies within ``r`` (widened by a rounding margin), and
    each candidate pair then passes the exact test. The sorted points are
    tested in runs of whole points with at most ``2 * CHUNK_ELEMENTS``
    candidates each (a point with more makes a run of its own), so the
    working set stays bounded on wide frames; a frame with fewer candidates
    takes one run. The kept pairs of all runs are then sorted once.
    """
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    n = x.shape[0]
    if n < 2 or not r >= 0.0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    pad = 1e-9 * (abs(r) + float(np.abs(xs).max()))
    up = np.arange(1, n + 1)
    counts = np.searchsorted(xs, xs + (r + pad), side="right") - up
    ends = np.cumsum(counts)
    # the k-th candidate overall, one of sorted point p's, is sorted point k + shift[p]
    shift = up - ends + counts
    limit = 2 * CHUNK_ELEMENTS
    runs = [(0, order, counts, shift)]
    if ends[-1] > limit:
        # runs of whole points, each of at most `limit` candidates or one point
        runs, lo = [], 0
        while lo < n:
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + limit, side="right")))
            runs.append((done, order[lo:hi], counts[lo:hi], shift[lo:hi]))
            lo = hi
    parts = []
    for done, o, c, s in runs:
        a = np.repeat(o, c)
        b = np.repeat(s, c)
        b += np.arange(done, done + b.shape[0])
        b = order[b]
        # (x[b] - x[a])² is (x[j] - x[i])² bit for bit, whichever end is i
        dx = x[b] - x[a]
        dx *= dx
        dy = y[b] - y[a]
        dy *= dy
        dx += dy
        near = dx <= r * r
        a, b = a[near], b[near]
        parts.append((np.minimum(a, b), np.maximum(a, b)))
    if len(parts) == 1:
        i, j = parts[0]
    else:
        i, j = (np.concatenate(p) for p in zip(*parts))
    k = np.argsort(i * n + j)
    return i[k], j[k]


def build_neighbor_graph(frame: Frame, rho: float) -> np.ndarray:
    """Neighbor graph of a frame, as its read-only ``(n, n)`` bool adjacency.

    Two cells are neighbors when (1) their centers are at most ``rho`` apart,
    (2) they are joined by an edge of the Delaunay triangulation of the
    centers, and (3) that edge crosses no third cell's capsule. Condition (2)
    is an empty-circle test: some circle through both centers holds no other
    center strictly inside. Centers on the circle do not count, so exactly
    cocircular layouts keep every tied edge, and cells with coincident
    centers share their edges. Collinear layouts and frames of fewer than
    three cells need no special case.

    The pairs within ``rho`` are tested in one pass, in chunks of about
    ``CHUNK_ELEMENTS / len(frame)`` pairs, each against every center. With
    ``m`` the midpoint and ``n`` the normal of the pair's segment, a third
    center k lies strictly inside the circle through both ends centred at
    ``m + t n`` iff ``q_k < 2 t s_k``, where ``s_k = n·(c_k − m)`` and
    ``q_k = |c_k − m|² − |c_j − c_i|²/4``. Some such circle holds no center
    inside iff ``max q_k/s_k`` over ``s_k < 0`` is at most ``min q_k/s_k``
    over ``s_k > 0``, and no k on the pair's line lies between its ends
    (``s_k = 0``, ``q_k < 0``); a center coincident with an end is no
    witness. (3) then measures the segment of each kept
    pair against the cells that can reach it, those whose center lies within
    ``|c_j − c_i|/2 + length/2 + width/2`` (plus 1 px for rounding) of
    ``m``. These tests wait until about ``CHUNK_ELEMENTS / 16`` of them have
    gathered, so that one :func:`stacked_segments_distance` call, whose
    temporaries hold four elements per test, serves several chunks.
    """
    n = len(frame)
    adj = np.zeros((n, n), dtype=bool)
    if n < 2:
        adj.flags.writeable = False
        return adj
    centers = frame.centers()
    x, y = centers[:, 0], centers[:, 1]
    i, j = pairs_within(x, y, rho)
    e, h = frame.e, frame.h
    half_w = frame.widths / 2.0
    extent = frame.lengths / 2.0 + half_w + 1.0
    # cells with one center share a group: no center of an end's group is a witness
    order = np.lexsort((y, x))
    group = np.empty(n, np.intp)
    group[order] = np.cumsum(np.r_[0, (np.diff(x[order]) != 0.0) | (np.diff(y[order]) != 0.0)])
    kept = np.zeros(i.shape[0], dtype=bool)
    tests, waiting = [], 0  # (pair, cell) crossing tests for one batched distance call
    chunk = max(1, CHUNK_ELEMENTS // n)
    for lo in range(0, i.shape[0], chunk):
        a, b = i[lo : lo + chunk], j[lo : lo + chunk]
        ci, cj = centers[a], centers[b]
        d = cj - ci
        m = (ci + cj) / 2.0
        rx = x - m[:, :1]
        ry = y - m[:, 1:]
        s = rx * -d[:, 1:] + ry * d[:, :1]
        s[(group == group[a][:, None]) | (group == group[b][:, None])] = np.nan
        r2 = rx * rx + ry * ry
        half2 = (d * d).sum(axis=1) / 4.0
        q = r2 - half2[:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = q / s
        below = np.where(s < 0.0, ratio, -np.inf).max(axis=1)
        above = np.where(s > 0.0, ratio, np.inf).min(axis=1)
        between = ((s == 0.0) & (q < 0.0)).any(axis=1)
        rows = np.flatnonzero((below <= above) & ~between)
        kept[lo + rows] = True
        near = r2[rows] <= (np.sqrt(half2[rows])[:, None] + extent) ** 2
        own = np.arange(rows.shape[0])
        near[own, a[rows]] = near[own, b[rows]] = False
        r, k = np.nonzero(near)
        tests.append((lo + rows[r], k))
        waiting += k.shape[0]
        if 16 * waiting >= CHUNK_ELEMENTS or lo + chunk >= i.shape[0]:
            pair, k = (np.concatenate(t) for t in zip(*tests))
            ends = np.stack([centers[i[pair]], centers[j[pair]], e[k], h[k]])
            dist = stacked_segments_distance(ends[..., 0], ends[..., 1])
            kept[pair[dist < half_w[k]]] = False
            tests, waiting = [], 0
    adj[i[kept], j[kept]] = adj[j[kept], i[kept]] = True
    adj.flags.writeable = False
    return adj


def window_mask(center, targets: np.ndarray, w: float) -> np.ndarray:
    """Boolean mask of target centers inside the width-w square around center."""
    if targets.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    d = np.abs(targets - np.asarray(center, dtype=np.float64))
    return (d[:, 0] <= w / 2.0) & (d[:, 1] <= w / 2.0)
