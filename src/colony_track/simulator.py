"""Agent-based synthetic colony generator with exact ground-truth lineage.

Cells are capsules in a rectangular trap. Per interframe they grow
multiplicatively, jitter in orientation, random-walk, divide when reaching
their per-cell division length, and resolve pairwise overlaps by symmetric
pushes along the center-center direction. Per-interframe center displacement
is hard-bounded by half the motion-window width, so the true successor of a
cell always lies inside its target window.

Overlap relaxation finds its candidate pairs in a Verlet neighbour list: the
pairs whose centers lie within ``reach + RELAX_SKIN``, where ``reach`` (longest
cell + widest cell + 1) exceeds the center distance of any overlapping pair.
The list is rebuilt only once some cell has moved half the skin since it was
built, so a pair left out is always still more than ``reach`` apart and cannot
overlap. Each listed pair also keeps a certified lower bound on its gap, which
the moves of its cells lower; only pairs whose bound comes near the push
threshold are measured again. Every pushed pair, and every float it is pushed
by, is the same as when each listed pair is measured after every iteration,
so the frames are byte for byte those of that simpler scheme, whatever the
skin. At 12 px, half the rebuilds of 4 px, set-up time has levelled off.

The push order is defined by the pairs alone: deepest gap first, and pairs of
equal gap (common: crossing capsules of equal width all have gap -width) in
``(i, j)`` order of their cell indices. It depends on neither the neighbour
list's build times nor the sort kernel numpy picks for the CPU.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Iterable

import numpy as np

from .errors import ValidationError, check_fields, finite_real
from .geometry import (
    Frame,
    Rect,
    pairs_within,
    segment_distance,
    segments_distance,
    stacked_segments_distance,
)

# Margin (pixels) of the relaxation's neighbour list beyond the overlap reach.
RELAX_SKIN = 12.0
# Largest batch of pairs that _PairList._measure measures one pair at a time.
RELAX_SCALAR_BATCH = 16
# Safety margins (pixels) of the relaxation's gap bounds (see _PairList).
RELAX_MARGIN = 1e-6
RELAX_PAD = 1e-9
# Signs of the endpoint offsets from the centers, by row of the stacked form.
_END_SIGNS = np.array([[-1.0], [1.0], [-1.0], [1.0]])


@dataclass(frozen=True)
class SimConfig:
    """Colony simulation parameters.

    ``growth_rate`` is the per-minute multiplicative length factor;
    ``division_eps_range`` is the interval (pixels) of the random summand in
    the division length 2*L0 + eps. The remaining knobs control sub-step
    mechanics that the observable statistics do not pin down.
    """

    growth_rate: float = 1.05
    growth_jitter: float = 0.02
    interframe_minutes: float = 1.0
    trap_bounds: Rect = field(default_factory=lambda: Rect.of_size(600.0, 600.0))
    split_ratio_range: tuple[float, float] = (0.45, 0.55)
    division_eps_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0
    n_frames: int = 10
    initial_cells: int = 1
    # mechanics
    birth_length: float = 20.0
    cell_width: float = 7.0
    motion_sigma: float = 1.0
    rotation_sigma: float = 0.03
    w: float = 45.0
    divide: bool = True
    max_length: float | None = None
    substeps: int = 4
    relax_iterations: int = 60
    overlap_tol: float = 0.45

    def __post_init__(self):
        check_fields(
            self,
            integers=("seed", "n_frames", "initial_cells", "substeps", "relax_iterations"),
            reals=("growth_rate",),
            nonnegative=(
                "seed", "relax_iterations", "cell_width", "growth_jitter", "motion_sigma",
                "rotation_sigma",
            ),
            positive=(
                "n_frames", "initial_cells", "substeps", "interframe_minutes", "birth_length",
                "w", "overlap_tol",
            ),
            booleans=("divide",),
        )
        if self.max_length is not None:
            check_fields(self, reals=("max_length",))
        for name in ("split_ratio_range", "division_eps_range"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not all(map(finite_real, pair)):
                raise ValidationError(f"{name} must be two finite numbers, got {pair!r}")
        b = self.trap_bounds
        if not (isinstance(b, Rect) and all(map(finite_real, astuple(b)))):
            raise ValidationError(f"trap_bounds must be a Rect of finite numbers, got {b!r}")
        if self.growth_rate <= 1.0:
            raise ValidationError("growth_rate must exceed 1")
        lo, hi = self.split_ratio_range
        if not (0.0 < lo <= hi < 1.0) or abs((lo + hi) - 1.0) > 1e-9:
            raise ValidationError(
                "split_ratio_range must lie in (0,1) and be symmetric about 0.5"
            )
        if self.division_eps_range[0] > self.division_eps_range[1]:
            raise ValidationError("division_eps_range must be a non-empty interval")
        if self.max_length is not None and self.max_length < self.birth_length:
            raise ValidationError(f"max_length {self.max_length} is below birth_length")
        try:
            growth = self.growth_rate**self.interframe_minutes
        except OverflowError:  # far beyond 2x
            growth = math.inf
        if self.divide and growth >= 1.9:
            raise ValidationError(
                "growth per interframe too close to 2x: cells could divide twice "
                "within one interframe"
            )


@dataclass(frozen=True)
class LineageRecord:
    """Ground-truth or inferred mapping from frame k to frame k+1."""

    frame_index: int
    moved: dict[str, str]
    divided: dict[str, tuple[str, str]]

    @property
    def n_divisions(self) -> int:
        return len(self.divided)

    def sources(self) -> set[str]:
        return set(self.moved) | set(self.divided)

    def targets(self) -> list[str]:
        out = list(self.moved.values())
        for t1, t2 in self.divided.values():
            out.extend((t1, t2))
        return out

    def validate(self, frame: Frame, next_frame: Frame) -> None:
        """Check the bijectivity and cardinality invariants against two frames."""
        src = sorted(self.sources())
        if len(src) != len(self.moved) + len(self.divided):
            raise ValidationError("a cell appears both as moved and divided")
        if src != sorted(frame.ids):
            raise ValidationError("sources do not cover the frame exactly once")
        tgt = self.targets()
        if len(tgt) != len(set(tgt)) or sorted(tgt) != sorted(next_frame.ids):
            raise ValidationError("targets do not cover the next frame exactly once")
        if len(next_frame) - len(frame) != self.n_divisions:
            raise ValidationError("division count does not match the cardinality gap")


@dataclass
class SimResult:
    frames: list[Frame]
    lineage: list[LineageRecord]
    truncated: bool = False


# The colony's per-cell arrays, one row per live cell in the order of
# ``_Colony.ids``. Cells are added and dropped only by ``_Colony._add`` and
# ``_Colony._keep``, which change all of them at once.
_CELL_ARRAYS = ("centers", "axes", "lengths", "widths", "div_len", "anchors")


class _Colony:
    """Mutable simulation state: the live cells' ``ids`` and the arrays named
    in ``_CELL_ARRAYS``. ``div_len`` is the length at which a cell divides;
    ``anchors`` are the positions at the start of the interframe, a newborn
    taking its parent's, from which the displacement budget is measured."""

    def __init__(self, config: SimConfig, rng: np.random.Generator):
        self.cfg = config
        self.rng = rng
        self.ids: list[str] = []
        # separate arrays: _enforce_budget writes centers in place
        self.centers, self.axes, self.anchors = (np.zeros((0, 2)) for _ in range(3))
        self.lengths, self.widths, self.div_len = (np.zeros(0) for _ in range(3))
        self._id_counter = 0

    def next_id(self) -> str:
        self._id_counter += 1
        return f"c{self._id_counter:06d}"

    def _add(self, ids: Iterable[str], *arrays) -> None:
        """Append the cells ``ids``: one block of rows per array, in
        ``_CELL_ARRAYS`` order."""
        self.ids.extend(ids)
        for name, rows in zip(_CELL_ARRAYS, arrays, strict=True):
            setattr(self, name, np.concatenate((getattr(self, name), rows)))

    def _keep(self, mask: np.ndarray) -> None:
        """Drop the cells whose ``mask`` entry is False."""
        self.ids = [cid for cid, kept in zip(self.ids, mask) if kept]
        for name in _CELL_ARRAYS:
            setattr(self, name, getattr(self, name)[mask])

    # -- construction -----------------------------------------------------

    def seed_initial(self) -> None:
        cfg = self.cfg
        if not cfg.divide and cfg.max_length is not None:  # _grow cuts a cell to its cap at once
            lowest_cap = cfg.max_length * (0.8 if cfg.growth_jitter > 0 else 1.0)
            if lowest_cap < 1.8 * cfg.birth_length:
                raise ValidationError(
                    f"max_length {cfg.max_length} would shrink seeded cells: its lowest cap "
                    f"{lowest_cap:g} (growth_jitter {cfg.growth_jitter}) is below "
                    f"1.8 * birth_length = {1.8 * cfg.birth_length:g}"
                )
        center = cfg.trap_bounds.center
        spacing = cfg.birth_length * 1.6
        radius = spacing * max(1.0, math.sqrt(cfg.initial_cells))
        placed = 0
        attempts = 0
        while placed < cfg.initial_cells:
            attempts += 1
            if attempts > 2000 * cfg.initial_cells:
                raise ValidationError("could not place initial cells without overlap")
            pos = center + self.rng.uniform(-radius, radius, size=2)
            theta = self.rng.uniform(0.0, math.pi)
            axis = np.array([math.cos(theta), math.sin(theta)])
            length = cfg.birth_length * self.rng.uniform(1.0, 1.8)
            if self._fits(pos, axis, length):
                if not cfg.trap_bounds.contains(pos):
                    raise ValidationError(
                        f"trap_bounds too small to seed initial_cells={cfg.initial_cells}: "
                        f"an initial cell center {pos} lies outside them"
                    )
                div_len = 2 * cfg.birth_length + self.rng.uniform(*cfg.division_eps_range)
                self._add(
                    [self.next_id()], [pos], [axis], [length], [cfg.cell_width], [div_len], [pos]
                )
                placed += 1

    def adopt_frame(self, frame: Frame) -> None:
        """Resume from an existing frame; adopted cells count as newborn at
        their current length (division at twice that length plus noise)."""
        centers, lengths = frame.centers(), frame.lengths
        eps = self.rng.uniform(*self.cfg.division_eps_range, size=len(frame))
        self._add(frame.ids, centers, frame.axes, lengths, frame.widths, 2 * lengths + eps, centers)
        self._id_counter = max([0, *map(_numeric_suffix, frame.ids)])

    def _fits(self, pos, axis, length) -> bool:
        if len(self.ids) == 0:
            return True
        e = pos - axis * length / 2.0
        h = pos + axis * length / 2.0
        half_w = (self.widths + self.cfg.cell_width) / 2.0
        return bool((segments_distance(e, h, *self.endpoints()) - half_w > 0.5).all())

    # -- stepping ---------------------------------------------------------

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.axes * (self.lengths[:, None] / 2.0)
        return self.centers - half, self.centers + half

    def to_frame(self, index: int) -> Frame:
        e_all, h_all = self.endpoints()
        try:
            return Frame.from_arrays(index, self.ids, e_all, h_all, self.widths, self.cfg.trap_bounds)
        except ValueError as exc:  # a cell rounded to a point, at extreme lengths or coordinates
            raise ValidationError(f"simulated frame {index}: {exc}") from exc

    def step_interframe(self) -> tuple[dict[str, tuple[str, str]], bool]:
        """Advance one interframe. Returns (divisions, relaxation_ok)."""
        cfg = self.cfg
        self.anchors = self.centers.copy()
        start_ids = set(self.ids)
        divided: dict[str, tuple[str, str]] = {}
        dt = cfg.interframe_minutes / cfg.substeps
        ok = True
        for _ in range(cfg.substeps):
            self._grow(dt)
            self._jitter_axes(dt)
            self._random_walk(dt)
            self._enforce_budget()
            if cfg.divide:
                self._divide_ripe(start_ids, divided)
            limits = self._trap_limits()
            self._clamp_to_trap(limits)
            # relaxation moves last so its exit condition holds in the
            # emitted state; its pushes respect budget and trap internally
            ok = self._relax(limits)
        return divided, ok

    def _grow(self, dt: float) -> None:
        cfg = self.cfg
        noise = self.rng.normal(0.0, cfg.growth_jitter * math.sqrt(dt), size=len(self.lengths))
        # np.minimum(np.maximum(...)) is np.clip without its Python-level wrapper
        factor = np.minimum(np.maximum(cfg.growth_rate**dt * (1.0 + noise), 0.6), 1.6)
        self.lengths = self.lengths * factor
        if not cfg.divide and cfg.max_length is not None:
            wiggle = 1.0 + self.rng.normal(
                0.0, cfg.growth_jitter * math.sqrt(dt), size=len(self.lengths)
            )
            cap = cfg.max_length * np.minimum(np.maximum(wiggle, 0.8), 1.2)
            self.lengths = np.minimum(self.lengths, cap)

    def _jitter_axes(self, dt: float) -> None:
        theta = self.rng.normal(0.0, self.cfg.rotation_sigma * math.sqrt(dt), size=len(self.ids))
        cos, sin = np.cos(theta), np.sin(theta)
        x, y = self.axes[:, 0].copy(), self.axes[:, 1].copy()
        self.axes = np.column_stack([cos * x - sin * y, sin * x + cos * y])

    def _random_walk(self, dt: float) -> None:
        self.centers = self.centers + self.rng.normal(
            0.0, self.cfg.motion_sigma * math.sqrt(dt), size=self.centers.shape
        )

    def _divide_ripe(self, start_ids: set[str], divided: dict) -> None:
        cfg = self.cfg
        ripe = np.flatnonzero(self.lengths >= self.div_len)
        if ripe.size == 0:
            return
        ratios, eps = [], []
        for i in ripe:
            if self.ids[i] not in start_ids:
                raise ValidationError(
                    "a cell born during this interframe reached its division "
                    "length: growth_rate, growth_jitter and substeps let cells "
                    "grow too fast for the frame rate"
                )
            ratios.append(self.rng.uniform(*cfg.split_ratio_range))
            eps.extend(self.rng.uniform(*cfg.division_eps_range, size=2))
        L, u = self.lengths[ripe, None], self.axes[ripe]
        r = np.array(ratios)[:, None]
        e = self.centers[ripe] - u * L / 2.0
        l1, l2 = r * L, (1.0 - r) * L
        # children split the parent capsule with a 1 px gap along the axis
        c1 = e + u * (l1 / 2.0) - u * 0.5
        c2 = e + u * (l1 + l2 / 2.0) + u * 0.5
        # each parent's two children, one after the other, after the kept cells
        lengths = np.hstack((l1, l2)).ravel()
        children = [self.next_id() for _ in range(lengths.size)]
        for i, pair in zip(ripe, zip(children[::2], children[1::2])):
            divided[self.ids[i]] = pair
        parents = np.repeat(ripe, 2)
        self._add(
            children, np.hstack((c1, c2)).reshape(-1, 2), self.axes[parents], lengths,
            self.widths[parents], 2 * lengths + np.array(eps), self.anchors[parents],
        )
        keep = np.ones(len(self.ids), dtype=bool)
        keep[ripe] = False
        self._keep(keep)

    def _relax(self, limits: tuple[np.ndarray, np.ndarray] | None = None) -> bool:
        """Push overlapping capsules apart; True when within tolerance.

        ``limits`` are the cells' :meth:`_trap_limits`, computed here when not given.

        Pairs are pushed one at a time, deepest first and, at equal gaps, in
        ``(i, j)`` order (a stable sort of the list's ``(i, j)`` order), each
        seeing the moves before it, so a last-bit change in any per-pair float
        operation can change the colony; tests pin the output by digest. Each
        push is capped by the displacement budget, then clamped to the trap.

        Each iteration pushes the listed pairs whose gap is below
        ``-overlap_tol / 2``. :class:`_PairList` holds the candidates: a Verlet
        neighbour list of every pair that can overlap, each pair with a
        certified lower bound on its gap, measured exactly once the bound falls
        below ``-overlap_tol / 2 + RELAX_MARGIN``. A pair whose bound stays
        above that is not pushed and passes the final check (``overlap_tol``
        is positive), and every pair below it holds its gap measured at the
        current centers. So the pushed pairs, the gaps they are pushed by,
        their order and the return value are those of measuring every listed
        pair after every iteration, bit for bit, whatever ``RELAX_SKIN`` and
        the times the list is rebuilt. A pair is pushed by the gap that
        selected it while neither of its cells has moved in this iteration,
        and is measured anew after by the scalar ``segment_distance``. Norms
        are ``abs(complex(x, y))``: bit for bit ``np.hypot``, without NumPy's
        per-call dispatch.
        """
        cfg = self.cfg
        n = len(self.ids)
        if n < 2:
            return True
        half_tol = cfg.overlap_tol * 0.5
        budget = 0.98 * cfg.w / 2.0
        # a squared displacement up to this is certainly within the budget
        within_budget = budget * budget * (1.0 - 1e-9)
        # lengths, axes and anchors are fixed during relaxation
        half = self.axes * (self.lengths[:, None] / 2.0)
        (lox, loy), (hix, hiy) = (a.T.tolist() for a in limits or self._trap_limits())
        ax, ay = self.anchors.T.tolist()
        xs, ys = self.centers.T.tolist()
        reach = float(self.lengths.max() + self.widths.max()) + 1.0
        pl = _PairList(xs, ys, half, self.widths, reach, -half_tol + RELAX_MARGIN)

        def move(i: int, dx: float, dy: float) -> None:
            x, y = xs[i] + dx, ys[i] + dy
            ox, oy = x - ax[i], y - ay[i]
            if ox * ox + oy * oy > within_budget:
                norm = abs(complex(ox, oy))
                if norm > budget:
                    scale = budget / norm
                    x, y = ax[i] + ox * scale, ay[i] + oy * scale
            # min(max(x, lo), hi), as lo <= hi
            x = lox[i] if x < lox[i] else hix[i] if x > hix[i] else x
            y = loy[i] if y < loy[i] else hiy[i] if y > hiy[i] else y
            xs[i], ys[i] = x, y
            if not is_moved[i]:
                is_moved[i] = True
                moved.append(i)

        for _ in range(cfg.relax_iterations):
            masked = (pl.gaps < -half_tol).nonzero()[0]
            if masked.size == 0:
                break
            # deepest first; pairs of equal gap keep the list's (i, j) order
            ks = masked[pl.gaps[masked].argsort(kind="stable")]
            # cells moved in this iteration, in the order of their first move
            is_moved, moved = [False] * n, []
            start = xs[:], ys[:]
            for i, j, gap, hw in zip(
                pl.i[ks].tolist(), pl.j[ks].tolist(), pl.gaps[ks].tolist(), pl.hw[ks].tolist()
            ):
                depth = hw - pl.distance(i, j) if is_moved[i] or is_moved[j] else -gap
                if depth <= half_tol:
                    continue
                dx, dy = xs[j] - xs[i], ys[j] - ys[i]
                norm = abs(complex(dx, dy))
                if norm < 1e-9:
                    theta = self.rng.uniform(0, 2 * math.pi)
                    dx, dy = math.cos(theta), math.sin(theta)
                    norm = 1.0
                step = depth / 2.0 + 0.05
                px, py = step * (dx / norm), step * (dy / norm)
                move(i, -px, -py)
                move(j, px, py)
            pl.update(moved, *start)
        self.centers = np.column_stack((xs, ys))
        return bool((pl.gaps > -cfg.overlap_tol).all())

    def _trap_limits(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell lowest and highest center that keeps the capsule in the trap."""
        b = self.cfg.trap_bounds
        half = np.abs(self.axes) * (self.lengths[:, None] / 2.0) + self.widths[:, None] / 2.0
        lo = np.array([b.xmin, b.ymin]) + half
        hi = np.array([b.xmax, b.ymax]) - half
        return np.minimum(lo, hi), np.maximum(lo, hi)

    def _enforce_budget(self) -> None:
        budget = 0.98 * self.cfg.w / 2.0
        disp = self.centers - self.anchors
        norms = np.hypot(disp[:, 0], disp[:, 1])
        over = norms > budget
        if over.any():
            scale = budget / norms[over]
            self.centers[over] = self.anchors[over] + disp[over] * scale[:, None]

    def _clamp_to_trap(self, limits: tuple[np.ndarray, np.ndarray]) -> None:
        self.centers = np.minimum(np.maximum(self.centers, limits[0]), limits[1])


class _PairList:
    """Neighbour list of one :meth:`_Colony._relax` call, with a gap bound per pair.

    ``xs`` and ``ys`` are the relaxation's center coordinates; the caller moves
    cells by writing them in place and reports each iteration's moves to
    :meth:`update`. Endpoint offsets ``half`` and widths must not change while
    the list is in use.

    The list holds the pairs ``i < j`` whose centers were within ``reach +
    RELAX_SKIN`` at the last build, in ``(i, j)`` order, and is rebuilt once
    a cell has moved ``RELAX_SKIN / 2`` since then, so every pair left out
    stays more than ``reach`` apart and cannot overlap.

    Each pair's ``gaps`` entry is a lower bound on its gap, and exact for every
    pair whose bound is below ``threshold``. A pair's ``slack`` bounds how far
    its two cells have moved since its gap was recorded: each iteration adds
    ``|dx| + |dy| + RELAX_PAD`` of the net move of each of its cells. The
    distance between two segments changes by at most the length of a
    translation of either, so ``gaps - slack`` bounds the current gap from
    below; a pair is measured anew, and its slack cleared, once that bound
    falls below ``threshold``. A build bounds every listed pair afresh by
    ``|c_i - c_j| - r_i - r_j - hw`` (``r`` the half-lengths, ``hw`` the mean
    width) and measures it at once when that is below ``threshold``.
    ``RELAX_PAD`` covers the rounding of the slack sums and ``RELAX_MARGIN``
    in ``threshold`` that of the distances compared; both are far above
    float error at trap scale. They also cover the one place where the
    computed distance departs from the true one by more than rounding: a
    near-parallel crossing, which measures at most ``CROSSING_SIN`` times a
    segment length instead of 0 (see
    :func:`~colony_track.geometry.stacked_segments_distance`).

    Batches of up to ``RELAX_SCALAR_BATCH`` pairs, too small to repay the
    stacked kernel's fixed cost of some 30 NumPy calls, are measured pair by
    pair with the scalar ``segment_distance``, which returns the same bits.
    """

    def __init__(self, xs, ys, half: np.ndarray, widths: np.ndarray, reach: float, threshold):
        self.xs, self.ys, self.threshold = xs, ys, threshold
        self.hx, self.hy = half.T
        self.offx, self.offy = half.T.tolist()
        self.widths, self.cutoff = widths, reach + RELAX_SKIN
        self.radius = np.hypot(half[:, 0], half[:, 1])
        self._build()

    def _build(self) -> None:
        """List the pairs within the cutoff, bound their gaps and measure those below threshold."""
        self.bx, self.by = self.xs[:], self.ys[:]
        x, y = np.array(self.xs), np.array(self.ys)
        i, j = pairs_within(x, y, self.cutoff)
        hw = (self.widths[i] + self.widths[j]) / 2.0
        gaps = np.hypot(x[j] - x[i], y[j] - y[i]) - self.radius[i] - self.radius[j] - hw
        self.i, self.j, self.hw, self.gaps, self.slack = i, j, hw, gaps, np.zeros(len(i))
        self._measure((gaps < self.threshold).nonzero()[0])

    def distance(self, i: int, j: int) -> float:
        """The distance between the axes of cells ``i`` and ``j``."""
        xs, ys, hx, hy = self.xs, self.ys, self.offx, self.offy
        return segment_distance(
            xs[i] - hx[i], ys[i] - hy[i], xs[i] + hx[i], ys[i] + hy[i],
            xs[j] - hx[j], ys[j] - hy[j], xs[j] + hx[j], ys[j] + hy[j],
        )

    def _measure(self, k: np.ndarray) -> None:
        """Record the exact gaps of pairs ``k``."""
        if k.size == 0:
            return
        if k.size <= RELAX_SCALAR_BATCH:
            ijw = zip(self.i[k].tolist(), self.j[k].tolist(), self.hw[k].tolist())
            self.gaps[k] = [self.distance(i, j) - hw for i, j, hw in ijw]
        else:
            i, j = self.i[k], self.j[k]
            ends = np.concatenate((i, i, j, j)).reshape(4, -1)  # cells of p0, p1, q0, q1
            # x + (-h) rounds exactly as x - h
            x = np.array(self.xs)[ends] + _END_SIGNS * self.hx[ends]
            y = np.array(self.ys)[ends] + _END_SIGNS * self.hy[ends]
            self.gaps[k] = stacked_segments_distance(x, y) - self.hw[k]
        self.slack[k] = 0.0

    def update(self, moved: list[int], x0: list[float], y0: list[float]) -> None:
        """Bring the bounds up to date after the cells ``moved`` moved from ``x0, y0``,
        taking their slack steps and drift since the last build in one pass."""
        xs, ys, bx, by = self.xs, self.ys, self.bx, self.by
        steps, drifted = [], False
        for m in moved:
            x, y = xs[m], ys[m]
            steps.append(abs(x - x0[m]) + abs(y - y0[m]) + RELAX_PAD)
            drifted = drifted or abs(complex(x - bx[m], y - by[m])) >= RELAX_SKIN / 2.0
        step = np.zeros(len(xs))
        step[moved] = steps
        self.slack += step[self.i] + step[self.j]
        if drifted:
            self._build()
        stale = (self.slack > 0.0) & (self.gaps - self.slack < self.threshold)
        self._measure(stale.nonzero()[0])


def _numeric_suffix(cell_id: str) -> int:
    digits = "".join(ch for ch in cell_id if ch.isdigit())
    return int(digits) if digits else 0


def simulate(config: SimConfig, initial_frame: Frame | None = None) -> SimResult:
    """Run the colony simulation.

    Returns the emitted frames, one lineage record per interframe (exact by
    construction), and a truncation flag set when overlap resolution failed
    (trap overfull) and the run stopped early. Deterministic given the seed.
    """
    rng = np.random.default_rng(config.seed)
    colony = _Colony(config, rng)
    if initial_frame is None:
        colony.seed_initial()
    else:
        colony.adopt_frame(initial_frame)
    frames = [colony.to_frame(0)]
    records: list[LineageRecord] = []
    truncated = False
    for k in range(1, config.n_frames):
        prev_ids = list(colony.ids)
        divided, ok = colony.step_interframe()
        if not ok:
            truncated = True
            break
        moved = {cid: cid for cid in prev_ids if cid not in divided}
        record = LineageRecord(k - 1, moved, divided)
        frame = colony.to_frame(k)
        record.validate(frames[-1], frame)
        frames.append(frame)
        records.append(record)
    return SimResult(frames, records, truncated)


def true_motion_bound(frames: list[Frame], lineage: Iterable[LineageRecord]) -> float:
    """Largest per-interframe center displacement over all cells.

    Divided cells use the midpoint of their children's centers as the target
    position.
    """
    bound = 0.0
    frame_by_index = {f.index: f for f in frames}
    for rec in lineage:
        src = frame_by_index[rec.frame_index]
        dst = frame_by_index[rec.frame_index + 1]
        sc, dc = src.centers(), dst.centers()
        for a, b in rec.moved.items():
            bound = max(bound, abs(complex(*(dc[dst.position(b)] - sc[src.position(a)]))))
        for a, (b1, b2) in rec.divided.items():
            mid = (dc[dst.position(b1)] + dc[dst.position(b2)]) / 2.0
            bound = max(bound, abs(complex(*(mid - sc[src.position(a)]))))
    return bound
