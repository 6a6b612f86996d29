"""Agent-based synthetic colony generator with exact ground-truth lineage.

Cells are capsules in a rectangular trap. Per interframe they grow
multiplicatively, jitter in orientation, random-walk, divide when reaching
their per-cell division length, and resolve pairwise overlaps by symmetric
pushes along the center-center direction. Per-interframe center displacement
is hard-bounded by half the motion-window width, so the true successor of a
cell always lies inside its target window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree

from .errors import ColonyTrackError, ValidationError
from .geometry import Cell, Frame, Rect, segment_distance, segments_distance


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
        if self.growth_rate <= 1.0:
            raise ValidationError("growth_rate must exceed 1")
        lo, hi = self.split_ratio_range
        if not (0.0 < lo <= hi < 1.0) or abs((lo + hi) - 1.0) > 1e-9:
            raise ValidationError(
                "split_ratio_range must lie in (0,1) and be symmetric about 0.5"
            )
        if self.division_eps_range[0] > self.division_eps_range[1]:
            raise ValidationError("division_eps_range must be a non-empty interval")
        if self.interframe_minutes <= 0 or self.n_frames < 1 or self.initial_cells < 1:
            raise ValidationError("interframe, n_frames, initial_cells must be positive")
        if self.w <= 0 or self.substeps < 1:
            raise ValidationError("w and substeps must be positive")
        if min(self.growth_jitter, self.motion_sigma, self.rotation_sigma) < 0:
            raise ValidationError("noise magnitudes must be non-negative")
        if self.divide and self.growth_rate**self.interframe_minutes >= 1.9:
            raise ValidationError(
                "growth per interframe too close to 2x: cells could divide twice "
                "within one interframe"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        data = dict(data)
        if "trap_bounds" in data:
            data["trap_bounds"] = Rect(*map(float, data["trap_bounds"]))
        for key in ("split_ratio_range", "division_eps_range"):
            if key in data:
                data[key] = tuple(map(float, data[key]))
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"bad simulator config: {exc}") from exc


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

    def __iter__(self):
        return iter((self.frames, self.lineage))


class _Colony:
    """Mutable simulation state: parallel arrays over live cells."""

    def __init__(self, config: SimConfig, rng: np.random.Generator):
        self.cfg = config
        self.rng = rng
        self.ids: list[str] = []
        self.centers = np.zeros((0, 2))
        self.axes = np.zeros((0, 2))
        self.lengths = np.zeros(0)
        self.widths = np.zeros(0)
        self.div_len = np.zeros(0)
        self.anchors = np.zeros((0, 2))  # frame-start reference positions
        self._id_counter = 0

    def next_id(self) -> str:
        self._id_counter += 1
        return f"c{self._id_counter:06d}"

    # -- construction -----------------------------------------------------

    def seed_initial(self) -> None:
        cfg = self.cfg
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
                self._append(pos, axis, length)
                placed += 1
        self.anchors = self.centers.copy()

    def adopt_frame(self, frame: Frame) -> None:
        """Resume from an existing frame; adopted cells count as newborn at
        their current length (division at twice that length plus noise)."""
        cfg = self.cfg
        for c in frame.cells:
            self.ids.append(c.id)
            self._id_counter = max(self._id_counter, _numeric_suffix(c.id))
            eps = self.rng.uniform(*cfg.division_eps_range)
            self._push_arrays(
                c.center, c.axis_dir, c.length, c.width, 2 * c.length + eps
            )
        self.anchors = self.centers.copy()

    def _fits(self, pos, axis, length) -> bool:
        if len(self.ids) == 0:
            return True
        e = pos - axis * length / 2.0
        h = pos + axis * length / 2.0
        e_all = self.centers - self.axes * (self.lengths[:, None] / 2.0)
        h_all = self.centers + self.axes * (self.lengths[:, None] / 2.0)
        gaps = segments_distance(e, h, e_all, h_all) - (self.widths + self.cfg.cell_width) / 2.0
        return bool((gaps > 0.5).all())

    def _append(self, pos, axis, length) -> str:
        cfg = self.cfg
        eps = self.rng.uniform(*cfg.division_eps_range)
        cid = self.next_id()
        self.ids.append(cid)
        self._push_arrays(pos, axis, length, cfg.cell_width, 2 * cfg.birth_length + eps)
        return cid

    def _push_arrays(self, pos, axis, length, width, div_len) -> None:
        self.centers = np.vstack([self.centers, np.asarray(pos, float)[None]])
        self.axes = np.vstack([self.axes, np.asarray(axis, float)[None]])
        self.lengths = np.append(self.lengths, float(length))
        self.widths = np.append(self.widths, float(width))
        self.div_len = np.append(self.div_len, float(div_len))

    # -- stepping ---------------------------------------------------------

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.axes * (self.lengths[:, None] / 2.0)
        return self.centers - half, self.centers + half

    def to_frame(self, index: int) -> Frame:
        e_all, h_all = self.endpoints()
        cells = tuple(
            Cell(self.ids[i], e_all[i], h_all[i], self.widths[i])
            for i in range(len(self.ids))
        )
        return Frame(index, cells, self.cfg.trap_bounds)

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
            self._clamp_to_trap()
            # relaxation moves last so its exit condition holds in the
            # emitted state; its pushes respect budget and trap internally
            ok = self._relax()
        return divided, ok

    def _grow(self, dt: float) -> None:
        cfg = self.cfg
        noise = self.rng.normal(0.0, cfg.growth_jitter * math.sqrt(dt), size=len(self.lengths))
        factor = np.clip(cfg.growth_rate**dt * (1.0 + noise), 0.6, 1.6)
        self.lengths = self.lengths * factor
        if not cfg.divide and cfg.max_length is not None:
            wiggle = 1.0 + self.rng.normal(
                0.0, cfg.growth_jitter * math.sqrt(dt), size=len(self.lengths)
            )
            cap = cfg.max_length * np.clip(wiggle, 0.8, 1.2)
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
        keep = np.ones(len(self.ids), dtype=bool)
        children: list[tuple] = []
        for i in ripe:
            parent_id = self.ids[i]
            if parent_id not in start_ids:
                raise ColonyTrackError(
                    "a cell born during this interframe reached its division "
                    "length; growth is too fast for the frame rate"
                )
            keep[i] = False
            L = self.lengths[i]
            u = self.axes[i]
            e = self.centers[i] - u * L / 2.0
            r = self.rng.uniform(*cfg.split_ratio_range)
            l1, l2 = r * L, (1.0 - r) * L
            # children split the parent capsule with a 1 px gap along the axis
            c1 = e + u * (l1 / 2.0) - u * 0.5
            c2 = e + u * (l1 + l2 / 2.0) + u * 0.5
            id1, id2 = self.next_id(), self.next_id()
            eps1 = self.rng.uniform(*cfg.division_eps_range)
            eps2 = self.rng.uniform(*cfg.division_eps_range)
            children.append(
                (id1, c1, u.copy(), l1, self.widths[i], 2 * l1 + eps1, self.anchors[i].copy())
            )
            children.append(
                (id2, c2, u.copy(), l2, self.widths[i], 2 * l2 + eps2, self.anchors[i].copy())
            )
            divided[parent_id] = (id1, id2)
        self.ids = [cid for k, cid in enumerate(self.ids) if keep[k]]
        self.centers = self.centers[keep]
        self.axes = self.axes[keep]
        self.lengths = self.lengths[keep]
        self.widths = self.widths[keep]
        self.div_len = self.div_len[keep]
        self.anchors = self.anchors[keep]
        for cid, c, u, length, width, div_len, anchor in children:
            self.ids.append(cid)
            self._push_arrays(c, u, length, width, div_len)
            self.anchors = np.vstack([self.anchors, anchor[None]])

    def _overlap_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.ids)
        if n < 2:
            return np.zeros(0, int), np.zeros(0)
        reach = float(self.lengths.max() + self.widths.max()) + 1.0
        pairs = cKDTree(self.centers).query_pairs(reach, output_type="ndarray")
        if pairs.shape[0] == 0:
            return pairs, np.zeros(0)
        e_all, h_all = self.endpoints()
        i, j = pairs[:, 0], pairs[:, 1]
        dist = segments_distance(e_all[i], h_all[i], e_all[j], h_all[j])
        gaps = dist - (self.widths[i] + self.widths[j]) / 2.0
        return pairs, gaps

    def _ends(self, i: int) -> tuple[float, float, float, float]:
        """Endpoints of cell i as plain floats: e then h."""
        (cx, cy), (ux, uy) = self.centers[i].tolist(), self.axes[i].tolist()
        length = float(self.lengths[i])
        hx, hy = ux * length / 2.0, uy * length / 2.0
        return cx - hx, cy - hy, cx + hx, cy + hy

    def _pair_depth(self, i: int, j: int) -> float:
        dist = segment_distance(*self._ends(i), *self._ends(j))
        return (float(self.widths[i]) + float(self.widths[j])) / 2.0 - dist

    def _relax(self) -> bool:
        """Push overlapping capsules apart; True when within tolerance.

        Pairs are pushed one at a time, deepest first, each seeing the moves
        before it, so a last-bit change in any per-pair float operation can
        change the colony; tests pin the output by digest.
        """
        cfg = self.cfg
        for _ in range(cfg.relax_iterations):
            pairs, gaps = self._overlap_pairs()
            mask = gaps < -cfg.overlap_tol * 0.5
            if not mask.any():
                return True
            order = np.argsort(gaps[mask])
            for i, j in pairs[np.flatnonzero(mask)[order]].tolist():
                depth = self._pair_depth(i, j)
                if depth <= cfg.overlap_tol * 0.5:
                    continue
                (xi, yi), (xj, yj) = self.centers[i].tolist(), self.centers[j].tolist()
                dx, dy = xj - xi, yj - yi
                norm = float(np.hypot(dx, dy))
                if norm < 1e-9:
                    theta = self.rng.uniform(0, 2 * math.pi)
                    dx, dy = math.cos(theta), math.sin(theta)
                    norm = 1.0
                step = depth / 2.0 + 0.05
                px, py = step * (dx / norm), step * (dy / norm)
                self._budgeted_move(i, -px, -py)
                self._budgeted_move(j, px, py)
        _, gaps = self._overlap_pairs()
        return bool((gaps > -cfg.overlap_tol).all()) if gaps.size else True

    def _budgeted_move(self, i: int, dx: float, dy: float) -> None:
        """Move cell i by (dx, dy), capped by the per-interframe displacement
        budget and kept inside the trap."""
        budget = 0.98 * self.cfg.w / 2.0
        (cx, cy), (ax, ay) = self.centers[i].tolist(), self.anchors[i].tolist()
        x, y = cx + dx, cy + dy
        ox, oy = x - ax, y - ay
        norm = float(np.hypot(ox, oy))
        if norm > budget:
            scale = budget / norm
            x, y = ax + ox * scale, ay + oy * scale
        b = self.cfg.trap_bounds
        ux, uy = self.axes[i].tolist()
        half_len, half_w = float(self.lengths[i]) / 2.0, float(self.widths[i]) / 2.0
        hx, hy = abs(ux) * half_len + half_w, abs(uy) * half_len + half_w
        self.centers[i] = (
            _clip(x, b.xmin + hx, b.xmax - hx),
            _clip(y, b.ymin + hy, b.ymax - hy),
        )

    def _enforce_budget(self) -> None:
        budget = 0.98 * self.cfg.w / 2.0
        disp = self.centers - self.anchors
        norms = np.hypot(disp[:, 0], disp[:, 1])
        over = norms > budget
        if over.any():
            scale = budget / norms[over]
            self.centers[over] = self.anchors[over] + disp[over] * scale[:, None]

    def _clamp_to_trap(self) -> None:
        b = self.cfg.trap_bounds
        half = np.abs(self.axes) * (self.lengths[:, None] / 2.0) + self.widths[:, None] / 2.0
        lo = np.array([b.xmin, b.ymin]) + half
        hi = np.array([b.xmax, b.ymax]) - half
        self.centers = np.clip(self.centers, np.minimum(lo, hi), np.maximum(lo, hi))


def _clip(x: float, a: float, b: float) -> float:
    """``np.clip(x, min(a, b), max(a, b))`` on floats."""
    return min(max(x, min(a, b)), max(a, b))


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
        for a, b in rec.moved.items():
            bound = max(bound, float(np.hypot(*(dst.cell(b).center - src.cell(a).center))))
        for a, (b1, b2) in rec.divided.items():
            mid = (dst.cell(b1).center + dst.cell(b2).center) / 2.0
            bound = max(bound, float(np.hypot(*(mid - src.cell(a).center))))
    return bound
