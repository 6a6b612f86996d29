"""Benchmark workloads: one generator per workload, each from a seed.

Every generator returns the simulated frames, the simulator's exact lineage
and the indices ``k`` of the frame pairs ``(frames[k], frames[k + 1])`` to
track. Seed 0 reproduces the acceptance gate's inputs exactly; other seeds
vary the inputs while keeping the colony size, so that run-to-run timing
differences come from the tracker and not from a bigger or smaller colony.
A simulation that stops early raises :class:`SetupError`; a run never goes on
with fewer frames than asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from colony_track import simulator
from colony_track.geometry import Cell, Frame, Rect
from colony_track.simulator import LineageRecord, SimConfig

# Pairs 2..21 of the six-minute run are the registration gate's pairs.
REG6MIN_FIRST_PAIR = 2
REG6MIN_BENCH_SEED = 43
# Distance between the six-minute-stage seeds that reg6min draws in turn.
REG6MIN_REDRAW_STRIDE = 1000
PIPELINE21_SIM_SEED = 21
TILE_OFFSET = 700.0
# The largest of the tracker's w, rho and tau on pipeline21: no window,
# neighbour edge or parent search reaches further.
TRACKER_REACH = 80.0


class SetupError(RuntimeError):
    """The workload could not be generated as specified."""


@dataclass
class Workload:
    name: str
    frames: list[Frame]
    lineage: list[LineageRecord]
    pairs: list[int]
    # Simulator seeds skipped because their simulation stopped early.
    redrawn: int = 0

    @property
    def cells(self) -> tuple[int, int]:
        """Cell counts of the first and last frame of the tracked pairs."""
        return len(self.frames[self.pairs[0]]), len(self.frames[self.pairs[-1] + 1])


def _simulate(config: SimConfig, initial_frame: Frame | None = None):
    run = simulator.simulate(config, initial_frame=initial_frame)
    if run.truncated:
        raise SetupError(
            f"simulation with seed {config.seed} stopped after {len(run.frames)} "
            f"of {config.n_frames} frames (trap overfull)"
        )
    return run


def reg6min(seed: int = 0, pairs: int = 20, redraws: int = 0) -> Workload:
    """Division-free six-minute registration run of the acceptance gate.

    A colony is grown at 1-minute frames (simulator seed 42) and settled
    (seed 40), as in the gate. The six-minute division-free stage then runs
    with simulator seed ``43 + seed``, so every seed tracks the same 99 cells
    under different motion. ``pairs`` pairs are tracked, starting at pair 2;
    the frames are a prefix of the 20-pair run.

    A few seeds (38 alone of 0-119) pack the cells too tightly to relax, and
    their six-minute stage stops early. With ``redraws`` > 0 the stage then runs
    again with seed ``43 + seed + 1000 * i`` for i = 1, 2, ... up to
    ``redraws``; the workload's ``redrawn`` says how many seeds were skipped.
    A stage that stops early on every draw raises :class:`SetupError`.
    """
    if not 1 <= pairs <= 20:
        raise SetupError("reg6min tracks 1 to 20 pairs")
    grown = _simulate(
        SimConfig(
            seed=42, n_frames=82, initial_cells=2, w=45.0, interframe_minutes=1.0,
            motion_sigma=1.0, substeps=2,
        )
    )
    settled = _simulate(
        SimConfig(
            seed=40, n_frames=5, initial_cells=1, interframe_minutes=6.0, w=100.0,
            divide=False, growth_rate=1.0005, growth_jitter=0.0, max_length=90.0,
            motion_sigma=0.4, rotation_sigma=0.01, substeps=8, relax_iterations=150,
        ),
        grown.frames[-1],
    )
    for draw in range(redraws + 1):
        try:
            run = _simulate(
                SimConfig(
                    seed=REG6MIN_BENCH_SEED + seed + REG6MIN_REDRAW_STRIDE * draw,
                    n_frames=REG6MIN_FIRST_PAIR + pairs + 1, initial_cells=1,
                    interframe_minutes=6.0, w=100.0, divide=False, growth_rate=1.005,
                    growth_jitter=0.03, max_length=85.0, motion_sigma=2.2,
                    rotation_sigma=0.04, substeps=6, relax_iterations=120,
                ),
                settled.frames[-1],
            )
            break
        except SetupError:
            if draw == redraws:
                raise
    first = REG6MIN_FIRST_PAIR
    pair_ids = list(range(first, first + pairs))
    return Workload("reg6min", run.frames, run.lineage, pair_ids, redrawn=draw)


def _shuffled(frame: Frame, rng: np.random.Generator) -> Frame:
    order = rng.permutation(len(frame))
    return Frame(frame.index, tuple(frame.cells[i] for i in order), frame.bounds)


def pipeline21(seed: int = 0) -> Workload:
    """The gate's full-pipeline run: simulator seed 21, 51 frames, 8 to 95 cells.

    Seed 0 gives the gate's frames unchanged. Any other seed lists the cells
    of every frame in a seed-drawn order: the same colony reaches the tracker
    as a different input, which changes every annealing trajectory but not
    the amount of work.
    """
    run = _simulate(
        SimConfig(
            seed=PIPELINE21_SIM_SEED, n_frames=51, initial_cells=8, w=45.0,
            interframe_minutes=1.0, motion_sigma=1.0, substeps=3,
        )
    )
    frames = run.frames
    if seed:
        rng = np.random.default_rng(seed)
        frames = [_shuffled(f, rng) for f in frames]
    return Workload("pipeline21", frames, run.lineage, list(range(len(frames) - 1)))


def tile_frame(frame: Frame, tiles: int) -> Frame:
    """``tiles`` x ``tiles`` copies of a frame, ``TILE_OFFSET`` pixels apart.

    Copy (tx, ty) renames each cell ``<id>@<tx><ty>``, so ids keep their
    order within a copy.
    """
    cells = []
    for ty in range(tiles):
        for tx in range(tiles):
            shift = np.array([tx * TILE_OFFSET, ty * TILE_OFFSET])
            cells.extend(
                Cell(f"{c.id}@{tx}{ty}", c.e + shift, c.h + shift, c.width)
                for c in frame.cells
            )
    b = frame.bounds
    grow = (tiles - 1) * TILE_OFFSET
    return Frame(frame.index, tuple(cells), Rect(b.xmin, b.ymin, b.xmax + grow, b.ymax + grow))


def tile_record(record: LineageRecord, tiles: int) -> LineageRecord:
    moved, divided = {}, {}
    for ty in range(tiles):
        for tx in range(tiles):
            tag = f"@{tx}{ty}"
            moved.update({a + tag: b + tag for a, b in record.moved.items()})
            divided.update(
                {p + tag: (c1 + tag, c2 + tag) for p, (c1, c2) in record.divided.items()}
            )
    return LineageRecord(record.frame_index, moved, divided)


def tiled_large(seed: int = 0, tiles: int = 2, pairs: int = 3) -> Workload:
    """The last ``pairs`` pairs of :func:`pipeline21`, each frame tiled.

    Copies sit ``TILE_OFFSET`` pixels apart, which exceeds the trap size by
    more than ``TRACKER_REACH``, so no window, neighbour edge or parent search
    spans two copies and the tiled lineage is exact.
    """
    base = pipeline21(seed)
    b = base.frames[0].bounds
    if tiles > 1 and TILE_OFFSET - max(b.width, b.height) <= TRACKER_REACH:
        raise SetupError("tile offset too small: copies would interact")
    first = len(base.frames) - 1 - pairs
    if first < 0:
        raise SetupError(f"pipeline21 has fewer than {pairs} pairs")
    frames = [tile_frame(f, tiles) for f in base.frames[first:]]
    lineage = [tile_record(r, tiles) for r in base.lineage[first:]]
    return Workload("tiled-large", frames, lineage, list(range(pairs)))


GENERATORS = {"reg6min": reg6min, "pipeline21": pipeline21, "tiled-large": tiled_large}
