"""Division detection: children pairs, parent estimation, and frame reduction.

Candidate children pairs are target-frame cell pairs with nearby centers.
Each carries five penalties (lineage, gap, alignment deviation, length ratio,
length rank) read from frame rows. The candidates of one frame pair are held
as arrays (:class:`PairCandidates`), with no object per candidate. A binary
Boltzmann machine with the quadratic energy E(z) = v . z + lambda * z^T Q z
selects the subset of pairs matching the known division count: v holds the
combined penalties and Q marks pairs that share a cell. Swap annealing keeps
the count fixed and prices each swap through the number of selected pairs
holding each cell (see :mod:`colony_track.annealer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import annealer
from .annealer import QuadraticBm, Schedule
from .errors import InfeasibleError, ValidationError, check_fields, finite_real
from .geometry import CHUNK_ELEMENTS, Frame, cross2, line_angle, pairs_within

PENALTY_NAMES = ("lin", "gap", "dev", "ratio", "rank")


@dataclass(frozen=True)
class DistortionWeights:
    """Weights of the parent-children geometric distortion terms."""

    cen: float = 0.255
    siz: float = 0.05
    ang: float = 0.05

    def __post_init__(self):
        check_fields(self, nonnegative=("cen", "siz", "ang"))


@dataclass(frozen=True)
class DivisionWeights:
    """Weights combining the pair penalties into the selection energy."""

    distortion: DistortionWeights = field(default_factory=DistortionWeights)
    lin: float = 1.0
    gap: float = 0.01
    dev: float = 1.0
    ratio: float = 0.0001
    rank: float = 0.05

    def __post_init__(self):
        check_fields(self, nonnegative=("lin", "gap", "dev", "ratio", "rank"))


class PairCandidates:
    """The candidate children pairs of one frame pair, held as read-only arrays.

    Candidate j pairs the cells ``ids[cells[j, 0]]`` and ``ids[cells[j, 1]]``
    (``cells`` is ``(m, 2)``), has the penalties ``penalties[j]`` (``(m, 5)``,
    in :data:`PENALTY_NAMES` order) and the estimated parent
    ``parent_ids[parent[j]]``, or none where ``parent[j]`` is -1. The
    constructor copies the arrays; ``ids`` must be distinct. A slice, index
    array or mask gives the candidates it selects.
    """

    __slots__ = ("ids", "cells", "parent_ids", "parent", "penalties")

    def __init__(self, ids, cells, parent_ids, parent, penalties):
        ids, parent_ids = tuple(ids), tuple(parent_ids)
        cells, parent = np.array(cells, np.intp), np.array(parent, np.intp)
        penalties = np.array(penalties, np.float64).reshape(-1, len(PENALTY_NAMES))
        m = len(penalties)
        if cells.shape != (m, 2) or parent.shape != (m,) or len(set(ids)) < len(ids):
            raise ValueError(f"expected {m} cell pairs and parents, and distinct ids")
        for a in (cells, parent, penalties):
            a.flags.writeable = False
        for name, value in zip(self.__slots__, (ids, cells, parent_ids, parent, penalties)):
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.parent)

    def pair(self, j: int) -> tuple[str, str]:
        a, b = self.cells[j].tolist()
        return self.ids[a], self.ids[b]

    def parent_id(self, j: int) -> str | None:
        p = int(self.parent[j])
        return None if p < 0 else self.parent_ids[p]

    def __getitem__(self, j: slice | np.ndarray) -> "PairCandidates":
        return PairCandidates(
            self.ids, self.cells[j], self.parent_ids, self.parent[j], self.penalties[j]
        )


def _distortion(frame: Frame, p, kids: Frame, k1, k2, weights):
    """Geometric distortion of dividing each cell of ``frame`` at rows ``p``
    into the cells of ``kids`` at rows ``k1``, ``k2``.

    Combines the offset of the children midpoint from the parent center, the
    length mismatch, and three line angles (children axes against the parent
    axis, and the children separation direction against the parent axis).
    Angles of coincident children centers count as zero.
    """
    axis, c1, c2 = frame.axes[p], kids.centers()[k1], kids.centers()[k2]
    cen = np.hypot(*(frame.centers()[p] - (c1 + c2) / 2.0).T)
    siz = np.abs(frame.lengths[p] - (kids.lengths[k1] + kids.lengths[k2]))
    ang = sum(line_angle(axis, u) for u in (kids.axes[k1], kids.axes[k2], c2 - c1))
    return weights.cen * cen + weights.siz * siz + weights.ang * ang


def _best_parents(kids: Frame, k1, k2, frame: Frame, rows, w, weights):
    """Most likely parent of each children pair (the cells of ``kids`` at
    rows ``k1``, ``k2``) among the cells of ``frame`` at rows ``rows``: a
    frame position and its distortion, or -1.

    A cell of length L is feasible when both children centers lie within
    ``w + L/4`` of its center; ties break toward the lowest parent id. The
    pairs are searched in order of the first child's x, in chunks of about
    ``CHUNK_ELEMENTS`` (pair, cell) tests: each chunk against the cells whose
    x lies within the largest reach of the chunk's x range.
    """
    parent, value = np.full(len(k1), -1), np.full(len(k1), np.nan)
    if len(rows) == 0 or len(k1) == 0:
        return parent, value
    rank = np.empty(len(frame), np.intp)
    rank[sorted(range(len(frame)), key=frame.ids.__getitem__)] = np.arange(len(frame))
    by_x = rows[np.argsort(frame.centers()[rows, 0], kind="stable")]
    x, y = frame.centers()[by_x].T
    reach = w + frame.lengths[by_x] / 4.0
    order = np.argsort(kids.centers()[k1, 0], kind="stable")
    c1, c2 = (kids.centers()[k[order]] for k in (k1, k2))
    far = reach.max()  # widened by a rounding margin, as in pairs_within
    far += 1e-9 * (abs(far) + max(np.abs(x).max(), np.abs(c1).max()))
    first = np.searchsorted(x, c1[:, 0] - far, side="left")
    last = np.searchsorted(x, c1[:, 0] + far, side="right")
    chunk = max(1, CHUNK_ELEMENTS // max(1, int((last - first).max())))
    for lo in range(0, len(order), chunk):
        band = slice(first[lo], last[lo : lo + chunk].max())
        near = True
        for kid in (c1[lo : lo + chunk], c2[lo : lo + chunk]):
            near = near & (np.hypot(kid[:, :1] - x[band], kid[:, 1:] - y[band]) <= reach[band])
        a, p = np.nonzero(near)
        a, p = order[lo + a], by_x[band.start + p]
        v = _distortion(frame, p, kids, k1[a], k2[a], weights)
        ranked = np.lexsort((rank[p], v, a))
        a, p, v = a[ranked], p[ranked], v[ranked]
        best = np.diff(a, prepend=-1) != 0
        parent[a[best]], value[a[best]] = p[best], v[best]
    return parent, value


def estimate_parent(
    next_frame: Frame, pair: tuple[str, str], frame: Frame, w: float,
    weights: DistortionWeights = DistortionWeights(), exclude: set[str] | None = None,
) -> tuple[str, float] | None:
    """Most likely parent of the children ``pair``, two ids of ``next_frame``:
    the distortion minimum over the feasible cells of ``frame`` not in
    ``exclude`` (see :func:`_best_parents`), or None when no cell is feasible."""
    rows = np.flatnonzero([cid not in (exclude or ()) for cid in frame.ids])
    k1, k2 = (np.array([next_frame.position(cid)]) for cid in pair)
    parent, value = _best_parents(next_frame, k1, k2, frame, rows, w, weights)
    return None if parent[0] < 0 else (frame.ids[parent[0]], float(value[0]))


def _pair_penalties(kids: Frame, i, j, l_min: float):
    """(gap, dev, ratio, rank) of the candidate children pairs of the cells
    of ``kids`` at rows ``i`` and ``j``.

    ``l_min`` is the minimum cell length over the whole target frame. The
    deviation penalty uses the two closest endpoints (the first of ee, eh,
    he, hh on ties) against the line through the centers; coincident centers
    yield an infinite deviation sentinel.
    """
    x, y = np.stack([kids.e, kids.e, kids.h, kids.h])[:, i], np.stack([kids.e, kids.h] * 2)[:, j]
    tips = np.hypot(x[..., 0] - y[..., 0], x[..., 1] - y[..., 1])
    k, rows = tips.argmin(axis=0), np.arange(len(i))
    sep, c1 = kids.centers()[j] - kids.centers()[i], kids.centers()[i]
    norm = np.hypot(*sep.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.abs(cross2(sep, x[k, rows] - c1)) / norm
        d2 = np.abs(cross2(sep, y[k, rows] - c1)) / norm
        dev = np.where(norm == 0.0, np.inf, (d1 + d2) / norm)
    l1, l2 = kids.lengths[i], kids.lengths[j]
    ratio = np.abs(l1 / l2 + l2 / l1 - 2.0)
    rank = np.abs(l1 / l_min - 1.0) + np.abs(l2 / l_min - 1.0)
    return tips[k, rows], dev, ratio, rank


def build_pch(
    frame: Frame, next_frame: Frame, tau: float = 45.0, w: float = 45.0,
    weights: DistortionWeights = DistortionWeights(),
) -> PairCandidates:
    """Plausible children pairs: unordered target pairs with center distance
    strictly below ``tau``, each with its five penalties, built as arrays
    whose ids are the two frames' own id tuples.

    Pairs with no feasible parent or with coincident centers cannot be true
    children pairs and are dropped, keeping all penalty vectors finite.
    """
    if len(next_frame) == 0:
        raise ValidationError("next frame is empty")
    x, y = next_frame.centers().T
    i, j = pairs_within(x, y, tau * (1.0 + 1e-9))
    near = np.hypot(x[j] - x[i], y[j] - y[i]) < tau
    i, j = i[near], j[near]
    gap, dev, ratio, rank = _pair_penalties(next_frame, i, j, next_frame.lengths.min())
    parent, lin = _best_parents(next_frame, i, j, frame, np.arange(len(frame)), w, weights)
    keep = np.isfinite(dev) & (parent >= 0)
    cells = np.stack([i[keep], j[keep]], axis=1)
    penalties = np.stack([v[keep] for v in (lin, gap, dev, ratio, rank)], axis=1)
    return PairCandidates(next_frame.ids, cells, frame.ids, parent[keep], penalties)


# touching siblings have endpoint distance ~ width (the rounded caps), so the
# gap bound must clear the rod diameter
DEFAULT_TRIM_THRESHOLDS = {"gap": 12.0, "dev": 0.6, "rank": 1.2}


def check_trim_thresholds(thresholds) -> None:
    """Raise :class:`ValidationError` unless ``thresholds`` maps known penalty
    names to finite numbers."""
    if not isinstance(thresholds, Mapping):
        raise ValidationError(f"trim thresholds must be a mapping, got {thresholds!r}")
    unknown = set(thresholds) - set(PENALTY_NAMES)
    if unknown:
        raise ValidationError(f"unknown trim penalty names: {sorted(unknown)}")
    for name, bound in thresholds.items():
        if not finite_real(bound):
            raise ValidationError(f"trim threshold {name} must be a finite number, got {bound!r}")


def trim_candidates(
    candidates: PairCandidates, thresholds: dict[str, float] | None = None
) -> PairCandidates:
    """Trim implausible pairs by empirical penalty thresholds: a candidate is
    rejected only when ALL thresholded penalties exceed their bounds."""
    thresholds = DEFAULT_TRIM_THRESHOLDS if thresholds is None else thresholds
    check_trim_thresholds(thresholds)
    reject = np.full(len(candidates), bool(thresholds))
    for name, bound in thresholds.items():
        reject &= candidates.penalties[:, PENALTY_NAMES.index(name)] > bound
    return candidates[~reject]


class ChildrenBmProblem(QuadraticBm):
    """Binary BM over candidate pairs: E(z) = v . z + lambda_q * z^T Q z.

    ``v[j]`` is candidate j's combined penalty and ``cells[j]`` its two cells
    as indices into ``candidates.ids``; Q_jk = 1 when candidates j and k
    share a cell, so a selection pays 2 lambda_q per conflicting pair. It is
    the swap annealer's machine over those arrays, which counts selections
    per cell, and also holds the candidates and the ``div_count`` to select.
    """

    def __init__(self, candidates: PairCandidates, v, div_count: int, lambda_q: float):
        super().__init__(v, candidates.cells, lambda_q)
        self.candidates = candidates
        self.div_count = div_count

    @property
    def q(self) -> np.ndarray:
        """Dense 0/1 uint8 Q, built on each read for inspection and tests; it
        is quadratic in ``n_sites`` and tracking never reads it."""
        a, b = self.cells[:, :1], self.cells[:, 1:]
        q = ((a == a.T) | (a == b.T) | (b == a.T) | (b == b.T)).view(np.uint8)
        np.fill_diagonal(q, 0)
        return q

    def to_bm(self) -> "ChildrenBmProblem":
        return self


def max_disjoint_candidates(candidates: PairCandidates) -> int:
    """Largest number of pairwise-disjoint candidates: a maximum matching in
    the graph whose vertices are target cells and edges are candidates.

    Edmonds' blossom matching from networkx, an exact oracle for the tests:
    tracking never calls this, and networkx is a test-only dependency.
    """
    import networkx as nx

    graph = nx.Graph(candidates.cells.tolist())
    return len(nx.max_weight_matching(graph, maxcardinality=True))


def build_children_bm(
    candidates: PairCandidates, div_count: int, weights: DivisionWeights = DivisionWeights(),
) -> ChildrenBmProblem:
    """Assemble the children-selection BM from the candidates' arrays.

    ``v`` weighs each candidate's penalties, summed elementwise in
    :data:`PENALTY_NAMES` order. Candidates must be distinct pairs of two
    cells, so two of them share at most one.
    """
    if div_count < 1:
        raise ValidationError("division count must be at least 1")
    if not candidates:
        raise ValidationError("no candidate children pairs")
    lin, gap, dev, ratio, rank, w = *candidates.penalties.T, weights
    v = lin * w.lin + gap * w.gap + dev * w.dev + ratio * w.ratio + rank * w.rank
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValidationError("candidate penalties must be finite and non-negative")
    lo, hi = np.sort(candidates.cells, axis=1).T
    keys = np.sort(lo * len(candidates.ids) + hi)  # one key per unordered pair
    if np.any(lo == hi) or np.any(keys[1:] == keys[:-1]):
        raise ValidationError("candidates must be distinct pairs of two cells")
    lambda_q = 10.0 * max(float(v.max()), 1.0)
    return ChildrenBmProblem(candidates, v, div_count, lambda_q)


def _greedy_initial(problem: ChildrenBmProblem) -> np.ndarray:
    """Deterministic start: the ``div_count`` lowest-penalty candidates
    (ties to the lowest index), preferring disjoint ones: candidates that
    share no cell with one taken before are taken first, then the rest."""
    order = np.lexsort((np.arange(problem.n_sites), problem.v)).tolist()
    used = bytearray(int(problem.cells.max(initial=-1)) + 1)  # a 0/1 flag per cell
    z, taken = np.zeros(problem.n_sites, dtype=np.int64), 0
    for j, (a, b) in zip(order, problem.cells[order].tolist()):
        if taken == problem.div_count:
            break
        if not (used[a] or used[b]):
            z[j], taken = 1, taken + 1
            used[a] = used[b] = 1
    rest = [j for j in order if not z[j]]
    z[rest[: problem.div_count - taken]] = 1
    return z


def solve_children_bm(
    problem: ChildrenBmProblem, schedule: Schedule | None = None, rng_seed: int = 0
) -> list[int]:
    """Select exactly ``div_count`` candidates by cardinality-constrained swap
    annealing and return their indices.

    Raises InfeasibleError when the best selection shares a cell: a selection
    that is not disjoint leaves a target cell that no source maps to. Every
    selection of a problem with no ``div_count`` disjoint candidates does.
    """
    if problem.div_count > problem.n_sites:
        raise InfeasibleError("fewer candidates than requested divisions")
    result = annealer.anneal(
        problem.to_bm(), dynamics="swap", schedule=schedule or Schedule.children_default(),
        rng_seed=rng_seed, initial_states=_greedy_initial(problem),
    )
    selected = np.flatnonzero(result.best_states)
    cells = np.sort(problem.cells[selected], axis=None)
    if np.any(cells[1:] == cells[:-1]):
        raise InfeasibleError(
            f"no disjoint selection of {problem.div_count} children pairs was found"
        )
    return selected.tolist()


def select_short_lineages(
    frame: Frame, next_frame: Frame, candidates: PairCandidates,
    selected: Iterable[int], w: float, weights: DistortionWeights = DistortionWeights(),
) -> tuple[dict[str, tuple[str, str]], list[tuple[str, str]]]:
    """Turn selected candidates into divisions, a map from each parent to its
    children pair, so that every parent is distinct.

    Selections are consumed in increasing lineage-penalty order; when one
    claims an already-taken parent, the distortion argmin is re-run over the
    remaining feasible parents. Pairs left without any parent are dropped and
    reported in the second return value.
    """
    lin = candidates.penalties[:, 0]
    divided, dropped = {}, []
    for j in sorted(selected, key=lambda j: (lin[j], j)):
        pair, parent = candidates.pair(j), candidates.parent_id(j)
        if parent in divided:
            alt = estimate_parent(next_frame, pair, frame, w, weights, exclude=set(divided))
            if alt is None:
                dropped.append(pair)
                continue
            parent = alt[0]
        divided[parent] = pair
    return divided, dropped


def reduce_frames(
    frame: Frame, next_frame: Frame, divided: Mapping[str, tuple[str, str]]
) -> tuple[Frame, Frame]:
    """Remove each dividing parent from the source frame and its children
    from the target frame, leaving a division-free registration instance.

    Raises on divisions sharing a child.
    """
    children = [cid for kids in divided.values() for cid in kids]
    if len(set(children)) != len(children):
        raise ValidationError("non-disjoint lineages")
    return frame.without(divided), next_frame.without(children)
