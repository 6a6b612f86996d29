"""Division-free frame-pair registration.

Each source cell carries a finite candidate list (its motion window in the
target frame). A mapping is scored by four penalties: an empirical-CDF
matching log-likelihood, an overlap count penalizing many-to-one collisions,
a neighbor-stability term, and a neighbor-flip term detecting orientation
reversals of neighbor pairs around a cell. The same penalties are compiled
into clique energy tables so that the Boltzmann-machine energy of a
configuration equals the cost of the decoded mapping exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import annealer
from .annealer import BmProblem, Clique, CollisionGroup, Schedule
from .errors import ValidationError
from .geometry import Cell, Frame, NeighborGraph, build_neighbor_graph, cross2, window_mask

LIK_FLOOR = 1e-6


@dataclass(frozen=True)
class RegistrationWeights:
    match: float = 110.0
    over: float = 300.0
    stab: float = 300.0
    flip: float = 290.0

    def as_array(self) -> np.ndarray:
        return np.array([self.match, self.over, self.stab, self.flip])

    @classmethod
    def from_dict(cls, data: dict) -> "RegistrationWeights":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"bad registration weights: {exc}") from exc

    def to_dict(self) -> dict:
        return {"match": self.match, "over": self.over, "stab": self.stab, "flip": self.flip}


def _penalty_arrays(b: Cell, centers, lengths, axes, g_rate: float):
    """Vectorized (kin, dis, rot) of one source cell against target arrays.

    Written with element-wise ufuncs only so that scalar and batch
    evaluations are bitwise identical; the empirical CDFs are sampled at
    exactly these values and re-queried with them, so a one-ulp discrepancy
    would shift a CDF count.
    """
    dx = centers[..., 0] - b.center[0]
    dy = centers[..., 1] - b.center[1]
    kin = dx * dx + dy * dy
    dis = (np.log(lengths / b.length) - np.log(g_rate)) ** 2
    cosang = np.minimum(
        1.0, np.abs(axes[..., 0] * b.axis_dir[0] + axes[..., 1] * b.axis_dir[1])
    )
    return kin, dis, np.arccos(cosang)


def pair_penalties(b: Cell, b_plus: Cell, g_rate: float) -> tuple[float, float, float]:
    """(kin, dis, rot) for matching ``b`` to ``b_plus``.

    kin is the squared center displacement, dis the squared log-deviation of
    the length ratio from the expected growth factor, rot the angle between
    the (non-oriented) long axes in [0, pi/2].
    """
    kin, dis, rot = _penalty_arrays(
        b, b_plus.center, np.float64(b_plus.length), b_plus.axis_dir, g_rate
    )
    return float(kin), float(dis), float(rot)


class EmpiricalCdf:
    """Right-continuous empirical CDF: CDF(x) = #{samples <= x} / n."""

    def __init__(self, samples):
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        if arr.size == 0:
            raise ValidationError("empirical CDF needs at least one sample")
        self.samples = arr

    def __call__(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.samples.size


@dataclass(frozen=True)
class LikelihoodModel:
    """Empirical matching likelihoods built from per-cell low penalty values."""

    cdf_kin: EmpiricalCdf
    cdf_dis: EmpiricalCdf
    cdf_rot: EmpiricalCdf
    growth_rate: float
    floor: float = LIK_FLOOR

    def lik_against(self, b: Cell, targets: Sequence[Cell]) -> np.ndarray:
        """Joint likelihood of matching ``b`` to each target, floored."""
        if not targets:
            return np.zeros(0)
        centers = np.array([t.center for t in targets])
        lengths = np.array([t.length for t in targets])
        axes = np.array([t.axis_dir for t in targets])
        kin, dis, rot = _penalty_arrays(b, centers, lengths, axes, self.growth_rate)
        joint = (
            (1.0 - self.cdf_kin(kin))
            * (1.0 - self.cdf_dis(dis))
            * (1.0 - self.cdf_rot(rot))
        )
        return np.maximum(joint, self.floor)

    def lik(self, b: Cell, b_plus: Cell) -> float:
        return float(self.lik_against(b, [b_plus])[0])


def fit_likelihood_model(
    source: Frame,
    windows: Sequence[Sequence[Cell]],
    g_rate: float,
    floor: float = LIK_FLOOR,
) -> LikelihoodModel:
    """Build the three empirical CDFs from the two smallest penalty values per
    source cell over its window (all available values when a window holds
    fewer than two candidates)."""
    if len(windows) != len(source):
        raise ValidationError("one window per source cell required")
    lows: dict[str, list[float]] = {"kin": [], "dis": [], "rot": []}
    for b, cands in zip(source.cells, windows):
        if not cands:
            raise ValidationError(f"empty window for cell {b.id!r}")
        centers = np.array([t.center for t in cands])
        lengths = np.array([t.length for t in cands])
        axes = np.array([t.axis_dir for t in cands])
        vals = _penalty_arrays(b, centers, lengths, axes, g_rate)
        take = min(2, len(cands))
        for col, name in enumerate(("kin", "dis", "rot")):
            lows[name].extend(np.partition(vals[col], take - 1)[:take])
    return LikelihoodModel(
        cdf_kin=EmpiricalCdf(lows["kin"]),
        cdf_dis=EmpiricalCdf(lows["dis"]),
        cdf_rot=EmpiricalCdf(lows["rot"]),
        growth_rate=g_rate,
        floor=floor,
    )


def _broken(adj: np.ndarray, ti, tj) -> np.ndarray:
    """Stab indicator: the targets of two source neighbors are not neighbors.

    Index arrays broadcast, so one call scores an assignment or a whole table.
    """
    return ~adj[ti, tj]


def _flipped(adj: np.ndarray, ct: np.ndarray, ti, tj, tk, sign) -> np.ndarray:
    """Flip indicator of a triplet (center i, wings j, k): both wings stay
    neighbors of the center's target, but their orientation around it has the
    opposite sign to the source orientation ``sign``."""
    both = adj[tj, ti] & adj[tk, ti]
    cr = cross2(ct[tj] - ct[ti], ct[tk] - ct[ti])
    return both & (sign * cr < 0.0)


@dataclass
class RegistrationProblem:
    """Precompiled registration instance over a reduced frame pair.

    ``windows[i]`` holds target-frame positions admissible for source cell i.
    ``match_cost[i, p]`` is the per-cell negative average log-likelihood of
    matching source i to target position p. Stab pairs, flip triplets, and
    the occupancy coefficient carry the ordered-double-sum weights of the
    cost terms, so clique sums reproduce the cost exactly.
    """

    source: Frame
    target: Frame
    w: float
    rho: float
    weights: RegistrationWeights
    likelihood: LikelihoodModel
    windows: list[np.ndarray]
    source_graph: NeighborGraph
    target_graph: NeighborGraph
    match_cost: np.ndarray
    stab_pairs: np.ndarray  # columns: i, j
    stab_weights: np.ndarray
    flip_triplets: np.ndarray  # columns: center i, wings j, k
    flip_weights: np.ndarray
    flip_signs: np.ndarray
    padded_sites: list[int]

    @property
    def n(self) -> int:
        return len(self.source)

    @property
    def clique_counts(self) -> tuple[int, int, int]:
        return self.n, int(self.stab_pairs.shape[0]), int(self.flip_triplets.shape[0])

    def touched_cliques_per_site(self) -> np.ndarray:
        """Diagnostic r(j): cliques containing each site."""
        sites = np.concatenate([self.stab_pairs.ravel(), self.flip_triplets.ravel()])
        return 1 + np.bincount(sites, minlength=self.n)

    # -- cost evaluation ----------------------------------------------------

    def cost_terms(self, assignment: np.ndarray) -> tuple[float, float, float, float]:
        """(match, over, stab, flip) of a total assignment, unweighted.

        ``assignment[i]`` is the target-frame position for source cell i.
        """
        a = np.asarray(assignment, dtype=np.int64)
        n = self.n
        match = float(self.match_cost[np.arange(n), a].sum())
        counts = np.bincount(a, minlength=len(self.target))
        over = float((counts * (counts - 1)).sum()) / n
        adj = self.target_graph.adj
        stab = 0.0
        if self.stab_pairs.shape[0]:
            broken = _broken(adj, *a[self.stab_pairs.T])
            stab = float((self.stab_weights * broken).sum())
        flip = 0.0
        if self.flip_triplets.shape[0]:
            ct = self.target.centers()
            flipped = _flipped(adj, ct, *a[self.flip_triplets.T], self.flip_signs)
            flip = float((self.flip_weights * flipped).sum())
        return match, over, stab, flip

    def cost(self, assignment: np.ndarray) -> float:
        return float(self.weights.as_array() @ np.array(self.cost_terms(assignment)))

    # -- BM compilation -----------------------------------------------------

    def to_bm(self) -> BmProblem:
        """Compile the weighted cost into clique tables plus a collision term."""
        lam = self.weights
        adj = self.target_graph.adj
        ct = self.target.centers()
        cliques: list[Clique] = []
        for i in range(self.n):
            cliques.append(
                Clique((i,), lam.match * self.match_cost[i, self.windows[i]])
            )
        for (i, j), wt in zip(self.stab_pairs, self.stab_weights):
            broken = _broken(adj, self.windows[i][:, None], self.windows[j][None, :])
            cliques.append(
                Clique((int(i), int(j)), broken.astype(np.int8), lam.stab * float(wt))
            )
        for (i, j, k), wt, sign in zip(
            self.flip_triplets, self.flip_weights, self.flip_signs
        ):
            wi, wj, wk = self.windows[i], self.windows[j], self.windows[k]
            table = _flipped(
                adj, ct, wi[:, None, None], wj[None, :, None], wk[None, None, :], sign
            ).astype(np.int8)
            cliques.append(Clique((int(i), int(j), int(k)), table, lam.flip * float(wt)))
        collision = CollisionGroup(
            coef=lam.over * 2.0 / self.n, targets=tuple(self.windows)
        )
        return BmProblem([len(w) for w in self.windows], cliques, collision)

    def states_for(self, assignment: np.ndarray) -> np.ndarray:
        """Window-relative state indices of a target-position assignment."""
        states = np.zeros(self.n, dtype=np.int64)
        for i, pos in enumerate(assignment):
            hits = np.flatnonzero(self.windows[i] == pos)
            if hits.size == 0:
                raise ValidationError(
                    f"assignment for site {i} lies outside its window"
                )
            states[i] = hits[0]
        return states

    def assignment_for(self, states: np.ndarray) -> np.ndarray:
        return np.array(
            [self.windows[i][s] for i, s in enumerate(states)], dtype=np.int64
        )

    def mapping(self, assignment: np.ndarray) -> dict[str, str]:
        return {
            self.source.cells[i].id: self.target.cells[int(p)].id
            for i, p in enumerate(assignment)
        }


def build_problem(
    red_b: Frame,
    red_b_plus: Frame,
    w: float = 100.0,
    rho: float = 80.0,
    weights: RegistrationWeights = RegistrationWeights(),
    g_rate: float = 1.05,
) -> RegistrationProblem:
    """Assemble a registration problem for a (reduced) frame pair.

    Windows come from the motion-window query; a source cell with an empty
    window is padded with its nearest target cell and flagged. Likelihood
    CDFs, per-candidate match costs, neighbor cliques, and flip triplets are
    all precomputed here.
    """
    n = len(red_b)
    if n == 0 or len(red_b_plus) == 0:
        raise ValidationError("cannot register empty frames")
    if n != len(red_b_plus):
        warnings.warn(
            f"source and target sizes differ ({n} vs {len(red_b_plus)}); "
            "a bijective registration is impossible",
            stacklevel=2,
        )
    tc = red_b_plus.centers()
    windows: list[np.ndarray] = []
    padded: list[int] = []
    for i, cell in enumerate(red_b.cells):
        pos = np.flatnonzero(window_mask(cell.center, tc, w))
        if pos.size == 0:
            nearest = int(np.argmin(((tc - cell.center) ** 2).sum(axis=1)))
            pos = np.array([nearest])
            padded.append(i)
        windows.append(pos)
    window_cells = [[red_b_plus.cells[int(p)] for p in pos] for pos in windows]
    likelihood = fit_likelihood_model(red_b, window_cells, g_rate)
    match_cost = np.empty((n, len(red_b_plus)))
    for i, cell in enumerate(red_b.cells):
        match_cost[i] = -np.log(likelihood.lik_against(cell, red_b_plus.cells)) / n
    source_graph = build_neighbor_graph(red_b, rho)
    target_graph = build_neighbor_graph(red_b_plus, rho)
    degrees = source_graph.degrees
    sc = red_b.centers()
    stab_pairs, stab_weights = [], []
    for i, j in source_graph.edges():
        stab_pairs.append((i, j))
        stab_weights.append(2.0 / (n * degrees[i] * degrees[j]))
    flip_triplets, flip_weights, flip_signs = [], [], []
    for i in range(n):
        nbrs = np.flatnonzero(source_graph.adj[i])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                j, k = int(nbrs[a]), int(nbrs[b])
                flip_triplets.append((i, j, k))
                flip_weights.append(2.0 / (n * degrees[i] ** 2))
                flip_signs.append(
                    float(np.sign(cross2(sc[j] - sc[i], sc[k] - sc[i])))
                )
    return RegistrationProblem(
        source=red_b,
        target=red_b_plus,
        w=w,
        rho=rho,
        weights=weights,
        likelihood=likelihood,
        windows=windows,
        source_graph=source_graph,
        target_graph=target_graph,
        match_cost=match_cost,
        stab_pairs=np.array(stab_pairs, dtype=np.int64).reshape(-1, 2),
        stab_weights=np.array(stab_weights),
        flip_triplets=np.array(flip_triplets, dtype=np.int64).reshape(-1, 3),
        flip_weights=np.array(flip_weights),
        flip_signs=np.array(flip_signs),
        padded_sites=padded,
    )


def initial_assignment(problem: RegistrationProblem) -> np.ndarray:
    """Per-cell likelihood argmax (match-cost argmin) over the window; ties
    break by smaller kinetic penalty, then by target id."""
    sc, tc = problem.source.centers(), problem.target.centers()
    ids = problem.target.ids
    out = np.zeros(problem.n, dtype=np.int64)
    for i, win in enumerate(problem.windows):
        cost = problem.match_cost[i, win]
        kins = ((tc[win] - sc[i]) ** 2).sum(axis=1)
        best = min(range(len(win)), key=lambda s: (cost[s], kins[s], ids[win[s]]))
        out[i] = win[best]
    return out


@dataclass
class RegistrationResult:
    mapping: dict[str, str]
    assignment: np.ndarray
    energy: float
    terms: tuple[float, float, float, float]
    energy_trace: list[float]
    epochs: int
    steps: int
    stopped: str

    def to_metadata(self) -> dict:
        match, over, stab, flip = self.terms
        return {
            "energy": self.energy,
            "match": match,
            "over": over,
            "stab": stab,
            "flip": flip,
            "epochs": self.epochs,
            "steps": self.steps,
            "stopped": self.stopped,
        }


def register(
    problem: RegistrationProblem,
    schedule: Schedule | None = None,
    rng_seed: int = 0,
    dynamics: str = "async",
    alpha: float = 0.5,
    restarts: int = 1,
) -> RegistrationResult:
    """Anneal the compiled BM from the likelihood-argmax start and decode the
    best configuration seen into a registration mapping. With ``restarts`` > 1
    several independently seeded chains run and the lowest-energy one wins."""
    if dynamics not in ("async", "sync"):
        raise ValidationError("registration dynamics must be 'async' or 'sync'")
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    if schedule is None:
        schedule = Schedule.registration_default()
    bm = problem.to_bm()
    init = problem.states_for(initial_assignment(problem))
    result = None
    for chain in range(restarts):
        cand = annealer.anneal(
            bm,
            dynamics=dynamics,
            schedule=schedule,
            rng_seed=rng_seed + 997 * chain,
            initial_states=init,
            alpha=alpha,
        )
        if result is None or cand.best_energy < result.best_energy:
            result = cand
    assignment = problem.assignment_for(result.best_states)
    terms = problem.cost_terms(assignment)
    energy = float(problem.weights.as_array() @ np.array(terms))
    return RegistrationResult(
        mapping=problem.mapping(assignment),
        assignment=assignment,
        energy=energy,
        terms=terms,
        energy_trace=result.epoch_energies,
        epochs=result.n_epochs,
        steps=result.n_steps,
        stopped=result.stopped,
    )
