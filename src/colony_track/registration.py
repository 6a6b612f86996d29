"""Division-free frame-pair registration.

Each source cell carries a finite candidate list (its motion window in the
target frame), all held in one flat layout: per-cell offsets into one array
of target positions. One array pass over it, on the frames' row arrays, gives
every entry's penalties, which give both the empirical-CDF likelihood and the
match costs. A mapping is scored by four penalties: the matching
log-likelihood, an overlap count penalizing many-to-one collisions, a
neighbor-stability term, and a neighbor-flip term detecting orientation
reversals of neighbor pairs around a cell. The weighted penalties compile, on
the same layout, into one flat Boltzmann-machine energy (float64 match rows,
the 0/1 stab and flip tables that hold a 1 packed as bits in one uint8 array,
occupancy counts for collisions) whose value at a configuration equals the
cost of the decoded mapping; it sums match, stab, flip, then collision terms
sequentially, so every chain is reproducible. An all-zero table adds +0.0 to
every such sum, so it is not compiled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import annealer
from .annealer import RegistrationBm, Schedule
from .errors import ValidationError, check_fields
from .geometry import Frame, build_neighbor_graph, cross2, window_mask

LIK_FLOOR = 1e-6


@dataclass(frozen=True)
class RegistrationWeights:
    match: float = 110.0
    over: float = 300.0
    stab: float = 300.0
    flip: float = 290.0

    def __post_init__(self):
        check_fields(self, nonnegative=("match", "over", "stab", "flip"))

    def as_array(self) -> np.ndarray:
        return np.array([self.match, self.over, self.stab, self.flip])


def weighted_sum(values, weights) -> np.ndarray:
    """sum_k values[..., k] * weights[k], added left to right per element.

    Not ``values @ weights``: that product goes through BLAS, whose kernels
    (FMA, blocking) round it differently from one CPU to another.
    """
    values = np.asarray(values, dtype=np.float64)
    total = np.zeros(values.shape[:-1])
    for k in range(values.shape[-1]):
        total += values[..., k] * weights[k]
    return total


def _penalty_arrays(source: Frame, rows, target: Frame, cols, g_rate: float):
    """(kin, dis, rot) of matching the cells of ``source`` at rows ``rows``
    against those of ``target`` at rows ``cols`` (broadcasting index arrays).

    kin is the squared center displacement, dis the squared log-deviation of
    the length ratio from the expected growth factor, rot the angle between
    the (non-oriented) long axes in [0, pi/2]. The empirical CDFs are sampled
    at the flat penalties of :func:`build_problem` and queried again with
    them, so each sample counts itself; a value recomputed one ulp lower
    would shift a CDF count.
    """
    sc, tc = source.centers()[rows], target.centers()[cols]
    sa, ta = source.axes[rows], target.axes[cols]
    dx = tc[..., 0] - sc[..., 0]
    dy = tc[..., 1] - sc[..., 1]
    kin = dx * dx + dy * dy
    dis = (np.log(target.lengths[cols] / source.lengths[rows]) - np.log(g_rate)) ** 2
    cosang = np.minimum(1.0, np.abs(ta[..., 0] * sa[..., 0] + ta[..., 1] * sa[..., 1]))
    return kin, dis, np.arccos(cosang)


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

    def lik(self, kin, dis, rot) -> np.ndarray:
        """Joint likelihood of matches with these penalties, floored at LIK_FLOOR."""
        joint = (1.0 - self.cdf_kin(kin)) * (1.0 - self.cdf_dis(dis)) * (1.0 - self.cdf_rot(rot))
        return np.maximum(joint, LIK_FLOOR)

    def match_cost(self, penalties, n: int) -> np.ndarray:
        """Costs of matches with these (kin, dis, rot) ``penalties``: each one's
        negative log-likelihood, averaged over the ``n`` source cells."""
        return -np.log(self.lik(*penalties)) / n


def fit_likelihood_model(penalties, offsets: np.ndarray, g_rate: float) -> LikelihoodModel:
    """Build the three empirical CDFs from the two smallest of each source
    cell's (kin, dis, rot) ``penalties`` over its window (the one value of a
    singleton window); cell i's values lie at ``offsets[i]:offsets[i + 1]``."""
    sizes = np.diff(offsets)
    if not np.all(sizes):
        raise ValidationError(f"empty window for source cell {int(np.argmin(sizes))}")
    cell = np.repeat(np.arange(len(sizes)), sizes)
    lows = np.concatenate([offsets[:-1], offsets[:-1][sizes > 1] + 1])
    cdfs = [EmpiricalCdf(vals[np.lexsort((vals, cell))][lows]) for vals in penalties]
    return LikelihoodModel(*cdfs, growth_rate=g_rate)


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

    One flat window layout serves build, anneal and decode: source cell i may
    map to the target positions ``match_targets[match_offsets[i]:
    match_offsets[i + 1]]``, ascending, at per-cell negative average
    log-likelihoods ``match_cost`` in the same order, keyed
    ``i * len(target) + position`` in ``match_keys``. Stab pairs, flip
    triplets, and the occupancy coefficient carry the ordered-double-sum
    weights of the cost terms, so clique sums reproduce the cost exactly.
    The source frame's neighbor graph gives the pairs, triplets and weights
    and is not kept; the target frame's adjacency, which prices every
    configuration, is.
    """

    source: Frame
    target: Frame
    weights: RegistrationWeights
    likelihood: LikelihoodModel
    target_adj: np.ndarray
    match_offsets: np.ndarray
    match_targets: np.ndarray
    match_keys: np.ndarray  # ascending, as the windows are
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
    def windows(self) -> list[np.ndarray]:
        """Each cell's slice of ``match_targets`` (views)."""
        return np.split(self.match_targets, self.match_offsets[1:-1])

    @property
    def clique_counts(self) -> tuple[int, int, int]:
        return self.n, int(self.stab_pairs.shape[0]), int(self.flip_triplets.shape[0])

    # -- cost evaluation ----------------------------------------------------

    def _flat_positions(self, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's entry in the flat layout, and whether it is in the cell's window."""
        keys, want = self.match_keys, np.arange(self.n) * len(self.target) + assignment
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return at, keys[at] == want

    def cost_terms(self, assignment: np.ndarray) -> tuple[float, float, float, float]:
        """(match, over, stab, flip) of a total assignment, unweighted.

        ``assignment[i]`` is the target-frame position for source cell i,
        scored on the spot, as ``match_cost`` is filled, when outside its window.
        """
        a = np.asarray(assignment, dtype=np.int64)
        n = self.n
        at, inside = self._flat_positions(a)
        costs = self.match_cost[at]
        out = np.flatnonzero(~inside)
        if out.size:
            lik = self.likelihood
            pen = _penalty_arrays(self.source, out, self.target, a[out], lik.growth_rate)
            costs[out] = lik.match_cost(pen, n)
        counts = np.bincount(a, minlength=len(self.target))
        adj, ct = self.target_adj, self.target.centers()
        broken = _broken(adj, *a[self.stab_pairs.T])
        flipped = _flipped(adj, ct, *a[self.flip_triplets.T], self.flip_signs)
        return (
            float(costs.sum()),
            float((counts * (counts - 1)).sum()) / n,
            float((self.stab_weights * broken).sum()),
            float((self.flip_weights * flipped).sum()),
        )

    # -- BM compilation -----------------------------------------------------

    def to_bm(self) -> RegistrationBm:
        """Compile the weighted cost into one flat registration energy.

        Each stab and flip table is built by the broadcast ``cost_terms``
        uses and handed to the energy one clique at a time, which packs it
        as bits, so no dense copy of all the tables exists. The energy keeps
        only the cliques whose table holds a 1 (a broken pair or a flipped
        triplet at some candidates); the others add +0.0 to every energy
        and delta, so every value and chain is the same without them.
        """
        lam, wins = self.weights, self.windows
        adj, ct = self.target_adj, self.target.centers()
        n_stab = self.stab_pairs.shape[0]
        sites = np.full((n_stab + self.flip_triplets.shape[0], 3), -1, dtype=np.int64)
        sites[:n_stab, :2] = self.stab_pairs
        sites[n_stab:] = self.flip_triplets
        stab = (_broken(adj, wins[i][:, None], wins[j][None, :]) for i, j in self.stab_pairs)
        flip = (
            _flipped(
                adj, ct, wins[i][:, None, None], wins[j][None, :, None],
                wins[k][None, None, :], sign,
            )
            for (i, j, k), sign in zip(self.flip_triplets, self.flip_signs)
        )
        return RegistrationBm(
            self.match_offsets,
            self.match_targets,
            lam.match * self.match_cost,
            sites,
            np.concatenate([lam.stab * self.stab_weights, lam.flip * self.flip_weights]),
            coef=lam.over * 2.0 / self.n,
            tables=itertools.chain(stab, flip),
        )

    def states_for(self, assignment: np.ndarray) -> np.ndarray:
        """Window-relative state indices of a target-position assignment."""
        at, ok = self._flat_positions(np.asarray(assignment, dtype=np.int64))
        if not ok.all():
            raise ValidationError(f"assignment for site {np.argmin(ok)} lies outside its window")
        return at - self.match_offsets[:-1]

    def assignment_for(self, states: np.ndarray) -> np.ndarray:
        return self.match_targets[self.match_offsets[:-1] + states]

    def mapping(self, assignment: np.ndarray) -> dict[str, str]:
        targets = self.target.ids
        return {cid: targets[p] for cid, p in zip(self.source.ids, np.asarray(assignment).tolist())}


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
    window is padded with its nearest target cell and flagged. The penalties
    of every (cell, window target) entry are computed once, in one flat
    array pass, and give both the likelihood CDFs and the match costs;
    neighbor cliques and flip triplets are array passes too.
    """
    n = len(red_b)
    if n == 0 or len(red_b_plus) == 0:
        raise ValidationError("cannot register empty frames")
    sc, tc = red_b.centers(), red_b_plus.centers()
    windows = [np.flatnonzero(window_mask(center, tc, w)) for center in sc]
    padded = [i for i, pos in enumerate(windows) if pos.size == 0]
    for i in padded:
        windows[i] = np.array([np.argmin(((tc - sc[i]) ** 2).sum(axis=1))])
    sizes = [len(pos) for pos in windows]
    match_offsets = np.concatenate([[0], np.cumsum(sizes)])
    match_targets = np.concatenate(windows)
    cell = np.repeat(np.arange(n), sizes)
    penalties = _penalty_arrays(red_b, cell, red_b_plus, match_targets, g_rate)
    likelihood = fit_likelihood_model(penalties, match_offsets, g_rate)
    # the source graph gives the cliques and their weights and is not kept
    source_adj = build_neighbor_graph(red_b, rho)
    degrees = source_adj.sum(axis=1)
    rows, cols = np.nonzero(source_adj)
    del source_adj
    upper = rows < cols
    stab_pairs = np.stack([rows[upper], cols[upper]], axis=1)
    # flip triplets (i, then j < k among i's sorted neighbors): each entry p
    # of the row-major neighbor list pairs with the later entries q of its row
    later = np.repeat(np.cumsum(degrees), degrees) - np.arange(len(rows)) - 1
    p = np.repeat(np.arange(len(rows)), later)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(later) - later, later)
    i, j, k = rows[p], cols[p], cols[q]
    del rows, cols, upper, later, p, q
    return RegistrationProblem(
        source=red_b,
        target=red_b_plus,
        weights=weights,
        likelihood=likelihood,
        target_adj=build_neighbor_graph(red_b_plus, rho),
        match_offsets=match_offsets,
        match_targets=match_targets,
        match_keys=cell * len(red_b_plus) + match_targets,
        match_cost=likelihood.match_cost(penalties, n),
        stab_pairs=stab_pairs,
        stab_weights=2.0 / (n * degrees[stab_pairs[:, 0]] * degrees[stab_pairs[:, 1]]),
        flip_triplets=np.stack([i, j, k], axis=1),
        flip_weights=2.0 / (n * degrees[i] ** 2),
        flip_signs=np.sign(cross2(sc[j] - sc[i], sc[k] - sc[i])),
        padded_sites=padded,
    )


def initial_assignment(problem: RegistrationProblem) -> np.ndarray:
    """Per-cell likelihood argmax (match-cost argmin) over the window; ties
    break by smaller kinetic penalty, then by target id."""
    cell = np.repeat(np.arange(problem.n), np.diff(problem.match_offsets))
    win = problem.match_targets
    kins = ((problem.target.centers()[win] - problem.source.centers()[cell]) ** 2).sum(axis=1)
    id_rank = np.argsort(np.argsort(problem.target.ids))
    first = np.lexsort((id_rank[win], kins, problem.match_cost, cell))[problem.match_offsets[:-1]]
    return win[first]


@dataclass
class RegistrationResult:
    mapping: dict[str, str]
    assignment: np.ndarray
    energy: float
    terms: tuple[float, float, float, float]
    chain: annealer.AnnealResult  # the winning chain
    max_touched_cliques: int  # the match term plus the most compiled cliques at one site

    def to_metadata(self) -> dict:
        match, over, stab, flip = self.terms
        return {
            "energy": self.energy,
            "match": match,
            "over": over,
            "stab": stab,
            "flip": flip,
            "epochs": self.chain.n_epochs,
            "steps": self.chain.n_steps,
            "stopped": self.chain.stopped,
        }


def register(
    problem: RegistrationProblem,
    schedule: Schedule | None = None,
    rng_seed: int = 0,
    restarts: int = 1,
) -> RegistrationResult:
    """Anneal the compiled BM from the likelihood-argmax start and decode the
    best configuration seen into a registration mapping. With ``restarts`` > 1
    several independently seeded chains run and the lowest-energy one wins."""
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
            dynamics="async",
            schedule=schedule,
            rng_seed=rng_seed + 997 * chain,
            initial_states=init,
        )
        if result is None or cand.best_energy < result.best_energy:
            result = cand
    max_touched = 1 + int(np.diff(bm.ptr).max())
    del bm  # decoding needs no machine: free it before cost_terms allocates
    assignment = problem.assignment_for(result.best_states)
    terms = problem.cost_terms(assignment)
    energy = float(weighted_sum(terms, problem.weights.as_array()))
    return RegistrationResult(
        mapping=problem.mapping(assignment),
        assignment=assignment,
        energy=energy,
        terms=terms,
        chain=result,
        max_touched_cliques=max_touched,
    )
