"""Boltzmann-machine annealing: two energies, one update rule each.

Registration uses :class:`RegistrationBm`, the registration cost compiled
into flat arrays over finite per-site candidate lists:

    E(z) = sum_i match_i[z_i] + sum_K weight_K * table_K[z restricted to K]
         + coef * #{unordered site pairs mapped to the same target}

Match rows are float64; the 2-site (stab) and 3-site (flip) 0/1 tables are
packed as bits into one uint8 array: each clique's table is C-ordered and
starts on a byte boundary, and entry e of the packed bits is bit ``e & 7``
(little bit order) of byte ``e >> 3``. A per-site incidence list in CSR form
(compressed sparse rows: one start index per site) holds each of a site's
cliques as one row: table base, strides, the other sites and the weight.
No per-clique copy of these is kept; a clique is reached through the row of
its first site. The collision term is kept through per-target occupancy
counts. Its dynamics is ``async``: one site at a time, priced by one bit
gather over the site's tables and one reduction. Deltas and full energies
add their terms in one fixed order, match, then stab, then flip cliques,
then collision, each a sequential sum rather than a pairwise one, so the
incremental and the full energy are the same float operations and every
chain is reproducible bit for bit. Only cliques whose table holds a 1 are
compiled, and a site with one candidate is never priced: a zero table adds
+0.0 to each sum, which changes no partial sum, as none is -0.0 (an energy
begins with +0.0, a delta with the match difference).

Children selection uses :class:`QuadraticBm`, the binary quadratic energy

    E(z) = v . z + lambda * z^T Q z = v . z + lambda * sum_c g_c (g_c - 1)

over sites holding two cells each (g_c selected sites hold cell c), annealed
by ``swap`` moves that exchange a selected and an unselected site, keeping the
number selected. A site's local field h = Q z (Aarts & Korst, *Simulated
Annealing and Boltzmann Machines*, 1989) is its cells' counts: O(1) swaps, no Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import ValidationError, check_fields

Dynamics = Literal["async", "swap"]


def _bits_at(bits: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 0/1 entries (int64) at bit positions ``at`` of the packed tables."""
    return (bits[at >> 3] >> (at & 7)) & 1


def _cyclic_others(per_clique: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Rows of ``per_clique`` (one row of 3 per clique): for each flat
    entry ``flat`` = 3 clique + position, the values at the two positions
    that follow it cyclically within its clique.

    Each step moves ``flat`` in place to the next position, from 2 back to
    0; the third step returns it to where it started.
    """
    out = np.empty((len(flat), 2), dtype=np.int64)
    for col in range(3):
        flat += 1
        flat[flat % 3 == 0] -= 3
        if col < 2:
            np.take(per_clique, flat, out=out[:, col])
    return out


class RegistrationBm:
    """Flat compiled registration energy over sites with finite candidate lists.

    Site i takes one of ``sizes[i] = offsets[i + 1] - offsets[i]`` candidate
    positions; candidate a of site i lies at ``offsets[i] + a`` in the flat
    per-candidate arrays ``match`` (the weighted match cost) and ``targets``
    (the target position it reaches; distinct among a site's candidates).
    The constructor takes clique c as two or three sites (row c of ``sites``,
    a third of -1 for a pair), a non-negative weight, and a 0/1 table, the
    c-th of ``tables`` (any iterable of arrays shaped by the clique's sites'
    sizes, consumed once). The cliques whose table holds a 1 are kept, their
    tables packed as bits into the uint8 array ``bits``: each C-ordered from
    a bit position that is a multiple of 8, bit e is bit ``e & 7`` of byte
    ``e >> 3`` (little bit order).

    Only the incidence rows keep the cliques. Entries ``ptr[i]:ptr[i + 1]``
    of the ``inc_*`` arrays are site i's incident kept cliques in clique
    order: table base, the site's own element stride, the two other sites
    (-1 for a pair's padding) with their strides (0 for padding), and the
    clique weight. ``clique_rows[c]`` is the row of kept clique c's first
    site, and ``clique_sites[c]`` that site; from these :meth:`energy` reads
    the clique's base, sites, strides and weight.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        match: np.ndarray,
        sites: np.ndarray,
        weights: np.ndarray,
        coef: float,
        tables: Iterable[np.ndarray],
    ):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.sizes = np.diff(self.offsets)
        self.n_sites = len(self.sizes)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.match = np.asarray(match, dtype=np.float64)
        self.coef = float(coef)
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, 3)
        if np.any(sites[:, 0] < 0):
            raise ValidationError("a clique's first site must not be padding")
        # pack each table as it arrives and keep its clique if a packed byte
        # is not 0 (the padding bits are 0)
        live, packed, given = np.zeros(len(sites), dtype=bool), bytearray(), 0
        for given, table in enumerate(tables, 1):
            row = np.packbits(np.ravel(table), bitorder="little")
            if given <= len(live) and np.count_nonzero(row):
                live[given - 1] = True
                packed.extend(row)
        if given != len(live):
            raise ValidationError(f"{given} clique tables for {len(live)} cliques")
        self.bits = np.frombuffer(packed, dtype=np.uint8)
        sites, weights = sites[live], np.asarray(weights, dtype=np.float64)[live]
        del live
        # C order: a site's stride is the product of the later sites' sizes
        dims = np.where(sites >= 0, self.sizes[sites], 1)
        strides = np.ones_like(dims)
        strides[:, 1] = dims[:, 2]
        strides[:, 0] = dims[:, 1] * dims[:, 2]
        padded = -(-(dims[:, 0] * strides[:, 0]) // 8) * 8
        del dims
        strides[sites < 0] = 0
        if 8 * len(packed) != padded.sum():
            raise ValidationError("clique table sizes do not match their sites' candidates")
        base = np.cumsum(padded) - padded
        del padded
        # site i's incidence list, in clique order within each site: a stable
        # sort of the flat sites puts the padding (-1) first; flat = 3 c + pos
        counts = np.bincount(sites.ravel() + 1, minlength=self.n_sites + 1)
        self.ptr = np.concatenate([[0], np.cumsum(counts[1:])])
        flat = np.argsort(sites.ravel(), kind="stable")[counts[0]:]
        del counts
        first = np.flatnonzero(flat % 3 == 0)
        self.clique_rows = np.empty(len(sites), dtype=np.int64)
        self.clique_rows[flat[first] // 3] = first
        del first
        self.clique_sites = sites[:, 0].copy()
        self.inc_stride = np.take(strides, flat)[:, None]
        self.inc_other = _cyclic_others(sites, flat)
        del sites
        self.inc_other_stride = _cyclic_others(strides, flat)
        del strides
        flat //= 3  # each entry still points into its own clique
        self.inc_base = base[flat]
        self.inc_weight = weights[flat][:, None]
        self.positions = np.arange(int(self.sizes.max(initial=1)))

    def energy(self, states: np.ndarray) -> float:
        """Full recomputation of E(z); the reference for all bookkeeping.

        Match, then clique terms are added one after another from 0.0
        (a cumulative sum, never a pairwise one), then the collision term.
        """
        n, rows = self.n_sites, self.clique_rows
        chosen = self.offsets[:-1] + states
        # np.take gathers rows several times faster than fancy indexing
        zs = np.take(states, np.take(self.inc_other, rows, axis=0))
        zs *= np.take(self.inc_other_stride, rows, axis=0)
        at = np.take(states, self.clique_sites) * np.take(self.inc_stride, rows)
        at += np.take(self.inc_base, rows)
        at += zs[:, 0]
        at += zs[:, 1]
        terms = np.empty(1 + n + len(rows))
        terms[0] = 0.0
        terms[1 : n + 1] = self.match[chosen]
        np.multiply(np.take(self.inc_weight, rows), _bits_at(self.bits, at), out=terms[n + 1 :])
        counts = np.bincount(self.targets[chosen])
        pairs = float((counts * (counts - 1) // 2).sum())
        return float(np.cumsum(terms)[-1]) + self.coef * pairs


class RegistrationConfig:
    """A configuration of a :class:`RegistrationBm` with per-target occupancy
    counts and incrementally maintained energy."""

    def __init__(self, problem: RegistrationBm, states: Sequence[int]):
        self.problem = problem
        self.states = np.asarray(states, dtype=np.int64).copy()
        if self.states.shape != (problem.n_sites,):
            raise ValidationError("states vector length must match site count")
        bad = np.flatnonzero((self.states < 0) | (self.states >= problem.sizes))
        if bad.size:
            raise ValidationError(f"state index out of range at site {bad[0]}")
        self._occ = np.bincount(
            problem.targets[problem.offsets[:-1] + self.states],
            minlength=int(problem.targets.max(initial=-1)) + 1,
        )
        self.energy = problem.energy(self.states)

    def delta_vector(self, site: int) -> np.ndarray:
        """Energy change for moving ``site`` to each of its candidates.

        One bit gather over the site's incident tables, then one reduction
        over the rows (match, then cliques in order, then collision) added
        one after another: the summation order of :meth:`energy`.
        """
        p, z = self.problem, self.states
        cur = z[site]
        a, b = p.offsets[site], p.offsets[site + 1]
        lo, hi = p.ptr[site], p.ptr[site + 1]
        zs = z[p.inc_other[lo:hi]] * p.inc_other_stride[lo:hi]
        at = p.inc_base[lo:hi] + zs[:, 0] + zs[:, 1]
        vals = _bits_at(p.bits, at[:, None] + p.positions[: b - a] * p.inc_stride[lo:hi])
        rows = np.empty((2 + hi - lo, b - a))
        match = p.match[a:b]
        np.subtract(match, match[cur], out=rows[0])
        np.multiply(p.inc_weight[lo:hi], vals - vals[:, cur, None], out=rows[1:-1])
        # the site does not count against its own target (its candidates'
        # targets are distinct)
        occ = self._occ[p.targets[a:b]]
        occ[cur] -= 1
        np.multiply(p.coef, occ - occ[cur], out=rows[-1])
        # along axis 0 numpy adds whole rows one after another (pairwise
        # summation runs only along the contiguous axis); a site with one
        # candidate has all-zero rows, so its order cannot matter
        return np.add.reduce(rows, axis=0)

    def apply(self, site: int, new_state: int, delta: float) -> None:
        """Move ``site`` to ``new_state``; ``delta`` is the energy change."""
        if new_state == self.states[site]:
            return
        toks = self.problem.targets[self.problem.offsets[site]:]
        self._occ[toks[self.states[site]]] -= 1
        self._occ[toks[new_state]] += 1
        self.states[site] = new_state
        self.energy += delta


class QuadraticBm:
    """Binary BM with energy E(z) = v . z + lambda_q * sum_c g_c (g_c - 1).

    Site j holds the distinct cells ``cells[j]`` (small ints); for distinct
    pairs this is v . z + lambda_q z^T Q z, Q_jk = 1 when j and k share a cell.
    """

    def __init__(self, v: np.ndarray, cells: np.ndarray, lambda_q: float):
        self.v = np.asarray(v, dtype=np.float64)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.lambda_q = float(lambda_q)
        self.n_sites = len(self.v)
        if self.cells.shape != (self.n_sites, 2) or np.any(self.cells[:, 0] == self.cells[:, 1]):
            raise ValidationError("cells must hold two distinct ids per site")

    def counts(self, states: np.ndarray) -> np.ndarray:
        """g: the number of selected sites holding each cell."""
        sel = self.cells[np.flatnonzero(states)].ravel()
        return np.bincount(sel, minlength=int(self.cells.max(initial=-1)) + 1)

    def energy(self, states: np.ndarray) -> float:
        """Full recomputation of E(z) over the selected sites S only:
        v[S].sum() + lambda_q * sum(g * (g - 1)), the count an exact integer."""
        g = self.counts(states)
        return float(self.v[np.flatnonzero(states)].sum() + self.lambda_q * (g * (g - 1)).sum())


class QuadraticConfig:
    """A binary configuration of a :class:`QuadraticBm` with its per-cell
    counts g and incrementally maintained energy."""

    def __init__(self, problem: QuadraticBm, states: Sequence[int]):
        self.problem = problem
        self.states = np.asarray(states, dtype=np.int64).copy()
        if self.states.shape != (problem.n_sites,):
            raise ValidationError("states vector length must match site count")
        if np.any((self.states != 0) & (self.states != 1)):
            raise ValidationError("swap dynamics needs a 0/1 configuration")
        # lists: a swap reads and writes a few scalars, several times faster
        self._cells = problem.cells.tolist()
        self.g = problem.counts(self.states).tolist()
        self.energy = problem.energy(self.states)

    def swap_delta(self, j: int, k: int) -> float:
        """Energy change (v_k - v_j) + 2 lambda (h_k - h_j - Q_jk) of deselecting j and
        selecting k: h_k = g[a_k] + g[b_k], h_j = g[a_j] + g[b_j] - 2."""
        p, g, (aj, bj), (ak, bk) = self.problem, self.g, self._cells[j], self._cells[k]
        shared = (aj == ak) + (aj == bk) + (bj == ak) + (bj == bk)
        h = g[ak] + g[bk] - (g[aj] + g[bj] - 2) - shared
        return float(p.v[k] - p.v[j]) + 2.0 * p.lambda_q * float(h)

    def swap(self, j: int, k: int, delta: float) -> None:
        self.states[j], self.states[k] = 0, 1
        g, (aj, bj), (ak, bk) = self.g, self._cells[j], self._cells[k]
        g[aj], g[bj] = g[aj] - 1, g[bj] - 1
        g[ak], g[bk] = g[ak] + 1, g[bk] + 1
        self.energy += delta


@dataclass
class Schedule:
    """Geometric temperature schedule Temp(t) = c * eta**t over update steps,
    run for at most ``epoch_cap`` epochs of N update events each. Each stage
    has its own default; any other schedule is given in full."""

    c: float
    eta: float
    epoch_cap: int

    def __post_init__(self):
        check_fields(self, integers=("epoch_cap",), positive=("c", "eta", "epoch_cap"))
        if self.eta >= 1.0:
            raise ValidationError(f"decay rate eta must be below 1, got {self.eta!r}")

    def temperature(self, t: int) -> float:
        return self.c * self.eta**t

    @classmethod
    def registration_default(cls) -> "Schedule":
        return cls(c=50.0, eta=0.999, epoch_cap=400)

    @classmethod
    def children_default(cls) -> "Schedule":
        return cls(c=1000.0, eta=0.995, epoch_cap=5000)


# A chain is stable, and stops, once its energy spread over one epoch is at
# most this fraction of max(1, |E|).
STABILITY_TOL = 1e-6


def _accept(d: float, temp: float, rng: np.random.Generator) -> bool:
    """Metropolis-style test with p = exp(-max(0, d)/temp), via log comparison."""
    u = rng.random()
    if d <= 0.0:
        return True
    if temp <= 0.0:
        return False
    return math.log(max(u, 1e-300)) <= -d / temp


def step_async(
    config: RegistrationConfig, site: int, temp: float, rng: np.random.Generator
) -> bool:
    """Single-site update: propose the best alternative candidate, accept with
    probability exp(-max(0, delta)/Temp). Returns True when the configuration
    changed.

    The current state always has delta zero, so including it would make the
    acceptance test vacuous; proposing the delta-minimizing alternative keeps
    improving moves always accepted while uphill moves face exp(-delta/Temp).
    A site with a single candidate never moves, and is not priced.
    """
    if config.problem.sizes[site] < 2:
        return False
    deltas = config.delta_vector(site)
    deltas[config.states[site]] = np.inf
    z = int(np.argmin(deltas))
    d = float(deltas[z])
    if _accept(max(0.0, d), temp, rng):
        config.apply(site, z, d)
        return True
    return False


def step_swap(config: QuadraticConfig, temp: float, rng: np.random.Generator) -> bool:
    """Cardinality-preserving update: exchange a selected site j with an
    unselected one k, priced through the per-cell counts as
    (v_k - v_j) + 2 lambda (h_k - h_j - Q_jk). No-op when either side is empty."""
    ones = np.flatnonzero(config.states == 1)
    zeros = np.flatnonzero(config.states == 0)
    if len(ones) == 0 or len(zeros) == 0:
        return False
    j = int(ones[rng.integers(len(ones))])
    k = int(zeros[rng.integers(len(zeros))])
    delta = config.swap_delta(j, k)
    if _accept(max(0.0, delta), temp, rng):
        config.swap(j, k, delta)
        return True
    return False


@dataclass
class AnnealResult:
    best_states: np.ndarray
    best_energy: float
    final_states: np.ndarray
    final_energy: float
    epoch_energies: list[float]
    n_epochs: int
    n_steps: int
    stopped: str


def anneal(
    problem: RegistrationBm | QuadraticBm,
    dynamics: Dynamics,
    schedule: Schedule,
    initial_states: Sequence[int],
    rng_seed: int = 0,
) -> AnnealResult:
    """Run one annealing chain from ``initial_states`` and return the best
    configuration seen.

    ``async`` anneals a :class:`RegistrationBm`, ``swap`` a
    :class:`QuadraticBm`. One epoch is N single-site updates (async) or N
    swap attempts (swap). The chain stops once the energy spread over one
    epoch is at most ``STABILITY_TOL`` times max(1, |E|), or at the epoch
    cap. Deterministic given the seed.
    """
    rng = np.random.default_rng(rng_seed)
    if dynamics == "async" and isinstance(problem, RegistrationBm):
        config = RegistrationConfig(problem, initial_states)
    elif dynamics == "swap" and isinstance(problem, QuadraticBm):
        config = QuadraticConfig(problem, initial_states)
    elif dynamics in ("async", "swap"):
        raise ValidationError(f"{dynamics} dynamics cannot anneal a {type(problem).__name__}")
    else:
        raise ValidationError(f"unknown dynamics {dynamics!r}")
    n = problem.n_sites
    best_states = config.states.copy()
    best_energy = config.energy
    epoch_energies: list[float] = []
    t = 0
    stopped = "epoch_cap"
    for epoch in range(schedule.epoch_cap):
        emin = emax = config.energy
        sites = rng.permutation(n) if dynamics == "async" else None
        for s in range(n):
            temp = schedule.temperature(t)
            if dynamics == "async":
                step_async(config, int(sites[s]), temp, rng)
            else:
                step_swap(config, temp, rng)
            t += 1
            emin = min(emin, config.energy)
            emax = max(emax, config.energy)
            if config.energy < best_energy - 1e-15:
                best_energy = config.energy
                best_states = config.states.copy()
        config.energy = problem.energy(config.states)
        epoch_energies.append(config.energy)
        if emax - emin <= STABILITY_TOL * max(1.0, abs(config.energy)):
            stopped = "stable"
            break
    if config.energy < best_energy:
        best_energy = config.energy
        best_states = config.states.copy()
    return AnnealResult(
        best_states=best_states,
        best_energy=best_energy,
        final_states=config.states.copy(),
        final_energy=config.energy,
        epoch_energies=epoch_energies,
        n_epochs=len(epoch_energies),
        n_steps=t,
        stopped=stopped,
    )

