"""Boltzmann-machine annealing: two energies, one update rule each.

Registration uses :class:`BmProblem`, a sum of small-clique terms plus one
optional collision term over finite product configuration spaces:

    E(z) = sum_K weight_K * table_K[z restricted to K]
         + coef * #{unordered site pairs mapped to the same target}

Site i takes one of ``sizes[i]`` candidate positions. Clique tables are dense
numpy arrays indexed by those positions, so a single-site update touches only
the cliques containing that site. The collision term expresses pairwise
equality penalties (one clique per pair of sites) through per-target
occupancy counts, which keeps its evaluation exact while avoiding a quadratic
clique list. Its dynamics is ``async``: one site at a time.

Children selection uses :class:`QuadraticBm`, the binary quadratic energy

    E(z) = v . z + lambda * z^T Q z

annealed by ``swap`` moves that exchange a selected and an unselected site,
so the number of selected sites never changes. The chain keeps the local
field h = Q z (Aarts & Korst, *Simulated Annealing and Boltzmann Machines*,
1989), which makes the energy change of a swap an O(1) expression.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ValidationError, check_fields

Dynamics = Literal["async", "swap"]


@dataclass(frozen=True)
class Clique:
    """Energy term over 1-3 sites: value = weight * table[local states]."""

    sites: tuple[int, ...]
    table: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        table = np.asarray(self.table)
        if table.ndim != len(self.sites):
            raise ValidationError("clique table rank must equal the site count")
        if len(set(self.sites)) != len(self.sites):
            raise ValidationError("clique sites must be distinct")
        if not (1 <= len(self.sites) <= 3):
            raise ValidationError("cliques must have 1 to 3 sites")
        if table.dtype != bool and not np.all(np.isfinite(table)):
            raise ValidationError("clique table has non-finite values")
        if not math.isfinite(self.weight):
            raise ValidationError("clique weight must be finite")
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class CollisionGroup:
    """Adds coef * #{i<j : target(i, z_i) == target(j, z_j)} to the energy.

    ``targets[i][a]`` is the non-negative integer target token reached when
    site i is in candidate position a.
    """

    coef: float
    targets: tuple[np.ndarray, ...]

    def __post_init__(self):
        targets = tuple(np.asarray(t, dtype=np.int64) for t in self.targets)
        if any(t.min(initial=0) < 0 for t in targets):
            raise ValidationError("collision target tokens must be non-negative")
        object.__setattr__(self, "targets", targets)

    @property
    def n_tokens(self) -> int:
        return int(max(int(t.max(initial=-1)) for t in self.targets) + 1)

    def tokens(self, states: np.ndarray) -> np.ndarray:
        """Target token of every site in configuration ``states``."""
        return np.array(
            [t[s] for t, s in zip(self.targets, states)], dtype=np.int64
        )


class BmProblem:
    """Sites with ``sizes[i]`` candidate positions and a clique-factored energy."""

    def __init__(
        self,
        sizes: Sequence[int],
        cliques: Sequence[Clique],
        collision: CollisionGroup | None = None,
    ):
        self.sizes = tuple(int(size) for size in sizes)
        if any(size < 1 for size in self.sizes):
            raise ValidationError("every site needs at least one candidate state")
        self.n_sites = len(self.sizes)
        self.cliques = list(cliques)
        self.collision = collision
        for cl in self.cliques:
            if any(s < 0 or s >= self.n_sites for s in cl.sites):
                raise ValidationError("clique references an unknown site")
            expected = tuple(self.sizes[s] for s in cl.sites)
            if cl.table.shape != expected:
                raise ValidationError(
                    f"clique table shape {cl.table.shape} != candidate counts {expected}"
                )
        if collision is not None:
            if len(collision.targets) != self.n_sites:
                raise ValidationError("collision group must cover every site")
            for size, t in zip(self.sizes, collision.targets):
                if t.shape != (size,):
                    raise ValidationError("collision targets misaligned with candidates")
        self.site_cliques: list[list[int]] = [[] for _ in range(self.n_sites)]
        for ci, cl in enumerate(self.cliques):
            for s in cl.sites:
                self.site_cliques[s].append(ci)

    def clique_energy(self, states: np.ndarray) -> float:
        total = 0.0
        for cl in self.cliques:
            total += cl.weight * float(cl.table[tuple(states[s] for s in cl.sites)])
        return total

    def collision_energy(self, states: np.ndarray) -> float:
        if self.collision is None:
            return 0.0
        counts = np.bincount(self.collision.tokens(states))
        return self.collision.coef * float((counts * (counts - 1) // 2).sum())

    def energy(self, states: np.ndarray) -> float:
        """Full recomputation of E(z); the reference for all bookkeeping."""
        return self.clique_energy(states) + self.collision_energy(states)


class QuadraticBm:
    """Binary BM with energy E(z) = v . z + lambda_q * z^T Q z.

    ``q`` is symmetric with a zero diagonal and is used as given: it is never
    copied into a wider dtype.
    """

    def __init__(self, v: np.ndarray, q: np.ndarray, lambda_q: float):
        self.v = np.asarray(v, dtype=np.float64)
        self.q = q
        self.lambda_q = float(lambda_q)
        self.n_sites = len(self.v)
        if q.shape != (self.n_sites, self.n_sites):
            raise ValidationError("Q must be square with one row per site")

    def energy(self, states: np.ndarray) -> float:
        """Full recomputation of E(z) over the selected sites S only:
        v[S].sum() + lambda_q * Q[S, S].sum()."""
        sel = np.flatnonzero(states)
        return float(self.v[sel].sum() + self.lambda_q * self.q[np.ix_(sel, sel)].sum())


class QuadraticConfig:
    """A binary configuration of a :class:`QuadraticBm` with its local field
    h = Q z and incrementally maintained energy."""

    def __init__(self, problem: QuadraticBm, states: Sequence[int]):
        self.problem = problem
        self.states = np.asarray(states, dtype=np.int64).copy()
        if self.states.shape != (problem.n_sites,):
            raise ValidationError("states vector length must match site count")
        if np.any((self.states != 0) & (self.states != 1)):
            raise ValidationError("swap dynamics needs a 0/1 configuration")
        field_dtype = np.result_type(problem.q.dtype, np.int64)
        self.h = problem.q[self.states == 1].sum(axis=0, dtype=field_dtype)
        self.energy = problem.energy(self.states)

    def swap_delta(self, j: int, k: int) -> float:
        """Energy change of deselecting site j and selecting site k."""
        p, h = self.problem, self.h
        return float(p.v[k] - p.v[j]) + 2.0 * p.lambda_q * float(h[k] - h[j] - p.q[j, k])

    def swap(self, j: int, k: int, delta: float) -> None:
        self.states[j], self.states[k] = 0, 1
        self.h += self.problem.q[k]
        self.h -= self.problem.q[j]
        self.energy += delta

    def resync_energy(self) -> None:
        """Replace the accumulated energy by a full recomputation."""
        self.energy = self.problem.energy(self.states)


class BmConfig:
    """A concrete configuration with incrementally maintained energy."""

    def __init__(self, problem: BmProblem, states: Sequence[int]):
        self.problem = problem
        self.states = np.asarray(states, dtype=np.int64).copy()
        if self.states.shape != (problem.n_sites,):
            raise ValidationError("states vector length must match site count")
        bad = np.flatnonzero((self.states < 0) | (self.states >= np.array(problem.sizes)))
        if bad.size:
            raise ValidationError(f"state index out of range at site {bad[0]}")
        grp = problem.collision
        self._occ = (
            None
            if grp is None
            else np.bincount(grp.tokens(self.states), minlength=grp.n_tokens)
        )
        self.energy = problem.energy(self.states)

    def delta_vector(self, site: int) -> np.ndarray:
        """Energy change for moving ``site`` to each of its candidates."""
        problem = self.problem
        cur = self.states[site]
        out = np.zeros(problem.sizes[site])
        for ci in problem.site_cliques[site]:
            cl = problem.cliques[ci]
            idx = tuple(
                slice(None) if s == site else self.states[s] for s in cl.sites
            )
            vec = cl.table[idx]
            out += cl.weight * (vec - vec[cur])
        if self._occ is not None:
            occ = self._occ
            toks = problem.collision.targets[site]
            cur_tok = toks[cur]
            # exclude this site itself from the counts it sees
            occ_cand = occ[toks] - (toks == cur_tok)
            out += problem.collision.coef * (occ_cand - (occ[cur_tok] - 1))
        return out

    def apply(self, site: int, new_state: int, delta: float) -> None:
        """Move ``site`` to ``new_state``; ``delta`` is the energy change."""
        if new_state == self.states[site]:
            return
        grp = self.problem.collision
        if grp is not None:
            self._occ[grp.targets[site][self.states[site]]] -= 1
            self._occ[grp.targets[site][new_state]] += 1
        self.states[site] = new_state
        self.energy += delta

    def resync_energy(self) -> None:
        """Replace the accumulated energy by a full recomputation."""
        self.energy = self.problem.energy(self.states)


@dataclass
class Schedule:
    """Geometric temperature schedule Temp(t) = c * eta**t over update steps.

    ``stability_window`` counts update events (single-site moves or swap
    attempts); it defaults to the site count N, stopping once the energy
    stayed within the relative tolerance over the last N events.
    """

    c: float = 50.0
    eta: float = 0.997
    epoch_cap: int = 400
    stability_window: int | None = None
    stability_tol: float = 1e-6

    def __post_init__(self):
        check_fields(self, integers=("epoch_cap",), reals=("c", "eta", "stability_tol"))
        if self.stability_window is not None:
            check_fields(self, integers=("stability_window",))
        if self.c <= 0:
            raise ValidationError("initial temperature c must be positive")
        if not (0.0 < self.eta < 1.0):
            raise ValidationError("decay rate eta must lie in (0, 1)")
        if not (0.99 < self.eta < 1.0):
            warnings.warn(
                f"decay rate eta={self.eta} outside the recommended (0.99, 1) range",
                stacklevel=2,
            )
        if self.epoch_cap < 1:
            raise ValidationError("epoch_cap must be at least 1")

    def temperature(self, t: int) -> float:
        return self.c * self.eta**t

    @classmethod
    def registration_default(cls) -> "Schedule":
        return cls(c=50.0, eta=0.999, epoch_cap=400)

    @classmethod
    def children_default(cls) -> "Schedule":
        return cls(c=1000.0, eta=0.995, epoch_cap=5000)

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        keys = {"c", "eta", "epoch_cap", "stability_window", "stability_tol"}
        unknown = set(data) - keys
        if unknown:
            raise ValidationError(f"unknown schedule keys: {sorted(unknown)}")
        return cls(**{k: data[k] for k in keys if k in data})


def _accept(d: float, temp: float, rng: np.random.Generator) -> bool:
    """Metropolis-style test with p = exp(-max(0, d)/temp), via log comparison."""
    u = rng.random()
    if d <= 0.0:
        return True
    if temp <= 0.0:
        return False
    return math.log(max(u, 1e-300)) <= -d / temp


def step_async(config: BmConfig, site: int, temp: float, rng: np.random.Generator) -> bool:
    """Single-site update: propose the best alternative candidate, accept with
    probability exp(-max(0, delta)/Temp). Returns True when the configuration
    changed.

    The current state always has delta zero, so including it would make the
    acceptance test vacuous; proposing the delta-minimizing alternative keeps
    improving moves always accepted while uphill moves face exp(-delta/Temp).
    A site with a single candidate never moves.
    """
    deltas = config.delta_vector(site)
    if deltas.size < 2:
        return False
    deltas[config.states[site]] = np.inf
    z = int(np.argmin(deltas))
    d = float(deltas[z])
    if _accept(max(0.0, d), temp, rng):
        config.apply(site, z, d)
        return True
    return False


def step_swap(config: QuadraticConfig, temp: float, rng: np.random.Generator) -> bool:
    """Cardinality-preserving update: exchange a selected site j with an
    unselected one k, priced through the local field as
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
    step_trace: list[tuple[int, float, float, int]] | None = None


def anneal(
    problem: BmProblem | QuadraticBm,
    dynamics: Dynamics = "async",
    schedule: Schedule | None = None,
    rng_seed: int | np.random.Generator = 0,
    initial_states: Sequence[int] | None = None,
    record_steps: bool = False,
) -> AnnealResult:
    """Run one annealing chain and return the best configuration seen.

    ``async`` anneals a :class:`BmProblem` (from all zeros by default);
    ``swap`` anneals a :class:`QuadraticBm` from a given configuration. One
    epoch is N single-site updates (async) or N swap attempts (swap). The
    chain stops when the energy spread over the trailing stability window
    stays below the relative tolerance, or at the epoch cap. Deterministic
    given the seed.
    """
    if schedule is None:
        schedule = Schedule()
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    if dynamics == "async" and isinstance(problem, BmProblem):
        if initial_states is None:
            initial_states = np.zeros(problem.n_sites, dtype=np.int64)
        config = BmConfig(problem, initial_states)
    elif dynamics == "swap" and isinstance(problem, QuadraticBm):
        if initial_states is None:
            raise ValidationError("swap dynamics needs an initial configuration")
        config = QuadraticConfig(problem, initial_states)
    elif dynamics in ("async", "swap"):
        raise ValidationError(f"{dynamics} dynamics cannot anneal a {type(problem).__name__}")
    else:
        raise ValidationError(f"unknown dynamics {dynamics!r}")
    n = problem.n_sites
    window = schedule.stability_window if schedule.stability_window else n
    best_states = config.states.copy()
    best_energy = config.energy
    epoch_energies: list[float] = []
    trace: list[tuple[int, float, float, int]] | None = [] if record_steps else None
    # per-epoch (min E, max E); each epoch covers n update events
    spans: list[tuple[float, float]] = []
    t = 0
    stopped = "epoch_cap"
    for epoch in range(schedule.epoch_cap):
        emin = emax = config.energy
        sites = rng.permutation(n) if dynamics == "async" else None
        for s in range(n):
            temp = schedule.temperature(t)
            if dynamics == "async":
                changed = step_async(config, int(sites[s]), temp, rng)
            else:
                changed = step_swap(config, temp, rng)
            t += 1
            if trace is not None:
                trace.append((t, temp, config.energy, int(changed)))
            emin = min(emin, config.energy)
            emax = max(emax, config.energy)
            if config.energy < best_energy - 1e-15:
                best_energy = config.energy
                best_states = config.states.copy()
        config.resync_energy()
        epoch_energies.append(config.energy)
        spans.append((emin, emax))
        covered, lo, hi = 0, math.inf, -math.inf
        for mn, mx in reversed(spans):
            covered += n
            lo = min(lo, mn)
            hi = max(hi, mx)
            if covered >= window:
                break
        if covered >= window and hi - lo <= schedule.stability_tol * max(
            1.0, abs(config.energy)
        ):
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
        step_trace=trace,
    )


def write_trace_csv(result: AnnealResult, path) -> None:
    """Per-step trace: step,temperature,energy,accepted."""
    if result.step_trace is None:
        raise ValidationError("anneal() was run without record_steps=True")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "temperature", "energy", "accepted"])
        writer.writerows(result.step_trace)
