"""Boltzmann-machine annealing over finite product configuration spaces.

The energy is a sum of small-clique terms plus one optional collision term:

    E(z) = sum_K weight_K * table_K[z restricted to K]
         + coef * #{unordered site pairs mapped to the same target}

Site i takes one of ``sizes[i]`` candidate positions. Clique tables are dense
numpy arrays indexed by those positions, so a single-site update touches only
the cliques containing that site. The collision term expresses pairwise
equality penalties (one clique per pair of sites) through per-target
occupancy counts, which keeps its evaluation exact while avoiding a quadratic
clique list.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ValidationError, check_fields

Dynamics = Literal["async", "sync", "swap"]


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

    def commit(self, moves: Sequence[tuple[int, int]], delta: float) -> None:
        """Set every ``(site, state)`` of ``moves`` at once; ``delta`` is the
        energy change of the joint move."""
        grp = self.problem.collision
        for site, new_state in moves:
            if grp is not None:
                self._occ[grp.targets[site][self.states[site]]] -= 1
                self._occ[grp.targets[site][new_state]] += 1
            self.states[site] = new_state
        self.energy += delta

    def apply(self, site: int, new_state: int, delta: float) -> None:
        if new_state != self.states[site]:
            self.commit([(site, new_state)], delta)

    def resync_energy(self) -> None:
        """Replace the accumulated energy by a full recomputation."""
        self.energy = self.problem.energy(self.states)


@dataclass
class Schedule:
    """Geometric temperature schedule Temp(t) = c * eta**t over update steps.

    ``stability_window`` counts update events (single-site moves for the
    asynchronous and swap dynamics, parallel steps for the synchronous one);
    it defaults to the site count N, stopping once the energy stayed within
    the relative tolerance over the last N events.
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
        unknown = set(data) - keys - {"dynamics", "alpha"}
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


def _propose(config: BmConfig, site: int) -> tuple[int, float] | None:
    """Best alternative state for a site: the delta-minimizing candidate other
    than the current one. None when the site has a single candidate.

    The current state always has delta zero, so including it would make the
    acceptance test vacuous; proposing the best alternative keeps improving
    moves always accepted while uphill moves face exp(-delta/Temp).
    """
    deltas = config.delta_vector(site)
    if deltas.size < 2:
        return None
    cur = int(config.states[site])
    deltas[cur] = np.inf
    z = int(np.argmin(deltas))
    return z, float(deltas[z])


def step_async(config: BmConfig, site: int, temp: float, rng: np.random.Generator) -> bool:
    """Single-site update: propose the best alternative candidate, accept with
    probability exp(-max(0, delta)/Temp). Returns True when the configuration
    changed."""
    proposal = _propose(config, site)
    if proposal is None:
        return False
    z, d = proposal
    if _accept(max(0.0, d), temp, rng):
        config.apply(site, z, d)
        return True
    return False


def _joint_delta(config: BmConfig, moves: Sequence[tuple[int, int]]) -> float:
    """Energy change of setting every ``(site, state)`` of ``moves`` at once:
    the touched cliques in index order, then the full collision difference."""
    problem = config.problem
    old_states = config.states
    new_states = old_states.copy()
    for site, z in moves:
        new_states[site] = z
    touched = sorted({ci for site, _ in moves for ci in problem.site_cliques[site]})
    delta = 0.0
    for ci in touched:
        cl = problem.cliques[ci]
        delta += cl.weight * (
            float(cl.table[tuple(new_states[s] for s in cl.sites)])
            - float(cl.table[tuple(old_states[s] for s in cl.sites)])
        )
    if problem.collision is not None:
        delta += problem.collision_energy(new_states) - problem.collision_energy(
            old_states
        )
    return delta


def step_sync(
    config: BmConfig, temp: float, alpha: float, rng: np.random.Generator
) -> int:
    """Tag each site independently with probability alpha; tagged sites run the
    single-site update against the frozen configuration and commit jointly.
    Returns the number of sites that changed."""
    if not (0.0 < alpha <= 1.0):
        raise ValidationError("synchrony parameter alpha must lie in (0, 1]")
    tags = rng.random(config.problem.n_sites) < alpha
    moves: list[tuple[int, int]] = []
    for site in np.flatnonzero(tags):
        proposal = _propose(config, int(site))
        if proposal is None:
            continue
        z, d = proposal
        if _accept(max(0.0, d), temp, rng):
            moves.append((int(site), z))
    if not moves:
        return 0
    config.commit(moves, _joint_delta(config, moves))
    return len(moves)


def step_swap(config: BmConfig, temp: float, rng: np.random.Generator) -> bool:
    """Cardinality-preserving update for binary problems: exchange a selected
    site with an unselected one. No-op when either side is empty."""
    ones = np.flatnonzero(config.states == 1)
    zeros = np.flatnonzero(config.states == 0)
    if len(ones) == 0 or len(zeros) == 0:
        return False
    j = int(ones[rng.integers(len(ones))])
    k = int(zeros[rng.integers(len(zeros))])
    moves = [(j, 0), (k, 1)]
    delta = _joint_delta(config, moves)
    if _accept(max(0.0, delta), temp, rng):
        config.commit(moves, delta)
        return True
    return False


def _require_binary(problem: BmProblem) -> None:
    if any(size != 2 for size in problem.sizes):
        raise ValidationError("swap dynamics requires two candidate states per site")


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
    problem: BmProblem,
    dynamics: Dynamics = "async",
    schedule: Schedule | None = None,
    rng_seed: int | np.random.Generator = 0,
    initial_states: Sequence[int] | None = None,
    alpha: float = 0.5,
    record_steps: bool = False,
) -> AnnealResult:
    """Run one annealing chain and return the best configuration seen.

    One epoch is N single-site updates (async), N swap attempts (swap), or one
    tagged parallel update (sync). The chain stops when the energy spread over
    the trailing stability window stays below the relative tolerance, or at
    the epoch cap. Deterministic given the seed.
    """
    if schedule is None:
        schedule = Schedule()
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    if initial_states is None:
        if dynamics == "swap":
            raise ValidationError("swap dynamics needs an initial configuration")
        initial_states = np.zeros(problem.n_sites, dtype=np.int64)
    if dynamics == "swap":
        _require_binary(problem)
    if dynamics not in ("async", "sync", "swap"):
        raise ValidationError(f"unknown dynamics {dynamics!r}")
    config = BmConfig(problem, initial_states)
    n = problem.n_sites
    window = schedule.stability_window if schedule.stability_window else n
    best_states = config.states.copy()
    best_energy = config.energy
    epoch_energies: list[float] = []
    trace: list[tuple[int, float, float, int]] | None = [] if record_steps else None
    # per-epoch records: (site-update opportunities, min E, max E)
    spans: list[tuple[int, float, float]] = []
    t = 0
    stopped = "epoch_cap"
    for epoch in range(schedule.epoch_cap):
        emin = emax = config.energy
        updates = 0
        if dynamics in ("async", "swap"):
            sites = rng.permutation(n) if dynamics == "async" else None
            for s in range(n):
                temp = schedule.temperature(t)
                if dynamics == "async":
                    changed = step_async(config, int(sites[s]), temp, rng)
                else:
                    changed = step_swap(config, temp, rng)
                t += 1
                updates += 1
                if trace is not None:
                    trace.append((t, temp, config.energy, int(changed)))
                emin = min(emin, config.energy)
                emax = max(emax, config.energy)
                if config.energy < best_energy - 1e-15:
                    best_energy = config.energy
                    best_states = config.states.copy()
        else:
            temp = schedule.temperature(t)
            changed = step_sync(config, temp, alpha, rng)
            t += 1
            updates = 1  # one parallel update event
            if trace is not None:
                trace.append((t, temp, config.energy, int(changed > 0)))
            emin = min(emin, config.energy)
            emax = max(emax, config.energy)
            if config.energy < best_energy - 1e-15:
                best_energy = config.energy
                best_states = config.states.copy()
        config.resync_energy()
        epoch_energies.append(config.energy)
        spans.append((updates, emin, emax))
        covered, lo, hi = 0, math.inf, -math.inf
        for cnt, mn, mx in reversed(spans):
            covered += cnt
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
