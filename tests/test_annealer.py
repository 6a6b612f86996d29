import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from colony_track import io, registration
from colony_track.annealer import (
    QuadraticBm,
    QuadraticConfig,
    RegistrationBm,
    RegistrationConfig,
    Schedule,
    anneal,
    step_async,
    step_swap,
)
from colony_track.errors import ValidationError
from colony_track.registration import RegistrationWeights, build_problem

from conftest import make_cell, make_frame, random_cells, small_registration_problem

# Weights that put registration energies on the unit scale the schedules
# below were chosen for.
UNIT_WEIGHTS = RegistrationWeights(1.1, 3.0, 3.0, 2.9)


def random_registration(rng, n_sites=6, weights=UNIT_WEIGHTS):
    """A random frame against its jittered copy; the windows overlap, so
    random states collide."""
    return small_registration_problem(
        seed=int(rng.integers(2**31)), n=n_sites, w=60.0, shift=8.0, weights=weights
    )


def random_problem(rng, n_sites=6, weights=UNIT_WEIGHTS):
    """Compiled registration energy of :func:`random_registration`."""
    return random_registration(rng, n_sites, weights).to_bm()


def compiled_inputs(problem):
    """The arguments ``to_bm`` passes to ``RegistrationBm``: offsets, targets,
    match, sites, weights and coef, then the clique tables as a list."""
    got = []

    def capture(*args, coef, tables):
        got.extend([*args, coef, list(tables)])

    with mock.patch.object(registration, "RegistrationBm", capture):
        problem.to_bm()
    return got


def one_cell_problem():
    """One source cell with two candidates: state 1 is strictly better."""
    src = make_frame([make_cell("a", (0, 0), length=20.0)])
    dst = make_frame(
        [
            make_cell("t1", (9, 2), angle=0.5, length=24.0),
            make_cell("t2", (2, 1), angle=0.05, length=21.0),
        ],
        index=1,
    )
    bm = build_problem(src, dst, w=60.0, rho=80.0, g_rate=1.05).to_bm()
    assert bm.sizes.tolist() == [2] and bm.energy(np.array([1])) < bm.energy(np.array([0]))
    return bm


def random_quadratic(rng, m=8, n_cells=6):
    """v >= 0 over ``m`` distinct two-cell candidates, lambda as in the
    children BM."""
    v = rng.uniform(0, 3, size=m)
    return QuadraticBm(v, random_cells(rng, m, n_cells), 10.0 * max(v.max(), 1.0))


def dense_q(cells):
    """Oracle conflict matrix: Q_jk = 1 when distinct sites j and k share a cell."""
    m = len(cells)
    q = np.zeros((m, m), dtype=np.int64)
    for j, k in itertools.permutations(range(m), 2):
        q[j, k] = bool(set(cells[j]) & set(cells[k]))
    return q


def quadratic_energy(problem, states):
    """Independent oracle: v.z + lambda z^T Q z over the dense Q, the
    quadratic form an exact integer."""
    z = np.asarray(states, dtype=np.int64)
    quad = int(z @ dense_q(problem.cells) @ z)
    return float(problem.v[np.flatnonzero(z)].sum() + problem.lambda_q * quad)


def oracle_swap_delta(problem, states, j, k):
    """The swap delta through the dense local field h = Q z."""
    q = dense_q(problem.cells)
    h = q @ np.asarray(states, dtype=np.int64)
    return float(problem.v[k] - problem.v[j]) + 2.0 * problem.lambda_q * float(
        h[k] - h[j] - q[j, k]
    )


def derived_field(config):
    """h = Q z from the chain's per-cell counts: a site's two cells' counts,
    less the site itself when selected."""
    return np.asarray(config.g)[config.problem.cells].sum(axis=1) - 2 * config.states


def brute_force_min(problem):
    best, best_states = math.inf, None
    for states in itertools.product(*[range(size) for size in problem.sizes]):
        e = problem.energy(np.array(states))
        if e < best:
            best, best_states = e, states
    return best, best_states


# -- construction and bookkeeping -------------------------------------------


def test_config_validation():
    problem = random_problem(np.random.default_rng(0))
    with pytest.raises(ValidationError):
        RegistrationConfig(problem, np.zeros(problem.n_sites + 1, dtype=np.int64))
    states = np.zeros(problem.n_sites, dtype=np.int64)
    states[0] = problem.sizes[0]
    with pytest.raises(ValidationError):
        RegistrationConfig(problem, states)


@given(st.integers(0, 400))
def test_delta_vector_matches_full_recompute(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    states = np.array([rng.integers(size) for size in problem.sizes])
    config = RegistrationConfig(problem, states)
    site = int(rng.integers(problem.n_sites))
    deltas = config.delta_vector(site)
    for cand in range(problem.sizes[site]):
        other = states.copy()
        other[site] = cand
        assert deltas[cand] == pytest.approx(
            problem.energy(other) - problem.energy(states), abs=1e-9
        )


@given(st.integers(0, 300))
def test_energy_bookkeeping_over_moves(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    config = RegistrationConfig(problem, np.zeros(problem.n_sites, dtype=np.int64))
    for _ in range(30):
        site = int(rng.integers(problem.n_sites))
        cand = int(rng.integers(problem.sizes[site]))
        deltas = config.delta_vector(site)
        config.apply(site, cand, float(deltas[cand]))
        assert config.energy == pytest.approx(problem.energy(config.states), abs=1e-9)


def assert_occupancy_exact(config):
    """The chain's per-target occupancy counts are those of its states."""
    problem = config.problem
    tokens = problem.targets[problem.offsets[:-1] + config.states]
    assert np.array_equal(config._occ, np.bincount(tokens, minlength=len(config._occ)))


def assert_deltas_exact(config):
    """delta_vector at every site equals the full energy differences."""
    problem = config.problem
    base = problem.energy(config.states)
    for site in range(problem.n_sites):
        deltas = config.delta_vector(site)
        for cand in range(problem.sizes[site]):
            other = config.states.copy()
            other[site] = cand
            assert deltas[cand] == pytest.approx(problem.energy(other) - base, abs=1e-9)


def assert_field_exact(config):
    """The swap chain's local field is Q z and its energy the full one."""
    problem = config.problem
    assert np.array_equal(derived_field(config), dense_q(problem.cells) @ config.states)
    assert config.energy == pytest.approx(quadratic_energy(problem, config.states), abs=1e-9)


@given(st.integers(0, 200))
def test_joint_moves_keep_collision_occupancy_exact(seed):
    # single-site moves keep the collision occupancy counts exact; swaps,
    # the one joint (two-site) move, keep the local field exact
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    config = RegistrationConfig(problem, np.zeros(problem.n_sites, dtype=np.int64))
    for _ in range(5):
        for site in rng.permutation(problem.n_sites):
            step_async(config, int(site), temp=5.0, rng=rng)
        assert_occupancy_exact(config)
        assert_deltas_exact(config)
    binary = random_quadratic(rng)
    config = QuadraticConfig(binary, (rng.random(8) < 0.5).astype(np.int64))
    for _ in range(5):
        step_swap(config, temp=5.0, rng=rng)
        assert_field_exact(config)


INCIDENCE = ("ptr", "inc_base", "inc_stride", "inc_other", "inc_other_stride", "inc_weight",
             "clique_rows", "clique_sites")


@given(st.integers(0, 300))
def test_all_zero_tables_change_nothing(seed):
    rng = np.random.default_rng(seed)
    offsets, targets, match, sites, weights, coef, tables = compiled_inputs(
        random_registration(rng, n_sites=7)
    )
    sizes = np.diff(offsets)
    movable = np.flatnonzero(sizes >= 2)
    assume(len(movable) >= 3)
    # a zero triplet over sites that can all move, and a zero pair with
    # padding, each put at a random place in the clique order
    triplet = rng.choice(movable, 3, replace=False)
    pair = rng.choice(len(sizes), 2, replace=False)
    more_sites, more_weights, more_tables = list(sites), list(weights), list(tables)
    for clique in (triplet, pair):
        at = int(rng.integers(len(more_tables) + 1))
        more_sites.insert(at, [*clique, -1][:3])
        more_weights.insert(at, float(rng.uniform(0.1, 5.0)))
        more_tables.insert(at, np.zeros(sizes[clique], dtype=bool))
    base = RegistrationBm(offsets, targets, match, sites, weights, coef, tables)
    more = RegistrationBm(offsets, targets, match, more_sites, more_weights, coef, more_tables)
    packed = [np.packbits(t.ravel(), bitorder="little").tobytes() for t in tables]
    assert base.bits.tobytes() == b"".join(b for b, t in zip(packed, tables) if t.any())
    assert more.bits.tobytes() == base.bits.tobytes()
    for name in INCIDENCE:
        assert getattr(more, name).tobytes() == getattr(base, name).tobytes(), name
    for _ in range(4):
        states = np.array([rng.integers(size) for size in sizes])
        assert np.float64(more.energy(states)).tobytes() == np.float64(base.energy(states)).tobytes()
        a, b = RegistrationConfig(base, states), RegistrationConfig(more, states)
        for site in range(base.n_sites):
            assert b.delta_vector(site).tobytes() == a.delta_vector(site).tobytes()
    # a table whose only 1 lies past its first packed byte is compiled
    big = movable[np.argsort(sizes[movable])[-3:]]
    assume(np.prod(sizes[big]) > 8)
    late = np.zeros(sizes[big], dtype=bool)
    late[-1, -1, -1] = True
    one = RegistrationBm(offsets, targets, match, [*sites, big], [*weights, 1.0], coef,
                         [*tables, late])
    tail = np.packbits(late.ravel(), bitorder="little").tobytes()
    assert one.bits.tobytes() == base.bits.tobytes() + tail
    assert len(one.clique_rows) == len(base.clique_rows) + 1


def test_machine_of_zero_tables_builds_and_anneals():
    rng = np.random.default_rng(3)
    offsets, targets, match, sites, weights, coef, tables = compiled_inputs(
        random_registration(rng, n_sites=7)
    )
    assert any(t.any() for t in tables)
    zero = RegistrationBm(offsets, targets, match, sites, weights, coef,
                          [np.zeros_like(t) for t in tables])
    bare = RegistrationBm(offsets, targets, match, np.empty((0, 3)), [], coef, [])
    assert zero.bits.size == 0 and zero.clique_rows.size == 0
    assert zero.ptr.tolist() == [0] * (zero.n_sites + 1)
    for name in INCIDENCE:
        assert getattr(zero, name).tobytes() == getattr(bare, name).tobytes(), name
    sched = Schedule(c=4.0, eta=0.995, epoch_cap=30)
    a = anneal(zero, "async", sched, start(zero), rng_seed=5)
    b = anneal(bare, "async", sched, start(bare), rng_seed=5)
    assert chain(a) == chain(b) and a.n_epochs >= 1
    assert a.best_energy == pytest.approx(zero.energy(a.best_states), abs=1e-9)
    # one table too few or too many
    with pytest.raises(ValidationError, match=f"{len(tables) - 1} clique tables for {len(tables)}"):
        RegistrationBm(offsets, targets, match, sites, weights, coef, tables[:-1])
    with pytest.raises(ValidationError, match=f"{len(tables) + 1} clique tables for {len(tables)}"):
        RegistrationBm(offsets, targets, match, sites, weights, coef, tables + tables[:1])
    # a table a byte longer than its sites' candidates make
    longer = [np.ones(tables[0].size + 8, dtype=bool)] + tables[1:]
    with pytest.raises(ValidationError, match="sizes do not match"):
        RegistrationBm(offsets, targets, match, sites, weights, coef, longer)


@given(st.integers(0, 400))
def test_swap_delta_matches_full_recompute(seed):
    rng = np.random.default_rng(seed)
    problem = random_quadratic(rng, m=int(rng.integers(2, 10)))
    states = (rng.random(problem.n_sites) < 0.5).astype(np.int64)
    config = QuadraticConfig(problem, states)
    for j in np.flatnonzero(states == 1):
        for k in np.flatnonzero(states == 0):
            other = states.copy()
            other[j], other[k] = 0, 1
            assert config.swap_delta(int(j), int(k)) == pytest.approx(
                quadratic_energy(problem, other) - quadratic_energy(problem, states), abs=1e-9
            )


@given(st.integers(0, 10**6))
def test_cell_count_energy_equals_dense_oracle(seed):
    # random sets of distinct two-cell candidates: the energy, every swap
    # delta and the field derived from the counts equal the dense Q forms
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(2, 9))
    m = int(rng.integers(1, n_cells * (n_cells - 1) // 2 + 1))
    problem = random_quadratic(rng, m=m, n_cells=n_cells)
    states = (rng.random(m) < 0.5).astype(np.int64)
    config = QuadraticConfig(problem, states)
    assert problem.energy(states) == quadratic_energy(problem, states)
    assert config.energy == quadratic_energy(problem, states)
    assert np.array_equal(derived_field(config), dense_q(problem.cells) @ states)
    for j in np.flatnonzero(states == 1):
        for k in np.flatnonzero(states == 0):
            assert config.swap_delta(int(j), int(k)) == oracle_swap_delta(problem, states, j, k)


def test_quadratic_bm_rejects_bad_cells():
    for cells in ([[0, 1]], [[0, 1], [1, 1]], [[0, 1, 2], [1, 2, 3]]):
        with pytest.raises(ValidationError):
            QuadraticBm(np.zeros(2), np.array(cells), 1.0)


def test_swap_then_reverse_restores_energy():
    rng = np.random.default_rng(0)
    problem = random_quadratic(rng, n_cells=5)
    config = QuadraticConfig(problem, [1, 1, 0, 0, 1, 0, 0, 0])
    e0, g0 = config.energy, list(config.g)
    config.swap(0, 2, config.swap_delta(0, 2))
    config.swap(2, 0, config.swap_delta(2, 0))
    assert config.energy == pytest.approx(e0, abs=1e-12)
    assert config.states.tolist() == [1, 1, 0, 0, 1, 0, 0, 0]
    assert config.g == g0


# -- acceptance rule ---------------------------------------------------------


def test_improving_moves_always_accepted():
    problem = one_cell_problem()
    rng = np.random.default_rng(0)
    for _ in range(50):
        config = RegistrationConfig(problem, [0])
        assert step_async(config, 0, temp=1e-12, rng=rng)
        assert config.states[0] == 1


def test_high_temperature_accepts_uphill():
    problem = one_cell_problem()
    rng = np.random.default_rng(1)
    accepted = sum(
        step_async(RegistrationConfig(problem, [1]), 0, temp=1e9, rng=rng) for _ in range(500)
    )
    assert accepted >= 495  # p = exp(-delta/1e9) ~ 1


def test_zero_temperature_rejects_uphill():
    problem = one_cell_problem()
    rng = np.random.default_rng(2)
    accepted = sum(
        step_async(RegistrationConfig(problem, [1]), 0, temp=0.0, rng=rng) for _ in range(200)
    )
    assert accepted == 0


def test_one_candidate_site_is_not_priced(monkeypatch):
    # site 0 has one candidate, site 1 two; one stab table over them
    bm = RegistrationBm([0, 1, 3], [0, 0, 1], [0.5, 0.2, 0.1], [[0, 1, -1]], [2.0], 1.0,
                        [np.array([[False, True]])])
    config = RegistrationConfig(bm, [0, 1])
    rng = np.random.default_rng(4)
    states, energy, drawn = config.states.copy(), config.energy, rng.bit_generator.state

    def priced(site):
        raise AssertionError(f"site {site} was priced")

    monkeypatch.setattr(config, "delta_vector", priced)
    assert step_async(config, 0, temp=5.0, rng=rng) is False
    assert config.states.tolist() == states.tolist() and config.energy == energy
    assert rng.bit_generator.state == drawn
    with pytest.raises(AssertionError, match="site 1 was priced"):
        step_async(config, 1, temp=5.0, rng=rng)


def test_acceptance_monotone_in_temperature():
    # with the same uniform draw, acceptance at a lower temperature implies
    # acceptance at any higher temperature
    from colony_track.annealer import _accept

    for seed in range(200):
        d = float(np.random.default_rng(seed).uniform(0, 10))
        cold = _accept(d, 0.5, np.random.default_rng(123))
        hot = _accept(d, 5.0, np.random.default_rng(123))
        assert hot or not cold


# -- dynamics ----------------------------------------------------------------


def test_async_reaches_exhaustive_optimum():
    hits = tried = 0
    for seed in itertools.count():
        if tried == 100:
            break
        problem = random_problem(np.random.default_rng(seed + 1000))
        if not 64 <= np.prod(problem.sizes) <= 729:
            continue  # too few states to test anything, or too many to enumerate
        tried += 1
        best, _ = brute_force_min(problem)
        result = anneal(
            problem,
            dynamics="async",
            schedule=Schedule(c=5.0, eta=0.995, epoch_cap=300),
            initial_states=start(problem),
            rng_seed=seed,
        )
        if result.best_energy <= best + 1e-9:
            hits += 1
    assert hits >= 95


def test_swap_matches_exhaustive_subset_minimum():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 2000)
        m, div = 10, 3
        v = rng.uniform(0, 3, size=m)
        lam_q = 10.0 * v.max()
        # over 12 cells, about 0.3 of the candidate pairs conflict
        problem = QuadraticBm(v, random_cells(rng, m, 12), lam_q)
        best = min(
            quadratic_energy(problem, [1 if i in comb else 0 for i in range(m)])
            for comb in itertools.combinations(range(m), div)
        )
        init = np.zeros(m, dtype=np.int64)
        init[:div] = 1
        result = anneal(
            problem,
            dynamics="swap",
            schedule=Schedule.children_default(),
            rng_seed=seed,
            initial_states=init,
        )
        if result.best_energy <= best + 1e-9:
            hits += 1
    assert hits >= 95


@given(st.integers(0, 200))
def test_swap_conserves_cardinality(seed):
    rng = np.random.default_rng(seed)
    problem = random_quadratic(rng, m=10)
    states = (rng.random(10) < 0.4).astype(np.int64)
    config = QuadraticConfig(problem, states)
    weight = int(states.sum())
    for _ in range(40):
        step_swap(config, temp=2.0, rng=rng)
        assert int(config.states.sum()) == weight


def test_swap_noop_when_all_selected():
    problem = QuadraticBm(np.ones(3), np.array([[0, 1], [1, 2], [0, 2]]), 1.0)
    config = QuadraticConfig(problem, [1, 1, 1])
    rng = np.random.default_rng(0)
    assert not step_swap(config, 1.0, rng)
    assert config.states.tolist() == [1, 1, 1]


def test_bookkeeping_consistency_during_anneal():
    rng = np.random.default_rng(5)
    problem = random_problem(rng, n_sites=8)
    sched = Schedule(c=3.0, eta=0.995, epoch_cap=40)
    result = anneal(problem, "async", sched, start(problem), rng_seed=8)
    assert result.final_energy == pytest.approx(problem.energy(result.final_states), abs=1e-9)
    assert result.best_energy == pytest.approx(problem.energy(result.best_states), abs=1e-9)


# -- anneal driver -----------------------------------------------------------


def test_constant_energy_stops_after_one_window():
    rng = np.random.default_rng(0)
    problem = random_problem(rng, n_sites=4, weights=RegistrationWeights(0.0, 0.0, 0.0, 0.0))
    sched = Schedule(c=1.0, eta=0.995, epoch_cap=100)
    result = anneal(problem, "async", sched, start(problem), rng_seed=0)
    assert result.stopped == "stable"
    assert result.n_epochs == 1
    assert result.best_energy == 0.0
    assert result.best_states.tolist() == [0, 0, 0, 0]


def start(problem):
    """The all-zero configuration: every site at its first candidate."""
    return np.zeros(problem.n_sites, dtype=np.int64)


def chain(result):
    """What a chain did: its epoch energies, best states and step count."""
    return result.epoch_energies, result.best_states.tolist(), result.n_steps


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(9)
    problem = random_problem(rng, n_sites=7)
    sched = Schedule(c=4.0, eta=0.995, epoch_cap=30)
    a = anneal(problem, "async", sched, start(problem), rng_seed=77)
    b = anneal(problem, "async", sched, start(problem), rng_seed=77)
    assert chain(a) == chain(b)
    c = anneal(problem, "async", sched, start(problem), rng_seed=78)
    assert chain(a) != chain(c)


def test_schedule_defaults_and_validation():
    reg = Schedule.registration_default()
    assert reg.c == 50.0 and 0.995 <= reg.eta <= 0.999
    kids = Schedule.children_default()
    assert kids.c == 1000.0 and kids.eta == 0.995 and kids.epoch_cap == 5000
    assert kids.temperature(0) == 1000.0
    assert kids.temperature(10) == pytest.approx(1000.0 * 0.995**10)
    with pytest.raises(ValidationError):
        Schedule(c=-1.0, eta=0.995, epoch_cap=30)
    with pytest.raises(ValidationError):
        Schedule(c=5.0, eta=1.5, epoch_cap=30)
    # any eta in (0, 1) builds without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in (0.99, 0.5):
            assert Schedule(c=5.0, eta=eta, epoch_cap=30).eta == eta
    # no third schedule: one given without a stage default names every field
    with pytest.raises(TypeError):
        Schedule()
    with pytest.raises(ValidationError, match="epoch_cap"):
        io.from_json(Schedule, {"c": 10.0, "eta": 0.995}, "schedule")
    with pytest.raises(ValidationError):
        io.from_json(Schedule, {"c": 10.0, "bogus": 1}, "schedule")
    # the stop rule's window is one epoch and its tolerance a module constant
    for removed in ("stability_window", "stability_tol"):
        with pytest.raises(ValidationError, match=removed):
            io.from_json(Schedule, {removed: 5}, "schedule")


def test_swap_requires_binary_spaces_and_initial():
    registration, sched = one_cell_problem(), Schedule.registration_default()
    with pytest.raises(ValidationError):
        anneal(registration, "swap", sched, rng_seed=0, initial_states=[0])
    quadratic = QuadraticBm(np.zeros(2), np.array([[0, 1], [2, 3]]), 1.0)
    with pytest.raises(TypeError, match="initial_states"):
        anneal(quadratic, "swap", sched, rng_seed=0)
    with pytest.raises(ValidationError):
        anneal(quadratic, "swap", sched, rng_seed=0, initial_states=[2, 0])
    with pytest.raises(ValidationError):
        anneal(quadratic, "async", sched, [0, 0], rng_seed=0)


def test_anneal_rejects_unknown_dynamics():
    problem = one_cell_problem()
    with pytest.raises(ValidationError):
        anneal(problem, "sync", Schedule.registration_default(), [0], rng_seed=0)

