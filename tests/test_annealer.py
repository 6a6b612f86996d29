import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from colony_track.annealer import (
    AnnealResult,
    BmConfig,
    BmProblem,
    Clique,
    CollisionGroup,
    QuadraticBm,
    QuadraticConfig,
    Schedule,
    anneal,
    step_async,
    step_swap,
    write_trace_csv,
)
from colony_track.errors import ValidationError


def random_problem(rng, n_sites=6, max_states=4, n_cliques=10, with_collisions=True):
    sizes = [int(rng.integers(2, max_states + 1)) for _ in range(n_sites)]
    cliques = []
    for _ in range(n_cliques):
        k = int(rng.integers(1, 4))
        sites = tuple(int(s) for s in rng.choice(n_sites, size=k, replace=False))
        table = rng.normal(size=tuple(sizes[s] for s in sites))
        cliques.append(Clique(sites, table, weight=float(rng.uniform(0.2, 2.0))))
    collision = None
    if with_collisions:
        targets = tuple(
            rng.integers(0, 5, size=sizes[s]).astype(np.int64) for s in range(n_sites)
        )
        collision = CollisionGroup(coef=float(rng.uniform(0.1, 1.0)), targets=targets)
    return BmProblem(sizes, cliques, collision)


def random_quadratic(rng, m=8, density=0.3):
    """v >= 0, a symmetric 0/1 uint8 Q with zero diagonal, lambda as in the
    children BM."""
    v = rng.uniform(0, 3, size=m)
    upper = np.triu(rng.random((m, m)) < density, k=1)
    q = (upper | upper.T).astype(np.uint8)
    return QuadraticBm(v, q, 10.0 * max(v.max(), 1.0))


def quadratic_energy(problem, states):
    """Independent oracle: v.z + lambda z^T Q z in float64."""
    z = np.asarray(states, dtype=np.float64)
    return float(problem.v @ z + problem.lambda_q * (z @ problem.q.astype(np.float64) @ z))


def brute_force_min(problem):
    best, best_states = math.inf, None
    for states in itertools.product(*[range(size) for size in problem.sizes]):
        e = problem.energy(np.array(states))
        if e < best:
            best, best_states = e, states
    return best, best_states


# -- construction and bookkeeping -------------------------------------------


def test_problem_validation():
    with pytest.raises(ValidationError):
        BmProblem([2], [Clique((0,), np.zeros((3,)))])  # wrong table size
    with pytest.raises(ValidationError):
        BmProblem([2], [Clique((1,), np.zeros(2))])  # unknown site
    with pytest.raises(ValidationError):
        Clique((0, 0), np.zeros((2, 2)))  # duplicate sites
    with pytest.raises(ValidationError):
        Clique((0,), np.array([np.nan, 0.0]))


@given(st.integers(0, 400))
def test_delta_vector_matches_full_recompute(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    states = np.array([rng.integers(size) for size in problem.sizes])
    config = BmConfig(problem, states)
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
    config = BmConfig(problem, np.zeros(problem.n_sites, dtype=np.int64))
    for _ in range(30):
        site = int(rng.integers(problem.n_sites))
        cand = int(rng.integers(problem.sizes[site]))
        deltas = config.delta_vector(site)
        config.apply(site, cand, float(deltas[cand]))
        assert config.energy == pytest.approx(problem.energy(config.states), abs=1e-9)


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
    assert np.array_equal(config.h, problem.q.astype(np.int64) @ config.states)
    assert config.energy == pytest.approx(quadratic_energy(problem, config.states), abs=1e-9)


@given(st.integers(0, 200))
def test_joint_moves_keep_collision_occupancy_exact(seed):
    # single-site moves keep the collision occupancy counts exact; swaps,
    # the one joint (two-site) move, keep the local field exact
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    config = BmConfig(problem, np.zeros(problem.n_sites, dtype=np.int64))
    for _ in range(5):
        for site in rng.permutation(problem.n_sites):
            step_async(config, int(site), temp=5.0, rng=rng)
        assert_deltas_exact(config)
    binary = random_quadratic(rng)
    config = QuadraticConfig(binary, (rng.random(8) < 0.5).astype(np.int64))
    for _ in range(5):
        step_swap(config, temp=5.0, rng=rng)
        assert_field_exact(config)


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


def test_negative_collision_token_rejected():
    with pytest.raises(ValidationError):
        CollisionGroup(coef=1.0, targets=(np.array([0, -1]),))


def test_swap_then_reverse_restores_energy():
    rng = np.random.default_rng(0)
    problem = random_quadratic(rng, density=0.5)
    config = QuadraticConfig(problem, [1, 1, 0, 0, 1, 0, 0, 0])
    e0, h0 = config.energy, config.h.copy()
    config.swap(0, 2, config.swap_delta(0, 2))
    config.swap(2, 0, config.swap_delta(2, 0))
    assert config.energy == pytest.approx(e0, abs=1e-12)
    assert config.states.tolist() == [1, 1, 0, 0, 1, 0, 0, 0]
    assert np.array_equal(config.h, h0)


# -- acceptance rule ---------------------------------------------------------


def test_improving_moves_always_accepted():
    # a two-state single-site problem where state 1 is strictly better
    problem = BmProblem([2], [Clique((0,), np.array([1.0, 0.0]))])
    rng = np.random.default_rng(0)
    for _ in range(50):
        config = BmConfig(problem, [0])
        assert step_async(config, 0, temp=1e-12, rng=rng)
        assert config.states[0] == 1


def test_high_temperature_accepts_uphill():
    problem = BmProblem([2], [Clique((0,), np.array([0.0, 5.0]))])
    rng = np.random.default_rng(1)
    accepted = sum(
        step_async(BmConfig(problem, [0]), 0, temp=1e9, rng=rng) for _ in range(500)
    )
    assert accepted >= 495  # p = exp(-5/1e9) ~ 1


def test_zero_temperature_rejects_uphill():
    problem = BmProblem([2], [Clique((0,), np.array([0.0, 5.0]))])
    rng = np.random.default_rng(2)
    accepted = sum(
        step_async(BmConfig(problem, [0]), 0, temp=0.0, rng=rng) for _ in range(200)
    )
    assert accepted == 0


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
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 1000)
        problem = random_problem(rng, n_sites=6, max_states=3, n_cliques=8)
        best, _ = brute_force_min(problem)
        result = anneal(
            problem,
            dynamics="async",
            schedule=Schedule(c=5.0, eta=0.995, epoch_cap=300),
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
        q = np.zeros((m, m))
        for j in range(m):
            for k in range(j + 1, m):
                if rng.random() < 0.3:
                    q[j, k] = q[k, j] = 1.0
        lam_q = 10.0 * v.max()
        problem = QuadraticBm(v, q, lam_q)
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
    problem = QuadraticBm(np.ones(3), np.zeros((3, 3), dtype=np.uint8), 1.0)
    config = QuadraticConfig(problem, [1, 1, 1])
    rng = np.random.default_rng(0)
    assert not step_swap(config, 1.0, rng)
    assert config.states.tolist() == [1, 1, 1]


def test_bookkeeping_consistency_during_anneal():
    rng = np.random.default_rng(5)
    problem = random_problem(rng, n_sites=8, n_cliques=12)
    result = anneal(problem, "async", Schedule(c=3.0, eta=0.995, epoch_cap=40), rng_seed=8)
    assert result.final_energy == pytest.approx(problem.energy(result.final_states), abs=1e-9)
    assert result.best_energy == pytest.approx(problem.energy(result.best_states), abs=1e-9)


# -- anneal driver -----------------------------------------------------------


def test_constant_energy_stops_after_one_window():
    problem = BmProblem(
        [2] * 4, [Clique((j,), np.zeros(2)) for j in range(4)]
    )
    result = anneal(problem, "async", Schedule(c=1.0, eta=0.995, epoch_cap=100), rng_seed=0)
    assert result.stopped == "stable"
    assert result.n_epochs == 1
    assert result.best_energy == 0.0
    assert result.best_states.tolist() == [0, 0, 0, 0]


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(9)
    problem = random_problem(rng, n_sites=7, n_cliques=10)
    sched = Schedule(c=4.0, eta=0.995, epoch_cap=30)
    a = anneal(problem, "async", sched, rng_seed=77, record_steps=True)
    b = anneal(problem, "async", sched, rng_seed=77, record_steps=True)
    assert a.step_trace == b.step_trace
    assert a.best_states.tolist() == b.best_states.tolist()
    c = anneal(problem, "async", sched, rng_seed=78, record_steps=True)
    assert a.step_trace != c.step_trace


def test_schedule_defaults_and_validation():
    reg = Schedule.registration_default()
    assert reg.c == 50.0 and 0.995 <= reg.eta <= 0.999
    kids = Schedule.children_default()
    assert kids.c == 1000.0 and kids.eta == 0.995 and kids.epoch_cap == 5000
    assert kids.temperature(0) == 1000.0
    assert kids.temperature(10) == pytest.approx(1000.0 * 0.995**10)
    with pytest.raises(ValidationError):
        Schedule(c=-1.0)
    with pytest.raises(ValidationError):
        Schedule(eta=1.5)
    with pytest.warns(UserWarning):
        Schedule(eta=0.5)
    with pytest.raises(ValidationError):
        Schedule.from_dict({"c": 10.0, "bogus": 1})


def test_swap_requires_binary_spaces_and_initial():
    cliques = BmProblem([2], [Clique((0,), np.zeros(2))])
    with pytest.raises(ValidationError):
        anneal(cliques, "swap", rng_seed=0, initial_states=[0])
    quadratic = QuadraticBm(np.zeros(2), np.zeros((2, 2), dtype=np.uint8), 1.0)
    with pytest.raises(ValidationError):
        anneal(quadratic, "swap", rng_seed=0)
    with pytest.raises(ValidationError):
        anneal(quadratic, "swap", rng_seed=0, initial_states=[2, 0])
    with pytest.raises(ValidationError):
        anneal(quadratic, "async", rng_seed=0)


def test_anneal_rejects_unknown_dynamics():
    problem = BmProblem([2], [Clique((0,), np.zeros(2))])
    with pytest.raises(ValidationError):
        anneal(problem, "sync", rng_seed=0)


def test_trace_csv_roundtrip(tmp_path):
    problem = BmProblem([2] * 3, [Clique((j,), np.array([0.0, 1.0])) for j in range(3)])
    result = anneal(
        problem, "async", Schedule(c=1.0, eta=0.995, epoch_cap=5), rng_seed=0,
        record_steps=True,
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,temperature,energy,accepted"
    assert len(lines) == result.n_steps + 1
