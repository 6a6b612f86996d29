import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colony_track.annealer import BmConfig, Schedule
from colony_track.errors import ValidationError
from colony_track.geometry import cross2
from colony_track.registration import (
    EmpiricalCdf,
    LIK_FLOOR,
    LikelihoodModel,
    RegistrationWeights,
    build_problem,
    fit_likelihood_model,
    initial_assignment,
    pair_penalties,
    register,
)

from conftest import (
    jittered_copy,
    make_cell,
    make_frame,
    random_frame,
    small_registration_problem as small_problem,
)


# -- penalties ----------------------------------------------------------------


def test_pair_penalties_ideal_growth():
    b = make_cell("b", (10, 10), angle=0.4, length=20.0)
    b_plus = make_cell("b+", (10, 10), angle=0.4, length=21.0)
    kin, dis, rot = pair_penalties(b, b_plus, g_rate=1.05)
    assert kin == pytest.approx(0.0)
    assert dis == pytest.approx(0.0, abs=1e-15)
    assert rot == pytest.approx(0.0, abs=1e-7)


def test_pair_penalties_orthogonal_axes():
    b = make_cell("b", (0, 0), angle=0.0)
    b_plus = make_cell("b+", (3, 4), angle=np.pi / 2)
    kin, dis, rot = pair_penalties(b, b_plus, g_rate=1.0)
    assert kin == pytest.approx(25.0)
    assert rot == pytest.approx(np.pi / 2)


@given(st.integers(0, 300))
def test_pair_penalties_match_formulas(seed):
    rng = np.random.default_rng(seed)
    b = make_cell("b", rng.uniform(0, 50, 2), angle=rng.uniform(0, np.pi), length=rng.uniform(10, 40))
    b2 = make_cell("c", rng.uniform(0, 50, 2), angle=rng.uniform(0, np.pi), length=rng.uniform(10, 40))
    g = float(rng.uniform(1.0, 1.4))
    kin, dis, rot = pair_penalties(b, b2, g)
    assert kin == pytest.approx(np.sum((b.center - b2.center) ** 2), rel=1e-12)
    assert dis == pytest.approx((math.log(b2.length / b.length) - math.log(g)) ** 2, rel=1e-12)
    cosang = abs(float(b.axis_dir @ b2.axis_dir))
    assert rot == pytest.approx(math.acos(min(1.0, cosang)), abs=1e-12)
    assert 0.0 <= rot <= np.pi / 2 + 1e-12


# -- empirical CDFs and likelihoods -------------------------------------------


def test_ecdf_order_statistics():
    rng = np.random.default_rng(1)
    samples = rng.uniform(0, 10, size=10)  # 2N for N=5
    cdf = EmpiricalCdf(samples)
    for k, x in enumerate(np.sort(samples), start=1):
        assert cdf(x) == pytest.approx(k / 10.0)
    assert cdf(-1.0) == 0.0
    assert cdf(11.0) == 1.0


@given(st.lists(st.floats(0, 100), min_size=1, max_size=40), st.floats(-10, 110), st.floats(0, 10))
def test_ecdf_monotone(samples, x, dx):
    cdf = EmpiricalCdf(samples)
    assert cdf(x) <= cdf(x + dx) + 1e-12


def test_likelihood_floor_and_tails():
    rng = np.random.default_rng(2)
    src = random_frame(rng, 6, span=90.0)
    dst = jittered_copy(src, rng)
    windows = [[c for c in dst.cells] for _ in src.cells]
    model = fit_likelihood_model(src, windows, g_rate=1.05)
    # below every sample: all three survival factors are 1
    good = make_cell("g", src.cells[0].center, angle=0.0, length=20.0)
    target = make_cell("t", good.center - 1e-9, angle=0.0, length=20.0 * 1.05)
    assert model.lik(good, target) <= 1.0
    # a hopeless candidate is floored at exactly the configured value
    far = make_cell("f", good.center + 500.0, angle=np.pi / 2, length=80.0)
    assert model.lik(good, far) == LIK_FLOOR


def test_fit_model_requires_windows():
    rng = np.random.default_rng(3)
    src = random_frame(rng, 3, span=60.0)
    with pytest.raises(ValidationError):
        fit_likelihood_model(src, [[]] * 3, g_rate=1.05)
    with pytest.raises(ValidationError):
        fit_likelihood_model(src, [[src.cells[0]]], g_rate=1.05)


def test_two_smallest_values_per_cell():
    rng = np.random.default_rng(4)
    src = random_frame(rng, 5, span=80.0)
    dst = jittered_copy(src, rng)
    windows = [list(dst.cells) for _ in src.cells]
    model = fit_likelihood_model(src, windows, g_rate=1.05)
    assert model.cdf_kin.samples.size == 2 * len(src)
    expected = []
    for b in src.cells:
        kins = sorted(float(((t.center - b.center) ** 2).sum()) for t in dst.cells)
        expected.extend(kins[:2])
    assert np.allclose(np.sort(expected), model.cdf_kin.samples)


# -- cost terms ---------------------------------------------------------------


def brute_force_terms(problem, assignment):
    """Literal ordered-sum recomputation of the four cost terms."""
    src = problem.source
    dst = problem.target
    n = len(src)
    a = np.asarray(assignment)
    match = -sum(
        math.log(problem.likelihood.lik(src.cells[i], dst.cells[a[i]])) for i in range(n)
    ) / n
    over = sum(
        1.0
        for i in range(n)
        for j in range(n)
        if i != j and a[i] == a[j]
    ) / n
    sg, tg = problem.source_graph, problem.target_graph
    deg = sg.degrees
    stab = sum(
        1.0 / (n * deg[i] * deg[j])
        for i in range(n)
        for j in range(n)
        if i != j and sg.adj[i, j] and not tg.adj[a[i], a[j]]
    )
    ct = dst.centers()
    sc = src.centers()
    flip = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k or not (sg.adj[i, j] and sg.adj[i, k]):
                    continue
                if not (tg.adj[a[j], a[i]] and tg.adj[a[k], a[i]]):
                    continue
                alpha = cross2(sc[j] - sc[i], sc[k] - sc[i])
                alpha_f = cross2(ct[a[j]] - ct[a[i]], ct[a[k]] - ct[a[i]])
                if np.sign(alpha) * alpha_f < 0:
                    flip += 1.0 / (n * deg[i] ** 2)
    return match, over, stab, flip


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cost_terms_match_bruteforce(seed):
    problem = small_problem(seed=seed, n=8)
    rng = np.random.default_rng(seed + 100)
    for _ in range(8):
        a = np.array([rng.choice(w) for w in problem.windows])
        got = problem.cost_terms(a)
        want = brute_force_terms(problem, a)
        assert np.allclose(got, want, atol=1e-9)


def test_ideal_registration_scores_zero():
    problem = small_problem(seed=5, n=7, shift=0.5)
    problem.match_cost = np.zeros_like(problem.match_cost)  # all LIK = 1
    identity = np.arange(len(problem.source))
    match, over, stab, flip = problem.cost_terms(identity)
    assert (match, over, stab, flip) == (0.0, 0.0, 0.0, 0.0)


def test_collision_counts_ordered_pairs():
    problem = small_problem(seed=6, n=6)
    a = np.array([w[0] for w in problem.windows])
    a[1] = a[0]  # two sources onto one target
    n = len(problem.source)
    assert problem.cost_terms(a)[1] >= 2.0 / n
    b = initial_assignment(problem)
    if len(set(b.tolist())) == n:
        assert problem.cost_terms(b)[1] == 0.0


@given(st.integers(0, 120))
def test_over_zero_iff_injective(seed):
    problem = small_problem(seed=7, n=6)
    rng = np.random.default_rng(seed)
    a = np.array([rng.choice(w) for w in problem.windows])
    over = problem.cost_terms(a)[1]
    injective = len(set(a.tolist())) == len(a)
    assert (over == 0.0) == injective


def test_stab_flip_translation_invariant():
    problem = small_problem(seed=8, n=8)
    rng = np.random.default_rng(8)
    a = np.array([rng.choice(w) for w in problem.windows])
    _, _, stab0, flip0 = problem.cost_terms(a)
    off = np.array([37.0, -19.0])
    src2 = make_frame([c.translated(off) for c in problem.source.cells])
    dst2 = make_frame([c.translated(off) for c in problem.target.cells], index=1)
    moved = build_problem(src2, dst2, w=problem.w, rho=problem.rho, g_rate=1.05)
    _, _, stab1, flip1 = moved.cost_terms(a)
    assert stab1 == pytest.approx(stab0, abs=1e-12)
    assert flip1 == pytest.approx(flip0, abs=1e-12)


def test_match_monotone_in_penalties():
    # smaller penalties can never decrease any survival factor
    rng = np.random.default_rng(9)
    cdf = EmpiricalCdf(rng.uniform(0, 5, size=20))
    xs = np.sort(rng.uniform(0, 6, size=50))
    liks = 1.0 - cdf(xs)
    assert np.all(np.diff(liks) <= 1e-12)


# -- incremental deltas --------------------------------------------------------


@given(st.integers(0, 150))
def test_bm_delta_vector_matches_cost_difference(seed):
    problem = small_problem(seed=10, n=8)
    bm = problem.to_bm()
    rng = np.random.default_rng(seed)
    a = np.array([rng.choice(w) for w in problem.windows])
    site = int(rng.integers(len(a)))
    partners = [j for j in range(len(a)) if j != site and a[site] in problem.windows[j]]
    if partners:  # put a second cell on the site's target
        a[partners[int(rng.integers(len(partners)))]] = a[site]
    deltas = BmConfig(bm, problem.states_for(a)).delta_vector(site)
    for s, pos in enumerate(problem.windows[site]):
        b = a.copy()
        b[site] = pos
        assert deltas[s] == pytest.approx(problem.cost(b) - problem.cost(a), abs=1e-9)


def test_touched_cliques_per_site_matches_bm():
    for seed in range(3):
        problem = small_problem(seed=seed, n=9)
        assert problem.touched_cliques_per_site().tolist() == [
            len(c) for c in problem.to_bm().site_cliques
        ]


# -- BM compilation ------------------------------------------------------------


def test_energy_identity_cost_equals_clique_sum():
    for seed in range(4):
        problem = small_problem(seed=seed, n=9)
        bm = problem.to_bm()
        rng = np.random.default_rng(seed + 50)
        for _ in range(25):
            a = np.array([rng.choice(w) for w in problem.windows])
            states = problem.states_for(a)
            assert bm.energy(states) == pytest.approx(problem.cost(a), abs=1e-9)


def test_single_cell_problem_has_only_match_cliques():
    src = make_frame([make_cell("a", (0, 0))])
    dst = make_frame([make_cell("a+", (2, 1), length=21.0)], index=1)
    problem = build_problem(src, dst, w=40.0, rho=80.0, g_rate=1.05)
    assert problem.clique_counts == (1, 0, 0)
    bm = problem.to_bm()
    assert len(bm.cliques) == 1
    a = np.array([0])
    assert bm.energy(problem.states_for(a)) == pytest.approx(
        problem.weights.match * problem.cost_terms(a)[0], abs=1e-12
    )


def test_clique_counts_on_benchmark_frame(six_minute_chain):
    settled = six_minute_chain["settled"]
    problem = build_problem(
        settled.frames[0], settled.frames[1], w=100.0, rho=80.0, g_rate=1.0
    )
    cl1, cl2, cl3 = problem.clique_counts
    assert 80 <= cl1 <= 100
    assert 160 <= cl2 <= 250
    assert 450 <= cl3 <= 600


def test_empty_window_padding_flagged():
    src = make_frame([make_cell("a", (0, 0)), make_cell("b", (500, 500))])
    dst = make_frame([make_cell("a+", (1, 1)), make_cell("b+", (430, 430))], index=1)
    problem = build_problem(src, dst, w=40.0, rho=80.0, g_rate=1.05)
    assert problem.padded_sites == [1]
    assert problem.windows[1].tolist() == [1]  # nearest target


def test_size_mismatch_warns():
    src = make_frame([make_cell("a", (0, 0))])
    dst = make_frame([make_cell("a+", (1, 1)), make_cell("x", (20, 0))], index=1)
    with pytest.warns(UserWarning, match="differ"):
        build_problem(src, dst, w=60.0, rho=80.0, g_rate=1.05)


# -- initialization and annealing ----------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_initial_assignment_is_likelihood_argmax(seed):
    problem = small_problem(seed=seed, n=10, w=70.0, shift=6.0)
    expected = []
    for i, cell in enumerate(problem.source.cells):
        cands = [problem.target.cells[int(p)] for p in problem.windows[i]]
        liks = problem.likelihood.lik_against(cell, cands)
        kins = [((t.center - cell.center) ** 2).sum() for t in cands]
        best = min(range(len(cands)), key=lambda s: (-liks[s], kins[s], cands[s].id))
        expected.append(int(problem.windows[i][best]))
    assert initial_assignment(problem).tolist() == expected


@pytest.mark.filterwarnings("ignore:source and target sizes differ")
def test_initial_assignment_ties_break_by_distance_then_id():
    # All cells share one axis, so every candidate's rotation penalty is the
    # largest CDF sample and every likelihood sits at the floor: a tie.
    src = make_frame([make_cell("s", (0, 0))])
    near_far = make_frame(
        [make_cell("a", (6, 0), length=21.0), make_cell("b", (2, 0), length=30.0)], index=1
    )
    problem = build_problem(src, near_far, w=30.0, rho=80.0, g_rate=1.05)
    assert np.all(problem.match_cost[0] == problem.match_cost[0, 0])
    assert initial_assignment(problem).tolist() == [1]
    mirrored = make_frame([make_cell("z", (3, 0)), make_cell("y", (-3, 0))], index=1)
    problem = build_problem(src, mirrored, w=30.0, rho=80.0, g_rate=1.05)
    assert initial_assignment(problem).tolist() == [1]


def test_initial_assignment_singleton_windows():
    src = make_frame([make_cell("a", (0, 0)), make_cell("b", (200, 0))])
    dst = make_frame([make_cell("a+", (2, 0)), make_cell("b+", (201, 0))], index=1)
    problem = build_problem(src, dst, w=30.0, rho=80.0, g_rate=1.05)
    assert initial_assignment(problem).tolist() == [0, 1]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_initial_assignment_prefers_ideal_growth():
    src = make_frame([make_cell("a", (0, 0), length=20.0)])
    good = make_cell("g", (1, 0), length=21.0)
    bad = make_cell("x", (10, 3), angle=0.7, length=33.0)
    dst = make_frame([bad, good], index=1)
    problem = build_problem(src, dst, w=60.0, rho=80.0, g_rate=1.05)
    pos = initial_assignment(problem)[0]
    assert dst.cells[pos].id == "g"


def test_initial_energy_not_below_annealed():
    wins = 0
    for seed in range(50):
        problem = small_problem(seed=seed + 200, n=10, shift=7.0)
        init_cost = problem.cost(initial_assignment(problem))
        result = register(problem, rng_seed=seed)
        assert result.energy <= init_cost + 1e-9
        wins += result.energy < init_cost - 1e-9
    assert wins >= 1  # annealing actually improves some instances


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_register_single_cell_exact():
    src = make_frame([make_cell("a", (0, 0), length=20.0)])
    dst = make_frame(
        [
            make_cell("t1", (9, 2), angle=0.5, length=24.0),
            make_cell("t2", (2, 1), angle=0.05, length=21.0),
        ],
        index=1,
    )
    problem = build_problem(src, dst, w=60.0, rho=80.0, g_rate=1.05)
    result = register(problem, rng_seed=0)
    costs = [problem.cost(np.array([p])) for p in range(2)]
    assert costs[1] < costs[0]  # strict argmin, no tie-break needed
    assert result.assignment[0] == 1
    assert result.mapping == {"a": "t2"}


def test_register_matches_exhaustive_minimum():
    exact = 0
    for seed in range(10):
        problem = small_problem(seed=seed + 400, n=6, w=34.0, shift=3.0)
        if max(len(w) for w in problem.windows) > 3:
            continue
        best = min(
            problem.cost(np.array(combo))
            for combo in itertools.product(*[w.tolist() for w in problem.windows])
        )
        result = register(problem, rng_seed=seed)
        assert result.energy <= best * (1 + 5e-2) + 1e-9
        exact += result.energy <= best + 1e-9
    assert exact >= 8


def test_register_result_energy_is_recomputed_cost():
    problem = small_problem(seed=11, n=8)
    result = register(problem, rng_seed=3)
    assert result.energy == pytest.approx(problem.cost(result.assignment), abs=1e-9)
    for i, pos in enumerate(result.assignment):
        assert pos in problem.windows[i]
    assert result.epochs == len(result.energy_trace)


def test_register_sync_dynamics_reaches_good_state():
    problem = small_problem(seed=12, n=7)
    sched = Schedule(c=30.0, eta=0.999, epoch_cap=2500)
    result = register(problem, schedule=sched, rng_seed=4, dynamics="sync")
    baseline = register(problem, rng_seed=4)
    assert result.energy <= baseline.energy * 1.1 + 1e-9


def test_register_rejects_unknown_dynamics():
    problem = small_problem(seed=13, n=5)
    with pytest.raises(ValidationError):
        register(problem, dynamics="swap")
