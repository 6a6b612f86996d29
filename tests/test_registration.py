import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colony_track import annealer
from colony_track.annealer import RegistrationConfig, Schedule
from colony_track.division import reduce_frames
from colony_track.errors import ValidationError
from colony_track.geometry import Cell, build_neighbor_graph, cross2
from colony_track.pipeline import PipelineConfig, track_pair
from colony_track.registration import (
    EmpiricalCdf,
    LIK_FLOOR,
    RegistrationWeights,
    _broken,
    _flipped,
    _penalty_arrays,
    build_problem,
    fit_likelihood_model,
    initial_assignment,
    register,
    weighted_sum,
)

from conftest import (
    jittered_copy,
    make_cell,
    make_frame,
    random_frame,
    small_registration_problem as small_problem,
)


# -- penalties ----------------------------------------------------------------


def one_pair(b, b_plus, g_rate):
    return _penalty_arrays(make_frame([b]), 0, make_frame([b_plus], index=1), 0, g_rate)


def test_pair_penalties_ideal_growth():
    b = make_cell("b", (10, 10), angle=0.4, length=20.0)
    b_plus = make_cell("b+", (10, 10), angle=0.4, length=21.0)
    kin, dis, rot = one_pair(b, b_plus, g_rate=1.05)
    assert kin == pytest.approx(0.0)
    assert dis == pytest.approx(0.0, abs=1e-15)
    assert rot == pytest.approx(0.0, abs=1e-7)


def test_pair_penalties_orthogonal_axes():
    b = make_cell("b", (0, 0), angle=0.0)
    b_plus = make_cell("b+", (3, 4), angle=np.pi / 2)
    kin, dis, rot = one_pair(b, b_plus, g_rate=1.0)
    assert kin == pytest.approx(25.0)
    assert rot == pytest.approx(np.pi / 2)


@given(st.integers(0, 300))
def test_pair_penalties_match_formulas(seed):
    rng = np.random.default_rng(seed)
    b = make_cell("b", rng.uniform(0, 50, 2), angle=rng.uniform(0, np.pi), length=rng.uniform(10, 40))
    b2 = make_cell("c", rng.uniform(0, 50, 2), angle=rng.uniform(0, np.pi), length=rng.uniform(10, 40))
    g = float(rng.uniform(1.0, 1.4))
    kin, dis, rot = one_pair(b, b2, g)
    pair = make_frame([b, b2])
    centers, axes = pair.centers(), pair.axes
    assert kin == pytest.approx(np.sum((centers[0] - centers[1]) ** 2), rel=1e-12)
    assert dis == pytest.approx((math.log(b2.length / b.length) - math.log(g)) ** 2, rel=1e-12)
    cosang = abs(float(axes[0] @ axes[1]))
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


def flat_penalties(src, dst, windows, g_rate=1.05):
    """(kin, dis, rot) rows over the windows, flat in window order, and the
    per-cell offsets."""
    sizes = [len(win) for win in windows]
    targets = np.concatenate([np.asarray(win, np.intp) for win in windows])
    pens = _penalty_arrays(src, np.repeat(np.arange(len(src)), sizes), dst, targets, g_rate)
    return np.array(pens), np.cumsum([0, *sizes])


def test_likelihood_floor_and_tails():
    rng = np.random.default_rng(2)
    src = random_frame(rng, 6, span=90.0)
    dst = jittered_copy(src, rng)
    model = fit_likelihood_model(*flat_penalties(src, dst, [range(len(dst))] * len(src)), 1.05)
    # below every sample: all three survival factors are 1
    at = src.centers()[0]
    good = make_cell("g", at, angle=0.0, length=20.0)
    target = make_cell("t", at - 1e-9, angle=0.0, length=20.0 * 1.05)
    # and a hopeless candidate, floored at exactly the configured value
    far = make_cell("f", at + 500.0, angle=np.pi / 2, length=80.0)
    pens = _penalty_arrays(make_frame([good]), 0, make_frame([target, far]), [0, 1], 1.05)
    liks = model.lik(*pens)
    assert liks[0] <= 1.0
    assert liks[1] == LIK_FLOOR


def test_fit_model_requires_windows():
    with pytest.raises(ValidationError, match="empty window for source cell 1"):
        fit_likelihood_model(np.zeros((3, 2)), np.array([0, 1, 1, 2]), g_rate=1.05)
    with pytest.raises(ValidationError, match="at least one sample"):
        fit_likelihood_model(np.zeros((3, 0)), np.array([0]), g_rate=1.05)


def partition_oracle(penalties, offsets):
    """Sorted CDF samples: each cell's two smallest values by np.partition."""
    lows = []
    for vals in penalties:
        per_cell = [vals[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        take = [min(2, len(v)) for v in per_cell]
        lows.append(np.sort(np.concatenate(
            [np.partition(v, t - 1)[:t] for v, t in zip(per_cell, take)]
        )))
    return lows


@pytest.mark.kernels
def test_two_smallest_values_per_cell():
    rng = np.random.default_rng(4)
    src = random_frame(rng, 5, span=80.0)
    dst = jittered_copy(src, rng)
    windows = [range(5), [2], [4, 0, 3], range(5), [1, 3]]  # one singleton
    penalties, offsets = flat_penalties(src, dst, windows)
    model = fit_likelihood_model(penalties, offsets, g_rate=1.05)
    assert model.cdf_kin.samples.size == 2 * len(src) - 1
    models = [(model, penalties, offsets)]
    # and the models build_problem fits on the registration digest's frames
    for _, _, problem in digest_problems():
        g = problem.likelihood.growth_rate
        models.append((problem.likelihood, *flat_penalties(
            problem.source, problem.target, problem.windows, g
        )))
    for model, penalties, offsets in models:
        cdfs = (model.cdf_kin, model.cdf_dis, model.cdf_rot)
        for cdf, want in zip(cdfs, partition_oracle(penalties, offsets)):
            assert cdf.samples.tobytes() == want.tobytes()


# -- cost terms ---------------------------------------------------------------


def brute_force_terms(problem, assignment):
    """Literal ordered-sum recomputation of the four cost terms (of a problem
    built with rho = 80, as every problem here is)."""
    src = problem.source
    dst = problem.target
    n = len(src)
    a = np.asarray(assignment)
    lik, g = problem.likelihood, problem.likelihood.growth_rate
    pens = _penalty_arrays(src, np.arange(n), dst, a, g)
    match = -sum(map(math.log, lik.lik(*pens).tolist())) / n
    over = sum(
        1.0
        for i in range(n)
        for j in range(n)
        if i != j and a[i] == a[j]
    ) / n
    sg, tg = build_neighbor_graph(problem.source, 80.0), problem.target_adj
    deg = sg.sum(axis=1)
    stab = sum(
        1.0 / (n * deg[i] * deg[j])
        for i in range(n)
        for j in range(n)
        if i != j and sg[i, j] and not tg[a[i], a[j]]
    )
    ct = dst.centers()
    sc = src.centers()
    flip = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k or not (sg[i, j] and sg[i, k]):
                    continue
                if not (tg[a[j], a[i]] and tg[a[k], a[i]]):
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
    identity = np.arange(len(problem.source))
    assert all(i in win for i, win in enumerate(problem.windows))
    problem.match_cost = np.zeros_like(problem.match_cost)  # all LIK = 1 in the windows
    match, over, stab, flip = problem.cost_terms(identity)
    assert (match, over, stab, flip) == (0.0, 0.0, 0.0, 0.0)


def dense_match_cost(problem):
    """Oracle: every source cell scored against every target cell."""
    lik, n, m = problem.likelihood, problem.n, len(problem.target)
    pens = _penalty_arrays(
        problem.source, np.repeat(np.arange(n), m), problem.target, np.tile(np.arange(m), n),
        lik.growth_rate,
    )
    return (-np.log(lik.lik(*pens)) / n).reshape(n, m)


@pytest.mark.kernels
def test_window_sparse_match_costs_equal_dense_oracle():
    from test_acceptance import PIPELINE_CONFIG
    from trackbench import measure, workloads

    six = workloads.reg6min(0, pairs=3)
    problems = [
        build_problem(
            six.frames[k], six.frames[k + 1], w=100.0, rho=80.0,
            weights=measure.REG6MIN_WEIGHTS, g_rate=measure.REG6MIN_G_RATE,
        )
        for k in six.pairs
    ]
    # a window width that leaves 31 of 99 cells padded
    problems.append(build_problem(
        six.frames[2], six.frames[3], w=18.0, rho=80.0,
        weights=measure.REG6MIN_WEIGHTS, g_rate=measure.REG6MIN_G_RATE,
    ))
    assert len(problems[-1].padded_sites) == 31
    pipe, cfg = workloads.pipeline21(0), PIPELINE_CONFIG
    # pair 22 is division-free; pair 46 is reduced by its 7 true divisions
    for red_b, red_b_plus in (
        (pipe.frames[22], pipe.frames[23]),
        reduce_frames(pipe.frames[46], pipe.frames[47], pipe.lineage[46].divided),
    ):
        problems.append(build_problem(
            red_b, red_b_plus, w=cfg.w, rho=cfg.rho,
            weights=cfg.registration_weights, g_rate=cfg.g_rate,
        ))
    rng = np.random.default_rng(0)
    for problem in problems:
        n, dense = problem.n, dense_match_cost(problem)
        sizes = [len(win) for win in problem.windows]
        assert problem.match_cost.shape == (sum(sizes),)
        assert problem.match_offsets.tolist() == [0, *np.cumsum(sizes).tolist()]
        for i, win in enumerate(problem.windows):
            costs = problem.match_cost[problem.match_offsets[i]: problem.match_offsets[i + 1]]
            assert costs.tobytes() == dense[i, win].tobytes()
        # a third of the cells sent outside their windows are scored on the spot
        a = initial_assignment(problem)
        for i in rng.choice(n, size=n // 3, replace=False):
            outside = np.setdiff1d(np.arange(len(problem.target)), problem.windows[i])
            a[i] = rng.choice(outside)
        assert any(a[i] not in win for i, win in enumerate(problem.windows))
        assert problem.cost_terms(a)[0] == float(dense[np.arange(n), a].sum())


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
    src2, dst2 = (
        make_frame([Cell(c.id, c.e + off, c.h + off, c.width) for c in frame.cells], index=k)
        for k, frame in enumerate((problem.source, problem.target))
    )
    moved = build_problem(src2, dst2, w=60.0, rho=80.0, g_rate=1.05)
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
    deltas = RegistrationConfig(bm, problem.states_for(a)).delta_vector(site)
    w = problem.weights.as_array()
    for s, pos in enumerate(problem.windows[site]):
        b = a.copy()
        b[site] = pos
        change = weighted_sum(problem.cost_terms(b), w) - weighted_sum(problem.cost_terms(a), w)
        assert deltas[s] == pytest.approx(change, abs=1e-9)


def oracle_tables(problem):
    """Every stab, then every flip table, built by the broadcasts ``cost_terms`` uses."""
    wins = problem.windows
    adj, ct = problem.target_adj, problem.target.centers()
    want = [_broken(adj, wins[i][:, None], wins[j][None, :]) for i, j in problem.stab_pairs]
    return want + [
        _flipped(adj, ct, wins[i][:, None, None], wins[j][None, :, None],
                 wins[k][None, None, :], sign)
        for (i, j, k), sign in zip(problem.flip_triplets, problem.flip_signs)
    ]


def clique_sites(problem):
    """The problem's cliques as rows of three sites, -1 padding a stab pair."""
    n_stab = len(problem.stab_pairs)
    sites = np.full((n_stab + len(problem.flip_triplets), 3), -1)
    sites[:n_stab, :2], sites[n_stab:] = problem.stab_pairs, problem.flip_triplets
    return sites


def test_touched_cliques_per_site_matches_bm():
    dropped = 0
    config = PipelineConfig(w=60.0, rho=80.0, g_rate=1.05,
                            registration_schedule=Schedule(c=30.0, eta=0.995, epoch_cap=5))
    for seed in range(3):
        problem = small_problem(seed=seed, n=9)
        sites = clique_sites(problem)
        live = sites[[bool(t.any()) for t in oracle_tables(problem)]]
        dropped += len(sites) - len(live)
        # the match term plus the site's entries in the CSR incidence list:
        # its incident cliques whose table holds a 1
        want = 1 + np.bincount(live[live >= 0], minlength=problem.n)
        ptr = problem.to_bm().ptr
        assert (1 + np.diff(ptr)).tolist() == want.tolist()
        # the metadata reports the machine's count at its busiest site, which
        # the count of every clique of the problem bounds
        _, diag = track_pair(problem.source, problem.target, config)
        assert diag.max_touched_cliques == want.max()
        assert diag.max_touched_cliques <= (1 + np.bincount(sites[sites >= 0])).max()
    assert dropped > 0


# -- BM compilation ------------------------------------------------------------


def test_energy_identity_cost_equals_clique_sum():
    for seed in range(4):
        problem = small_problem(seed=seed, n=9)
        bm, lam = problem.to_bm(), problem.weights.as_array()
        rng = np.random.default_rng(seed + 50)
        for _ in range(25):
            a = np.array([rng.choice(w) for w in problem.windows])
            states = problem.states_for(a)
            cost = weighted_sum(problem.cost_terms(a), lam)
            assert bm.energy(states) == pytest.approx(cost, abs=1e-9)


def test_single_cell_problem_has_only_match_cliques():
    src = make_frame([make_cell("a", (0, 0))])
    dst = make_frame([make_cell("a+", (2, 1), length=21.0)], index=1)
    problem = build_problem(src, dst, w=40.0, rho=80.0, g_rate=1.05)
    assert problem.clique_counts == (1, 0, 0)
    bm = problem.to_bm()
    assert bm.clique_rows.shape == (0,) and bm.bits.size == 0
    a = np.array([0])
    assert bm.energy(problem.states_for(a)) == pytest.approx(
        problem.weights.match * problem.cost_terms(a)[0], abs=1e-12
    )


def padded_window_problem():
    src = make_frame([make_cell("a", (0, 0)), make_cell("b", (500, 500))])
    dst = make_frame([make_cell("a+", (1, 1)), make_cell("b+", (430, 430))], index=1)
    return build_problem(src, dst, w=40.0, rho=80.0, g_rate=1.05)


@pytest.mark.kernels
def test_packed_tables_equal_broadcast_oracle():
    small = [small_problem(seed=s, n=9, w=40.0) for s in range(3)] + [padded_window_problem()]
    # the small problems have single-candidate windows and tables whose
    # sizes are not multiples of 8
    assert any(np.any(np.diff(p.match_offsets) == 1) for p in small)
    assert any(np.prod([len(p.windows[i]) for i in ijk]) % 8
               for p in small for ijk in p.flip_triplets)

    # each table holding a 1 is C-ordered from a byte boundary, in clique
    # order, little bit order; every other table is all zero
    dropped = 0
    for problem in [p for _, _, p in digest_problems()] + small:
        bm, want = problem.to_bm(), oracle_tables(problem)
        live = np.array([t.any() for t in want], dtype=bool)
        dropped += int((~live).sum())
        assert bm.clique_sites.tolist() == clique_sites(problem)[live, 0].tolist()
        packed = b"".join(
            np.packbits(t.ravel(), bitorder="little").tobytes() for t in itertools.compress(want, live)
        )
        assert bm.bits.tobytes() == packed
    assert dropped > 0
    problem = small[0]
    bm = problem.to_bm()
    weights = np.concatenate([problem.stab_weights, problem.flip_weights])
    args = (bm.offsets, bm.targets, bm.match, clique_sites(problem), weights, bm.coef)
    with pytest.raises(ValidationError, match="63 clique tables for 64 cliques"):
        annealer.RegistrationBm(*args, tables=oracle_tables(problem)[:63])


def test_to_bm_memory_packed():
    # reg6min gate pair 2: its 214 stab and 750 flip tables (windows of up to
    # 23 cells) took 2.9 MiB as int8 and take 0.36 MiB as bits
    import tracemalloc

    from trackbench import measure, workloads

    six = workloads.reg6min(0, pairs=1)
    problem = build_problem(
        six.frames[2], six.frames[3], w=100.0, rho=80.0,
        weights=measure.REG6MIN_WEIGHTS, g_rate=measure.REG6MIN_G_RATE,
    )
    assert len(problem.flip_triplets) > 700
    tracemalloc.start()
    try:
        problem.to_bm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


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
    problem = padded_window_problem()
    assert problem.padded_sites == [1]
    assert problem.windows[1].tolist() == [1]  # nearest target


# -- initialization and annealing ----------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_initial_assignment_is_likelihood_argmax(seed):
    problem = small_problem(seed=seed, n=10, w=70.0, shift=6.0)
    expected = []
    lik, g = problem.likelihood, problem.likelihood.growth_rate
    sc, tc = problem.source.centers(), problem.target.centers()
    for i in range(problem.n):
        cands = problem.windows[i].tolist()
        liks = lik.lik(*_penalty_arrays(problem.source, i, problem.target, problem.windows[i], g))
        kins = [((tc[p] - sc[i]) ** 2).sum() for p in cands]
        ids = [problem.target.ids[p] for p in cands]
        best = min(range(len(cands)), key=lambda s: (-liks[s], kins[s], ids[s]))
        expected.append(int(problem.windows[i][best]))
    assert initial_assignment(problem).tolist() == expected


def test_initial_assignment_ties_break_by_distance_then_id():
    # All cells share one axis, so every candidate's rotation penalty is the
    # largest CDF sample and every likelihood sits at the floor: a tie.
    src = make_frame([make_cell("s", (0, 0))])
    near_far = make_frame(
        [make_cell("a", (6, 0), length=21.0), make_cell("b", (2, 0), length=30.0)], index=1
    )
    problem = build_problem(src, near_far, w=30.0, rho=80.0, g_rate=1.05)
    assert problem.windows[0].tolist() == [0, 1]
    assert np.all(problem.match_cost == problem.match_cost[0])
    assert initial_assignment(problem).tolist() == [1]
    mirrored = make_frame([make_cell("z", (3, 0)), make_cell("y", (-3, 0))], index=1)
    problem = build_problem(src, mirrored, w=30.0, rho=80.0, g_rate=1.05)
    assert initial_assignment(problem).tolist() == [1]


def test_initial_assignment_singleton_windows():
    src = make_frame([make_cell("a", (0, 0)), make_cell("b", (200, 0))])
    dst = make_frame([make_cell("a+", (2, 0)), make_cell("b+", (201, 0))], index=1)
    problem = build_problem(src, dst, w=30.0, rho=80.0, g_rate=1.05)
    assert initial_assignment(problem).tolist() == [0, 1]


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
        lam = problem.weights.as_array()
        init_cost = weighted_sum(problem.cost_terms(initial_assignment(problem)), lam)
        result = register(problem, rng_seed=seed)
        assert result.energy <= init_cost + 1e-9
        wins += result.energy < init_cost - 1e-9
    assert wins >= 1  # annealing actually improves some instances


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
    lam = problem.weights.as_array()
    costs = [weighted_sum(problem.cost_terms(np.array([p])), lam) for p in range(2)]
    assert costs[1] < costs[0]  # strict argmin, no tie-break needed
    assert result.assignment[0] == 1
    assert result.mapping == {"a": "t2"}


def test_register_matches_exhaustive_minimum():
    exact = 0
    for seed in range(10):
        problem = small_problem(seed=seed + 400, n=6, w=34.0, shift=3.0)
        if max(len(w) for w in problem.windows) > 3:
            continue
        lam = problem.weights.as_array()
        best = min(
            weighted_sum(problem.cost_terms(np.array(combo)), lam)
            for combo in itertools.product(*[w.tolist() for w in problem.windows])
        )
        result = register(problem, rng_seed=seed)
        assert result.energy <= best * (1 + 5e-2) + 1e-9
        exact += result.energy <= best + 1e-9
    assert exact >= 8


def test_register_result_energy_is_recomputed_cost():
    problem = small_problem(seed=11, n=8)
    result = register(problem, rng_seed=3)
    cost = weighted_sum(problem.cost_terms(result.assignment), problem.weights.as_array())
    assert result.energy == pytest.approx(cost, abs=1e-9)
    for i, pos in enumerate(result.assignment):
        assert pos in problem.windows[i]
    meta, chain = result.to_metadata(), result.chain
    assert (meta["epochs"], meta["steps"], meta["stopped"]) == (
        chain.n_epochs, chain.n_steps, chain.stopped
    )
    assert chain.n_epochs == len(chain.epoch_energies)


def digest_problems():
    """(workload, pair, problem) of the registration digest: reg6min gate
    pairs and division-free pipeline21 pairs."""
    from test_acceptance import PIPELINE_CONFIG
    from trackbench import measure, workloads

    cases = []
    six = workloads.reg6min(0, pairs=3)
    for k in six.pairs:
        cases.append(("reg6min", k, build_problem(
            six.frames[k], six.frames[k + 1], w=100.0, rho=80.0,
            weights=measure.REG6MIN_WEIGHTS, g_rate=measure.REG6MIN_G_RATE,
        )))
    pipe = workloads.pipeline21(0)
    cfg = PIPELINE_CONFIG
    for k in (22, 27, 31, 35):
        assert len(pipe.frames[k]) == len(pipe.frames[k + 1])  # division-free
        cases.append(("pipeline21", k, build_problem(
            pipe.frames[k], pipe.frames[k + 1], w=cfg.w, rho=cfg.rho,
            weights=cfg.registration_weights, g_rate=cfg.g_rate,
        )))
    return cases


def loop_flip_triplets(problem):
    """Reference: flip triplets, weights and signs by the per-cell double loop
    (of a problem built with rho = 80)."""
    sg = build_neighbor_graph(problem.source, 80.0)
    sc, n = problem.source.centers(), problem.n
    degrees = sg.sum(axis=1)
    triplets, weights, signs = [], [], []
    for i in range(n):
        nbrs = np.flatnonzero(sg[i])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                j, k = int(nbrs[a]), int(nbrs[b])
                triplets.append((i, j, k))
                weights.append(2.0 / (n * degrees[i] ** 2))
                signs.append(float(np.sign(cross2(sc[j] - sc[i], sc[k] - sc[i]))))
    return np.array(triplets, dtype=np.int64).reshape(-1, 3), np.array(weights), np.array(signs)


@pytest.mark.kernels
def test_flip_triplets_equal_loop_reference():
    problems = [p for _, _, p in digest_problems()]
    for problem in problems + [small_problem(seed=s, n=9) for s in range(3)]:
        triplets, weights, signs = loop_flip_triplets(problem)
        assert problem.flip_triplets.dtype == np.int64
        assert problem.flip_triplets.tobytes() == triplets.tobytes()
        assert problem.flip_weights.tobytes() == weights.tobytes()
        assert problem.flip_signs.tobytes() == signs.tobytes()


# sha256 over (pair, assignment, n_epochs, n_steps, best_energy bytes, epoch
# energy bytes) of every chain of register runs on reg6min gate pairs and
# division-free pipeline21 pairs; pins the async chain's trajectory bit for bit
GOLDEN_REGISTRATION_DIGEST = "8f0d95aca8e2cb5244645300589cbcba6232136658ec9478dc00f877491086d5"


@pytest.mark.kernels
def test_registration_chains_match_golden_digest():
    schedule = Schedule(c=30.0, eta=0.995, epoch_cap=25)
    cases = digest_problems()
    # the chains start from colliding maps, so they pass through over > 0
    assert any(p.cost_terms(initial_assignment(p))[1] > 0 for _, _, p in cases)
    chains = []
    anneal = annealer.anneal

    def recording(*args, **kwargs):
        result = anneal(*args, **kwargs)
        chains.append(result)
        return result

    h = hashlib.sha256()
    with mock.patch.object(annealer, "anneal", recording):
        for name, k, problem in cases:
            chains.clear()
            result = register(problem, schedule=schedule, rng_seed=5, restarts=2)
            assert len(chains) == 2
            h.update(repr((name, k, result.assignment.tolist())).encode())
            for c in chains:
                h.update(repr((c.n_epochs, c.n_steps)).encode())
                h.update(np.float64(c.best_energy).tobytes())
                h.update(np.array(c.epoch_energies, dtype=np.float64).tobytes())
    assert h.hexdigest() == GOLDEN_REGISTRATION_DIGEST


@pytest.mark.xfail(raises=ValidationError, strict=True,
                   reason="single-site moves can map two sources onto one target (ROADMAP item 4)")
def test_reg6min_seed_11_pair_5_record_validates():
    # trackbench's reg6min workload at seed 11 writes an invalid record for
    # pair 5 with the gate's settings: two sources share a target. Once
    # registration keeps its map one-to-one this passes and loses its mark.
    from colony_track.simulator import LineageRecord
    from trackbench import measure, workloads

    wl = workloads.reg6min(11, pairs=4)
    src, dst = wl.frames[5], wl.frames[6]
    problem = build_problem(
        src, dst, w=100.0, rho=80.0, weights=measure.REG6MIN_WEIGHTS, g_rate=measure.REG6MIN_G_RATE,
    )
    result = register(problem, schedule=measure.REG6MIN_SCHEDULE, rng_seed=5, restarts=2)
    LineageRecord(src.index, result.mapping, {}).validate(src, dst)
