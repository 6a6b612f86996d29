import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from colony_track import calibration
from colony_track.calibration import (
    CalibrationInstance,
    build_perturbations,
    calibrate,
    calibration_report,
    objective,
)
from colony_track.errors import InfeasibleError, ValidationError
from colony_track.registration import build_problem, weighted_sum

from conftest import small_registration_problem


def test_instance_validation():
    with pytest.raises(ValidationError):
        CalibrationInstance(np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        CalibrationInstance(np.array([[np.inf, 0.0]]))
    for bad in (-1.0, 0.0, float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValidationError):
            CalibrationInstance(np.ones((2, 2)), gamma=bad)
        with pytest.raises(ValidationError):
            CalibrationInstance(np.ones((2, 2)), budget=bad)


def first_candidates(problem):
    """The assignment of each source cell to the first target of its window."""
    return problem.match_targets[problem.match_offsets[:-1]]


def test_build_perturbations_matches_direct_difference():
    problem = small_registration_problem(seed=3, n=6)
    truth = first_candidates(problem)
    inst = build_perturbations(truth, problem, problem.windows, all_alternatives=True)
    assert inst.perturbations.shape == (sum(len(w) - 1 for w in problem.windows), 4)
    base = np.array(problem.cost_terms(truth))
    for (site, alt), row in zip(inst.labels, inst.perturbations):
        g = truth.copy()
        g[site] = alt
        assert row.tolist() == (np.array(problem.cost_terms(g)) - base).tolist()


def test_build_perturbations_single_sample_mode():
    problem = small_registration_problem(seed=3, n=6)
    truth = first_candidates(problem)
    # only the first site has an alternative
    windows = [problem.windows[0], *(truth[i:i + 1] for i in range(1, problem.n))]
    assert len(windows[0]) > 1
    inst = build_perturbations(truth, problem, windows, all_alternatives=False, rng_seed=5)
    assert inst.perturbations.shape == (1, 4)
    assert inst.labels[0][0] == 0


def test_single_penalty_all_positive_takes_full_budget():
    inst = CalibrationInstance(np.array([[1.0], [0.5], [2.0]]), budget=1000.0)
    lam = calibrate(inst)
    assert lam[0] == pytest.approx(1000.0, rel=1e-9)


def test_huge_gamma_shrinks_conflicting_direction():
    # second coordinate only ever hurts: any weight on it creates slack
    rows = np.array([[1.0, -2.0], [2.0, -1.0], [1.5, -3.0]])
    inst = CalibrationInstance(rows, gamma=1e10, budget=100.0)
    lam = calibrate(inst)
    assert lam[1] == pytest.approx(0.0, abs=1e-9)
    margins = rows @ lam
    assert np.all(margins >= -1e-9)


def test_feasibility_always_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = rng.normal(size=(rng.integers(1, 30), rng.integers(1, 5)))
        inst = CalibrationInstance(rows, gamma=10.0, budget=500.0)
        lam = calibrate(inst)
        assert np.all(lam >= 0.0) and not np.signbit(lam).any()
        assert lam.sum() <= 500.0


def test_objective_trace_monotone():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 4))
    inst = CalibrationInstance(rows, gamma=5.0, budget=100.0)
    lam, trace = calibrate(inst, return_trace=True)
    assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(objective(inst, lam))


def _grid_best(inst, steps=100):
    best = np.inf
    b = inst.budget
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            lam = np.array([i, j]) * (b / steps)
            best = min(best, objective(inst, lam))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_matches_grid_search_on_2d(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(loc=0.1, size=(10, 2))
    inst = CalibrationInstance(rows, gamma=3.0, budget=10.0)
    lam = calibrate(inst)
    # 100x100 grid over the feasible simplex (about 1e4 points)
    assert objective(inst, lam) <= _grid_best(inst) + 1e-3


def test_scale_covariance_of_budget():
    rng = np.random.default_rng(7)
    rows = rng.normal(loc=0.2, size=(15, 3))
    small = calibrate(CalibrationInstance(rows, gamma=4.0, budget=10.0))
    large = calibrate(CalibrationInstance(rows, gamma=4.0, budget=1000.0))
    assert large.sum() <= 1000.0 + 1e-6 and small.sum() <= 10.0 + 1e-6
    # rescaling weights never changes the induced cost ordering
    pens = rng.normal(size=(8, 3)) + 1.0
    order = np.argsort(pens @ small)
    assert np.array_equal(order, np.argsort(pens @ (123.4 * small)))


def test_report_rows():
    rows = np.array([[1.0, 0.0], [-0.5, 0.2]])
    inst = CalibrationInstance(rows, gamma=1.0, budget=10.0, labels=[(0, 3), (1, 4)])
    lam = np.array([2.0, 1.0])
    report = calibration_report(inst, lam)
    assert report[0] == ["0->3", pytest.approx(2.0), pytest.approx(0.0)]
    assert report[1][1] == pytest.approx(-0.8)
    assert report[1][2] == pytest.approx(0.8)


# -- the LP round against HiGHS -------------------------------------------------


def _highs(inst, subgrad):
    """The LP round in its primal form, solved by HiGHS: the test oracle."""
    from scipy.optimize import linprog

    v = inst.perturbations
    n, m = v.shape
    cost = np.concatenate([-subgrad, np.full(n, inst.gamma)])
    block = np.hstack([-v, -np.eye(n)])  # <Lambda, V_a> + y_a >= 0
    budget_row = np.concatenate([np.ones(m), np.zeros(n)])[None]
    return linprog(cost, A_ub=np.vstack([block, budget_row]),
                   b_ub=np.r_[np.zeros(n), inst.budget], method="highs")


def _round_objective(inst, subgrad, lam):
    """The LP round's objective at ``lam`` with its optimal slacks y = [-V lam]^+.

    A margin within rounding of zero counts as zero: with gamma = 1e10 its
    last bit would move the objective by about 1e-6. For the same reason
    HiGHS's own objective value is compared at its weights, not as reported.
    """
    v = inst.perturbations
    margins, noise = v @ lam, 1e-12 * (np.abs(v) @ lam)
    return inst.gamma * np.clip(-margins - noise, 0.0, None).sum() - subgrad @ lam


def _assert_round_optimal(inst, subgrad, res):
    """The simplex's weights are feasible and reach HiGHS's optimum ``res``
    within 1e-9 of the round's scale: the larger of the optimum and the largest
    linear term, budget * max|subgrad|."""
    lam = calibration._solve_linearized(inst, subgrad)
    assert np.all(lam >= 0.0) and not np.signbit(lam).any()
    assert lam.sum() <= inst.budget
    got = _round_objective(inst, subgrad, lam)
    want = _round_objective(inst, subgrad, res.x[: inst.m])
    scale = max(abs(want), inst.budget * (1.0 + np.abs(subgrad).max()))
    assert abs(got - want) <= 1e-9 * scale


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from([1.0, 10.0, 1e10]),
)
def test_lp_round_matches_highs(seed, m, gamma):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    # coarse values make ties and degenerate vertices common
    rows = np.round(rng.normal(size=(n, m)), int(rng.integers(0, 3)))
    rows[rng.random(n) < 0.2] = 0.0
    negative = rng.random(n) < 0.2
    rows[negative] = -np.abs(rows[negative]) - 0.5
    rows = np.vstack([rows, rows[rng.integers(n, size=int(rng.integers(0, n + 1)))]])
    inst = CalibrationInstance(rows, gamma=gamma, budget=float(rng.choice([1.0, 10.0, 1000.0])))
    if rng.random() < 0.5:  # calibrate's linearization at a random point
        subgrad = rows[rows @ rng.random(m) > 0.0].sum(axis=0)
    else:
        subgrad = np.round(rng.normal(scale=3.0, size=m), 1)
    res = _highs(inst, subgrad)
    assume(res.success)
    _assert_round_optimal(inst, subgrad, res)


@pytest.mark.kernels
@pytest.mark.parametrize("eps, singular", [(0.0, True), (4e-14, True), (1e-10, False)])
def test_singular_basis_raises(eps, singular):
    # the basis [[1, 1], [1, 1 + eps]] is exactly singular at eps = 0, has
    # condition number about 1e14 at 4e-14 and about 4e10 at 1e-10
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0 + eps, 0.0, 1.0]])
    args = (a, np.ones(2), np.zeros(4), np.full(4, np.inf), [0, 1])
    if singular:
        with pytest.raises(InfeasibleError, match="singular basis"):
            calibration._bland_simplex(*args)
    else:
        assert not calibration._bland_simplex(*args).any()


def _pair_2(six_minute_run):
    """The registration problem of the six-minute run's pair 2, its known
    mapping and the calibration instance of every alternative."""
    frames, lineage = six_minute_run.frames, six_minute_run.lineage
    src, dst = frames[2], frames[3]
    problem = build_problem(src, dst, w=100.0, rho=80.0, g_rate=1.005**6)
    truth = np.array([dst.position(lineage[2].moved[c.id]) for c in src.cells])
    return problem, truth, build_perturbations(truth, problem, all_alternatives=True)


def test_reg6min_pair_2_pinned(six_minute_run):
    _, _, inst = _pair_2(six_minute_run)
    assert inst.perturbations.shape == (1366, 4)
    lam, trace = calibrate(inst, return_trace=True)
    # the weights and objective that HiGHS's linprog rounds give on this instance
    assert lam == pytest.approx([374.4733614799883, 625.5266385200118, 0.0, 0.0], rel=1e-9)
    assert objective(inst, lam) == pytest.approx(-65865.45349816777, rel=1e-9)
    assert len(trace) == 3
    # the two rounds calibrate solves: linearized at the uniform start, then at lam
    start = np.full(4, inst.budget / 4)
    for point in (start, lam):
        subgrad = inst.perturbations[inst.perturbations @ point > 0.0].sum(axis=0)
        res = _highs(inst, subgrad)
        assert res.success
        _assert_round_optimal(inst, subgrad, res)


@pytest.mark.kernels
def test_reg6min_pair_2_weights_are_exact(six_minute_run):
    # no step of calibration goes through BLAS or LAPACK and every sum runs
    # left to right, so these are the weights bit for bit on every CPU, with
    # numpy's SIMD dispatch on or off (HiGHS's, above, end in ...118)
    _, _, inst = _pair_2(six_minute_run)
    want = np.array([374.4733614799883, 625.5266385200117, 0.0, 0.0])
    assert calibrate(inst).tobytes() == want.tobytes()


@pytest.mark.kernels
def test_weighted_sums_equal_python_float_loop(six_minute_run):
    problem, truth, inst = _pair_2(six_minute_run)

    def loop(row, weights):
        total = 0.0
        for v, w in zip(row.tolist(), weights.tolist()):
            total += v * w
        return total

    weights = problem.weights.as_array()
    for lam in (calibrate(inst), np.full(4, inst.budget / 4), weights):
        want = np.array([loop(row, lam) for row in inst.perturbations])
        assert weighted_sum(inst.perturbations, lam).tobytes() == want.tobytes()
        margins = [row[1] for row in calibration_report(inst, lam)]
        assert np.array(margins).tobytes() == want.tobytes()
    for a in (truth, first_candidates(problem)):
        terms = np.array(problem.cost_terms(a))
        assert float(weighted_sum(terms, weights)) == loop(terms, weights)


def test_pivot_cap_raises(monkeypatch):
    rng = np.random.default_rng(1)
    inst = CalibrationInstance(rng.normal(size=(30, 4)), gamma=10.0, budget=100.0)
    subgrad = np.ones(4)
    calibration._solve_linearized(inst, subgrad)
    monkeypatch.setattr(calibration, "PIVOTS_PER_COLUMN", 0)
    with pytest.raises(InfeasibleError, match="weight calibration LP failed: .* 0 pivots"):
        calibration._solve_linearized(inst, subgrad)
