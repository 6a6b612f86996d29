"""Cost-weight calibration from a known mapping.

Single-point modifications of the ground-truth mapping yield penalty-change
vectors V_a. A weight vector should make every such change non-decreasing in
cost, which is relaxed through slack variables and solved as a convex-concave
program: minimize gamma*||y||_1 - sum_a [<Lambda, V_a>]^+ subject to
<Lambda, V_a> + y_a >= 0, Lambda >= 0, y >= 0, <Lambda, 1> <= budget.

The concave part is linearized at the current iterate and the resulting LP is
re-solved until the objective stabilizes. Each LP is solved through its dual,
which has one row per penalty term, by a bounded-variable simplex.

Nothing here calls BLAS or LAPACK: the simplex factors its small basis by
Gaussian elimination in Python floats, and every product is an elementwise
sum added left to right, so the calibrated weights are the same bit for bit
on every CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError, check_fields
from .registration import RegistrationProblem, weighted_sum


@dataclass
class CalibrationInstance:
    """Penalty-change rows V_a plus the solver meta-parameters."""

    perturbations: np.ndarray  # shape (n, m)
    gamma: float = 1e10
    budget: float = 1000.0
    labels: list[tuple[int, int]] = field(default_factory=list)  # (site, alternative)

    def __post_init__(self):
        self.perturbations = np.asarray(self.perturbations, dtype=np.float64)
        if self.perturbations.ndim != 2 or self.perturbations.shape[0] == 0:
            raise ValidationError("need at least one perturbation vector")
        if not np.all(np.isfinite(self.perturbations)):
            raise ValidationError("perturbation vectors must be finite")
        check_fields(self, positive=("gamma", "budget"))

    @property
    def m(self) -> int:
        return self.perturbations.shape[1]


def build_perturbations(
    ground_truth: np.ndarray,
    problem: RegistrationProblem,
    windows: Sequence[np.ndarray] | None = None,
    all_alternatives: bool = False,
    budget: float = 1000.0,
    rng_seed: int = 0,
) -> CalibrationInstance:
    """Changes of ``problem.cost_terms`` under single-point modifications of
    the known mapping.

    For each source cell the modified target is drawn uniformly from the rest
    of its window (or, with ``all_alternatives``, every other window entry
    contributes a row). Cells with singleton windows are skipped. ``windows``
    defaults to ``problem.windows``.
    """
    f = np.asarray(ground_truth, dtype=np.int64)
    rng = np.random.default_rng(rng_seed)
    labels: list[tuple[int, int]] = []
    for site, window in enumerate(problem.windows if windows is None else windows):
        alts = [int(p) for p in window if p != f[site]]
        if not alts:
            continue
        picks = alts if all_alternatives else [alts[rng.integers(len(alts))]]
        labels.extend((site, s) for s in picks)
    if not labels:
        raise ValidationError("no admissible single-point modifications")
    base = np.asarray(problem.cost_terms(f), dtype=np.float64)
    # each row is written in place, then the base subtracted once
    rows = np.empty((len(labels), len(base)))
    g = f.copy()
    for row, (site, s) in zip(rows, labels):
        g[site] = s
        row[:] = problem.cost_terms(g)
        g[site] = f[site]
    rows -= base
    return CalibrationInstance(rows, budget=budget, labels=labels)


def objective(instance: CalibrationInstance, lam: np.ndarray) -> float:
    """Exact objective with the slack vector at its optimum y = [-V lam]^+."""
    margins = weighted_sum(instance.perturbations, lam)
    return float(
        instance.gamma * np.clip(-margins, 0.0, None).sum()
        - np.clip(margins, 0.0, None).sum()
    )


# Pivot cap of the simplex per LP column. Bland's rule cannot cycle, so
# reaching the cap means rounding has misled the pivots. A bound flip counts
# as a pivot: at gamma = 1, where many u reach their bound, random instances
# of 100-1 500 rows took up to 2.3 pivots per column.
PIVOTS_PER_COLUMN = 10
# Linearization rounds per start of calibrate, at most; a start stops once its
# objective moves by at most ROUND_TOL times max(1, |objective|).
MAX_ROUNDS = 100
ROUND_TOL = 1e-6


def _factor(bmat: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """LU factors of a square matrix by Gaussian elimination with partial
    pivoting, in Python floats: row ``i`` of ``L U`` is ``bmat[perm[i]]``,
    with the unit lower L below the diagonal of ``lu`` and U on and above it.
    An exactly zero pivot raises :class:`InfeasibleError`.
    """
    lu = [list(row) for row in bmat]
    perm = list(range(len(lu)))
    for j in range(len(lu)):
        p = max(range(j, len(lu)), key=lambda i: abs(lu[i][j]))
        if lu[p][j] == 0.0:
            raise InfeasibleError("singular basis")
        lu[j], lu[p] = lu[p], lu[j]
        perm[j], perm[p] = perm[p], perm[j]
        pivot = lu[j]
        for row in lu[j + 1:]:
            row[j] /= pivot[j]
            for k in range(j + 1, len(row)):
                row[k] -= row[j] * pivot[k]
    return lu, perm


def _solve(lu, perm, rhs) -> list[float]:
    """x with ``B x = rhs``, B the matrix :func:`_factor` gave ``lu, perm`` for."""
    m = len(lu)
    x = [rhs[i] for i in perm]
    for i in range(m):
        for k in range(i):
            x[i] -= lu[i][k] * x[k]
    for i in reversed(range(m)):
        for k in range(i + 1, m):
            x[i] -= lu[i][k] * x[k]
        x[i] /= lu[i][i]
    return x


def _solve_transposed(lu, perm, rhs) -> list[float]:
    """y with ``B^T y = rhs``: U^T, then L^T, then the row order undone."""
    m = len(lu)
    z = list(rhs)
    for i in range(m):
        for k in range(i):
            z[i] -= lu[k][i] * z[k]
        z[i] /= lu[i][i]
    for i in reversed(range(m)):
        for k in range(i + 1, m):
            z[i] -= lu[k][i] * z[k]
    y = [0.0] * m
    for i, row in enumerate(perm):
        y[row] = z[i]
    return y


def _bland_simplex(a, b, cost, upper, basis) -> np.ndarray:
    """Multipliers of an optimal basis of min cost·x, a·x = b, 0 <= x <= upper.

    A bounded-variable primal simplex with Bland's smallest-index rule for the
    entering and the leaving variable, so it cannot cycle (Bland, Math. Oper.
    Res. 1977). A nonbasic variable sits at 0 or at its upper bound.
    ``basis`` holds one column per row and must be feasible with every
    nonbasic variable at 0. Returns ``pi`` solving ``B^T pi = cost_B``.

    Each pivot factors the ``m × m`` basis once, in Python floats, and takes
    the condition check, ``pi``, the basic values and the pivot column from
    those factors; the products with ``a`` are left-to-right elementwise
    sums. No step goes through BLAS or LAPACK, so the result is the same
    bit for bit on every CPU.
    """
    col_norm = np.abs(a).sum(axis=0)
    at_upper = np.zeros(a.shape[1], dtype=bool)
    basis = np.array(basis)
    unit = np.eye(len(basis)).tolist()
    max_pivots = PIVOTS_PER_COLUMN * a.shape[1]
    for _ in range(max_pivots + 1):
        bmat = a[:, basis]
        lu, perm = _factor(bmat.tolist())
        # 1-norm condition number ||B||_1 ||B^-1||_1, the inverse's columns
        # solved from the factors (no SVD)
        inv_norm = max(sum(map(abs, _solve(lu, perm, e))) for e in unit)
        if not np.abs(bmat).sum(axis=0).max() * inv_norm <= 1e12:
            raise InfeasibleError("singular basis")
        pi = np.array(_solve_transposed(lu, perm, cost[basis].tolist()))
        reduced = cost - weighted_sum(a.T, pi)
        tol = 1e-9 * (np.abs(cost) + np.abs(pi).max() * col_norm)
        improving = np.where(at_upper, reduced > tol, reduced < -tol)
        improving[basis] = False
        if not improving.any():
            return pi
        q = int(np.argmax(improving))
        rhs = b
        if at_upper.any():
            # the columns at their bound, summed left to right by a cumulative
            # sum (a Python loop over that many columns would be slow)
            rhs = b - np.cumsum(a[:, at_upper] * upper[at_upper], axis=1)[:, -1]
        x_b = np.array(_solve(lu, perm, rhs.tolist()))
        # moving x_q off its bound by theta changes x_b by -theta * w
        w = np.array(_solve(lu, perm, a[:, q].tolist())) * (-1.0 if at_upper[q] else 1.0)
        big = 1e-9 * np.abs(w).max()
        ratio = np.full(len(basis), np.inf)
        down = w > big
        ratio[down] = np.maximum(x_b[down], 0.0) / w[down]
        up = (w < -big) & np.isfinite(upper[basis])
        ratio[up] = np.maximum(upper[basis][up] - x_b[up], 0.0) / -w[up]
        theta = ratio.min()
        if not np.isfinite(min(theta, upper[q])):
            raise InfeasibleError("unbounded pivot direction")
        if upper[q] <= theta:
            at_upper[q] = not at_upper[q]
            continue
        ties = np.flatnonzero(ratio <= theta + 1e-12 * max(1.0, theta))
        row = ties[np.argmin(basis[ties])]
        at_upper[basis[row]] = up[row]
        at_upper[q] = False
        basis[row] = q
    raise InfeasibleError(f"no optimum within {max_pivots} pivots")


def _solve_linearized(instance: CalibrationInstance, subgrad: np.ndarray) -> np.ndarray:
    """One LP round: min gamma*sum(y) - <subgrad, Lambda> over the constraint set.

    The LP is solved through its dual, which has one row per penalty term:
    minimize budget*t over V^T u - t*1 + s = -subgrad with 0 <= u <= gamma and
    t, s >= 0. The weights are minus the optimal basis' row multipliers,
    which gamma never enters.
    """
    v = instance.perturbations
    n, m = v.shape
    a = np.hstack([v.T, -np.ones((m, 1)), np.eye(m)])
    rhs = -subgrad
    upper = np.full(n + 1 + m, np.inf)
    upper[:n] = instance.gamma
    cost = np.zeros(n + 1 + m)
    cost[n] = instance.budget
    # slack basis, t basic in the row of the most negative right-hand side
    basis = np.arange(n + 1, n + 1 + m)
    if rhs.min() < 0.0:
        basis[np.argmin(rhs)] = n
    try:
        pi = _bland_simplex(a, rhs, cost, upper, basis)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"weight calibration LP failed: {exc} (constraints: non-negativity, slack "
            f"inequalities, budget {instance.budget})"
        ) from exc
    return _in_budget(-pi, instance.budget)


def _in_budget(lam: np.ndarray, budget: float) -> np.ndarray:
    """``lam`` clipped to >= 0, without -0.0, and scaled down to sum to at most ``budget``."""
    lam = np.maximum(lam, 0.0) + 0.0  # adding 0.0 turns -0.0 into 0.0
    while lam.sum() > budget:
        lam = np.nextafter(lam * (budget / lam.sum()), 0.0)
    return lam


def calibrate(instance: CalibrationInstance, return_trace: bool = False):
    """Estimate the weight vector by iterated linearization.

    Starts from the uniform feasible point (plus the budget corners for small
    dimensions) and returns the best feasible weight vector found. With
    ``return_trace`` also returns the per-round objective values of the start
    that won (non-increasing by construction).
    """
    m = instance.m
    starts = [np.full(m, instance.budget / m)]
    if m <= 3:
        starts.extend(instance.budget * np.eye(m))
    best_lam, best_obj, best_trace = None, np.inf, None
    for lam in starts:
        trace = [objective(instance, lam)]
        for _ in range(MAX_ROUNDS):
            active = weighted_sum(instance.perturbations, lam) > 0.0
            subgrad = instance.perturbations[active].sum(axis=0)
            lam = _solve_linearized(instance, subgrad)
            trace.append(objective(instance, lam))
            if abs(trace[-2] - trace[-1]) <= ROUND_TOL * max(1.0, abs(trace[-1])):
                break
        if trace[-1] < best_obj:
            best_obj, best_lam, best_trace = trace[-1], lam, trace
    lam = np.asarray(best_lam)
    return (lam, best_trace) if return_trace else lam


def calibration_report(
    instance: CalibrationInstance, lam: np.ndarray
) -> list[list]:
    """Rows a,<Lambda,V_a>,y(a) describing the calibrated margins."""
    margins = weighted_sum(instance.perturbations, lam)
    slack = np.clip(-margins, 0.0, None)
    labels = instance.labels or [(i, -1) for i in range(len(margins))]
    return [
        [f"{site}->{alt}", float(margin), float(y)]
        for (site, alt), margin, y in zip(labels, margins, slack)
    ]
