"""Cost-weight calibration from a known mapping.

Single-point modifications of the ground-truth mapping yield penalty-change
vectors V_a. A weight vector should make every such change non-decreasing in
cost, which is relaxed through slack variables and solved as a convex-concave
program: minimize gamma*||y||_1 - sum_a [<Lambda, V_a>]^+ subject to
<Lambda, V_a> + y_a >= 0, Lambda >= 0, y >= 0, <Lambda, 1> <= budget.

The concave part is linearized at the current iterate and the resulting LP is
re-solved until the objective stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError


class PenaltyEvaluator(Protocol):
    """Penalty vector of an assignment."""

    def cost_terms(self, assignment: np.ndarray) -> tuple: ...


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
        if self.gamma <= 0 or self.budget <= 0:
            raise ValidationError("gamma and budget must be positive")

    @property
    def m(self) -> int:
        return self.perturbations.shape[1]


def build_perturbations(
    ground_truth: np.ndarray,
    evaluator: PenaltyEvaluator,
    windows: Sequence[np.ndarray],
    all_alternatives: bool = False,
    gamma: float = 1e10,
    budget: float = 1000.0,
    rng_seed: int = 0,
) -> CalibrationInstance:
    """Penalty changes of single-point modifications of the known mapping.

    For each source cell the modified target is drawn uniformly from the rest
    of its window (or, with ``all_alternatives``, every other window entry
    contributes a row). Cells with singleton windows are skipped.
    """
    f = np.asarray(ground_truth, dtype=np.int64)
    rng = np.random.default_rng(rng_seed)
    base = np.asarray(evaluator.cost_terms(f), dtype=np.float64)
    rows: list[np.ndarray] = []
    labels: list[tuple[int, int]] = []
    for site, window in enumerate(windows):
        alts = [int(p) for p in window if p != f[site]]
        if not alts:
            continue
        picks = alts if all_alternatives else [alts[rng.integers(len(alts))]]
        for s in picks:
            g = f.copy()
            g[site] = s
            rows.append(np.asarray(evaluator.cost_terms(g), dtype=np.float64) - base)
            labels.append((site, s))
    if not rows:
        raise ValidationError("no admissible single-point modifications")
    return CalibrationInstance(np.vstack(rows), gamma=gamma, budget=budget, labels=labels)


def objective(instance: CalibrationInstance, lam: np.ndarray) -> float:
    """Exact objective with the slack vector at its optimum y = [-V lam]^+."""
    margins = instance.perturbations @ lam
    return float(
        instance.gamma * np.clip(-margins, 0.0, None).sum()
        - np.clip(margins, 0.0, None).sum()
    )


def _solve_linearized(
    instance: CalibrationInstance, subgrad: np.ndarray, literal_equality: bool
) -> np.ndarray:
    """One LP round: min gamma*sum(y) - <subgrad, Lambda> over the constraint set.

    scipy.optimize and scipy.sparse are imported here, so only a run that
    calibrates loads scipy.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    v = instance.perturbations
    n, m = v.shape
    cost = np.concatenate([-subgrad, np.full(n, instance.gamma)])
    # <Lambda, V_a> + y_a >= 0  ->  -V Lambda - y <= 0 (or == 0 literally)
    block = sp.hstack([sp.csr_matrix(-v), -sp.eye(n, format="csr")], format="csr")
    budget_row = sp.hstack(
        [sp.csr_matrix(np.ones((1, m))), sp.csr_matrix((1, n))], format="csr"
    )
    if literal_equality:
        res = linprog(
            cost,
            A_ub=budget_row,
            b_ub=[instance.budget],
            A_eq=block,
            b_eq=np.zeros(n),
            bounds=[(0, None)] * (m + n),
            method="highs",
        )
    else:
        res = linprog(
            cost,
            A_ub=sp.vstack([block, budget_row], format="csr"),
            b_ub=np.concatenate([np.zeros(n), [instance.budget]]),
            bounds=[(0, None)] * (m + n),
            method="highs",
        )
    if not res.success:
        raise InfeasibleError(
            "weight calibration LP failed: "
            f"{res.message} (constraints: non-negativity, slack "
            f"{'equalities' if literal_equality else 'inequalities'}, budget "
            f"{instance.budget})"
        )
    return res.x[:m]


def calibrate(
    instance: CalibrationInstance,
    literal_equality: bool = False,
    max_rounds: int = 100,
    tol: float = 1e-6,
    return_trace: bool = False,
):
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
        for _ in range(max_rounds):
            active = (instance.perturbations @ lam) > 0.0
            subgrad = instance.perturbations[active].sum(axis=0)
            lam = _solve_linearized(instance, subgrad, literal_equality)
            trace.append(objective(instance, lam))
            if abs(trace[-2] - trace[-1]) <= tol * max(1.0, abs(trace[-1])):
                break
        if trace[-1] < best_obj:
            best_obj, best_lam, best_trace = trace[-1], lam, trace
    lam = np.asarray(best_lam)
    return (lam, best_trace) if return_trace else lam


def calibration_report(
    instance: CalibrationInstance, lam: np.ndarray
) -> list[list]:
    """Rows a,<Lambda,V_a>,y(a) describing the calibrated margins."""
    margins = instance.perturbations @ lam
    slack = np.clip(-margins, 0.0, None)
    labels = instance.labels or [(i, -1) for i in range(len(margins))]
    return [
        [f"{site}->{alt}", float(margin), float(y)]
        for (site, alt), margin, y in zip(labels, margins, slack)
    ]
