"""End-to-end tracking pipeline and accuracy scoring.

Per frame pair: the cardinality gap fixes the division count; when positive,
the children-pairing stage selects parent-children triplets which are removed
from both frames; the residual division-free pair is then registered cell to
cell. Scoring compares reconstructed lineages against ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import division, registration
from .annealer import Schedule
from .division import DivisionWeights
from .errors import InfeasibleError, ValidationError
from .geometry import Frame
from .registration import RegistrationWeights
from .simulator import LineageRecord


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the full tracking pipeline."""

    w: float = 100.0
    rho: float = 80.0
    tau: float = 45.0
    g_rate: float = 1.05  # expected length growth factor per interframe
    registration_weights: RegistrationWeights = field(default_factory=RegistrationWeights)
    division_weights: DivisionWeights = field(default_factory=DivisionWeights)
    trim_thresholds: dict | None = None
    trim_reject_if_any: bool = False
    relax_cardinality: bool = False
    registration_schedule: Schedule = field(default_factory=Schedule.registration_default)
    children_schedule: Schedule = field(default_factory=Schedule.children_default)
    dynamics: str = "async"
    alpha: float = 0.5
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if min(self.w, self.rho, self.tau) <= 0:
            raise ValidationError("w, rho, and tau must be positive")
        if self.g_rate <= 0:
            raise ValidationError("g_rate must be positive")
        if self.dynamics not in ("async", "sync"):
            raise ValidationError("pipeline dynamics must be 'async' or 'sync'")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(data)
        kwargs = {}
        if "registration_weights" in data:
            kwargs["registration_weights"] = RegistrationWeights.from_dict(
                data.pop("registration_weights")
            )
        if "division_weights" in data:
            kwargs["division_weights"] = DivisionWeights.from_dict(
                data.pop("division_weights")
            )
        for key in ("registration_schedule", "children_schedule"):
            if key in data:
                kwargs[key] = Schedule.from_dict(data.pop(key))
        try:
            return cls(**data, **kwargs)
        except TypeError as exc:
            raise ValidationError(f"bad pipeline config: {exc}") from exc


@dataclass
class PairDiagnostics:
    frame_index: int
    div_count: int
    n_candidates: int = 0
    n_trimmed: int = 0
    dropped_pairs: list = field(default_factory=list)
    scatter: list = field(default_factory=list)
    padded_windows: int = 0
    clique_counts: tuple[int, int, int] = (0, 0, 0)
    max_touched_cliques: int = 0
    registration: dict = field(default_factory=dict)
    seconds: float = 0.0
    invalid: str | None = None  # why the returned record fails validation


def _pair_seed(base: int, k: int, salt: int) -> int:
    return (base * 1_000_003 + 2 * k + salt) % (2**63)


def track_pair(
    frame: Frame, next_frame: Frame, config: PipelineConfig, k: int = 0
) -> tuple[LineageRecord, PairDiagnostics]:
    """Track one consecutive frame pair: division stage, then registration.

    The record is returned as tracked even when it fails
    ``LineageRecord.validate``; ``diag.invalid`` then holds the reason.
    """
    started = time.perf_counter()
    n, n_plus = len(frame), len(next_frame)
    if n_plus < n:
        raise ValidationError(
            f"frame {frame.index}: target has fewer cells ({n_plus} < {n}); "
            "cell loss is unsupported"
        )
    div_count = n_plus - n
    diag = PairDiagnostics(frame_index=frame.index, div_count=div_count)
    red_b, red_b_plus = frame, next_frame
    div_map: dict[str, tuple[str, str]] = {}
    if div_count > 0:
        candidates = division.build_pch(
            frame, next_frame, config.tau, config.w, config.division_weights.distortion
        )
        diag.n_candidates = len(candidates)
        kept = division.trim_candidates(
            candidates, config.trim_thresholds, config.trim_reject_if_any
        )
        diag.n_trimmed = len(candidates) - len(kept)
        diag.scatter = division.scatter_rows(kept)
        if not kept:
            raise InfeasibleError(
                f"frame {frame.index}: {div_count} divisions expected but no "
                "plausible children pairs survive"
            )
        problem = division.build_children_bm(kept, div_count, config.division_weights)
        selected = division.solve_children_bm(
            problem,
            config.children_schedule,
            rng_seed=_pair_seed(config.seed, k, 0),
            relax_cardinality=config.relax_cardinality,
        )
        lineages, dropped = division.select_short_lineages(
            frame, next_frame, kept, selected, config.w,
            config.division_weights.distortion,
        )
        diag.dropped_pairs = dropped
        red_b, red_b_plus, div_map = division.reduce_frames(frame, next_frame, lineages)
    mapping: dict[str, str] = {}
    # when every source cell divided there is nothing left to register
    if len(red_b) > 0:
        problem = registration.build_problem(
            red_b,
            red_b_plus,
            w=config.w,
            rho=config.rho,
            weights=config.registration_weights,
            g_rate=config.g_rate,
        )
        diag.padded_windows = len(problem.padded_sites)
        diag.clique_counts = problem.clique_counts
        diag.max_touched_cliques = int(problem.touched_cliques_per_site().max())
        result = registration.register(
            problem,
            schedule=config.registration_schedule,
            rng_seed=_pair_seed(config.seed, k, 1),
            dynamics=config.dynamics,
            alpha=config.alpha,
            restarts=config.restarts,
        )
        diag.registration = result.to_metadata()
        diag.registration["energy_trace"] = result.energy_trace
        mapping = dict(result.mapping)
    record = LineageRecord(frame.index, mapping, div_map)
    try:
        record.validate(frame, next_frame)
    except ValidationError as exc:
        diag.invalid = str(exc)
    diag.seconds = time.perf_counter() - started
    return record, diag


def track_sequence(
    frames: Sequence[Frame], config: PipelineConfig
) -> tuple[list[LineageRecord], list[PairDiagnostics]]:
    """Track every consecutive pair of a frame sequence."""
    if len(frames) < 2:
        raise ValidationError("tracking needs at least two frames")
    records: list[LineageRecord] = []
    diagnostics: list[PairDiagnostics] = []
    for k in range(len(frames) - 1):
        record, diag = track_pair(frames[k], frames[k + 1], config, k)
        records.append(record)
        diagnostics.append(diag)
    return records, diagnostics


@dataclass(frozen=True)
class PairScore:
    frame_index: int
    div_true: int
    div_correct: int
    n_moves: int
    moves_correct: int

    @property
    def pcp_accuracy(self) -> float | None:
        return self.div_correct / self.div_true if self.div_true > 0 else None

    @property
    def registration_accuracy(self) -> float | None:
        return self.moves_correct / self.n_moves if self.n_moves > 0 else None


@dataclass
class AccuracyReport:
    """Per-pair and aggregate accuracies against ground truth.

    pcp-accuracy is the fraction of correctly reconstructed parent-children
    triplets (all three ids must match); registration accuracy is the
    fraction of truly non-dividing cells mapped to their true successor.
    Pairs without divisions carry no pcp value.
    """

    pairs: list[PairScore]

    def _values(self, attr: str) -> list[float]:
        return [v for p in self.pairs if (v := getattr(p, attr)) is not None]

    @property
    def mean_pcp(self) -> float | None:
        vals = self._values("pcp_accuracy")
        return float(np.mean(vals)) if vals else None

    @property
    def min_pcp(self) -> float | None:
        vals = self._values("pcp_accuracy")
        return float(np.min(vals)) if vals else None

    @property
    def frac_pcp_perfect(self) -> float | None:
        vals = self._values("pcp_accuracy")
        if not vals:
            return None
        return float(np.mean([v >= 1.0 for v in vals]))

    @property
    def mean_registration(self) -> float | None:
        vals = self._values("registration_accuracy")
        return float(np.mean(vals)) if vals else None

    @property
    def min_registration(self) -> float | None:
        vals = self._values("registration_accuracy")
        return float(np.min(vals)) if vals else None

    def registration_histogram(
        self, edges: Sequence[float] = (1.0, 0.99, 0.97, 0.945)
    ) -> dict[str, int]:
        """Counts of pairs at accuracy 1.0, then within each half-open band."""
        vals = self._values("registration_accuracy")
        out: dict[str, int] = {}
        prev = None
        for edge in edges:
            if prev is None:
                out[f"= {edge:g}"] = sum(v >= edge for v in vals)
            else:
                out[f"[{edge:g}, {prev:g})"] = sum(edge <= v < prev for v in vals)
            prev = edge
        out[f"< {prev:g}"] = sum(v < prev for v in vals)
        return out

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "frame_index": p.frame_index,
                    "div_true": p.div_true,
                    "div_correct": p.div_correct,
                    "pcp_accuracy": p.pcp_accuracy,
                    "n_moves": p.n_moves,
                    "moves_correct": p.moves_correct,
                    "registration_accuracy": p.registration_accuracy,
                }
                for p in self.pairs
            ],
            "mean_pcp": self.mean_pcp,
            "min_pcp": self.min_pcp,
            "frac_pcp_perfect": self.frac_pcp_perfect,
            "mean_registration": self.mean_registration,
            "min_registration": self.min_registration,
            "registration_histogram": self.registration_histogram(),
        }


def score(
    records: Sequence[LineageRecord], ground_truth: Sequence[LineageRecord]
) -> AccuracyReport:
    """Compare reconstructed lineage records with ground truth, frame by frame.

    A reconstructed triplet counts only when parent and both children match;
    registration accuracy is evaluated over the cells that truly moved.
    """
    by_index = {rec.frame_index: rec for rec in records}
    truth_by_index = {rec.frame_index: rec for rec in ground_truth}
    if set(by_index) != set(truth_by_index):
        raise ValidationError(
            "predicted and ground-truth records cover different frame pairs"
        )
    pairs = []
    for idx in sorted(truth_by_index):
        truth = truth_by_index[idx]
        pred = by_index[idx]
        div_correct = sum(
            1
            for parent, kids in truth.divided.items()
            if parent in pred.divided
            and set(pred.divided[parent]) == set(kids)
        )
        moves_correct = sum(
            1 for a, b in truth.moved.items() if pred.moved.get(a) == b
        )
        pairs.append(
            PairScore(
                frame_index=idx,
                div_true=truth.n_divisions,
                div_correct=div_correct,
                n_moves=len(truth.moved),
                moves_correct=moves_correct,
            )
        )
    return AccuracyReport(pairs)
