"""Which colony_track calls the traced run wraps, and the per-layer metrics.

Every wrapped name is looked up by its callers at call time (module globals,
module attributes or class attributes), so replacing it reaches every call
the tracker makes. ``PER_LAYER`` lists the metrics in the order printed.
"""

from __future__ import annotations

from colony_track import (
    annealer,
    calibration,
    division,
    geometry,
    pipeline,
    registration,
    simulator,
)

from .spans import Tracer


def _dynamics(args, kwargs) -> str:
    return kwargs.get("dynamics", args[1] if len(args) > 1 else "async")


def _anneal_done(tr: Tracer, args, kwargs, result) -> None:
    dyn = _dynamics(args, kwargs)
    energies = result.epoch_energies
    low = min(energies)
    tol = 1e-9 * max(1.0, abs(low))
    useful = next(e for e, v in enumerate(energies) if v <= low + tol) + 1
    tr.count("anneal.chains")
    tr.count(f"anneal.{dyn}_steps", result.n_steps)
    tr.count("anneal.epochs", result.n_epochs)
    tr.count("anneal.useful_epochs", useful)
    tr.count("anneal.stable", result.stopped == "stable")
    tr.count("anneal.best_final_gap", result.final_energy - result.best_energy)


def _problem_built(tr: Tracer, args, kwargs, problem) -> None:
    tr.count("registration.problems")
    tr.count("registration.cliques", sum(problem.clique_counts))
    tr.count("registration.sites", problem.n)
    tr.count("registration.window_cells", sum(len(w) for w in problem.windows))
    tr.count("registration.padded_windows", len(problem.padded_sites))


def install(tr: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark measures."""
    tr.wrap(simulator, "simulate", "simulator.simulate",
            lambda t, a, k, r: t.count("simulator.frames", len(r.frames)))
    for owner in (geometry, registration):
        tr.wrap(owner, "build_neighbor_graph", "geometry.build_neighbor_graph")
    tr.wrap(division, "build_pch", "division.build_pch",
            lambda t, a, k, r: t.count("division.candidates", len(r)))
    tr.count_calls(division, "estimate_parent", "division.estimate_parent_calls")
    tr.wrap(division, "trim_candidates", "division.trim_candidates",
            lambda t, a, k, r: t.count("division.kept", len(r)))
    tr.wrap(division, "build_children_bm", "division.build_children_bm",
            lambda t, a, k, r: t.count("division.conflict_pairs", int(r.q.sum()) // 2))
    tr.wrap(division, "max_disjoint_candidates", "division.max_disjoint_candidates")
    tr.wrap(division.ChildrenBmProblem, "to_bm", "division.children_to_bm")
    tr.wrap(division, "solve_children_bm", "division.solve_children_bm")
    tr.wrap(division, "select_short_lineages", "division.select_short_lineages",
            lambda t, a, k, r: t.count("division.dropped_pairs", len(r[1])))
    tr.wrap(registration, "build_problem", "registration.build_problem", _problem_built)
    tr.wrap(registration, "fit_likelihood_model", "registration.fit_likelihood")
    tr.wrap(registration.RegistrationProblem, "to_bm", "registration.to_bm")
    tr.wrap(registration, "initial_assignment", "registration.initial_assignment")
    tr.wrap(registration, "register", "registration.register")
    tr.wrap(annealer, "anneal", lambda a, k: f"annealer.{_dynamics(a, k)}", _anneal_done)
    tr.wrap(calibration, "build_perturbations", "calibration.build_perturbations",
            lambda t, a, k, r: t.count("calibration.rows", r.perturbations.shape[0]))
    tr.wrap(calibration, "calibrate", "calibration.calibrate")
    tr.wrap(pipeline, "track_pair", "pipeline.track_pair")
    tr.wrap(pipeline, "score", "pipeline.score")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    sp, c = tr.spans, tr.counters

    def total(name):
        return sp[name].total_s if name in sp else 0.0

    def own(name):
        return sp[name].self_s if name in sp else 0.0

    def calls(name):
        return float(sp[name].calls) if name in sp else 0.0

    chains = c["anneal.chains"]
    return {
        "annealer.async_s": (total("annealer.async"), "s"),
        "annealer.async_steps_per_s": (
            _ratio(c["anneal.async_steps"], total("annealer.async")), "1/s"),
        "annealer.swap_s": (total("annealer.swap"), "s"),
        "annealer.swap_steps_per_s": (
            _ratio(c["anneal.swap_steps"], total("annealer.swap")), "1/s"),
        "annealer.chains": (chains, "count"),
        "annealer.epochs": (c["anneal.epochs"], "count"),
        "annealer.stable_stop_frac": (_ratio(c["anneal.stable"], chains), "frac"),
        "annealer.best_final_gap": (_ratio(c["anneal.best_final_gap"], chains), "energy"),
        "annealer.useful_epoch_frac": (
            _ratio(c["anneal.useful_epochs"], c["anneal.epochs"]), "frac"),
        "division.build_pch_s": (total("division.build_pch"), "s"),
        "division.candidates": (c["division.candidates"], "count"),
        "division.estimate_parent_calls": (c["division.estimate_parent_calls"], "count"),
        "division.trim_kept_frac": (
            _ratio(c["division.kept"], c["division.candidates"]), "frac"),
        "division.build_children_bm_s": (own("division.build_children_bm"), "s"),
        "division.max_disjoint_s": (total("division.max_disjoint_candidates"), "s"),
        "division.conflict_pairs": (c["division.conflict_pairs"], "count"),
        "division.children_to_bm_s": (total("division.children_to_bm"), "s"),
        "division.solve_children_bm_self_s": (own("division.solve_children_bm"), "s"),
        "division.select_short_lineages_s": (total("division.select_short_lineages"), "s"),
        "division.dropped_pairs": (c["division.dropped_pairs"], "count"),
        "geometry.build_neighbor_graph_s": (total("geometry.build_neighbor_graph"), "s"),
        "geometry.build_neighbor_graph_calls": (
            calls("geometry.build_neighbor_graph"), "count"),
        "registration.build_problem_s": (own("registration.build_problem"), "s"),
        "registration.fit_likelihood_s": (total("registration.fit_likelihood"), "s"),
        "registration.to_bm_s": (total("registration.to_bm"), "s"),
        "registration.initial_assignment_s": (
            total("registration.initial_assignment"), "s"),
        "registration.register_s": (own("registration.register"), "s"),
        "registration.cliques": (c["registration.cliques"], "count"),
        "registration.window_mean": (
            _ratio(c["registration.window_cells"], c["registration.sites"]), "cells"),
        "registration.padded_windows": (c["registration.padded_windows"], "count"),
        "calibration.build_perturbations_s": (
            total("calibration.build_perturbations"), "s"),
        "calibration.rows": (c["calibration.rows"], "count"),
        "calibration.calibrate_s": (total("calibration.calibrate"), "s"),
        "simulator.simulate_s": (total("simulator.simulate"), "s"),
        "simulator.frames": (c["simulator.frames"], "count"),
        "pipeline.track_pair_self_s": (own("pipeline.track_pair"), "s"),
        "pipeline.score_s": (total("pipeline.score"), "s"),
    }
