"""Command-line driver: simulate, track, score, calibrate.

Exit codes: 0 success, 2 validation error, 3 infeasible problem.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import calibration, io, pipeline, registration
from .errors import InfeasibleError, ValidationError
from .pipeline import PipelineConfig
from .simulator import SimConfig, simulate, true_motion_bound


def _say(args, *message):
    if not args.quiet:
        print(*message)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    data = io.load_json(args.config) if args.config else {}
    if args.seed is not None:
        data["seed"] = args.seed
    config = SimConfig.from_dict(data)
    result = simulate(config)
    out = _outdir(args)
    io.write_frames_jsonl(result.frames, out / "frames.jsonl")
    io.write_lineage_csv(result.lineage, out / "lineage.csv")
    meta = {
        "n_frames": len(result.frames),
        "final_cells": len(result.frames[-1]),
        "total_divisions": sum(r.n_divisions for r in result.lineage),
        "truncated": result.truncated,
        "motion_bound": true_motion_bound(result.frames, result.lineage),
        "config": dataclasses.asdict(config),
    }
    io.dump_json(meta, out / "metadata.json")
    _say(
        args,
        f"simulated {len(result.frames)} frames, "
        f"{meta['final_cells']} final cells, "
        f"{meta['total_divisions']} divisions -> {out}",
    )
    if result.truncated:
        _say(args, "warning: simulation truncated (trap overfull)")
    return 0


def _load_pipeline_config(args) -> PipelineConfig:
    data = io.load_json(args.config) if args.config else {}
    if args.weights:
        wdata = io.load_json(args.weights)
        if "registration" in wdata:
            data["registration_weights"] = wdata["registration"]
        if "division" in wdata:
            data["division_weights"] = wdata["division"]
    if getattr(args, "schedule", None):
        sdata = io.load_json(args.schedule)
        if "dynamics" in sdata:
            data["dynamics"] = sdata.pop("dynamics")
        alpha = sdata.pop("alpha", None)
        if alpha is not None:
            data["alpha"] = alpha
        data["registration_schedule"] = sdata
    if getattr(args, "dynamics", None) is not None:
        data["dynamics"] = args.dynamics
    if args.seed is not None:
        data["seed"] = args.seed
    return PipelineConfig.from_dict(data)


def _cmd_track(args) -> int:
    config = _load_pipeline_config(args)
    frames = io.read_frames_jsonl(args.frames)
    records, diags = pipeline.track_sequence(frames, config)
    out = _outdir(args)
    io.write_lineage_csv(records, out / "tracking.csv")
    for diag in diags:
        trace = diag.registration.get("energy_trace", [])
        path = out / f"energy_trace_{diag.frame_index:04d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "energy"])
            writer.writerows(enumerate(trace))
        if diag.scatter:
            with open(out / f"scatter_{diag.frame_index:04d}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["candidate_id", "is_true_pair", "lin", "gap", "dev", "ratio", "rank"]
                )
                writer.writerows(diag.scatter)
    sched = config.registration_schedule
    meta = {
        "pairs": [
            {
                "frame_index": d.frame_index,
                "div_count": d.div_count,
                "candidates": d.n_candidates,
                "trimmed": d.n_trimmed,
                "dropped_pairs": [list(p) for p in d.dropped_pairs],
                "padded_windows": d.padded_windows,
                "clique_counts": list(d.clique_counts),
                "max_touched_cliques": d.max_touched_cliques,
                "registration": {
                    k: v for k, v in d.registration.items() if k != "energy_trace"
                },
                "seconds": d.seconds,
                "invalid": d.invalid,
            }
            for d in diags
        ],
        "seed": config.seed,
        "dynamics": config.dynamics,
        "registration_schedule": {
            "c": sched.c,
            "eta": sched.eta,
            "epoch_cap": sched.epoch_cap,
            "stability_window": sched.stability_window,
        },
    }
    io.dump_json(meta, out / "metadata.json")
    for d in diags:
        _say(
            args,
            f"pair {d.frame_index}: div={d.div_count} "
            f"energy={d.registration.get('energy', float('nan')):.4f} "
            f"epochs={d.registration.get('epochs')} ({d.seconds:.1f}s)",
        )
        if d.invalid:
            print(f"warning: pair {d.frame_index} is invalid: {d.invalid}", file=sys.stderr)
    _say(args, f"wrote tracking results -> {out}")
    return 0


def _cmd_score(args) -> int:
    predicted = io.read_lineage_csv(args.predicted)
    truth = io.read_lineage_csv(args.ground_truth)
    report = pipeline.score(predicted, truth)
    if args.out:
        io.dump_json(report.to_dict(), _outdir(args) / "report.json")
    for p in report.pairs:
        pcp = "-" if p.pcp_accuracy is None else f"{p.pcp_accuracy:.3f}"
        reg = "-" if p.registration_accuracy is None else f"{p.registration_accuracy:.3f}"
        _say(args, f"pair {p.frame_index}: pcp={pcp} registration={reg}")
    _say(
        args,
        f"mean pcp={report.mean_pcp} mean registration={report.mean_registration} "
        f"min registration={report.min_registration}",
    )
    _say(args, f"registration histogram: {report.registration_histogram()}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load_pipeline_config(args)
    frames = io.read_frames_jsonl(args.frames)
    truth = io.read_lineage_csv(args.ground_truth)
    truth_by_index = {rec.frame_index: rec for rec in truth}
    pair_index = args.pair
    if pair_index is None:
        pair_index = next(
            (
                f.index
                for f in frames[:-1]
                if truth_by_index.get(f.index) is not None
                and truth_by_index[f.index].n_divisions == 0
            ),
            None,
        )
        if pair_index is None:
            raise ValidationError("no division-free pair available for calibration")
    by_index = {f.index: f for f in frames}
    if pair_index not in by_index or pair_index + 1 not in by_index:
        raise ValidationError(f"frame pair {pair_index} not present in {args.frames}")
    rec = truth_by_index.get(pair_index)
    if rec is None or rec.n_divisions > 0:
        raise ValidationError(
            f"pair {pair_index} has divisions; calibration needs a division-free pair"
        )
    source, target = by_index[pair_index], by_index[pair_index + 1]
    problem = registration.build_problem(
        source, target, w=config.w, rho=config.rho,
        weights=config.registration_weights, g_rate=config.g_rate,
    )
    f = np.array([target.position(rec.moved[c.id]) for c in source.cells])
    instance = calibration.build_perturbations(
        f,
        problem,
        problem.windows,
        all_alternatives=args.all_alternatives,
        budget=args.budget,
        rng_seed=config.seed,
    )
    lam = calibration.calibrate(instance)
    out = _outdir(args)
    weights = registration.RegistrationWeights(*map(float, lam))
    io.dump_json({"registration": weights.to_dict()}, out / "weights.json")
    with open(out / "calibration_report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "margin", "slack"])
        writer.writerows(calibration.calibration_report(instance, lam))
    _say(
        args,
        f"calibrated on pair {pair_index} "
        f"({instance.perturbations.shape[0]} perturbations): "
        f"match={weights.match:.3f} over={weights.over:.3f} "
        f"stab={weights.stab:.3f} flip={weights.flip:.3f} -> {out}",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colony-track",
        description="Cell tracking in dense rod-cell colonies by Boltzmann-machine "
        "annealing, with a synthetic colony simulator and weight calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic colony sequence")
    sim.add_argument("--config", help="simulator config JSON")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--quiet", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    track = sub.add_parser("track", help="reconstruct lineage for a frame sequence")
    track.add_argument("--frames", required=True, help="frames JSON-lines file")
    track.add_argument("--config", help="pipeline config JSON")
    track.add_argument("--weights", help="weights JSON")
    track.add_argument("--schedule", help="annealing schedule JSON")
    track.add_argument(
        "--dynamics", choices=("async", "sync"), default=None,
        help="registration dynamics (default: the config value); "
        "children pairing always uses swap",
    )
    track.add_argument("--seed", type=int, default=None)
    track.add_argument("--out", required=True)
    track.add_argument("--quiet", action="store_true")
    track.set_defaults(func=_cmd_track)

    sc = sub.add_parser("score", help="compare tracking output with ground truth")
    sc.add_argument("--predicted", required=True, help="tracking lineage CSV")
    sc.add_argument("--ground-truth", required=True, help="ground-truth lineage CSV")
    sc.add_argument("--out", default=None)
    sc.add_argument("--quiet", action="store_true")
    sc.set_defaults(func=_cmd_score)

    cal = sub.add_parser("calibrate", help="estimate registration weights")
    cal.add_argument("--frames", required=True)
    cal.add_argument("--ground-truth", required=True)
    cal.add_argument("--config", help="pipeline config JSON")
    cal.add_argument("--weights", help="initial weights JSON")
    cal.add_argument("--pair", type=int, default=None, help="source frame index")
    cal.add_argument("--all-alternatives", action="store_true")
    cal.add_argument("--budget", type=float, default=1000.0)
    cal.add_argument("--seed", type=int, default=None)
    cal.add_argument("--out", required=True)
    cal.add_argument("--quiet", action="store_true")
    cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
