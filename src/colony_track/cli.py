"""Command-line driver: simulate, track, score, calibrate.

Exit codes: 0 success, 2 validation error, 3 infeasible problem. A command
checks its inputs, ``--out`` and the file names in it before it computes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import calibration, division, io, pipeline, registration
from .errors import InfeasibleError, ValidationError
from .pipeline import PipelineConfig
from .simulator import SimConfig, simulate, true_motion_bound


def _say(args, *message):
    if not args.quiet:
        print(*message)


def _cmd_simulate(args) -> int:
    data = io.load_json(args.config, "JSON config") if args.config else {}
    if args.seed is not None:
        data["seed"] = args.seed
    config = io.from_json(SimConfig, data, "simulator config")
    out = io.output_dir(args.out, ["frames.jsonl", "lineage.csv", "metadata.json"])
    result = simulate(config)
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
    data = io.load_json(args.config, "JSON config") if args.config else {}
    if getattr(args, "weights", None):
        wdata = io.load_json(args.weights, "weights file")
        unknown = set(wdata) - {"registration", "division"}
        if unknown:
            raise ValidationError(f"unknown weights sections: {sorted(unknown)}")
        if "registration" in wdata:
            data["registration_weights"] = wdata["registration"]
        if "division" in wdata:
            data["division_weights"] = wdata["division"]
    if args.seed is not None:
        data["seed"] = args.seed
    return io.from_json(PipelineConfig, data, "pipeline config")


def _cmd_track(args) -> int:
    config = _load_pipeline_config(args)
    frames = io.read_frames_jsonl(args.frames)
    traces = {f.index: f"energy_trace_{f.index:04d}.csv" for f in frames[:-1]}
    scatters = {f.index: f"scatter_{f.index:04d}.csv" for f, g in zip(frames, frames[1:])
                if len(g) > len(f)}
    names = ["tracking.csv", "metadata.json", *traces.values(), *scatters.values()]
    out = io.output_dir(args.out, names)
    records, diags = pipeline.track_sequence(frames, config)
    io.write_lineage_csv(records, out / "tracking.csv")
    for diag in diags:
        with io.writing(out / traces[diag.frame_index]) as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "energy"])
            writer.writerows(enumerate(diag.energy_trace))
        if diag.kept:
            with io.writing(out / scatters[diag.frame_index]) as fh:
                writer = csv.writer(fh)
                writer.writerow(["candidate_id", "is_true_pair", *division.PENALTY_NAMES])
                ids = diag.kept.ids
                for (a, b), values in zip(diag.kept.cells.tolist(), diag.kept.penalties.tolist()):
                    writer.writerow([f"{ids[a]}+{ids[b]}", "", *values])
    meta = {
        "pairs": [d.metadata() for d in diags],
        "seed": config.seed,
        "registration_schedule": dataclasses.asdict(config.registration_schedule),
        "children_schedule": dataclasses.asdict(config.children_schedule),
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
    out = io.output_dir(args.out, ["report.json"]) if args.out else None
    report = pipeline.score(predicted, truth)
    if out:
        io.dump_json(report.to_dict(), out / "report.json")
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
    try:
        rec.validate(source, target)
    except ValidationError as exc:
        raise ValidationError(f"{args.ground_truth}: pair {pair_index}: {exc}") from exc
    out = io.output_dir(args.out, ["weights.json", "calibration_report.csv"])
    problem = registration.build_problem(
        source, target, w=config.w, rho=config.rho,
        weights=config.registration_weights, g_rate=config.g_rate,
    )
    f = np.array([target.position(rec.moved[cid]) for cid in source.ids])
    instance = calibration.build_perturbations(
        f,
        problem,
        all_alternatives=args.all_alternatives,
        budget=args.budget,
        rng_seed=config.seed,
    )
    lam = calibration.calibrate(instance)
    weights = registration.RegistrationWeights(*map(float, lam))
    io.dump_json({"registration": dataclasses.asdict(weights)}, out / "weights.json")
    with io.writing(out / "calibration_report.csv") as fh:
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
