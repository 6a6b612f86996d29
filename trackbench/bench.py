"""End-to-end and traced runs of one workload; see README.md."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import numpy as np

from . import layers
from .measure import Pass, accuracy_problems, check, track_pair, track_pass
from .spans import Tracer
from .workloads import GENERATORS

# Set-ups per untraced run; the median is reported.
SETUP_REPS = {"reg6min": 1, "pipeline21": 2, "tiled-large": 2}
# Workload sizes of a benchmark run. ``full=True`` drops these and runs the
# generators' defaults, the acceptance gate's complete workloads.
RUN_SIZES = {"reg6min": {"pairs": 5}}
# Seconds one untraced pass of a benchmark run's workload takes on a shared
# 2-vCPU x86 VM, roughly; they turn ``--seconds`` into a number of passes.
PASS_S = {"reg6min": 15.0, "pipeline21": 20.0, "tiled-large": 23.0}
# Further six-minute-stage seeds a reg6min run may draw when its seed's
# simulation stops early; the run prints how many it skipped.
REG6MIN_REDRAWS = 3


def _median(values):
    return float(statistics.median(values))


def _report(result: dict, lines: dict) -> None:
    """Print each metric line, then the JSON result as the last line."""
    for name, (value, unit) in lines.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))


def _setup(name: str, seed: int, reps: int, full: bool):
    args = {} if full else dict(RUN_SIZES.get(name, {}))
    if name == "reg6min":
        args["redraws"] = REG6MIN_REDRAWS
    times, wl = [], None
    for _ in range(reps):
        started = time.perf_counter()
        wl = GENERATORS[name](seed, **args)
        times.append(time.perf_counter() - started)
    return wl, _median(times)


def _passes(wl, seconds: float):
    """``round(seconds / PASS_S)`` tracking passes, at least one.

    The count depends on ``seconds`` and the workload only, never on how fast
    the machine happens to run, so every run of a workload does the same work
    and reports the same number of attempted pairs.
    """
    count = max(1, round(seconds / PASS_S[wl.name]))
    return [track_pass(wl) for _ in range(count)]


def _outcome(wl, passes):
    """The JSON verdict; in a traced run the second pass is the traced one."""
    first = passes[0]
    problems = accuracy_problems(wl, first)
    if not all(p.same_outputs(first) for p in passes[1:]):
        problems.append("passes over the same inputs gave different outputs")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(p.records) for p in passes),
        "failed": sum(p.failed for p in passes),
    }


def _timings(passes) -> dict:
    """Tracking time (median over passes) and per-pair latency percentiles."""
    latencies = [t for p in passes for t in p.pair_s]
    return {
        "track_s": (_median([p.track_s for p in passes]), "s"),
        "pair_s_p50": (_median(latencies), "s"),
        "pair_s_p80": (float(np.percentile(latencies, 80)), "s"),
    }


def _accuracy_lines(first) -> dict:
    reg = first.registration_acc
    lines = {
        "failed_pairs_frac": (first.failed / len(first.records), "frac"),
        "registration_acc_mean": (float(np.mean(reg)) if reg else 0.0, "frac"),
        "registration_acc_min": (float(np.min(reg)) if reg else 0.0, "frac"),
    }
    if first.pcp_acc:
        lines["pcp_acc_mean"] = (float(np.mean(first.pcp_acc)), "frac")
    if first.calibration_s:
        lines["calibration_s"] = (float(sum(first.calibration_s)), "s")
    return lines


def run_untraced(name: str, seed: int, seconds: float, full: bool = False) -> int:
    wl, setup_s = _setup(name, seed, SETUP_REPS[name], full)
    passes = _passes(wl, seconds)
    first = passes[0]
    printed = _accuracy_lines(first)
    metrics = {
        "setup_s": (setup_s, "s"),
        "registration_acc_mean": printed.pop("registration_acc_mean"),
        "registration_acc_min": printed.pop("registration_acc_min"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    printed.update(_timings(passes))
    result = _outcome(wl, passes)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    first_n, last_n = wl.cells
    print(f"{name} seed {seed}: {len(wl.pairs)} pairs, {first_n}->{last_n} cells, "
          f"{len(passes)} pass(es), {wl.redrawn} simulator seed(s) redrawn")
    _report(result, {**metrics, **printed})
    return 0


def run_traced(name: str, seed: int, full: bool = False) -> int:
    """Track each pair untraced, then at once traced, so that both passes see
    the machine in the same state and ``trace_overhead_frac`` compares them
    fairly."""
    tracer = Tracer()
    layers.install(tracer)
    with tracer:
        wl, _ = _setup(name, seed, 1, full)
    untraced, traced = Pass(), Pass()
    for k in wl.pairs:
        track_pair(wl, k, untraced)
        layers.install(tracer)
        with tracer:
            track_pair(wl, k, traced)
    check(wl, untraced)
    layers.install(tracer)
    with tracer:
        check(wl, traced)
    metrics = {**_timings([untraced]), **layers.per_layer(tracer)}
    metrics["trace_overhead_frac"] = (traced.track_s / untraced.track_s - 1.0, "frac")
    printed = _accuracy_lines(untraced)
    metrics["division.pcp_acc_mean"] = printed.pop("pcp_acc_mean", (0.0, "frac"))
    result = _outcome(wl, [untraced, traced])
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(f"{name} seed {seed} traced: untraced track {untraced.track_s:.3f} s, "
          f"traced track {traced.track_s:.3f} s")
    _report(result, {**metrics, **printed})
    return 0
