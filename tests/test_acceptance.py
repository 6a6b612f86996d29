"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colony_track import division, registration
from colony_track.annealer import BmConfig, BmProblem, Clique, Schedule, anneal, step_swap
from colony_track.calibration import CalibrationInstance, build_perturbations, calibrate, objective
from colony_track.division import build_children_bm, solve_children_bm
from colony_track.geometry import build_neighbor_graph
from colony_track.pipeline import PipelineConfig, score, track_sequence
from colony_track.registration import (
    EmpiricalCdf,
    RegistrationWeights,
    build_problem,
    register,
)
from colony_track.simulator import LineageRecord, SimConfig, simulate
from trackbench import measure, workloads

from conftest import (
    jittered_copy,
    make_cell,
    make_frame,
    random_frame,
    small_registration_problem,
)

BENCHMARK_SCHEDULE = Schedule(c=30.0, eta=0.9995, epoch_cap=400)
REFERENCE_WEIGHTS = RegistrationWeights(110.0, 300.0, 300.0, 290.0)
SIX_MINUTE_G_RATE = 1.005**6
PIPELINE_SIM = SimConfig(
    seed=21, n_frames=51, initial_cells=8, w=45.0, interframe_minutes=1.0,
    motion_sigma=1.0, substeps=3,
)
PIPELINE_CONFIG = PipelineConfig(w=45.0, rho=80.0, tau=45.0, g_rate=1.05, seed=9)


def _report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion: exhaustive-oracle equivalence, registration -------------------


def test_registration_exhaustive_oracle_equivalence():
    started = time.perf_counter()
    hits = beyond = 0
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        problem = small_registration_problem(seed=seed * 31, n=6, w=34.0, shift=3.0)
        if max(len(w) for w in problem.windows) > 3:
            continue
        done += 1
        best = min(
            problem.cost(np.array(combo))
            for combo in itertools.product(*[w.tolist() for w in problem.windows])
        )
        result = register(problem, rng_seed=seed)
        if result.energy <= best + 1e-9:
            hits += 1
        if result.energy > best * 1.05 + 1e-9:
            beyond += 1
    elapsed = time.perf_counter() - started
    _report(
        "registration-exhaustive-oracle",
        hits >= 48 and beyond == 0 and elapsed < 60.0,
        f"exact {hits}/50, {beyond} beyond 5%, {elapsed:.1f}s",
    )


# -- criterion: exhaustive-oracle equivalence, children pairing ---------------


def _toy_candidates(rng, m, cells=8):
    names = [f"t{i}" for i in range(cells)]
    cands = []
    seen = set()
    while len(cands) < m:
        a, b = rng.choice(cells, size=2, replace=False)
        key = frozenset((names[a], names[b]))
        if key in seen:
            continue
        seen.add(key)
        cands.append(
            division.PairCandidate(
                (names[a], names[b]),
                lin=float(rng.uniform(0, 2)),
                gap=float(rng.uniform(0, 5)),
                dev=float(rng.uniform(0, 0.5)),
                ratio=float(rng.uniform(0, 0.3)),
                rank=float(rng.uniform(0, 1)),
                parent=f"p{len(cands)}",
            )
        )
    return cands


def test_children_exhaustive_oracle_equivalence():
    started = time.perf_counter()
    hits = 0
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        rng = np.random.default_rng(seed * 17)
        m = int(rng.integers(5, 13))
        div_count = int(rng.integers(1, 4))
        cands = _toy_candidates(rng, m)
        problem = build_children_bm(cands, div_count)
        if problem.infeasible:
            continue
        done += 1
        best = min(
            problem.energy(np.array([1 if i in combo else 0 for i in range(m)]))
            for combo in itertools.combinations(range(m), div_count)
        )
        selected = solve_children_bm(problem, rng_seed=seed)
        z = np.zeros(m)
        z[selected] = 1
        hits += problem.energy(z) <= best + 1e-9
    elapsed = time.perf_counter() - started
    _report(
        "children-exhaustive-oracle",
        hits >= 48 and elapsed < 60.0,
        f"exact {hits}/50, {elapsed:.1f}s",
    )


# -- criterion: energy identity -----------------------------------------------


def test_energy_identity_cost_equals_clique_energy():
    worst = 0.0
    for seed in range(20):
        problem = small_registration_problem(seed=seed + 900, n=9, shift=4.0)
        bm = problem.to_bm()
        rng = np.random.default_rng(seed)
        for _ in range(100):
            a = np.array([rng.choice(w) for w in problem.windows])
            err = abs(bm.energy(problem.states_for(a)) - problem.cost(a))
            worst = max(worst, err)
    _report(
        "energy-identity",
        worst <= 1e-9,
        f"max |E(range(f)) - cost(f)| = {worst:.2e} over 2000 assignments",
    )


# -- criterion: incremental-delta consistency ----------------------------------


def test_incremental_delta_consistency_all_dynamics():
    worst = {"async": 0.0, "sync": 0.0, "swap": 0.0}

    problem = small_registration_problem(seed=1234, n=30, w=80.0, shift=4.0)
    bm = problem.to_bm()
    rng = np.random.default_rng(0)
    config = BmConfig(bm, np.zeros(bm.n_sites, dtype=np.int64))
    for _ in range(10_000):
        site = int(rng.integers(bm.n_sites))
        cand = int(rng.integers(bm.sizes[site]))
        deltas = config.delta_vector(site)
        config.apply(site, cand, float(deltas[cand]))
        if rng.random() < 0.02:
            worst["async"] = max(worst["async"], abs(config.energy - bm.energy(config.states)))
    worst["async"] = max(worst["async"], abs(config.energy - bm.energy(config.states)))

    # synchronous: tagged joint commits, checked against full recomputation
    from colony_track.annealer import step_sync

    config = BmConfig(bm, np.zeros(bm.n_sites, dtype=np.int64))
    updates = 0
    while updates < 10_000:
        step_sync(config, temp=5.0, alpha=0.5, rng=rng)
        updates += int(0.5 * bm.n_sites)
        worst["sync"] = max(worst["sync"], abs(config.energy - bm.energy(config.states)))

    rng2 = np.random.default_rng(7)
    cands = _toy_candidates(np.random.default_rng(11), 40, cells=30)
    children = build_children_bm(cands, 5)
    cbm = children.to_bm()
    states = np.zeros(40, dtype=np.int64)
    states[:5] = 1
    config = BmConfig(cbm, states)
    for step in range(10_000):
        step_swap(config, temp=2.0, rng=rng2)
        if step % 100 == 0:
            worst["swap"] = max(worst["swap"], abs(config.energy - cbm.energy(config.states)))
    worst["swap"] = max(worst["swap"], abs(config.energy - cbm.energy(config.states)))

    bad = max(worst.values())
    _report(
        "incremental-delta-consistency",
        bad <= 1e-9,
        "max drift " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


# -- criterion: six-minute registration reproduction -------------------------


def test_six_minute_registration_accuracy(six_minute_run):
    started = time.perf_counter()
    frames, lineage = six_minute_run.frames, six_minute_run.lineage
    records = []
    for k in range(2, 22):
        src, dst = frames[k], frames[k + 1]
        problem = build_problem(
            src, dst, w=100.0, rho=80.0, weights=REFERENCE_WEIGHTS, g_rate=SIX_MINUTE_G_RATE
        )
        result = register(problem, schedule=BENCHMARK_SCHEDULE, rng_seed=5, restarts=2)
        records.append(LineageRecord(src.index, result.mapping, {}))
    report = score(records, lineage[2:22])
    mean, low = report.mean_registration, report.min_registration
    elapsed = time.perf_counter() - started
    _report(
        "six-minute-registration",
        len(report.pairs) == 20 and low >= 0.94 and mean >= 0.97 and elapsed < 1800,
        f"20 pairs, mean {mean:.4f} (>=0.97), min {low:.4f} (>=0.94), "
        f"{elapsed:.0f}s (<1800s), histogram {report.registration_histogram()}",
    )


# -- criterion: minute-frame parent-children pairing ----------------------------


def test_children_pairing_accuracy(minute_run):
    frames, lineage = minute_run.frames, minute_run.lineage
    weights = division.DivisionWeights()
    per_frame = []
    for k, rec in enumerate(lineage):
        if rec.n_divisions == 0:
            continue
        f0, f1 = frames[k], frames[k + 1]
        cands = division.build_pch(f0, f1, tau=45.0, w=45.0, weights=weights.distortion)
        kept = division.trim_candidates(cands)
        problem = division.build_children_bm(kept, rec.n_divisions, weights)
        selected = division.solve_children_bm(problem, rng_seed=k)
        lineages, _ = division.select_short_lineages(
            f0, f1, kept, selected, 45.0, weights.distortion
        )
        truth = {(p, frozenset(kids)) for p, kids in rec.divided.items()}
        val = sum(1 for sl in lineages if (sl.parent, frozenset(sl.children)) in truth)
        per_frame.append(val / rec.n_divisions)
    per_frame = np.array(per_frame)
    _report(
        "children-pairing",
        per_frame.mean() >= 0.95 and (per_frame == 1.0).mean() >= 0.80,
        f"{len(per_frame)} division frames, mean pcp {per_frame.mean():.4f} (>=0.95), "
        f"perfect fraction {(per_frame == 1.0).mean():.3f} (>=0.80)",
    )


# -- criterion: full pipeline with divisions ------------------------------------


def test_full_pipeline_end_to_end_accuracy():
    run = simulate(PIPELINE_SIM)
    assert not run.truncated
    records, _ = track_sequence(run.frames, PIPELINE_CONFIG)
    report = score(records, run.lineage)
    _report(
        "full-pipeline",
        report.mean_registration >= 0.97,
        f"50 pairs, mean end-to-end registration {report.mean_registration:.4f} "
        f"(>=0.97), mean pcp {report.mean_pcp:.3f}",
    )


# -- benchmark inputs: trackbench's seed-0 workloads are the gates' inputs -------


def _assert_same_run(frames, lineage, ref_frames, ref_lineage):
    assert len(frames) == len(ref_frames)
    for f, ref in zip(frames, ref_frames):
        assert (f.index, f.ids) == (ref.index, ref.ids)
        assert [(c.e.tobytes(), c.h.tobytes(), c.width) for c in f] == [
            (c.e.tobytes(), c.h.tobytes(), c.width) for c in ref
        ]
    assert lineage == ref_lineage


def test_benchmark_inputs_equal_gate_inputs(six_minute_run):
    wl = workloads.reg6min(0)
    _assert_same_run(wl.frames, wl.lineage, six_minute_run.frames, six_minute_run.lineage)
    assert wl.pairs == list(range(2, 22))
    wl = workloads.pipeline21(0)
    ref = simulate(PIPELINE_SIM)
    _assert_same_run(wl.frames, wl.lineage, ref.frames, ref.lineage)
    assert wl.pairs == list(range(len(ref.frames) - 1))
    assert measure.REG6MIN_WEIGHTS == REFERENCE_WEIGHTS
    assert measure.REG6MIN_SCHEDULE == BENCHMARK_SCHEDULE
    assert measure.REG6MIN_G_RATE == SIX_MINUTE_G_RATE
    assert measure.PIPELINE_CONFIG == PIPELINE_CONFIG


# -- criterion: calibration sanity ----------------------------------------------


def test_calibration_sanity(six_minute_run):
    frames, lineage = six_minute_run.frames, six_minute_run.lineage
    src, dst = frames[2], frames[3]
    problem = build_problem(src, dst, w=100.0, rho=80.0, g_rate=SIX_MINUTE_G_RATE)
    truth = np.array([dst.position(lineage[2].moved[c.id]) for c in src.cells])
    instance = build_perturbations(
        truth, problem, problem.windows, all_alternatives=True
    )
    lam = calibrate(instance)
    margins = instance.perturbations @ lam
    per_site = {}
    for (site, _), margin in zip(instance.labels, margins):
        per_site[site] = min(per_site.get(site, np.inf), margin)
    local_min_frac = np.mean([v >= -1e-9 for v in per_site.values()])

    # grid-search oracle agreement on 2-penalty toys
    grid_ok = True
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rows = rng.normal(loc=0.1, size=(10, 2))
        inst = CalibrationInstance(rows, gamma=3.0, budget=10.0)
        got = objective(inst, calibrate(inst))
        best = min(
            objective(inst, np.array([i, j]) * (10.0 / 100))
            for i in range(101)
            for j in range(101 - i)
        )
        grid_ok = grid_ok and got <= best + 1e-3
    _report(
        "calibration-sanity",
        local_min_frac >= 0.99 and grid_ok,
        f"single-move local minimum at {local_min_frac:.3f} of cells (>=0.99), "
        f"grid oracle {'ok' if grid_ok else 'failed'}",
    )


# -- criterion: property suites at 1000 cases each -------------------------------

N_CASES = 1000


@settings(max_examples=N_CASES)
@given(st.integers(0, 10**9))
def test_property_neighbor_graph_symmetry_rho(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    rho = float(rng.uniform(25.0, 100.0))
    frame = random_frame(rng, n, span=120.0, min_dist=13.0)
    graph = build_neighbor_graph(frame, rho=rho)
    assert np.array_equal(graph.adj, graph.adj.T)
    assert not np.any(np.diag(graph.adj))
    centers = frame.centers()
    for i, j in graph.edges():
        assert np.hypot(*(centers[i] - centers[j])) <= rho + 1e-9


@settings(max_examples=N_CASES)
@given(st.integers(0, 10**9))
def test_property_swap_conserves_cardinality(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    cliques = [Clique((j,), rng.normal(size=2)) for j in range(m)]
    problem = BmProblem([2] * m, cliques)
    states = (rng.random(m) < 0.5).astype(np.int64)
    config = BmConfig(problem, states)
    weight = int(states.sum())
    for _ in range(12):
        step_swap(config, temp=1.0, rng=rng)
        assert int(config.states.sum()) == weight


@settings(max_examples=N_CASES)
@given(st.integers(0, 10**9))
def test_property_anneal_deterministic_under_seed(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    sizes = [int(rng.integers(2, 4)) for _ in range(m)]
    cliques = [Clique((j,), rng.normal(size=sizes[j])) for j in range(m)]
    problem = BmProblem(sizes, cliques)
    sched = Schedule(c=2.0, eta=0.995, epoch_cap=8)
    a = anneal(problem, "async", sched, rng_seed=seed, record_steps=True)
    b = anneal(problem, "async", sched, rng_seed=seed, record_steps=True)
    assert a.step_trace == b.step_trace
    assert a.best_states.tolist() == b.best_states.tolist()


@settings(max_examples=N_CASES)
@given(st.integers(0, 10**9))
def test_property_simulator_lineage_forest(seed):
    rng = np.random.default_rng(seed)
    cfg = SimConfig(
        seed=seed % (2**32),
        n_frames=3,
        initial_cells=int(rng.integers(1, 4)),
        motion_sigma=float(rng.uniform(0.0, 2.0)),
        substeps=2,
        relax_iterations=30,
    )
    result = simulate(cfg)
    for rec in result.lineage:
        rec.validate(result.frames[rec.frame_index], result.frames[rec.frame_index + 1])


@settings(max_examples=N_CASES)
@given(
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=30),
    st.integers(0, 29),
)
def test_property_ecdf_order_statistics(samples, pick):
    cdf = EmpiricalCdf(samples)
    ordered = np.sort(np.asarray(samples))
    k = pick % len(samples)
    x = ordered[k]
    assert cdf(x) == pytest.approx(np.searchsorted(ordered, x, side="right") / len(samples))
    assert cdf(ordered[-1]) == 1.0
    assert cdf(ordered[0] - 1.0) == 0.0
