import json

import numpy as np
import pytest

from colony_track import io, registration
from colony_track.cli import main
from colony_track.errors import InfeasibleError, ValidationError
from colony_track.pipeline import PipelineConfig, score, track_pair, track_sequence
from colony_track.simulator import LineageRecord, SimConfig, simulate

from conftest import make_cell, make_frame


@pytest.fixture(scope="module")
def small_run():
    cfg = SimConfig(seed=7, n_frames=25, initial_cells=4, w=45.0, interframe_minutes=1.0,
                    motion_sigma=1.5, substeps=3)
    return simulate(cfg)


def small_config(**kw):
    return PipelineConfig(w=45.0, rho=80.0, tau=45.0, g_rate=1.05, seed=3, **kw)


# -- track_sequence ----------------------------------------------------------


def test_static_identity_colony_maps_identically():
    cells = [make_cell(f"c{i}", (30.0 * i, 0.0)) for i in range(5)]
    f0 = make_frame(cells, index=0)
    f1 = make_frame(cells, index=1)
    records, _ = track_sequence([f0, f1], small_config())
    assert records[0].divided == {}
    assert records[0].moved == {c.id: c.id for c in cells}


def test_single_division_forced_by_cardinality():
    parent = make_cell("p", (0, 0), length=40.0)
    other = make_cell("q", (60, 0), length=25.0)
    f0 = make_frame([parent, other], index=0)
    kids = [
        make_cell("k1", (-10, 0), length=19.5),
        make_cell("k2", (10.5, 0), length=20.5),
        make_cell("q", (61, 0), length=26.0),
    ]
    f1 = make_frame(kids, index=1)
    records, diags = track_sequence([f0, f1], small_config())
    assert records[0].divided == {"p": ("k1", "k2")}
    assert records[0].moved == {"q": "q"}
    assert diags[0].div_count == 1


def test_every_cell_divides_skips_registration():
    parent = make_cell("p", (0, 0), length=40.0)
    f0 = make_frame([parent], index=0)
    kids = [
        make_cell("k1", (-10, 0), length=19.5),
        make_cell("k2", (10.5, 0), length=20.5),
    ]
    f1 = make_frame(kids, index=1)
    records, _ = track_sequence([f0, f1], small_config())
    assert records[0].moved == {}
    assert records[0].divided == {"p": ("k1", "k2")}


def test_cell_loss_rejected():
    f0 = make_frame([make_cell("a", (0, 0)), make_cell("b", (40, 0))], index=0)
    f1 = make_frame([make_cell("a", (0, 0))], index=1)
    with pytest.raises(ValidationError, match="cell loss"):
        track_sequence([f0, f1], small_config())


def test_track_sequence_needs_two_frames():
    f0 = make_frame([make_cell("a", (0, 0))])
    with pytest.raises(ValidationError):
        track_sequence([f0], small_config())


def test_infeasible_divisions_raise():
    f0 = make_frame([make_cell("a", (0, 0))], index=0)
    far = [make_cell(f"t{i}", (300.0 * i, 200.0), length=18.0) for i in range(3)]
    f1 = make_frame([make_cell("a", (1, 0))] + far, index=1)
    with pytest.raises(InfeasibleError):
        track_sequence([f0, f1], small_config())


def test_tracking_matches_truth_on_small_run(small_run):
    records, diags = track_sequence(small_run.frames, small_config())
    report = score(records, small_run.lineage)
    assert report.mean_registration >= 0.99
    assert report.mean_pcp is None or report.mean_pcp >= 0.9
    # conservation: sources cover the frame, targets cover the next frame
    for rec, frame, nxt in zip(records, small_run.frames, small_run.frames[1:]):
        assert len(rec.moved) + len(rec.divided) == len(frame)
        assert len(rec.moved) + 2 * len(rec.divided) == len(nxt)


def test_pipeline_decisions_deterministic(small_run):
    frames = small_run.frames[:8]
    r1, _ = track_sequence(frames, small_config())
    r2, _ = track_sequence(frames, small_config())
    assert [(r.moved, r.divided) for r in r1] == [(r.moved, r.divided) for r in r2]


def test_pipeline_config_from_dict_roundtrip():
    config = PipelineConfig.from_dict(
        {
            "w": 45.0,
            "tau": 30.0,
            "registration_weights": {"match": 100.0, "over": 200.0, "stab": 10.0, "flip": 5.0},
            "registration_schedule": {"c": 10.0, "eta": 0.997, "epoch_cap": 50},
        }
    )
    assert config.tau == 30.0
    assert config.registration_weights.over == 200.0
    assert config.registration_schedule.epoch_cap == 50
    with pytest.raises(ValidationError):
        PipelineConfig.from_dict({"bogus": 1})
    with pytest.raises(ValidationError):
        PipelineConfig.from_dict({"w": -1.0})


# -- score -------------------------------------------------------------------


def _toy_truth():
    return [
        LineageRecord(0, {"a": "a", "b": "b"}, {"c": ("c1", "c2")}),
        LineageRecord(1, {"a": "a", "c1": "c1", "c2": "c2"}, {"b": ("b1", "b2")}),
    ]


def test_score_perfect_match():
    truth = _toy_truth()
    report = score(truth, truth)
    assert report.mean_pcp == 1.0
    assert report.mean_registration == 1.0
    assert report.frac_pcp_perfect == 1.0


def test_score_triplet_all_or_nothing():
    truth = _toy_truth()
    predicted = [
        LineageRecord(0, {"a": "a", "b": "b"}, {"c": ("c1", "x")}),  # one wrong child
        truth[1],
    ]
    report = score(predicted, truth)
    assert report.pairs[0].pcp_accuracy == 0.0
    assert report.pairs[0].registration_accuracy == 1.0


def test_score_pcp_absent_without_divisions():
    truth = [LineageRecord(0, {"a": "a"}, {})]
    report = score(truth, truth)
    assert report.pairs[0].pcp_accuracy is None
    assert report.mean_pcp is None
    assert report.frac_pcp_perfect is None


def test_score_rejects_mismatched_frames():
    truth = _toy_truth()
    with pytest.raises(ValidationError):
        score(truth[:1], truth)


def test_score_shuffled_assignment_near_random_rate():
    rng = np.random.default_rng(0)
    n = 60
    ids = [f"c{i}" for i in range(n)]
    truth = [LineageRecord(0, dict(zip(ids, ids)), {})]
    shuffled = list(ids)
    rng.shuffle(shuffled)
    predicted = [LineageRecord(0, dict(zip(ids, shuffled)), {})]
    report = score(predicted, truth)
    assert report.mean_registration <= 5.0 / n  # near the 1/n chance level


def test_report_histogram_and_dict():
    truth = _toy_truth()
    report = score(truth, truth)
    hist = report.registration_histogram()
    assert hist["= 1"] == 2
    data = report.to_dict()
    assert data["mean_registration"] == 1.0
    assert len(data["pairs"]) == 2


# -- io ----------------------------------------------------------------------


def test_frames_jsonl_roundtrip(tmp_path, small_run):
    path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl(small_run.frames[:3], path)
    back = io.read_frames_jsonl(path)
    assert len(back) == 3
    for orig, copy in zip(small_run.frames[:3], back):
        assert orig.ids == copy.ids
        assert np.allclose(orig.centers(), copy.centers(), atol=1e-8)


def test_frames_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 0, "id": "a", "e": [0, 0]}\n')
    with pytest.raises(ValidationError):
        io.read_frames_jsonl(path)
    path.write_text("")
    with pytest.raises(ValidationError):
        io.read_frames_jsonl(path)


def test_lineage_csv_roundtrip(tmp_path, small_run):
    path = tmp_path / "lineage.csv"
    io.write_lineage_csv(small_run.lineage, path)
    back = io.read_lineage_csv(path)
    assert len(back) == len(small_run.lineage)
    for orig, copy in zip(small_run.lineage, back):
        assert orig.frame_index == copy.frame_index
        assert orig.moved == copy.moved
        assert orig.divided == copy.divided


# -- CLI ---------------------------------------------------------------------


def test_cli_simulate_track_score_calibrate(tmp_path, capsys):
    sim_cfg = {
        "seed": 5,
        "n_frames": 8,
        "initial_cells": 10,
        "w": 45.0,
        "motion_sigma": 1.0,
        "substeps": 2,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(sim_cfg))
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_out)]) == 0
    assert (sim_out / "frames.jsonl").exists()
    assert (sim_out / "lineage.csv").exists()
    meta = json.loads((sim_out / "metadata.json").read_text())
    assert meta["motion_bound"] <= 22.5

    pipe_cfg = tmp_path / "pipe.json"
    pipe_cfg.write_text(json.dumps({"w": 100.0, "tau": 45.0, "g_rate": 1.05}))
    track_out = tmp_path / "track"
    code = main(
        [
            "track",
            "--frames", str(sim_out / "frames.jsonl"),
            "--config", str(pipe_cfg),
            "--seed", "3",
            "--out", str(track_out),
            "--quiet",
        ]
    )
    assert code == 0
    assert (track_out / "tracking.csv").exists()
    assert (track_out / "metadata.json").exists()
    assert list(track_out.glob("energy_trace_*.csv"))

    score_out = tmp_path / "score"
    code = main(
        [
            "score",
            "--predicted", str(track_out / "tracking.csv"),
            "--ground-truth", str(sim_out / "lineage.csv"),
            "--out", str(score_out),
        ]
    )
    assert code == 0
    report = json.loads((score_out / "report.json").read_text())
    assert report["mean_registration"] >= 0.8
    scored = [p for p in report["pairs"] if p["registration_accuracy"] is not None]
    assert sum(report["registration_histogram"].values()) == len(scored)
    out = capsys.readouterr().out
    assert "mean registration" in out
    assert "registration histogram" in out

    cal_out = tmp_path / "cal"
    code = main(
        [
            "calibrate",
            "--frames", str(sim_out / "frames.jsonl"),
            "--ground-truth", str(sim_out / "lineage.csv"),
            "--config", str(pipe_cfg),
            "--all-alternatives",
            "--out", str(cal_out),
            "--quiet",
        ]
    )
    assert code == 0
    weights = json.loads((cal_out / "weights.json").read_text())
    assert set(weights["registration"]) == {"match", "over", "stab", "flip"}
    assert (cal_out / "calibration_report.csv").exists()


def test_invalid_record_is_reported(tmp_path, monkeypatch, capsys):
    cells = [make_cell(f"c{i}", (30.0 * i, 0.0)) for i in range(3)]
    f0, f1 = make_frame(cells, index=0), make_frame(cells, index=1)
    assert track_pair(f0, f1, small_config())[1].invalid is None
    real = registration.register

    def many_to_one(problem, **kwargs):
        result = real(problem, **kwargs)
        result.mapping = {c.id: "c0" for c in problem.source.cells}
        return result

    monkeypatch.setattr(registration, "register", many_to_one)
    record, diag = track_pair(f0, f1, small_config())
    assert record.moved == {"c0": "c0", "c1": "c0", "c2": "c0"}
    assert diag.invalid == "targets do not cover the next frame exactly once"

    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl([f0, f1], frames_path)
    out = tmp_path / "track"
    assert main(["track", "--frames", str(frames_path), "--out", str(out), "--quiet"]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["pairs"][0]["invalid"] == diag.invalid
    assert "warning: pair 0 is invalid" in capsys.readouterr().err
    assert io.read_lineage_csv(out / "tracking.csv")[0].moved == record.moved


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    # DIV=3 with no plausible children pairs anywhere near: infeasible
    frames_path = tmp_path / "frames.jsonl"
    rows = [
        {"frame": 0, "id": "a", "e": [0.0, 0.0], "h": [20.0, 0.0], "width": 6.0},
        {"frame": 1, "id": "a", "e": [0.0, 1.0], "h": [20.0, 1.0], "width": 6.0},
    ]
    for i in range(3):
        rows.append(
            {
                "frame": 1,
                "id": f"t{i}",
                "e": [300.0 * (i + 1), 200.0],
                "h": [300.0 * (i + 1) + 18.0, 200.0],
                "width": 6.0,
            }
        )
    frames_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code = main(
        ["track", "--frames", str(frames_path), "--out", str(tmp_path / "t"), "--quiet"]
    )
    assert code == 3


def test_cli_weights_and_schedule_files(tmp_path, small_run):
    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl(small_run.frames[:3], frames_path)
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(
        json.dumps({"registration": {"match": 50.0, "over": 100.0, "stab": 20.0, "flip": 10.0}})
    )
    schedule_path = tmp_path / "sched.json"
    schedule_path.write_text(
        json.dumps({"c": 20.0, "eta": 0.995, "epoch_cap": 60, "dynamics": "async", "alpha": 0.5})
    )
    out = tmp_path / "out"
    code = main(
        [
            "track",
            "--frames", str(frames_path),
            "--weights", str(weights_path),
            "--schedule", str(schedule_path),
            "--out", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["dynamics"] == "async"

    code = main(
        [
            "track",
            "--frames", str(frames_path),
            "--schedule", str(schedule_path),
            "--dynamics", "sync",
            "--out", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["dynamics"] == "sync"
    schedule_path.write_text(json.dumps({"c": 20.0, "dynamics": "swap-auto"}))
    code = main(
        ["track", "--frames", str(frames_path), "--schedule", str(schedule_path),
         "--out", str(out), "--quiet"]
    )
    assert code == 2
