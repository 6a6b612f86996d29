import contextlib
import dataclasses
import json
import math
import re
import warnings
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from colony_track import cli, division, io, pipeline, registration
from colony_track.annealer import Schedule
from colony_track.calibration import CalibrationInstance
from colony_track.cli import main
from colony_track.division import DistortionWeights, DivisionWeights
from colony_track.errors import InfeasibleError, ValidationError
from colony_track.geometry import Frame, Rect
from colony_track.pipeline import PipelineConfig, score, track_pair, track_sequence
from colony_track.registration import RegistrationWeights
from colony_track.simulator import LineageRecord, SimConfig, simulate

from conftest import THREE_IN_A_ROW, make_cell, make_frame, same_frame


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
    # consecutive indices only: a missing frame is named, not tracked across
    f1, f2, f3 = (make_frame([make_cell("a", (0, 0))], index=k) for k in (1, 2, 3))
    with pytest.raises(ValidationError, match="frame 0 is followed by 2"):
        track_sequence([f0, f2, f3], small_config())
    with pytest.raises(ValidationError, match="frame 2 is followed by 1"):
        track_sequence([f0, f1, f2, f1], small_config())


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


# one instance of each settings class: its defaults, or a stage's default schedule
SETTINGS_DEFAULTS = (
    PipelineConfig(), SimConfig(), Schedule.registration_default(), RegistrationWeights(),
    DivisionWeights(),
)
# keys of the settings classes (and of the nested distortion weights), and one no class has
SETTINGS_KEYS = st.sampled_from(sorted(
    {f.name for cls in (*SETTINGS_DEFAULTS, DistortionWeights) for f in dataclasses.fields(cls)}
    | {"bogus"}
))
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400])
)
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(SETTINGS_KEYS, inner, max_size=4),
    max_leaves=12,
)


def as_json(value):
    """A settings dataclass, or one of its values, as the JSON the loader reads."""
    if isinstance(value, Rect):
        return list(dataclasses.astuple(value))
    if dataclasses.is_dataclass(value):
        return {f.name: as_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return list(value) if isinstance(value, tuple) else value


@settings(max_examples=300, deadline=None)
@given(changes=st.dictionaries(SETTINGS_KEYS, JSON_VALUES, max_size=3), data=JSON_VALUES)
@example(changes={"interframe_minutes": 1e308}, data=None)
def test_settings_loader_loads_or_rejects_any_json(changes, data):
    # only a ValidationError may escape, which the CLI turns into exit 2
    for default in SETTINGS_DEFAULTS:
        # the defaults with the changes to this class's settings, then any JSON value
        cls, names = type(default), {f.name for f in dataclasses.fields(default)}
        own = {k: v for k, v in changes.items() if k in names}
        for value in ({**as_json(default), **own}, data):
            try:
                assert isinstance(io.from_json(cls, value, "settings"), cls)
            except ValidationError:
                pass


@pytest.mark.parametrize(
    "build",
    [
        lambda: PipelineConfig(w=10**400),
        lambda: PipelineConfig(tau=-(10**400)),
        lambda: SimConfig(growth_rate=10**400),
    ],
)
def test_settings_reject_an_integer_too_large_for_a_float(build):
    # math.isfinite raises OverflowError for such an int; a caller gets ValidationError
    with pytest.raises(ValidationError, match="must be a finite"):
        build()


# (settings instance, range kind, the fields check_fields holds to that kind)
RANGE_FIELDS = [
    (SimConfig(), "positive", (
        "n_frames", "initial_cells", "substeps", "interframe_minutes", "birth_length", "w",
        "overlap_tol",
    )),
    (SimConfig(), "non-negative", (
        "seed", "relax_iterations", "cell_width", "growth_jitter", "motion_sigma",
        "rotation_sigma",
    )),
    (PipelineConfig(), "positive", ("restarts", "w", "rho", "tau", "g_rate")),
    (PipelineConfig(), "non-negative", ("seed",)),
    (Schedule.registration_default(), "positive", ("c", "eta", "epoch_cap")),
    (CalibrationInstance(np.ones((1, 4))), "positive", ("gamma", "budget")),
]


@pytest.mark.parametrize(
    "default, kind, name",
    [(default, kind, name) for default, kind, names in RANGE_FIELDS for name in names],
    ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v,
)
def test_settings_range_boundaries(default, kind, name):
    # one rule per kind: the boundary is accepted or rejected, and the error
    # names the field and the value; an integer too large for a float is not finite
    number = type(getattr(default, name))  # int or float
    smallest = (math.ulp(0.0) if number is float else 1) if kind == "positive" else number(0)
    assert getattr(dataclasses.replace(default, **{name: smallest}), name) == smallest
    below = (number(-1), number(0)) if kind == "positive" else (number(-1),)
    for bad in (*below, 10**400):
        message = f"{name} must be a finite {kind} number, got {bad!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(default, **{name: bad})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"registration_schedule": {"c": 0}},
         "registration schedule: c must be a finite positive number, got 0"),
        ({"children_schedule": {"eta": 1.5}},
         "children schedule: decay rate eta must be below 1, got 1.5"),
        ({"children_schedule": {"epoch_cap": 2.5}},
         "children schedule: epoch_cap must be an integer, got 2.5"),
        ({"registration_weights": {"match": -1}},
         "registration weights: match must be a finite non-negative number, got -1"),
        ({"division_weights": {"distortion": {"cen": "x"}}},
         "distortion: cen must be a finite non-negative number, got 'x'"),
        # the loader's own errors and top-level checks keep one name
        ({"children_schedule": {"bogus": 1}}, "unknown children schedule keys: ['bogus']"),
        ({"registration_weights": 3}, "registration weights must be a JSON object, got 3"),
        ({"w": 0}, "w must be a finite positive number, got 0"),
    ],
)
def test_nested_settings_error_names_its_object(data, message):
    with pytest.raises(ValidationError) as caught:
        io.from_json(PipelineConfig, data, "pipeline config")
    assert str(caught.value) == message


def test_pipeline_config_from_dict_roundtrip():
    config = io.from_json(
        PipelineConfig,
        {
            "w": 45.0,
            "tau": 30.0,
            "registration_weights": {"match": 100.0, "over": 200.0, "stab": 10.0, "flip": 5.0},
            "registration_schedule": {"c": 10.0, "eta": 0.997, "epoch_cap": 50},
        },
        "pipeline config",
    )
    assert config.tau == 30.0
    assert config.registration_weights.over == 200.0
    assert config.registration_schedule.epoch_cap == 50
    assert io.from_json(PipelineConfig, as_json(config), "pipeline config") == config
    for default in SETTINGS_DEFAULTS:
        assert io.from_json(type(default), as_json(default), "settings") == default
    unknown = re.escape("unknown pipeline config keys: ['a', 'b']")
    with pytest.raises(ValidationError, match=unknown):
        io.from_json(PipelineConfig, {"w": 45.0, "b": 1, "a": 2}, "pipeline config")
    with pytest.raises(ValidationError):
        io.from_json(PipelineConfig, {"w": -1.0}, "pipeline config")


def test_tracking_reads_frames_as_arrays(monkeypatch):
    # frames refuse to hand out Cell objects, and a dividing pipeline21 pair
    # and a reg6min registration still end with the same results: a .cells
    # read on a hot path would build a Python object per cell on each call
    from trackbench import measure, workloads

    pipe, six = workloads.pipeline21(0), workloads.reg6min(0, pairs=1)
    k = six.pairs[0]

    def run():
        record, _ = track_pair(pipe.frames[16], pipe.frames[17], measure.PIPELINE_CONFIG, 16)
        problem = registration.build_problem(
            six.frames[k], six.frames[k + 1], w=100.0, rho=80.0,
            weights=measure.REG6MIN_WEIGHTS, g_rate=measure.REG6MIN_G_RATE,
        )
        result = registration.register(
            problem, schedule=Schedule(c=30.0, eta=0.995, epoch_cap=25), rng_seed=5
        )
        return record, result.mapping, result.assignment.tolist(), result.energy

    want = run()
    assert len(want[0].divided) == 2

    def refuse(*args):
        raise AssertionError("tracking built Cell objects from a frame")

    monkeypatch.setattr(Frame, "cells", property(refuse))
    with pytest.raises(AssertionError, match="built Cell"):
        pipe.frames[16].cells
    assert run() == want


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
    # the reader bounds each frame by its cells, the simulator by its trap
    assert len(back) == 3
    assert all(same_frame(a, b, bounds=False) for a, b in zip(back, small_run.frames))
    io.write_frames_jsonl(back, path)
    again = io.read_frames_jsonl(path)
    assert len(again) == 3 and all(map(same_frame, again, back))


def test_frames_jsonl_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 0, "id": "a", "e": [0, 0]}\n')
    with pytest.raises(ValidationError):
        io.read_frames_jsonl(path)
    path.write_text("")
    with pytest.raises(ValidationError):
        io.read_frames_jsonl(path)
    cell = '{"frame": 0, "id": "a", "e": [0, 0], "h": [20, 0], "width": 8}\n'
    path.write_text(cell * 2)
    duplicate = re.escape(f"{path}: duplicate cell id 'a' in frame 0")
    with pytest.raises(ValidationError, match=duplicate):
        io.read_frames_jsonl(path)
    assert main(["track", "--frames", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    path.write_bytes(cell.encode() + cell.replace('"a"', '"\xff"').encode("latin-1"))
    assert main(["track", "--frames", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: unreadable frames file")
    # a non-integer frame index is an error, not merged into a nearby frame
    for frame in ("0.5", "true", '"1"'):
        path.write_text(cell.replace('"frame": 0', f'"frame": {frame}'))
        with pytest.raises(ValidationError, match="frame index must be an integer"):
            io.read_frames_jsonl(path)
        assert main(["track", "--frames", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "frame index must be an integer" in capsys.readouterr().err
    # fields are not coerced: each bad value is an error at its line
    for field, value in [
        ("id", None), ("id", 5), ("id", ""), ("width", True), ("width", "8"),
        ("width", float("inf")), ("e", ["10", 10.0]), ("e", [0, 0, 0]), ("h", [True, 0]),
        ("center", [10, "0"]), ("center", [10]),
    ]:
        record = json.loads(cell) | {field: value}
        path.write_text(cell.replace('"a"', '"b"') + json.dumps(record) + "\n")
        where = re.escape(f"{path}:2: bad cell record ({field} ")
        with pytest.raises(ValidationError, match=where):
            io.read_frames_jsonl(path)
        assert main(["track", "--frames", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: bad cell record")


_CELLS = st.tuples(
    st.integers(0, 2), st.sampled_from("abc"), st.floats(0, 200), st.floats(0, 200),
    st.floats(0, 3.2),
)
# a fault sets a field of a cell record to a drawn value, moves its stated
# center off the endpoint midpoint, or drops the center
_FAULTS = st.tuples(
    st.integers(0, 5),
    st.sampled_from([("e", 0), ("e", 1), ("h", 0), ("h", 1), ("center", 0), ("width",),
                     ("off",), ("missing",)]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0]),
)


@st.composite
def frames_files(draw):
    """The text of a frames file: up to six valid cell records, distinct in
    (frame, id), in up to three frames, then up to two faults."""
    records = []
    for frame, cell_id, x, y, angle in draw(st.lists(_CELLS, max_size=6,
                                                    unique_by=lambda c: c[:2])):
        dx, dy = 10.0 * math.cos(angle), 10.0 * math.sin(angle)
        records.append({
            "frame": frame, "id": cell_id, "center": [x, y], "e": [x - dx, y - dy],
            "h": [x + dx, y + dy], "width": 7.0,
        })
    faults = draw(st.lists(_FAULTS, max_size=2)) if records else []
    for at, (key, *k), value in faults:
        rec = records[at % len(records)]
        if key == "missing":
            rec.pop("center", None)
        elif key == "off":
            rec.setdefault("center", [0.0, 0.0])[1] += 1.0
        elif key == "width":
            rec[key] = value
        elif key in rec:
            rec[key][k[0]] = value
    return "".join(json.dumps(rec) + "\n" for rec in records)


@settings(max_examples=200)
@given(text=frames_files())
@example(text="")
@example(text='{"frame": 0, "id": "a", "e": [1e308, 0], "h": [1e308, 10], "width": 7}\n')
@example(text='{"frame": 0, "id": "a", "e": [1e308, 0], "h": [0, 0], "width": 7}\n'
              '{"frame": 1, "id": "a", "e": [1e308, 0], "h": [0, 1], "width": 7}\n')
def test_frames_reader_loads_or_rejects_any_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "frames.jsonl"
    path.write_text(text)
    try:
        frames = io.read_frames_jsonl(path)
        assert all(f.cells and np.isfinite(f.centers()).all() for f in frames)
    except ValidationError:
        frames = None
    out = str(path.parent / "out")
    with warnings.catch_warnings():
        # numpy's "overflow encountered" RuntimeWarning, for cells near 1e308
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["track", "--frames", str(path), "--out", out, "--quiet"])
    assert code in ((0, 2, 3) if frames else (2,))


def test_lineage_csv_roundtrip(tmp_path, small_run):
    path = tmp_path / "lineage.csv"
    io.write_lineage_csv(small_run.lineage, path)
    back = io.read_lineage_csv(path)
    assert len(back) == len(small_run.lineage)
    for orig, copy in zip(small_run.lineage, back):
        assert orig.frame_index == copy.frame_index
        assert orig.moved == copy.moved
        assert orig.divided == copy.divided


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0,c1,MOVE", "expected 5 fields, got 3"),
        ("x,c1,MOVE,c2,", "bad frame index 'x'"),
        ("0,c0,MOVE,c1,", "source 'c0' repeated in frame 0"),
        ("0,c0,DIV,c1,c2", "source 'c0' repeated in frame 0"),
    ],
)
def test_lineage_csv_rejects_malformed_row(tmp_path, capsys, row, problem):
    path = tmp_path / "lineage.csv"
    path.write_text(",".join(io.LINEAGE_HEADER) + "\n0,c0,MOVE,c0,\n" + row + "\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: {problem}")):
        io.read_lineage_csv(path)
    assert main(["score", "--predicted", str(path), "--ground-truth", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_lineage_csv_rejects_source_moved_twice(tmp_path, capsys, small_run):
    # kept row by row in a dict, the second MOVE of a would replace the first
    path = tmp_path / "lineage.csv"
    rows = ["0,a,MOVE,a1,", "0,a,MOVE,b1,", "0,b,MOVE,b1,"]
    path.write_text("\n".join([",".join(io.LINEAGE_HEADER), *rows]) + "\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: source 'a' repeated")):
        io.read_lineage_csv(path)
    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl(small_run.frames, frames_path)
    for args in (
        ["score", "--predicted", str(path), "--ground-truth", str(path)],
        ["calibrate", "--frames", str(frames_path), "--ground-truth", str(path),
         "--out", str(tmp_path / "o"), "--quiet"],
    ):
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: source 'a' repeated")


# a fault that makes a lineage file malformed: its header, a row's field
# count, frame index or kind, a repeated source, bytes that are not UTF-8, a
# field over the csv module's size limit, a frame the other file lacks, an
# empty source or target id, a second target on a MOVE row or none on a DIV
# row, or a DIV row that names one target twice
_LINEAGE_FAULTS = st.one_of(
    st.tuples(st.just("header"), st.sampled_from(["", "frame_index,source_id,kind",
                                                  "FRAME_INDEX,source_id,kind,t1,t2"])),
    st.tuples(st.just("fields"), st.sampled_from([-2, -1, 1, 3])),
    st.tuples(st.just("index"), st.sampled_from(["", "x", "1.5", "1e3", "nan", "--1", "0x1"])),
    st.tuples(st.just("kind"), st.sampled_from(["", "move", "DIV ", "SPLIT", "MOVE\t"])),
    st.tuples(st.just("repeat"), st.just(None)),
    st.tuples(st.just("bytes"), st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])),
    st.tuples(st.just("huge"), st.just(None)),
    st.tuples(st.just("frame"), st.just(None)),
    st.tuples(st.just("empty"), st.sampled_from([1, 3])),
    st.tuples(st.just("second"), st.sampled_from([("MOVE", "x"), ("DIV", "")])),
    st.tuples(st.just("twins"), st.just(None)),
)


@st.composite
def lineage_files(draw):
    """A valid lineage file's rows, over up to three frames of up to four
    cells, in some of which every cell divided; and a fault for them."""
    rows = []
    for frame in range(draw(st.integers(1, 3))):
        every = draw(st.booleans())
        for k in range(draw(st.integers(1, 4))):
            if every or draw(st.booleans()):
                rows.append([str(frame), f"c{k}", "DIV", f"c{k}a", f"c{k}b"])
            else:
                rows.append([str(frame), f"c{k}", "MOVE", f"c{k}", ""])
    return rows, draw(st.integers(0, len(rows) - 1)), draw(_LINEAGE_FAULTS)


def _lineage_bytes(rows, at=None, fault=None) -> bytes:
    header = ",".join(io.LINEAGE_HEADER)
    rows = [list(row) for row in rows]
    kind, value = fault or (None, None)
    if kind == "header":
        header = value
    elif kind == "fields":
        rows[at] = rows[at][:value] if value < 0 else rows[at] + ["x"] * value
    elif kind == "index":
        rows[at][0] = value
    elif kind == "kind":
        rows[at][2] = value
    elif kind == "repeat":
        rows.append(rows[at])
    elif kind == "huge":
        rows[at][3] = "c" * 131_073
    elif kind == "frame":
        rows[at][0] = "9"
    elif kind == "empty":
        rows[at][value] = ""
    elif kind == "second":
        rows[at][2], rows[at][4] = value
    elif kind == "twins":
        rows[at][2], rows[at][4] = "DIV", rows[at][3]
    lines = [header.encode()] + [",".join(row).encode() for row in rows]
    if kind == "bytes":
        lines[at + 1] = lines[at + 1].replace(b",", b"," + value, 1)
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=150, deadline=None)
@given(drawn=lineage_files())
def test_score_rejects_any_malformed_lineage_file(tmp_path_factory, drawn):
    rows, at, fault = drawn
    where = tmp_path_factory.mktemp("lineage")
    truth, bad = where / "truth.csv", where / "bad.csv"
    truth.write_bytes(_lineage_bytes(rows))
    bad.write_bytes(_lineage_bytes(rows, at, fault))
    assert main(["score", "--predicted", str(truth), "--ground-truth", str(truth),
                 "--quiet"]) == 0
    for predicted, ground_truth in ((bad, truth), (truth, bad)):
        args = ["score", "--predicted", str(predicted), "--ground-truth", str(ground_truth)]
        with contextlib.redirect_stderr(StringIO()) as err:
            assert main(args) == 2, fault
        assert err.getvalue().startswith("error:"), fault


# -- CLI ---------------------------------------------------------------------


def test_cli_track_and_score_entries_hold_their_records_fields(tmp_path, small_run):
    # a metadata.json pair entry is PairDiagnostics but for the two fields
    # with files of their own; a report.json pair entry is a PairScore with
    # both accuracies
    frames, truth = small_run.frames[:6], small_run.lineage[:5]
    io.write_frames_jsonl(frames, tmp_path / "frames.jsonl")
    io.write_lineage_csv(truth, tmp_path / "truth.csv")
    trim = {"gap": 12.0}  # trims some candidates of the dividing pair 3
    settings = {"w": 45.0, "rho": 80.0, "tau": 45.0, "g_rate": 1.05, "trim_thresholds": trim}
    (tmp_path / "pipe.json").write_text(json.dumps(settings))
    track_out, score_out = tmp_path / "track", tmp_path / "score"
    assert main(["track", "--frames", str(tmp_path / "frames.jsonl"), "--seed", "3",
                 "--config", str(tmp_path / "pipe.json"), "--out", str(track_out),
                 "--quiet"]) == 0
    meta = json.loads((track_out / "metadata.json").read_text())
    pair_keys = {"frame_index", "div_count", "candidates", "trimmed", "dropped_pairs",
                 "padded_windows", "clique_counts", "max_touched_cliques", "registration",
                 "seconds", "invalid"}
    assert [set(entry) for entry in meta["pairs"]] == [pair_keys] * 5
    _, diags = track_sequence(frames, small_config(trim_thresholds=trim))
    for entry, diag in zip(meta["pairs"], diags):
        assert (entry["candidates"], entry["trimmed"]) == (diag.candidates, diag.trimmed)
    dividing = meta["pairs"][3]
    candidates = division.build_pch(frames[3], frames[4], tau=45.0, w=45.0)
    assert dividing["div_count"] == 1 and dividing["candidates"] == len(candidates)
    assert dividing["trimmed"] == len(candidates) - len(division.trim_candidates(candidates, trim))
    assert dividing["trimmed"] > 0

    assert main(["score", "--predicted", str(track_out / "tracking.csv"), "--ground-truth",
                 str(tmp_path / "truth.csv"), "--out", str(score_out), "--quiet"]) == 0
    report = json.loads((score_out / "report.json").read_text())
    assert set(report) == {"pairs", "mean_pcp", "min_pcp", "frac_pcp_perfect",
                           "mean_registration", "min_registration", "registration_histogram"}
    score_keys = {"frame_index", "div_true", "div_correct", "pcp_accuracy", "n_moves",
                  "moves_correct", "registration_accuracy"}
    assert [set(entry) for entry in report["pairs"]] == [score_keys] * 5
    assert report["pairs"][3]["div_true"] == 1
    assert [entry["pcp_accuracy"] for entry in report["pairs"]] == [None] * 3 + [1.0, None]


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


def test_cli_track_rejects_a_missing_frame(tmp_path, capsys, small_run):
    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl([small_run.frames[k] for k in (0, 2, 3)], frames_path)
    out = tmp_path / "track"
    assert main(["track", "--frames", str(frames_path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: frame indices must be consecutive")
    assert not (out / "tracking.csv").exists()


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


DEEP = 200_000  # arrays nested far past the JSON parser's depth


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "{path}: unreadable {what} ("),
        (b'{"w": ' + b"[" * DEEP + b"]" * DEEP + b"}", "{path}: unreadable {what} ("),
        (None, "cannot read {what} {path}: "),
    ],
    ids=["not-utf8", "deep", "missing"],
)
@pytest.mark.parametrize("command, option", [
    ("simulate", "--config"), ("track", "--config"), ("track", "--weights"),
])
def test_cli_rejects_an_unreadable_json_file(tmp_path, capsys, command, option, content, message):
    # one error line and exit 2, not a UnicodeDecodeError or RecursionError traceback
    what = "weights file" if option == "--weights" else "JSON config"
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    args = [command, option, str(path), "--out", str(tmp_path / "o"), "--quiet"]
    if command == "track":
        frames = tmp_path / "frames.jsonl"
        frames.write_text('{"frame": 0, "id": "a", "e": [0, 0], "h": [20, 0], "width": 6}\n')
        args += ["--frames", str(frames)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path, what=what)) and err.count("\n") == 1


def test_cli_rejects_a_frames_line_nested_too_deep(tmp_path, capsys):
    frames = tmp_path / "frames.jsonl"
    e = b"[" * DEEP + b"]" * DEEP
    frames.write_bytes(b'{"frame": 0, "id": "a", "e": ' + e + b', "h": [20, 0], "width": 6}\n')
    assert main(["track", "--frames", str(frames), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {frames}: unreadable frames file (") and err.count("\n") == 1


def test_cli_track_names_the_frame_of_an_infeasible_division(tmp_path, capsys):
    out = tmp_path / "track"
    assert main(["track", "--frames", str(THREE_IN_A_ROW), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: frame 0: ") and err.count("\n") == 1
    assert not (out / "tracking.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "track", "score", "calibrate"])
def test_cli_rejects_an_out_that_cannot_be_a_directory(tmp_path, capsys, small_run, command):
    frames, truth = tmp_path / "frames.jsonl", tmp_path / "lineage.csv"
    io.write_frames_jsonl(small_run.frames[:3], frames)
    io.write_lineage_csv(small_run.lineage[:2], truth)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n_frames": 3, "initial_cells": 2}))
    args = {
        "simulate": ["--config", str(config)],
        "track": ["--frames", str(frames)],
        "score": ["--predicted", str(truth), "--ground-truth", str(truth)],
        "calibrate": ["--frames", str(frames), "--ground-truth", str(truth)],
    }[command]
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out in (taken, taken / "sub"):
        assert main([command, *args, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output directory {out}: ")
        assert "Traceback" not in err and taken.read_text() == "a file\n"


@pytest.mark.parametrize("command", ["simulate", "track", "score", "calibrate"])
def test_cli_checks_out_before_computing(tmp_path, capsys, monkeypatch, small_run, command):
    # an --out that is a file, or a directory in place of an output file, is
    # reported before any simulating, tracking, scoring or registration
    # problem is computed; pair 3 of frames 0-4 divides, so track checks
    # scatter_0003.csv
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{command} computed before checking --out")

    monkeypatch.setattr(cli, "simulate", unreachable)
    monkeypatch.setattr(pipeline, "track_sequence", unreachable)
    monkeypatch.setattr(pipeline, "score", unreachable)
    monkeypatch.setattr(registration, "build_problem", unreachable)
    frames, truth = tmp_path / "frames.jsonl", tmp_path / "lineage.csv"
    io.write_frames_jsonl(small_run.frames[:5], frames)
    io.write_lineage_csv(small_run.lineage[:4], truth)
    assert small_run.lineage[3].n_divisions == 1
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n_frames": 3, "initial_cells": 2}))
    args = {
        "simulate": ["--config", str(config)],
        "track": ["--frames", str(frames)],
        "score": ["--predicted", str(truth), "--ground-truth", str(truth)],
        "calibrate": ["--frames", str(frames), "--ground-truth", str(truth)],
    }[command]
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    assert main([command, *args, "--out", str(taken), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output directory {taken}: ")
    assert err.count("\n") == 1 and taken.read_text() == "a file\n"
    names = {"simulate": ["lineage.csv"], "score": ["report.json"],
             "calibrate": ["calibration_report.csv"],
             "track": ["metadata.json", "energy_trace_0001.csv", "scatter_0003.csv"]}[command]
    for name in names:
        out = tmp_path / name.split(".")[0]
        (out / name).mkdir(parents=True)
        assert main([command, *args, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write output file {out / name}: it is a directory\n"
        assert [path.name for path in out.iterdir()] == [name]


def test_cli_rejects_an_output_file_it_cannot_write(tmp_path, capsys, small_run):
    truth = tmp_path / "lineage.csv"
    io.write_lineage_csv(small_run.lineage[:2], truth)
    (tmp_path / "score" / "report.json").mkdir(parents=True)
    args = ["--predicted", str(truth), "--ground-truth", str(truth)]
    assert main(["score", *args, "--out", str(tmp_path / "score"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file {tmp_path / 'score' / 'report.json'}: ")


@pytest.mark.parametrize(
    "command, name",
    [("simulate", "frames.jsonl"), ("simulate", "lineage.csv"), ("simulate", "metadata.json"),
     ("track", "tracking.csv"), ("track", "energy_trace_0003.csv"), ("track", "scatter_0003.csv"),
     ("track", "metadata.json"), ("calibrate", "weights.json"),
     ("calibrate", "calibration_report.csv")],
)
def test_cli_rejects_a_directory_in_place_of_an_output_file(
    tmp_path, capsys, small_run, command, name
):
    # frames 0-4 of small_run: pair 3 has a division, so track writes scatter_0003.csv
    frames, truth = tmp_path / "frames.jsonl", tmp_path / "lineage.csv"
    io.write_frames_jsonl(small_run.frames[:5], frames)
    io.write_lineage_csv(small_run.lineage[:4], truth)
    assert small_run.lineage[3].n_divisions == 1
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n_frames": 3, "initial_cells": 2}))
    args = {
        "simulate": ["--config", str(config)],
        "track": ["--frames", str(frames)],
        "calibrate": ["--frames", str(frames), "--ground-truth", str(truth)],
    }[command]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, *args, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file {out / name}: ")
    assert err.count("\n") == 1 and (out / name).is_dir()


@pytest.mark.parametrize(
    "bad",
    [
        {"relax_iterations": "5"},
        {"substeps": 2.5},
        {"n_frames": 3.0},
        {"initial_cells": True},
        {"relax_iterations": -1},
        {"overlap_tol": -2.0},
        {"overlap_tol": 0.0},
        {"growth_rate": float("nan")},
        {"motion_sigma": float("inf")},
        {"split_ratio_range": [0.5]},
        {"split_ratio_range": [True, 0.55]},
        {"trap_bounds": [0.0, 0.0, "wide", 100.0]},
        {"trap_bounds": ["0", "0", "600", "600"]},
        {"divide": "false"},
        {"interframe_minutes": 1e308},
        # a newborn cell reaches its division length within its interframe
        {"growth_jitter": 1.0, "seed": 1, "n_frames": 40, "initial_cells": 4, "w": 45.0,
         "substeps": 4},
        # traps too small for the seeding disc
        {"trap_bounds": [0, 0, 5, 5]},
        {"initial_cells": 500, "trap_bounds": [0, 0, 100, 100]},
        {"birth_length": -5, "n_frames": 5},
        {"birth_length": 0},
        {"cell_width": -3, "n_frames": 5},
        {"max_length": -1, "divide": False},
        {"max_length": 0.5, "divide": False},
        # the length cap would cut seeded cells short at once
        {"max_length": 20.0, "divide": False},
    ],
)
def test_cli_simulate_rejects_bad_config(tmp_path, capsys, bad):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n_frames": 3, **bad}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert next(iter(bad)) in err or "growth per interframe too close to 2x" in err


@pytest.mark.parametrize(
    "config", [{"birth_length": 1e-300}, {"trap_bounds": [0, 0, 1e20, 1e20]}]
)
def test_cli_simulate_rejects_a_cell_that_rounds_to_a_point(tmp_path, capsys, config):
    # a newborn cell's endpoints coincide in floats: one error line, not a traceback
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"n_frames": 3, **config}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: simulated frame 0: cell ") and err.count("\n") == 1


# settings the tracker derives or never varies; a file that sets one is rejected
REMOVED_KEYS = ("relax_cardinality", "stability_window", "stability_tol", "q", "trim_reject_if_any")


def assert_names_removed_keys(err, bad):
    """``err`` is an error message that names each removed key ``bad`` sets."""
    assert err.startswith("error:")
    for key in REMOVED_KEYS:
        if f'"{key}"' in json.dumps(bad):
            assert f"'{key}'" in err


@pytest.mark.parametrize(
    "bad",
    [
        {"restarts": 1.5},
        {"restarts": True},
        {"restarts": 0},
        {"seed": "x"},
        {"seed": -1},
        {"w": float("nan")},
        {"alpha": "x"},
        {"g_rate": float("inf")},
        {"registration_schedule": {"c": "hot"}},
        {"registration_schedule": {"eta": None}},
        {"children_schedule": {"epoch_cap": 2.5}},
        {"children_schedule": {"stability_window": "n"}},
        {"trim_thresholds": {"gap": "x"}},
        {"trim_thresholds": 5},
        {"trim_thresholds": {"gap": float("nan")}},
        {"trim_thresholds": {"bogus": 1.0}},
        {"trim_reject_if_any": "no"},
        {"trim_reject_if_any": True},
        {"relax_cardinality": "no"},
        {"dynamics": "async"},
        {"registration_schedule": {"stability_window": -3}},
        {"registration_schedule": {"stability_window": 0}},
        {"registration_schedule": {"stability_tol": -1.0}},
        {"trim_thresholds": {"rat": 1.0}},
        {"registration_schedule": 5},
        {"children_schedule": ["c"]},
        {"relax_cardinality": True},
        {"registration_schedule": {"stability_window": 5}},
    ],
)
def test_cli_track_rejects_bad_config(tmp_path, capsys, small_run, bad):
    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl(small_run.frames[:4], frames_path)
    config = tmp_path / "pipe.json"
    config.write_text(json.dumps({"w": 45.0, **bad}))
    args = ["track", "--frames", str(frames_path), "--config", str(config)]
    assert main([*args, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert_names_removed_keys(capsys.readouterr().err, bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"division": {"distortion": {"bogus": 1}}},
        {"division": {"distortion": 3}},
        {"division": {"lin": -1.0}},
        {"division": {"q": float("nan")}},
        {"division": {"rank": "x"}},
        {"registration": {"match": "x"}},
        {"registration": {"over": float("nan")}},
        {"registration": {"stab": -2.0}},
        {"registration": {"flip": True}},
        {"registration": {"bogus": 1.0}},
        {"registation": {"match": 1.0}},
        {"division": {"q": 50}},
    ],
)
def test_cli_track_rejects_bad_weights(tmp_path, capsys, small_run, bad):
    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl(small_run.frames[:4], frames_path)
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(bad))
    args = ["track", "--frames", str(frames_path), "--weights", str(weights)]
    assert main([*args, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert_names_removed_keys(capsys.readouterr().err, bad)


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_cli_calibrate_rejects_bad_budget(tmp_path, capsys, small_run, budget):
    frames_path, truth_path = tmp_path / "frames.jsonl", tmp_path / "lineage.csv"
    io.write_frames_jsonl(small_run.frames, frames_path)
    io.write_lineage_csv(small_run.lineage, truth_path)
    args = ["calibrate", "--frames", str(frames_path), "--ground-truth", str(truth_path)]
    assert main([*args, "--budget", budget, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: budget must be a finite positive number")


@pytest.mark.parametrize(
    "damage, problem",
    [
        ("drop", "sources do not cover the frame"),
        ("retarget", "targets do not cover the next frame"),
    ],
)
def test_cli_calibrate_rejects_incomplete_ground_truth(
    tmp_path, capsys, small_run, damage, problem
):
    frames_path, truth_path = tmp_path / "frames.jsonl", tmp_path / "lineage.csv"
    io.write_frames_jsonl(small_run.frames, frames_path)
    rec = next(r for r in small_run.lineage if r.n_divisions == 0)
    moved = dict(rec.moved)
    src = sorted(moved)[0]
    if damage == "drop":
        del moved[src]
    else:
        moved[src] = "zz"
    bad = LineageRecord(rec.frame_index, moved, {})
    io.write_lineage_csv([bad if r is rec else r for r in small_run.lineage], truth_path)
    args = ["calibrate", "--frames", str(frames_path), "--ground-truth", str(truth_path)]
    args += ["--pair", str(rec.frame_index), "--out", str(tmp_path / "o"), "--quiet"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {truth_path}: pair {rec.frame_index}: {problem}")


def test_cli_weights_and_schedule_files(tmp_path, capsys, small_run):
    frames_path = tmp_path / "frames.jsonl"
    io.write_frames_jsonl(small_run.frames[:3], frames_path)
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(
        json.dumps({"registration": {"match": 50.0, "over": 100.0, "stab": 20.0, "flip": 10.0}})
    )
    config_path = tmp_path / "pipe.json"
    schedule = {"c": 20.0, "eta": 0.995, "epoch_cap": 60}
    config_path.write_text(json.dumps({"registration_schedule": schedule}))
    out = tmp_path / "out"
    code = main(
        [
            "track",
            "--frames", str(frames_path),
            "--weights", str(weights_path),
            "--config", str(config_path),
            "--out", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["registration_schedule"]["c"] == 20.0
    assert meta["registration_schedule"]["epoch_cap"] == 60
    # both schedules are written in full and read back as they ran
    assert io.from_json(Schedule, meta["registration_schedule"], "schedule") == Schedule(
        c=20.0, eta=0.995, epoch_cap=60
    )
    assert io.from_json(Schedule, meta["children_schedule"], "schedule") == (
        Schedule.children_default()
    )
    assert set(meta["children_schedule"]) == {"c", "eta", "epoch_cap"}
    assert "dynamics" not in meta
    # a partial schedule keeps the rest of its own stage's default
    config_path.write_text(
        json.dumps({"children_schedule": {"c": 1.0}, "registration_schedule": {"c": 30.0}})
    )
    code = main(
        ["track", "--frames", str(frames_path), "--config", str(config_path),
         "--out", str(out), "--quiet"]
    )
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    for name, default, c in (("children_schedule", Schedule.children_default(), 1.0),
                             ("registration_schedule", Schedule.registration_default(), 30.0)):
        assert meta[name] == dataclasses.asdict(dataclasses.replace(default, c=c))
    capsys.readouterr()
    # the registration dynamics and the stop rule are fixed: these keys are
    # unknown schedule keys
    for extra in ({"dynamics": "async"}, {"alpha": 0.5}, {"stability_window": 5},
                  {"stability_tol": 1e-6}):
        config_path.write_text(json.dumps({"registration_schedule": {"c": 20.0, **extra}}))
        code = main(
            ["track", "--frames", str(frames_path), "--config", str(config_path),
             "--out", str(out), "--quiet"]
        )
        assert code == 2
        assert_names_removed_keys(capsys.readouterr().err, extra)


@pytest.mark.parametrize(
    "command, option",
    [("track", "--schedule"), ("calibrate", "--weights")],
)
def test_cli_removed_options_exit_2(tmp_path, capsys, command, option):
    # the registration schedule comes from --config; calibration reads no weights
    path = tmp_path / "x.json"
    path.write_text("{}")
    args = [command, "--frames", str(path), option, str(path), "--out", str(tmp_path / "o")]
    if command == "calibrate":
        args += ["--ground-truth", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
