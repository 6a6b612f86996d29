"""File formats: JSON-lines frames, lineage CSV, and JSON config files."""

from __future__ import annotations

import csv
import dataclasses
import json
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, finite_real
from .geometry import Frame, Rect, _rod_error

LINEAGE_HEADER = ["frame_index", "source_id", "kind", "target_id_1", "target_id_2"]


@contextmanager
def reading(path, what: str, newline: str | None = None):
    """``path`` open for reading text. An :class:`OSError` met opening it,
    text that is not UTF-8, a CSV field over the csv module's size limit or
    JSON nested past the parser's depth raises :class:`ValidationError`."""
    try:
        fh = open(path, newline=newline)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error, RecursionError) as exc:
            raise ValidationError(f"{path}: unreadable {what} ({exc})") from exc


@contextmanager
def writing(path):
    """``path`` open for writing text, with no newline translation; an
    :class:`OSError` met opening or writing it raises :class:`ValidationError`."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path}: {exc}") from exc


def write_frames_jsonl(frames: Sequence[Frame], path) -> None:
    """One cell per line: {"frame", "id", "center", "e", "h", "width"}."""
    with writing(path) as fh:
        for frame in frames:
            rows = (frame.centers(), frame.e, frame.h, frame.widths)
            for cid, center, e, h, width in zip(frame.ids, *(a.tolist() for a in rows)):
                fh.write(
                    json.dumps(
                        {
                            "frame": frame.index,
                            "id": cid,
                            "center": [round(center[0], 9), round(center[1], 9)],
                            "e": e,
                            "h": h,
                            "width": width,
                        }
                    )
                    + "\n"
                )


def _numbers(value, name: str, count: int | None = None) -> list[float]:
    """``value``, a JSON array of finite numbers that are not bools (``count``
    of them, when given), as floats."""
    if not (
        isinstance(value, list)
        and count in (None, len(value))
        and all(map(finite_real, value))
    ):
        size = "" if count is None else f"{count} "
        raise ValueError(f"{name} must be an array of {size}finite numbers, got {value!r}")
    return [float(v) for v in value]


def read_frames_jsonl(path) -> list[Frame]:
    """Parse a JSON-lines frame file into frames sorted by index.

    Each frame gets the bounding box of its cell capsules padded by one pixel.
    """
    # per frame: ids, e and h points, widths
    per_frame: dict[int, tuple[list, list, list, list]] = {}
    # coordinates near the float limit overflow; the checks below reject them
    with reading(path, "frames file") as fh, np.errstate(over="ignore"):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                idx, cell_id, width = rec["frame"], rec["id"], rec["width"]
                if isinstance(idx, bool) or not isinstance(idx, int):
                    raise ValueError(f"frame index must be an integer, got {idx!r}")
                if not isinstance(cell_id, str) or not cell_id:
                    raise ValueError(f"id must be a non-empty string, got {cell_id!r}")
                if not finite_real(width):
                    raise ValueError(f"width must be a finite number, got {width!r}")
                e, h = _numbers(rec["e"], "e", 2), _numbers(rec["h"], "h", 2)
                ends = np.array([e, h])
                error = _rod_error(float(np.hypot(*(ends[1] - ends[0]))), float(width))
                if error:
                    raise ValueError(error)
                center = (ends[0] + ends[1]) / 2.0
                if not np.isfinite(center).all():
                    raise ValueError("the endpoint midpoint overflows a float")
                stated = _numbers(rec["center"], "center", 2) if "center" in rec else center
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad cell record ({exc})") from exc
            if np.hypot(*(stated - center)) > 1e-3:
                raise ValidationError(
                    f"{path}:{lineno}: center is not the endpoint midpoint"
                )
            ids, es, hs, widths = per_frame.setdefault(idx, ([], [], [], []))
            ids.append(cell_id)
            es.append(e)
            hs.append(h)
            widths.append(float(width))
    frames = []
    for idx in sorted(per_frame):
        ids, e, h, widths = per_frame[idx]
        pts = np.array(e + h)
        pad = max(widths) / 2.0 + 1.0
        try:
            box = Rect(
                float(pts[:, 0].min()) - pad,
                float(pts[:, 1].min()) - pad,
                float(pts[:, 0].max()) + pad,
                float(pts[:, 1].max()) + pad,
            )
            frames.append(Frame.from_arrays(idx, ids, e, h, widths, box))
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if not frames:
        raise ValidationError(f"{path}: no cells found")
    return frames


def write_lineage_csv(records: Iterable, path) -> None:
    """Rows: frame_index,source_id,kind(MOVE|DIV),target_id_1,target_id_2."""
    with writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(LINEAGE_HEADER)
        for rec in records:
            for src, tgt in sorted(rec.moved.items()):
                writer.writerow([rec.frame_index, src, "MOVE", tgt, ""])
            for src, (t1, t2) in sorted(rec.divided.items()):
                writer.writerow([rec.frame_index, src, "DIV", t1, t2])


def read_lineage_csv(path) -> list:
    from .simulator import LineageRecord

    per_frame: dict[int, tuple[dict, dict]] = {}
    with reading(path, "lineage file", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LINEAGE_HEADER:
            raise ValidationError(f"{path}: unexpected lineage header {header}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(LINEAGE_HEADER):
                raise ValidationError(
                    f"{where}: expected {len(LINEAGE_HEADER)} fields, got {len(row)}"
                )
            try:
                idx = int(row[0])
            except ValueError as exc:
                raise ValidationError(f"{where}: bad frame index {row[0]!r}") from exc
            src, kind, t1, t2 = row[1:]
            moved, divided = per_frame.setdefault(idx, ({}, {}))
            if src in moved or src in divided:
                raise ValidationError(f"{where}: source {src!r} repeated in frame {idx}")
            if kind not in ("MOVE", "DIV"):
                raise ValidationError(f"{where}: unknown lineage kind {kind!r}")
            if kind == "MOVE" and t2:
                raise ValidationError(f"{where}: a MOVE row has no second target, got {t2!r}")
            if not (src and t1 and (t2 or kind == "MOVE")):
                raise ValidationError(f"{where}: empty cell id")
            if t1 == t2:
                raise ValidationError(f"{where}: a DIV row names target {t1!r} twice")
            if kind == "MOVE":
                moved[src] = t1
            else:
                divided[src] = (t1, t2)
    return [
        LineageRecord(idx, per_frame[idx][0], per_frame[idx][1])
        for idx in sorted(per_frame)
    ]


def load_json(path, what: str) -> dict:
    with reading(path, what) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def from_json(cls, data, what: str, base=None):
    """Build the settings dataclass ``cls`` from the JSON value ``data``.

    ``data`` must be an object whose keys are fields of ``cls``; a field it
    leaves out keeps its value in ``base``, or without one its default in
    ``cls``, so ``data`` must then name every field with no default. A field
    whose type is another settings dataclass takes an object, loaded the same
    way over the field's value in ``base``, so a partial schedule keeps the
    rest of its own default. A ``Rect`` or tuple field takes an array of
    finite numbers, stored as floats. Other values go to ``cls`` as they are:
    its ``__post_init__`` checks their types and ranges. ``what`` names
    ``data`` in the :class:`ValidationError` raised for any input it rejects.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    types = typing.get_type_hints(cls)
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {what} keys: {unknown}")
    kwargs = {}
    try:
        for name, value in data.items():
            kind = types[name]
            if kind is Rect or typing.get_origin(kind) is tuple:
                value = _numbers(value, name)
                value = Rect(*value) if kind is Rect else tuple(value)
            elif dataclasses.is_dataclass(kind):
                outer = cls() if base is None else base
                value = from_json(kind, value, name.replace("_", " "), getattr(outer, name))
            kwargs[name] = value
        if base is None:
            return cls(**kwargs)
        try:
            return dataclasses.replace(base, **kwargs)
        except ValidationError as exc:  # a nested object's own checks: name the object
            raise ValidationError(f"{what}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc


def output_dir(path, names: Iterable[str] = ()) -> Path:
    """The directory ``path``, made with its parents where missing, checked
    to hold no directory under any of the file ``names`` it will receive."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write output directory {path}: {exc}") from exc
    for file in (Path(path) / name for name in names):
        if file.is_dir():
            raise ValidationError(f"cannot write output file {file}: it is a directory")
    return Path(path)


def dump_json(data: dict, path) -> None:
    """Write ``data`` as indented JSON to ``path``, in a directory made where missing."""
    output_dir(Path(path).parent)
    with writing(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
