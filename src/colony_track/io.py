"""File formats: JSON-lines frames, lineage CSV, and JSON config files."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import Cell, Frame, Rect

LINEAGE_HEADER = ["frame_index", "source_id", "kind", "target_id_1", "target_id_2"]


def write_frames_jsonl(frames: Sequence[Frame], path) -> None:
    """One cell per line: {"frame", "id", "center", "e", "h", "width"}."""
    with open(path, "w") as fh:
        for frame in frames:
            for c in frame.cells:
                fh.write(
                    json.dumps(
                        {
                            "frame": frame.index,
                            "id": c.id,
                            "center": [round(float(c.center[0]), 9), round(float(c.center[1]), 9)],
                            "e": [float(c.e[0]), float(c.e[1])],
                            "h": [float(c.h[0]), float(c.h[1])],
                            "width": float(c.width),
                        }
                    )
                    + "\n"
                )


def read_frames_jsonl(path, bounds: Rect | None = None) -> list[Frame]:
    """Parse a JSON-lines frame file into frames sorted by index.

    When no bounds are given, each frame gets the bounding box of its cell
    capsules padded by one pixel.
    """
    per_frame: dict[int, list[Cell]] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ValidationError(f"cannot read frames file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                idx = rec["frame"]
                if isinstance(idx, bool) or not isinstance(idx, int):
                    raise ValueError(f"frame index must be an integer, got {idx!r}")
                cell = Cell(str(rec["id"]), rec["e"], rec["h"], float(rec["width"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad cell record ({exc})") from exc
            stated = np.asarray(rec.get("center", cell.center), dtype=float)
            if np.hypot(*(stated - cell.center)) > 1e-3:
                raise ValidationError(
                    f"{path}:{lineno}: center is not the endpoint midpoint"
                )
            per_frame.setdefault(idx, []).append(cell)
    frames = []
    for idx in sorted(per_frame):
        cells = per_frame[idx]
        if bounds is None:
            pts = np.array([p for c in cells for p in (c.e, c.h)])
            pad = max(c.width for c in cells) / 2.0 + 1.0
            box = Rect(
                float(pts[:, 0].min()) - pad,
                float(pts[:, 1].min()) - pad,
                float(pts[:, 0].max()) + pad,
                float(pts[:, 1].max()) + pad,
            )
        else:
            box = bounds
        try:
            frames.append(Frame(idx, tuple(cells), box))
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    if not frames:
        raise ValidationError(f"{path}: no cells found")
    return frames


def write_lineage_csv(records: Iterable, path) -> None:
    """Rows: frame_index,source_id,kind(MOVE|DIV),target_id_1,target_id_2."""
    with open(path, "w", newline="") as fh:
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
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read lineage file {path}: {exc}") from exc
    with fh:
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
            src, kind = row[1], row[2]
            moved, divided = per_frame.setdefault(idx, ({}, {}))
            if src in moved or src in divided:
                raise ValidationError(f"{where}: source {src!r} repeated in frame {idx}")
            if kind == "MOVE":
                moved[src] = row[3]
            elif kind == "DIV":
                divided[src] = (row[3], row[4])
            else:
                raise ValidationError(f"{where}: unknown lineage kind {kind!r}")
    return [
        LineageRecord(idx, per_frame[idx][0], per_frame[idx][1])
        for idx in sorted(per_frame)
    ]


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def dump_json(data: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
