"""No command loads scipy, and simulation, tracking and scoring load no networkx.

The commands run in a fresh interpreter, since this test session has already
imported both packages elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import sys
from pathlib import Path

from colony_track.cli import main
from colony_track.io import read_lineage_csv

def loaded():
    names = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    return names + [m for m in sys.modules if m == "networkx"]

out = Path(sys.argv[1])
(out / "sim.json").write_text(json.dumps({
    "seed": 7, "n_frames": 10, "initial_cells": 4, "w": 45.0,
    "interframe_minutes": 1.0, "motion_sigma": 1.5, "substeps": 3,
}))
(out / "pipe.json").write_text(json.dumps({"w": 100.0, "tau": 45.0}))
frames, truth = str(out / "sim" / "frames.jsonl"), str(out / "sim" / "lineage.csv")
tracked = str(out / "track" / "tracking.csv")
commands = {
    "simulate": ["--config", str(out / "sim.json"), "--out", str(out / "sim")],
    "track": ["--frames", frames, "--config", str(out / "pipe.json"), "--seed", "3",
              "--out", str(out / "track")],
    "score": ["--predicted", tracked, "--ground-truth", truth],
    "calibrate": ["--frames", frames, "--ground-truth", truth, "--config",
                  str(out / "pipe.json"), "--out", str(out / "cal")],
}
for name, args in commands.items():
    assert main([name, *args, "--quiet"]) == 0, name
    print(name, loaded())
print(sum(len(rec.divided) for rec in read_lineage_csv(tracked)))
"""


def test_commands_leave_scipy_and_networkx_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *commands, divisions = done.stdout.splitlines()
    assert commands == [f"{name} []" for name in ("simulate", "track", "score", "calibrate")]
    assert int(divisions) > 0
