"""Simulation and tracking load neither scipy nor networkx; calibration loads
scipy.optimize.

Each check runs in a fresh interpreter, since this test session has already
imported both packages elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import numpy as np

from colony_track import calibration
from colony_track.pipeline import PipelineConfig, track_sequence
from colony_track.simulator import SimConfig, simulate

def loaded():
    names = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    return names + [m for m in sys.modules if m == "networkx"]

run = simulate(SimConfig(seed=7, n_frames=10, initial_cells=4, w=45.0,
                         interframe_minutes=1.0, motion_sigma=1.5, substeps=3))
records, _ = track_sequence(run.frames, PipelineConfig(w=45.0, tau=45.0, seed=3))
print(sum(len(rec.divided) for rec in records))
print(loaded())
calibration.calibrate(calibration.CalibrationInstance(np.array([[1.0, -0.5], [-0.2, 1.0]])))
print("scipy.optimize" in sys.modules)
"""


def test_tracking_leaves_networkx_and_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    divisions, tracked, calibrated = done.stdout.splitlines()
    assert int(divisions) > 0
    assert tracked == "[]"
    assert calibrated == "True"
