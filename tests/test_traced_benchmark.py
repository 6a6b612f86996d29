"""The traced benchmark's contract with colony_track.

``python3 trackbench/run.py --trace 1`` wraps colony_track functions and
methods by name (``trackbench.layers.install``), and its callbacks read
attributes of their results. A traced pass here, over one dividing
``pipeline21`` pair and one calibrated ``reg6min`` pair, fails when a wrapped
name or an attribute a callback reads is gone, and checks that leaving the
tracer puts every original back.
"""

from colony_track import (
    annealer,
    calibration,
    division,
    geometry,
    pipeline,
    registration,
    simulator,
)
from trackbench import layers, measure, workloads
from trackbench.spans import Tracer

OWNERS = (
    annealer, calibration, division, geometry, pipeline, registration, simulator,
    division.ChildrenBmProblem, registration.RegistrationProblem,
)


def test_traced_pass_reads_every_layer_and_restores_the_originals():
    pipe = workloads.pipeline21(0)
    k = next(k for k in pipe.pairs if len(pipe.frames[k + 1]) > len(pipe.frames[k]))
    six = workloads.reg6min(0, pairs=1)
    before = [dict(vars(owner)) for owner in OWNERS]
    out = measure.Pass()
    with Tracer() as tr:
        layers.install(tr)
        # a callback that raises makes the pass count the pair as failed
        measure.track_pair(pipe, k, out)
        measure.track_pair(six, six.pairs[0], out)
        assert None not in out.records and len(out.weights) == 1
        pipeline.score(out.records[:1], [pipe.lineage[k]])
        metrics = layers.per_layer(tr)
    for name in ("division.build_pch_s", "division.children_to_bm_s", "annealer.swap_s",
                 "annealer.async_s", "geometry.build_neighbor_graph_s",
                 "registration.to_bm_s", "calibration.calibrate_s", "pipeline.score_s"):
        assert metrics[name][0] > 0.0, name
    for name in ("division.candidates", "registration.cliques", "registration.window_mean",
                 "calibration.rows", "annealer.epochs"):
        assert metrics[name][0] > 0, name
    for owner, saved in zip(OWNERS, before):
        assert vars(owner).keys() == saved.keys(), owner
        assert all(vars(owner)[name] is value for name, value in saved.items()), owner
