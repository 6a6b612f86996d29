"""Cell tracking in dense rod-cell colonies by Boltzmann-machine annealing."""

from .annealer import (
    AnnealResult,
    QuadraticBm,
    RegistrationBm,
    Schedule,
    anneal,
)
from .calibration import CalibrationInstance, build_perturbations, calibrate
from .division import (
    ChildrenBmProblem,
    DivisionWeights,
    DistortionWeights,
    PairCandidates,
    build_children_bm,
    build_pch,
    estimate_parent,
    reduce_frames,
    solve_children_bm,
    trim_candidates,
)
from .errors import ColonyTrackError, InfeasibleError, ValidationError
from .geometry import (
    Cell,
    Frame,
    Rect,
    build_neighbor_graph,
)
from .pipeline import AccuracyReport, PipelineConfig, score, track_pair, track_sequence
from .registration import (
    LikelihoodModel,
    RegistrationProblem,
    RegistrationResult,
    RegistrationWeights,
    build_problem,
    fit_likelihood_model,
    initial_assignment,
    register,
)
from .simulator import LineageRecord, SimConfig, SimResult, simulate, true_motion_bound

__version__ = "0.1.0"
