"""DIFFODE core: the paper's primary contribution."""

from .config import DiffODEConfig
from .dhs import (
    ContextState,
    P_SOLVERS,
    dhs_attention,
    recover_z,
    recover_z_literal,
    solve_p_adaptive,
    solve_p_exact_kkt,
    solve_p_max_hoyer,
    solve_p_min_norm,
)
from .dynamics import AugmentedDynamics, DHSDynamics, PlainLatentDynamics
from .graph import GraphDiffODE, normalized_adjacency
from .model import DiffODE, interpolate_grid_states
from .streaming import StreamPrediction, StreamSession

__all__ = [
    "DiffODEConfig",
    "DiffODE",
    "ContextState",
    "StreamPrediction",
    "StreamSession",
    "dhs_attention",
    "P_SOLVERS",
    "solve_p_min_norm",
    "solve_p_max_hoyer",
    "solve_p_adaptive",
    "solve_p_exact_kkt",
    "recover_z",
    "recover_z_literal",
    "DHSDynamics",
    "AugmentedDynamics",
    "PlainLatentDynamics",
    "interpolate_grid_states",
    "GraphDiffODE",
    "normalized_adjacency",
]
