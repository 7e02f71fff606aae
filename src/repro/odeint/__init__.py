"""Differentiable ODE solvers (the torchdiffeq stand-in).

:func:`solve` is the one integration entry point; :func:`odeint_event`
separately locates the first zero crossing of an event function.
"""

from .api import ADAPTIVE_METHODS, METHODS, Solution, solve
from .events import odeint_event
from .adams import AdamsBashforthMoulton
from .dopri5 import PIController, initial_step_size
from .fixed import FIXED_STEPPERS, STEP_NFEV, euler_step, midpoint_step, \
    rk4_step
from .options import SolverOptions, validate_times
from .resume import ResumeState
from .stats import SolverStats

__all__ = [
    "solve",
    "Solution",
    "SolverOptions",
    "ResumeState",
    "validate_times",
    "odeint_event",
    "METHODS",
    "ADAPTIVE_METHODS",
    "AdamsBashforthMoulton",
    "initial_step_size",
    "PIController",
    "SolverStats",
    "FIXED_STEPPERS",
    "STEP_NFEV",
    "euler_step",
    "midpoint_step",
    "rk4_step",
]
