"""The one ODE entry point: :func:`solve` returning a :class:`Solution`.

Every model, baseline, streaming and serving path integrates through
:func:`solve`.  Every tunable and routing decision lives on
:class:`~repro.odeint.SolverOptions` (``adjoint=True`` selects the
continuous-adjoint backward, ``resumable=True`` returns a continuation
point), and every call returns a :class:`Solution` carrying the states
and the :class:`~repro.odeint.SolverStats` record.

Solver stats are published to the process-wide telemetry registry on
every call, exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..autodiff import Tensor, stack
from ..telemetry import get_registry
from .adjoint import adjoint_solve
from .dopri5 import _dopri5_core
from .fixed import _fixed_grid_solve
from .options import SolverOptions, validate_times
from .resume import ResumeState
from .stats import SolverStats

__all__ = ["Solution", "solve", "METHODS", "ADAPTIVE_METHODS"]

OdeFunc = Callable[[float, Tensor], Tensor]

METHODS = ("euler", "midpoint", "rk4", "implicit_adams", "dopri5")
ADAPTIVE_METHODS = ("dopri5",)


@dataclass
class Solution:
    """Everything one ODE solve produced.

    Attributes
    ----------
    ys:
        Differentiable Tensor of shape ``(len(t), *y0.shape)`` — the state
        at every requested output time (``t[0]`` maps to ``y0``).
    stats:
        The :class:`~repro.odeint.SolverStats` cost record of the solve.
    times:
        The validated float64 output grid actually integrated over.
    resume_state:
        Continuation point for ``solve(..., resume_from=...)``, present
        when the solve ran with ``SolverOptions(resumable=True)`` or was
        itself resumed; ``None`` otherwise.
    """

    ys: Tensor
    stats: SolverStats
    times: np.ndarray
    resume_state: ResumeState | None = None


def solve(func: OdeFunc, y0: Tensor | None, t: Sequence[float],
          method: str = "dopri5",
          options: SolverOptions | None = None,
          resume_from: ResumeState | None = None) -> Solution:
    """Integrate ``dy/dt = func(t, y)`` and return a :class:`Solution`.

    The one entry point for every solver in the package:

    * ``method`` picks the integrator (``euler | midpoint | rk4 |
      implicit_adams | dopri5``; the default is the adaptive ``dopri5``);
    * ``options.adjoint=True`` computes gradients with the continuous
      adjoint (O(state) memory; ``func`` must be a Module so its
      parameters are discoverable).  Fixed-grid methods co-integrate ``y``
      backward; dopri5 reads ``y(t)`` from its dense-output segments.

    ``t`` must be finite and strictly monotonic (either direction); ``y0``
    is the state at ``t[0]``.  Solver stats publish to the telemetry
    registry exactly once per call.

    ``resume_from`` continues a previous resumable solve from its
    ``Solution.resume_state``: ``y0`` may then be ``None`` (the carried
    state is the initial condition) and the method must match the state's.
    A resumed solve is itself resumable, so a stream of observations costs
    one warm continuation per arrival instead of re-integrating from
    ``t[0]``; on an identical output grid the concatenated results are
    bitwise-equal to the unsplit resumable solve (see
    :mod:`repro.odeint.resume` for the exact contract).
    """
    times = validate_times(t)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    opts = options if options is not None else SolverOptions()
    if not isinstance(opts, SolverOptions):
        raise TypeError(
            f"solve: options must be a SolverOptions, "
            f"got {type(opts).__name__}")
    opts.validate_for(method)
    if resume_from is not None:
        if resume_from.method != method:
            raise ValueError(
                f"resume_from carries {resume_from.method!r} state; "
                f"cannot resume with method {method!r}")
        if opts.adjoint:
            raise ValueError("resume_from cannot be combined with the "
                             "continuous adjoint")
    elif y0 is None:
        raise ValueError("solve: y0 may only be None with resume_from")
    resumable = opts.resumable or resume_from is not None

    state = None
    if opts.adjoint:
        ys, stats = adjoint_solve(func, y0, times, method, opts)
    elif method == "dopri5":
        outputs, stats, state = _dopri5_core(
            func, y0, times, opts.rtol, opts.atol, opts.max_steps,
            resume=resume_from, resumable=resumable)
        ys = stack(outputs, axis=0)
    else:
        ys, stats, state = _fixed_grid_solve(
            func, y0, times, method, opts.step_size, resume=resume_from,
            resumable=resumable)

    registry = get_registry()
    if resume_from is not None and registry.enabled:
        registry.inc("streaming.resume_hits")
    stats.publish(registry)
    return Solution(ys=ys, stats=stats, times=times, resume_state=state)
