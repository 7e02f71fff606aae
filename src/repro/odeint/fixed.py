"""Fixed-grid solvers: Euler, midpoint, RK4 and the shared grid loop.

Each ``step`` maps ``(func, t, dt, y) -> y_next`` using Tensor operations, so
gradients flow through the solver (discrete backprop-through-the-solver, the
default training mode of this reproduction, equivalent to torchdiffeq
without the adjoint).  :func:`_fixed_grid_solve` is the one sub-step loop
over an output grid, shared by :func:`repro.odeint.solve` and the
continuous adjoint's tape-free forward pass.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from ..autodiff import Tensor, maybe_compile, stack
from .resume import ResumeState
from .stats import CountingFunc, SolverStats

__all__ = ["euler_step", "midpoint_step", "rk4_step", "FIXED_STEPPERS",
           "STEP_NFEV"]

OdeFunc = Callable[[float, Tensor], Tensor]


def euler_step(func: OdeFunc, t: float, dt: float, y: Tensor) -> Tensor:
    """Explicit Euler: first order."""
    return y + func(t, y) * dt


def midpoint_step(func: OdeFunc, t: float, dt: float, y: Tensor) -> Tensor:
    """Explicit midpoint: second order."""
    half = func(t, y) * (dt / 2.0)
    return y + func(t + dt / 2.0, y + half) * dt


def rk4_step(func: OdeFunc, t: float, dt: float, y: Tensor) -> Tensor:
    """Classic fourth-order Runge-Kutta."""
    k1 = func(t, y)
    k2 = func(t + dt / 2.0, y + k1 * (dt / 2.0))
    k3 = func(t + dt / 2.0, y + k2 * (dt / 2.0))
    k4 = func(t + dt, y + k3 * dt)
    return y + (k1 + (k2 + k3) * 2.0 + k4) * (dt / 6.0)


FIXED_STEPPERS: dict[str, Callable[[OdeFunc, float, float, Tensor], Tensor]] = {
    "euler": euler_step,
    "midpoint": midpoint_step,
    "rk4": rk4_step,
}

#: RHS evaluations per step, used to fill ``SolverStats.nfev`` analytically
#: (no wrapper indirection on the fixed-grid hot path).
STEP_NFEV = {"euler": 1, "midpoint": 2, "rk4": 4}


def _fixed_grid_solve(func: OdeFunc, y0: Tensor | None, times: np.ndarray,
                      method: str, step_size: float | None,
                      resume: ResumeState | None = None,
                      resumable: bool = False
                      ) -> tuple[Tensor, SolverStats, ResumeState | None]:
    """Fixed-step and multistep integration over an explicit grid.

    Each output interval is split into ``ceil(|span| / step_size)`` equal
    sub-steps (one when ``step_size`` is None).  ``implicit_adams`` carries
    an f-history across sub-steps and drops it whenever the sub-step
    spacing changes, because the multistep formula assumes a uniform grid.

    With ``resume`` set, integration continues from the carried state:
    ``times[0]`` must coincide with the resume frontier (fixed-grid
    methods have no interpolant to answer earlier times) and ``y0`` is
    ignored in favour of the carried state.  For ``implicit_adams`` the
    carried f-history window seeds the multistep scheme - it is reused
    only while the grid spacing stays the one it was built on, which makes
    a resumed solve bitwise-identical to the unsplit one on the same grid.
    """
    # adams bootstraps with rk4_step, so it imports this module.
    from .adams import AdamsBashforthMoulton

    stats = SolverStats(method=method)
    last_dt = None
    if resume is not None:
        t_start = float(times[0])
        eps_t = 1e-12 * max(1.0, abs(t_start))
        if abs(t_start - float(resume.t)) > eps_t:
            raise ValueError(
                f"{method} resume must continue at the frontier "
                f"t={float(resume.t)}; the output grid starts at {t_start}")
        y = resume.y
        last_dt = resume.dt
    else:
        y = y0
    outputs: list[Tensor] = [y]
    # Every sub-step evaluates the same RHS expression; under the replay
    # executor one trace serves them all.  CountingFunc wraps the compiled
    # function, so nfev still counts logical RHS evaluations whether they
    # replay or run eagerly.
    func = maybe_compile(func)

    adams = None
    if method == "implicit_adams":
        adams = AdamsBashforthMoulton(CountingFunc(func, stats))
        if resume is not None and resume.history:
            adams._history = list(resume.history)
        step = adams.step
    else:
        step = partial(FIXED_STEPPERS[method], func)

    for t0, t1 in zip(times[:-1], times[1:]):
        span = float(t1 - t0)
        n_sub = max(1, math.ceil(abs(span) / step_size)) if step_size else 1
        dt = span / n_sub
        if adams is not None and last_dt is not None \
                and abs(dt - last_dt) > 1e-12:
            adams.reset()
        last_dt = dt
        tau = float(t0)
        for _ in range(n_sub):
            y = step(tau, dt, y)
            tau += dt
        stats.steps += n_sub
        outputs.append(y)
    if adams is None:
        stats.nfev = stats.steps * STEP_NFEV[method]

    state = None
    if resumable:
        state = ResumeState(
            method=method, t=float(times[-1]), y=y, dt=last_dt,
            history=list(adams._history) if adams is not None else None)
    return stack(outputs, axis=0), stats, state
