"""Consolidated solver configuration: :class:`SolverOptions`.

Following torchdiffeq's ``options=`` idiom, every tunable of every method
lives on one dataclass passed to :func:`repro.odeint.solve`::

    from repro.odeint import SolverOptions, solve
    sol = solve(f, y0, t, method="dopri5",
                options=SolverOptions(rtol=1e-6, atol=1e-8))

``solve`` takes no per-method keyword arguments; passing one (the old
``step_size=``, ``rtol=``, ... style) raises ``TypeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SolverOptions", "validate_times"]


def validate_times(t: Sequence[float]) -> np.ndarray:
    """Check a time grid is finite and strictly monotonic (either direction).

    Called by :func:`repro.odeint.solve` so no solver path - in particular
    dopri5's dense-output emission loop, which walks the grid in
    integration order - can ever see a non-monotonic or unbounded grid.
    Returns the grid as a float64 1-D array.
    """
    times = np.asarray(t, dtype=np.float64).reshape(-1)
    if times.size < 2:
        raise ValueError("solve needs at least two time points")
    if not np.all(np.isfinite(times)):
        raise ValueError("time points must be finite")
    diffs = np.diff(times)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("time points must be strictly monotonic")
    return times


@dataclass(frozen=True)
class SolverOptions:
    """Every tunable of every :func:`repro.odeint.solve` method in one place.

    Methods ignore the fields that do not apply to them, except that
    ``dopri5`` rejects ``step_size`` (its step is chosen adaptively).

    Attributes
    ----------
    step_size:
        Maximum internal step for fixed-grid methods, up to a 1e-9
        relative tolerance: an output interval within that of ``k``
        steps takes exactly ``k`` sub-steps, any longer one rounds up.
        Defaults to one step per output interval.
    rtol, atol:
        Error tolerances for the adaptive ``dopri5`` method.
    max_steps:
        Trial-step budget for ``dopri5``: the safety bound on a runaway
        solve.
    adjoint:
        Route :func:`repro.odeint.solve` through the continuous adjoint
        backward (O(state) memory) instead of backprop through the solver.
        Fixed-grid methods and ``implicit_adams`` co-integrate ``y``
        backward with RK4; dopri5 reads ``y(t)`` from the forward pass's
        dense-output segments.
    resumable:
        Ask :func:`repro.odeint.solve` to return a continuation point as
        ``Solution.resume_state`` (see :mod:`repro.odeint.resume`) for a
        later ``solve(..., resume_from=state)``.  For dopri5 this also
        switches to split-independent stepping: trial steps are no longer
        clamped at the final output time (trailing outputs come from the
        dense interpolant), so a grid solved in one call and the same grid
        split across resumed calls produce bitwise-identical states.
        Incompatible with ``adjoint=True`` (the continuation carries
        forward-solver internals only).
    """

    step_size: float | None = None
    rtol: float = 1e-5
    atol: float = 1e-7
    max_steps: int = 10_000
    adjoint: bool = False
    resumable: bool = False

    def __post_init__(self) -> None:
        for name in ("step_size", "rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def validate_for(self, method: str) -> "SolverOptions":
        """Apply the per-method exclusivity rules; returns self."""
        if method == "dopri5" and self.step_size is not None:
            raise ValueError(
                "dopri5 is adaptive: 'step_size' only applies to fixed-grid "
                "methods; tune the adaptive controller with rtol/atol.")
        if self.resumable and self.adjoint:
            raise ValueError(
                "resumable solves carry forward-solver internals; they "
                "cannot be combined with the continuous adjoint "
                "(adjoint=True)")
        return self
