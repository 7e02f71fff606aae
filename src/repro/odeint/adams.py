"""Implicit Adams (Adams-Bashforth-Moulton predictor-corrector).

The paper integrates the DHS dynamics with "the implicit Adams method, an
adaptive numerical integration method known for its tiny numerical errors".
We implement the classic fixed-order ABM scheme used by torchdiffeq's
``implicit_adams``: a 4th-order Adams-Bashforth predictor followed by a
4th-order Adams-Moulton corrector, with RK4 bootstrapping for the first
three steps.  The corrector is applied once (PECE), which is differentiable
because every stage is an ordinary Tensor expression.

Each step evaluates ``f(t, y)`` once for the history; a bootstrap step
reuses it as its RK4 first stage (4 evaluations), an Adams step adds only
the corrector's (2), so ``N >= 3`` uniform steps cost ``2N + 6``.
"""

from __future__ import annotations

from typing import Callable

from ..autodiff import Tensor
from .fixed import rk4_step

__all__ = ["AdamsBashforthMoulton"]

OdeFunc = Callable[[float, Tensor], Tensor]

# Adams-Bashforth 4 predictor coefficients (f_n, f_{n-1}, f_{n-2}, f_{n-3})
_AB4 = (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0)
# Adams-Moulton 4 corrector coefficients (f_{n+1}, f_n, f_{n-1}, f_{n-2})
_AM4 = (9.0 / 24.0, 19.0 / 24.0, -5.0 / 24.0, 1.0 / 24.0)


class AdamsBashforthMoulton:
    """Stateful fixed-step ABM integrator over a uniform grid.

    Parameters
    ----------
    func:
        Right-hand side ``f(t, y)``.
    """

    def __init__(self, func: OdeFunc):
        self.func = func
        self._history: list[Tensor] = []  # f values at the most recent grid points

    def reset(self) -> None:
        self._history = []

    def step(self, t: float, dt: float, y: Tensor) -> Tensor:
        """Advance from ``t`` to ``t + dt``."""
        f_now = self.func(t, y)
        self._history.append(f_now)
        if len(self._history) > 4:
            self._history.pop(0)

        if len(self._history) < 4:
            # Bootstrap phase: single RK4 step keeps 4th-order accuracy;
            # f(t, y) is already evaluated, so it is the first stage.
            return rk4_step(self.func, t, dt, y, k1=f_now)

        f0, f1, f2, f3 = self._history[-1], self._history[-2], \
            self._history[-3], self._history[-4]
        # Predictor (AB4)
        y_pred = y + (f0 * _AB4[0] + f1 * _AB4[1] + f2 * _AB4[2]
                      + f3 * _AB4[3]) * dt
        # Corrector (AM4), one sweep
        f_next = self.func(t + dt, y_pred)
        return y + (f_next * _AM4[0] + f0 * _AM4[1] + f1 * _AM4[2]
                    + f2 * _AM4[3]) * dt
