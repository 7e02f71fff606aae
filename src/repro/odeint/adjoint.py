"""Continuous adjoint sensitivity method (Chen et al. 2018, Eq. 4-5).

``solve(..., SolverOptions(adjoint=True))`` routes here: the forward ODE
is solved without recording a tape, then, in the backward pass, the
augmented system

    d/dt [y, a, g_theta] = [f, -a^T df/dy, -a^T df/dtheta]

is integrated backwards in time.  Memory is O(state) instead of
O(state x steps), at the price of a second integration.  It serves both as
an API parity feature with torchdiffeq and as a cross-check of the default
backprop-through-the-solver gradients (see tests/odeint/test_adjoint.py).

Two integration families share :func:`adjoint_solve`:

* **fixed-grid methods** (including ``implicit_adams``, the paper's
  solver) run their forward pass through the same grid loop as
  :func:`repro.odeint.solve`, then co-integrate ``y`` with
  ``(a, g_theta)`` backward over the same sub-step grid - the backward
  sweep always uses RK4 from the stored interval states, independent of
  the forward stepper;
* **dopri5** stores the forward pass's accepted-step dense-output segments
  and reads ``y(t)`` from the quartic interpolant during the backward
  sweep, so ``y`` does not have to be re-integrated (and cannot drift).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autodiff import Tensor, maybe_compile, no_grad
from ..nn import Module
from ..telemetry import get_registry
from .dopri5 import _dense_eval, _dopri5_core
from .fixed import FIXED_STEPPERS, _fixed_grid_solve, _n_substeps
from .options import SolverOptions
from .stats import SolverStats

__all__ = ["adjoint_solve"]


def _vjp(rhs: Callable, params: list, t: float, y_value: np.ndarray,
         a_value: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Return ``(a^T df/dy, [a^T df/dtheta ...])`` at a single point.

    ``rhs`` is the (possibly replay-compiled) right-hand side; the adjoint
    sweep rebuilds this one-step graph at every augmented evaluation.  This
    call has gradients enabled, so it always runs eagerly; the ``no_grad``
    calls (the forward solve, the fixed-grid sweep's plain RHS value) run
    the generated kernel under the replay executor.
    """
    for p in params:
        p.zero_grad()
    y = Tensor(y_value, requires_grad=True)
    f = rhs(t, y)
    f.backward(a_value)
    dy = y.grad if y.grad is not None else np.zeros_like(y_value)
    dparams = [p.grad if p.grad is not None else np.zeros_like(p.data)
               for p in params]
    for p in params:
        p.zero_grad()
    return dy, dparams


def _adjoint_output(y0: Tensor, params: list, times: np.ndarray,
                    solution: np.ndarray, stats: SolverStats,
                    sweep: Callable) -> Tensor:
    """Wrap a tape-free forward ``solution`` in the adjoint backward.

    The backward closure walks the output intervals in reverse, letting
    ``sweep(idx, a, g_theta) -> (a, g_theta)`` integrate the adjoint state
    from ``times[idx]`` back to ``times[idx - 1]`` and adding the
    incoming output gradient at every output time; the parameter
    gradients accumulate into ``params`` and the backward evaluations into
    ``stats.nfev`` (and the registry's ``backward_nfev``).
    """

    def backward(grad_outputs: np.ndarray) -> tuple[np.ndarray | None, ...]:
        nfev_before = stats.nfev
        adj_y = np.array(grad_outputs[-1], copy=True)
        adj_params = [np.zeros_like(p.data) for p in params]
        for idx in range(len(times) - 1, 0, -1):
            adj_y, adj_params = sweep(idx, adj_y, adj_params)
            adj_y = adj_y + grad_outputs[idx - 1]

        for p, g in zip(params, adj_params):
            p.grad = g if p.grad is None else p.grad + g
        registry = get_registry()
        if registry.enabled:
            delta = stats.nfev - nfev_before
            registry.inc(f"solver.{stats.method}.backward_nfev", delta)
            registry.inc("solver.nfev", delta)
        return (adj_y,)

    return Tensor._make_custom(
        solution, (y0,), backward,
        force_grad=y0.requires_grad or any(p.requires_grad for p in params))


# ---------------------------------------------------------------------------
# dopri5 adjoint: y(t) from dense-output segments
# ---------------------------------------------------------------------------

class _SegmentTable:
    """Locate + evaluate value-only dense segments for the backward sweep."""

    def __init__(self, segments: list, direction: float):
        # Strip Tensors down to arrays: the adjoint sweep is values-only.
        self.segs = [(float(t), float(h), y.data, [ki.data for ki in k])
                     for t, h, y, k in segments]
        self.starts = np.array([s[0] for s in self.segs], dtype=np.float64)
        self.direction = direction
        #: internal step boundaries, in integration order (the backward
        #: sweep steps over each forward accepted step's span).
        self.bounds = self.starts[1:]

    @property
    def nbytes(self) -> int:
        return sum(s[2].nbytes + sum(ki.nbytes for ki in s[3])
                   for s in self.segs)

    def __call__(self, tau: float) -> np.ndarray:
        if self.direction > 0:
            idx = int(np.searchsorted(self.starts, tau, side="right")) - 1
        else:
            idx = len(self.starts) - 1 - int(
                np.searchsorted(self.starts[::-1], tau, side="left"))
        idx = int(np.clip(idx, 0, len(self.segs) - 1))
        t_i, h_i, y_old, k = self.segs[idx]
        return _dense_eval(y_old, k, h_i, float((tau - t_i) / h_i))


def _sweep_interval(table: _SegmentTable, aug_dynamics, t_hi: float,
                    t_lo: float, adj_y: np.ndarray,
                    adj_params: list[np.ndarray]
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate ``(a, g_theta)`` backward from ``t_hi`` to ``t_lo``.

    One RK4 step per forward accepted-step span inside the interval, so
    backward resolution follows wherever the forward controller needed
    small steps.  ``y(tau)`` comes from the dense ``table``.
    """
    direction = table.direction
    eps = 1e-12 * max(1.0, abs(t_hi), abs(t_lo))
    b = table.bounds
    if direction > 0:
        inner = b[(b > t_lo + eps) & (b < t_hi - eps)]
    else:
        inner = b[(b < t_lo - eps) & (b > t_hi + eps)]
    pts = [t_hi] + list(inner[::-1]) + [t_lo]

    def rk_step(tau: float, h: float, a, p):
        a1, p1 = aug_dynamics(tau, a)
        a2, p2 = aug_dynamics(tau + h / 2, a + h / 2 * a1)
        a3, p3 = aug_dynamics(tau + h / 2, a + h / 2 * a2)
        a4, p4 = aug_dynamics(tau + h, a + h * a3)
        a_new = a + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        p_new = [pi + h / 6 * (g1 + 2 * g2 + 2 * g3 + g4)
                 for pi, g1, g2, g3, g4 in zip(p, p1, p2, p3, p4)]
        return a_new, p_new

    for tau_hi, tau_lo in zip(pts[:-1], pts[1:]):
        h = tau_lo - tau_hi
        if h == 0.0:
            continue
        adj_y, adj_params = rk_step(tau_hi, h, adj_y, adj_params)
    return adj_y, adj_params


def _adjoint_dopri5(func: Module, y0: Tensor, times: np.ndarray,
                    opts: SolverOptions) -> tuple[Tensor, SolverStats]:
    """Continuous adjoint over one adaptive dopri5 integration.

    The forward pass runs under ``no_grad`` collecting dense-output
    segments; the backward closure integrates only the augmented
    ``(a, g_theta)`` state in reverse, reading ``y(tau)`` from the
    segments' quartic interpolant (each augmented evaluation costs one VJP
    forward pass).
    """
    params = list(func.parameters())
    rhs = maybe_compile(func)
    direction = 1.0 if float(times[-1]) > float(times[0]) else -1.0

    segments: list = []
    with no_grad():
        outputs, stats, _ = _dopri5_core(
            rhs, Tensor(np.array(y0.data, copy=True)), times,
            opts.rtol, opts.atol, opts.max_steps, segments=segments)
    stats.method = "adjoint[dopri5]"
    solution = np.stack([o.data for o in outputs], axis=0)

    table = _SegmentTable(segments, direction)
    registry = get_registry()
    if registry.enabled:
        registry.set_gauge("solver.adjoint.dense_bytes", table.nbytes)

    def aug_dynamics(tau: float, a_val: np.ndarray):
        vjp_y, vjp_p = _vjp(rhs, params, tau, table(tau), a_val)
        stats.nfev += 1   # the VJP forward pass
        return -vjp_y, [-g for g in vjp_p]

    def sweep(idx: int, adj_y: np.ndarray, adj_params: list):
        return _sweep_interval(table, aug_dynamics, float(times[idx]),
                               float(times[idx - 1]), adj_y, adj_params)

    return _adjoint_output(y0, params, times, solution, stats, sweep), stats


# ---------------------------------------------------------------------------
# fixed-grid adjoint: y co-integrated backward with RK4
# ---------------------------------------------------------------------------

def _adjoint_fixed(func: Module, y0: Tensor, times: np.ndarray,
                   method: str, opts: SolverOptions
                   ) -> tuple[Tensor, SolverStats]:
    """Continuous adjoint over a fixed-grid (or implicit Adams) solve.

    The forward pass is :func:`repro.odeint.solve`'s own grid loop run
    under ``no_grad``.  Only the forward stepper differs by method: the
    backward sweep co-integrates ``y`` with RK4 from the stored interval
    states regardless (for ``implicit_adams`` both are 4th order, so the
    gradient band is unchanged).
    """
    step_size = opts.step_size
    params = list(func.parameters())
    rhs = maybe_compile(func)
    with no_grad():
        ys, stats, _ = _fixed_grid_solve(
            rhs, Tensor(np.array(y0.data, copy=True)), times, method,
            step_size)
    stats.method = f"adjoint[{method}]"
    solution = ys.data

    def aug_dynamics(t_val: float, y_val: np.ndarray, a_val: np.ndarray):
        with no_grad():
            f_val = rhs(t_val, Tensor(y_val)).data
        vjp_y, vjp_p = _vjp(rhs, params, t_val, y_val, a_val)
        stats.nfev += 2  # plain RHS eval + the VJP forward pass
        return f_val, -vjp_y, [-g for g in vjp_p]

    def rk(yv, av, pv, h, t_loc):
        """One RK4 step of the augmented system (values only)."""
        f1, a1, p1 = aug_dynamics(t_loc, yv, av)
        f2, a2, p2 = aug_dynamics(t_loc + h / 2, yv + h / 2 * f1,
                                  av + h / 2 * a1)
        f3, a3, p3 = aug_dynamics(t_loc + h / 2, yv + h / 2 * f2,
                                  av + h / 2 * a2)
        f4, a4, p4 = aug_dynamics(t_loc + h, yv + h * f3, av + h * a3)
        y_new = yv + h / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
        a_new = av + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        p_new = [pv_i + h / 6 * (g1 + 2 * g2 + 2 * g3 + g4)
                 for pv_i, g1, g2, g3, g4 in zip(pv, p1, p2, p3, p4)]
        return y_new, a_new, p_new

    def sweep(idx: int, adj_y: np.ndarray, adj_params: list):
        t1, t0 = float(times[idx]), float(times[idx - 1])
        span = t0 - t1  # negative: integrating backwards
        n_sub = _n_substeps(span, step_size)
        dt = span / n_sub
        y_val = np.array(solution[idx], copy=True)
        tau = t1
        for _ in range(n_sub):
            y_val, adj_y, adj_params = rk(y_val, adj_y, adj_params, dt, tau)
            tau += dt
        return adj_y, adj_params

    return _adjoint_output(y0, params, times, solution, stats, sweep), stats


def adjoint_solve(func: Module, y0: Tensor, times: np.ndarray,
                  method: str, opts: SolverOptions
                  ) -> tuple[Tensor, SolverStats]:
    """Continuous-adjoint integration core behind ``solve(adjoint=True)``.

    ``times`` must already be validated; ``method`` is a fixed-grid
    stepper, ``implicit_adams`` or ``dopri5``.  Returns
    ``(solution, stats)``.  The stats record is shared with the backward
    closure: at return time it counts the forward solve, and running
    ``.backward()`` adds the augmented backward sweep's evaluations.
    Gradients accumulate into ``func``'s parameters and into ``y0``.
    """
    if not hasattr(func, "parameters"):
        raise TypeError(
            "the continuous adjoint needs a Module right-hand side so its "
            f"parameters are discoverable; got {type(func).__name__}")
    if method == "dopri5":
        return _adjoint_dopri5(func, y0, times, opts)
    if method not in FIXED_STEPPERS and method != "implicit_adams":
        raise ValueError(
            "the continuous adjoint supports the fixed-grid methods "
            f"{sorted(FIXED_STEPPERS)}, implicit_adams and dopri5; "
            f"got {method!r}")
    return _adjoint_fixed(func, y0, times, method, opts)
