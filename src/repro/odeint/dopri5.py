"""Adaptive Dormand-Prince 4(5) solver.

One continuous integration answers every requested output time:

* **FSAL** (first-same-as-last): the 7th stage of an accepted step is
  evaluated at ``(t + h, y_{n+1})`` with the 5th-order weights, so it *is*
  the next step's first stage.  Each trial step after the first costs 6
  fresh RHS evaluations instead of 7 (rejected trials keep their first
  stage too, because ``(t, y)`` did not move).
* **Dense output**: output times that fall inside an accepted step are
  answered by the standard 4th-order Dormand-Prince interpolant (the same
  coefficient matrix scipy's ``RK45`` uses), so the cost of a solve is set
  by the dynamics, not by how many output times the caller wants.
* **PI step-size control** (Hairer-Norsett-Wanner II.4): the growth factor
  is ``safety * err^-alpha * err_prev^beta`` with ``alpha = 0.7/5`` and
  ``beta = 0.4/5``; rejected steps shrink with the plain I-factor
  ``safety * err^-0.2`` and the next accepted step may not grow.  The
  initial step comes from the HNW starting-step heuristic instead of an
  arbitrary fraction of the span.
* **Per-sample error control**: the error norm is taken per batch element,
  and the controller follows the worst *active* sample.  Samples whose
  error stays a factor ``freeze_threshold`` below tolerance for
  ``freeze_patience`` consecutive accepted steps are frozen - they stop
  throttling step growth (in the spirit of Lam et al.'s batching strategy)
  but are still monitored: a frozen sample whose error estimate exceeds 1
  un-freezes immediately and forces a rejection, so freezing never trades
  away tolerance.

Step-size decisions are made on detached values (standard practice: the
controller is piecewise-constant in the inputs so it does not need a
gradient), while accepted states and dense interpolants remain
differentiable Tensor expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..autodiff import Tensor, maybe_compile, no_grad
from .resume import ResumeState
from .stats import SolverStats

__all__ = ["PIController", "initial_step_size"]

OdeFunc = Callable[[float, Tensor], Tensor]

# Butcher tableau for Dormand-Prince RK45.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
# Error weights: B5 - B4 (the embedded 4th-order defect).
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

# Dense-output interpolant: y(t + theta*h) = y + h * sum_i k_i * Q_i(theta)
# with Q_i(theta) = sum_j P[i][j] * theta^(j+1).  Rows sum to _B5, so the
# interpolant matches y_{n+1} exactly at theta = 1.
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_ORDER = 5           # order of the error estimator (q + 1)
_EPS_ERR = 1e-10     # floor so err^-alpha stays finite


@dataclass
class PIController:
    """Proportional-integral step-size controller (HNW II.4, PI.4.2).

    Deterministic update rule, unit-testable in isolation:

    * a trial step is **accepted** iff its error norm ``err <= 1``;
    * accepted:  ``factor = clip(safety * err^-alpha * err_prev^beta,
      factor_min, factor_max)``, additionally capped at 1.0 when the
      previous trial was a rejection (no growth spike right after
      back-off); ``err_prev`` then becomes ``max(err, 1e-10)``;
    * rejected:  ``factor = clip(safety * err^(-1/order), 0.1, 1.0)``
      (plain I-control shrink; ``err_prev`` is left untouched).

    ``err_prev`` starts at 1.0, so the very first step reduces to
    I-control.
    """

    safety: float = 0.9
    alpha: float = 0.7 / _ORDER
    beta: float = 0.4 / _ORDER
    factor_min: float = 0.2
    factor_max: float = 5.0
    err_prev: float = 1.0
    last_rejected: bool = False

    def accept(self, err: float) -> bool:
        return err <= 1.0

    def next_dt(self, dt: float, err: float, accepted: bool) -> float:
        err = max(float(err), _EPS_ERR)
        if accepted:
            factor = (self.safety * err ** -self.alpha
                      * self.err_prev ** self.beta)
            factor = float(np.clip(factor, self.factor_min, self.factor_max))
            if self.last_rejected:
                factor = min(factor, 1.0)
            self.err_prev = err
            self.last_rejected = False
        else:
            factor = float(np.clip(self.safety * err ** (-1.0 / _ORDER),
                                   0.1, 1.0))
            self.last_rejected = True
        return dt * factor


def _scaled_rms(x: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean((x / scale) ** 2)))


def initial_step_size(func: OdeFunc, t0: float, y0: Tensor, f0: Tensor,
                      direction: float, rtol: float, atol: float) -> float:
    """HNW starting-step heuristic (Hairer-Norsett-Wanner I, II.4).

    Costs one extra RHS evaluation (on detached values).  Returns a
    positive step magnitude.
    """
    y = y0.data
    f = f0.data
    scale = atol + rtol * np.abs(y)
    d0 = _scaled_rms(y, scale)
    d1 = _scaled_rms(f, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1

    with no_grad():
        y1 = Tensor(y + direction * h0 * f)
        f1 = func(t0 + direction * h0, y1)
    d2 = _scaled_rms(f1.data - f, scale) / h0

    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100.0 * h0, h1)


def _per_sample_error(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                      rtol: float, atol: float) -> np.ndarray:
    """Scaled RMS error norm per batch element (axis 0 when ndim >= 2)."""
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    ratio = (err / scale) ** 2
    if ratio.ndim < 2:
        return np.sqrt(np.atleast_1d(ratio.mean()))
    return np.sqrt(ratio.reshape(ratio.shape[0], -1).mean(axis=1))


def _dense_eval(y_old: Tensor, k: list[Tensor], h: float,
                theta: float) -> Tensor:
    """Evaluate the quartic dense-output interpolant at fraction ``theta``."""
    out = y_old
    for i in range(7):
        q = 0.0
        power = theta
        for j in range(4):
            q += _P[i][j] * power
            power *= theta
        if q != 0.0:
            out = out + k[i] * (h * q)
    return out


def _dopri5_core(func: OdeFunc, y0: Tensor | None, times: np.ndarray,
                 rtol: float, atol: float, max_steps: int,
                 freeze_threshold: float = 1e-2,
                 freeze_patience: int = 3,
                 segments: list | None = None,
                 resume: ResumeState | None = None,
                 resumable: bool = False
                 ) -> tuple[list[Tensor], SolverStats, ResumeState | None]:
    """One continuous adaptive integration over all ``times``.

    When ``segments`` is a list, every accepted step appends
    ``(t, h, y_old, k)`` to it (the continuous adjoint reads ``y(t)`` back
    out of these) - opt-in because it pins O(steps) extra Tensors.

    ``resumable=True`` switches to the continuation-friendly stepping
    contract (see :mod:`repro.odeint.resume`): trial steps are *not*
    clamped at ``times[-1]`` (outputs past the last accepted step come
    from the dense interpolant), so splitting the output grid across
    several calls - each fed the previous call's returned
    :class:`ResumeState` via ``resume=`` - reproduces the unsplit solve
    bitwise.  With ``resume`` set, ``times`` are *all* treated as output
    requests: entries at/behind the resume frontier are answered from the
    carried state or its last dense segment, the rest by integrating on.
    The third return value is the continuation state (``None`` unless
    resumable).
    """
    # Under the replay executor the RHS goes through the per-(model,
    # shard-shape) trace cache: it is traced on the first stage evaluation
    # and replayed on the ~6 evaluations of every subsequent trial step.
    func = maybe_compile(func)
    resumable = resumable or resume is not None
    t0, t_end = float(times[0]), float(times[-1])
    stats = SolverStats(method="dopri5")
    outputs: list[Tensor] = []

    if resume is not None:
        t = float(resume.t)
        y = resume.y
        f0 = resume.f
        last_seg = resume.segment
        direction = 1.0 if t_end > t else -1.0
        span = abs(t_end - t)
        controller = PIController(err_prev=resume.err_prev,
                                  last_rejected=resume.last_rejected)
        # Answer output times at/behind the frontier from the carried
        # state: bitwise the same expressions the producing solve used.
        next_idx = 0
        while next_idx < len(times):
            tq = float(times[next_idx])
            eps_t = 1e-12 * max(1.0, abs(tq))
            if abs(tq - t) <= eps_t:
                outputs.append(y)
            elif last_seg is not None:
                t_s, h_s, y_s, k_s = last_seg
                theta = (tq - t_s) / h_s
                if not (-1e-9 <= theta <= 1.0 + 1e-9):
                    break
                outputs.append(_dense_eval(y_s, k_s, h_s, theta))
                stats.dense_evals += 1
            else:
                break
            next_idx += 1
        if next_idx < len(times) and (float(times[next_idx]) - t) * direction <= 0:
            raise ValueError(
                f"resume state at t={t} cannot answer time "
                f"{float(times[next_idx])}: behind the frontier and outside "
                "the last accepted step")
    else:
        t = t0
        y = y0
        direction = 1.0 if t_end > t0 else -1.0
        span = abs(t_end - t0)
        controller = PIController()
        last_seg = None
        f0 = None
        outputs.append(y0)
        next_idx = 1

    n_samples = y.shape[0] if y.ndim >= 2 else 1
    frozen = np.zeros(n_samples, dtype=bool)
    calm_streak = np.zeros(n_samples, dtype=np.int64)
    freeze_counts = np.zeros(n_samples, dtype=np.int64)
    if resume is not None:
        if resume.frozen is not None and resume.frozen.shape == frozen.shape:
            frozen = resume.frozen.copy()
        if (resume.calm_streak is not None
                and resume.calm_streak.shape == calm_streak.shape):
            calm_streak = resume.calm_streak.copy()

    if resume is not None and next_idx >= len(times):
        # Every request answered without moving: pass the state through.
        dt = resume.dt
    else:
        if f0 is None:
            f0 = func(t, y)               # stage 1, reused via FSAL
            stats.nfev += 1
        if resume is not None and resume.dt is not None:
            dt = float(resume.dt)
        else:
            dt = initial_step_size(func, t, y, f0, direction, rtol, atol)
            stats.nfev += 1
        if not resumable:
            dt = min(dt, span)
    stats.first_step = dt

    while next_idx < len(times):
        if stats.trial_steps >= max_steps:
            raise RuntimeError(f"dopri5 exceeded {max_steps} steps")
        if not resumable:
            dt = min(dt, abs(t_end - t))
        h = direction * dt

        k: list[Tensor] = [f0]
        for stage in range(1, 7):
            yi = y
            for j, a in enumerate(_A[stage]):
                if a != 0.0:
                    yi = yi + k[j] * (a * h)
            k.append(func(t + _C[stage] * h, yi))
        stats.nfev += 6

        y5 = y
        for j, b in enumerate(_B5):
            if b != 0.0:
                y5 = y5 + k[j] * (b * h)

        # Embedded 4th-order defect (values only; the controller needs no
        # gradient because it is piecewise-constant in its inputs).
        err = np.zeros_like(y.data)
        for j, e in enumerate(_E):
            if e != 0.0:
                err = err + k[j].data * (e * h)
        err_sample = _per_sample_error(err, y.data, y5.data, rtol, atol)

        # A frozen sample that drifted past tolerance rejoins step control.
        frozen &= ~(err_sample > 1.0)
        active = ~frozen
        err_ctrl = float(err_sample[active].max() if active.any()
                         else err_sample.max())

        # The degenerate-step escape hatch is an absolute floor in
        # resumable mode: ``span`` depends on where the caller split the
        # grid, and the continuation contract promises split-independent
        # stepping.
        accepted = controller.accept(err_ctrl) or (
            dt <= 1e-14 if resumable else dt <= 1e-10 * span)
        if accepted:
            freeze_counts += frozen
            calm = err_sample < freeze_threshold
            calm_streak = np.where(calm, calm_streak + 1, 0)
            frozen |= calm_streak >= freeze_patience

            if segments is not None:
                segments.append((t, h, y, list(k)))
            if resumable:
                last_seg = (t, h, y, list(k))
            t_new = t + h
            while next_idx < len(times):
                tq = float(times[next_idx])
                eps_t = 1e-12 * max(1.0, abs(tq))
                if (tq - t_new) * direction > eps_t:
                    break
                if abs(tq - t_new) <= eps_t:
                    outputs.append(y5)
                else:
                    outputs.append(_dense_eval(y, k, h, (tq - t) / h))
                    stats.dense_evals += 1
                next_idx += 1

            t = t_new
            y = y5
            f0 = k[6]                      # FSAL: stage 7 is next stage 1
            stats.steps += 1
        else:
            stats.rejects += 1
        dt = controller.next_dt(dt, err_ctrl, accepted)

    stats.freeze_counts = freeze_counts
    state = None
    if resumable:
        state = ResumeState(
            method="dopri5", t=t, y=y, dt=dt, f=f0,
            err_prev=controller.err_prev,
            last_rejected=controller.last_rejected,
            segment=last_seg, frozen=frozen.copy(),
            calm_streak=calm_streak.copy())
    return outputs, stats, state
