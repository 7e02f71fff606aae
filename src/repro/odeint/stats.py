"""Instrumentation shared by every solver: :class:`SolverStats`.

Each :func:`~repro.odeint.solve` call (and each ``DiffODE.integrate`` /
baseline solve built on top of it) can report what the integration actually cost, so solver
regressions show up as numbers instead of silent wall-clock drift.  The
record is intentionally plain-python/JSON-friendly: the benchmark suite
serialises it into ``BENCH_solver.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolverStats", "CountingFunc"]


@dataclass
class SolverStats:
    """What one ODE solve cost.

    Attributes
    ----------
    method:
        Solver name (``dopri5``, ``rk4``, ...).
    steps:
        Accepted steps (for fixed-grid methods: total sub-steps taken).
    rejects:
        Trial steps rejected by the error controller (adaptive only).
    nfev:
        Right-hand-side evaluations.  For the adjoint this also counts the
        VJP forward passes of the backward sweep.
    dense_evals:
        Output times answered by the dense-output interpolant instead of a
        step landing exactly on them (dopri5 only).
    first_step:
        The initial step size dopri5 actually used (from the starting-step
        heuristic, or carried over by a resumed solve).
    freeze_counts:
        Per-sample number of accepted steps each batch element spent frozen
        (excluded from step-size control); ``None`` for solvers without
        per-sample control.
    """

    method: str = ""
    steps: int = 0
    rejects: int = 0
    nfev: int = 0
    dense_evals: int = 0
    first_step: float | None = None
    freeze_counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def trial_steps(self) -> int:
        """Accepted plus rejected steps."""
        return self.steps + self.rejects

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Accumulate another solve's counters into this record (in place).

        Used when one logical forward pass issues several solves.
        """
        self.steps += other.steps
        self.rejects += other.rejects
        self.nfev += other.nfev
        self.dense_evals += other.dense_evals
        if other.freeze_counts is not None:
            if self.freeze_counts is None:
                self.freeze_counts = np.array(other.freeze_counts, copy=True)
            elif self.freeze_counts.shape == other.freeze_counts.shape:
                self.freeze_counts = self.freeze_counts + other.freeze_counts
        return self

    def publish(self, registry) -> None:
        """Re-emit this record as counters on a telemetry registry.

        Called by every solver entry point, so fixed-step and adams solves
        report NFE through the same ``solver.<method>.*`` metrics dopri5
        uses.  A no-op when ``registry`` is None or disabled, which keeps
        the uninstrumented hot path at one branch per solve.
        """
        if registry is None or not getattr(registry, "enabled", False):
            return
        method = self.method or "unknown"
        registry.inc(f"solver.{method}.solves")
        registry.inc(f"solver.{method}.nfev", self.nfev)
        registry.inc(f"solver.{method}.steps", self.steps)
        registry.inc(f"solver.{method}.rejects", self.rejects)
        registry.inc(f"solver.{method}.dense_evals", self.dense_evals)
        registry.inc("solver.nfev", self.nfev)
        registry.event("solver", method, **self.as_dict())

    def as_dict(self) -> dict:
        """JSON-serialisable summary (freeze counts reduced to totals)."""
        out = {
            "method": self.method,
            "steps": self.steps,
            "rejects": self.rejects,
            "nfev": self.nfev,
            "dense_evals": self.dense_evals,
        }
        if self.first_step is not None:
            out["first_step"] = float(self.first_step)
        if self.freeze_counts is not None:
            out["frozen_sample_steps"] = int(self.freeze_counts.sum())
            out["batch_size"] = int(self.freeze_counts.size)
        return out


class CountingFunc:
    """Wrap an ODE right-hand side so every call bumps ``stats.nfev``."""

    __slots__ = ("func", "stats")

    def __init__(self, func, stats: SolverStats):
        self.func = func
        self.stats = stats

    def __call__(self, t, y):
        self.stats.nfev += 1
        return self.func(t, y)
