"""Incremental (streaming) forward pass of DIFFODE.

:class:`StreamSession` is the online counterpart of
:meth:`~repro.core.DiffODE.integrate`: observations arrive one at a time
and each :meth:`~StreamSession.step` (1) *predicts* at the arriving
timestamp from the state built on the observations seen so far - the
prequential protocol - and then (2) *ingests* the observation:

* the GRU encoder advances its carried hidden state by one cell step
  (no re-encoding of the prefix);
* each attention head's :class:`~repro.core.dhs.ContextState` is extended
  by the new latent row - a rank-1 update with a drift-triggered exact
  rebuild - and re-bound (one graph-epoch bump per observation);
* the ODE state advances by resuming the solver from its last frontier
  (:mod:`repro.odeint.resume`) instead of re-integrating from ``t=0``.

Per-observation work is therefore O(n d) in the number of observations
seen so far, versus the O(n^2 d) context rebuild + O(n) re-integration of
the offline path - the difference ``repro.benchmarks streaming``
measures.

``incremental=False`` runs the same prequential loop with exact context
rebuilds and fresh (non-resumed) solves each step: this is the
full-recompute reference the incremental path is validated against (one
exact session run to observation ``k`` costs what a stateless
recompute-per-arrival server pays for observation ``k`` alone).

Sessions run under ``no_grad`` - streaming is an inference path; training
still uses the offline differentiable pipeline.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor, concat, graph_epoch, no_grad
from ..odeint import solve
from ..telemetry import get_registry
from .dhs import ContextState

__all__ = ["StreamPrediction", "StreamSession"]

_EPS_T = 1e-12


@dataclass
class StreamPrediction:
    """What one prequential step produced (before ingesting its input).

    ``y_hat``/``logits`` are ``None`` while the session is warming up
    (the DHS needs more observations than latent dims per head before the
    first context can be built).
    """

    time: float
    y_hat: np.ndarray | None = None      # (out_dim,) regression prediction
    logits: np.ndarray | None = None     # (C,) classification logits
    warmup: bool = False
    #: observations ingested so far (excluding this step's)
    n_obs: int = 0
    #: RHS evaluations this step's solve(s) cost
    nfev: int = 0
    #: wall-clock seconds this step took (predict + ingest)
    latency: float = 0.0


class StreamSession:
    """One series' incremental forward pass (see module docstring).

    Create via :meth:`repro.core.DiffODE.open_stream`, or — on the serving
    path — via :meth:`from_state` to seed a warm session from a batched
    cold solve.  A session installs its contexts on the model's dynamics
    before every solve (:meth:`ensure_bound`), so sessions of one model
    instance may be interleaved: each re-bind bumps the graph epoch, at
    the cost of recompiling RHS traces when consecutive solves belong to
    different sessions.  Consecutive solves of the *same* session skip the
    re-bind and keep their compiled traces warm.
    """

    def __init__(self, model, *, incremental: bool = True):
        self.model = model
        self.incremental = bool(incremental)
        cfg = model.config
        self.cfg = cfg
        self.task = ("classification" if cfg.num_classes is not None
                     else "regression")
        self._grid = model.grid()
        # --- encoder carry ---
        self._enc_h: Tensor | None = None
        self._last_time: float | None = None
        self._z_rows: list[np.ndarray] = []     # (1, latent_dim) each
        self._times: list[float] = []
        # --- ODE state ---
        self._bound_epoch = -1              # graph epoch of our last bind
        self._contexts: list[ContextState] | None = None
        self._y: Tensor | None = None           # state at the frontier
        self._t: float = 0.0                    # frontier time
        self._resume = None
        self._grid_idx = 0                      # next un-pooled grid point
        self._s_sum: np.ndarray | None = None   # pooled latent (class. head)
        self._s_count = 0
        self.n_obs = 0
        #: cumulative RHS evaluations across the session
        self.total_nfev = 0

    # ------------------------------------------------------------------
    # encoding carry
    # ------------------------------------------------------------------
    def _encode_row(self, t: float, inputs) -> np.ndarray:
        """One encoder step; returns the new latent row (1, latent_dim)."""
        x = np.asarray(inputs, dtype=np.float64).reshape(1, 1, -1)
        z, states = self.model.encode_carry(
            x, np.array([[t]]), h0=self._enc_h, last_time=self._last_time)
        if states is not None:
            self._enc_h = Tensor(states.data[:, -1])
        self._last_time = t
        return np.asarray(z.data, dtype=np.float64).reshape(1, -1)

    # ------------------------------------------------------------------
    # context maintenance
    # ------------------------------------------------------------------
    def _z_tensor(self) -> Tensor:
        return Tensor(np.stack(self._z_rows, axis=1))   # (1, n, d)

    def _exact_contexts(self) -> list[ContextState]:
        return self.model.build_contexts(self._z_tensor())

    def _bind(self) -> None:
        self.model.latent_dynamics.bind(self._contexts)
        self._bound_epoch = graph_epoch()

    def _set_frontier(self, y: Tensor, t: float) -> None:
        """Put the solver frontier at ``(t, y)`` with no resume state; the
        latent pool restarts from ``y`` and takes grid points after ``t``."""
        self._y = y
        self._t = float(t)
        self._resume = None
        self._grid_idx = int(np.searchsorted(self._grid, self._t + _EPS_T))
        d = self.cfg.latent_dim
        self._s_sum = np.array(y.data[:, :d], copy=True)
        self._s_count = 1

    def _reset_frontier(self) -> None:
        """Restart the solve from ``t=0`` over the current contexts."""
        self._set_frontier(
            self.model.initial_state(self._z_tensor(), self._contexts), 0.0)

    def _extend_contexts(self, z_row: np.ndarray) -> None:
        if not self._contexts:          # no attention: nothing to extend
            return
        if self.incremental:
            self._contexts = self.model.extend_contexts(self._contexts, z_row)
        else:
            self._contexts = self._exact_contexts()
        # Re-bind: bumps the graph epoch, so compiled RHS traces from the
        # previous bind generation can never replay against new contexts.
        self._bind()
        if self._resume is not None:
            # The dynamics changed: continue from the just-predicted
            # frontier, dropping RHS caches (FSAL stage, Adams history).
            self._resume = self._resume.rebased(self._t, self._y)

    def ensure_bound(self) -> None:
        """Install this session's contexts on the model if anything else
        (another session, an offline forward, a weight reload) bound or
        invalidated the dynamics since our last bind — detected via the
        graph epoch, which every such event bumps.  Re-binding the same
        context *values* keeps any carried
        :class:`~repro.odeint.resume.ResumeState` numerically valid — its
        cached FSAL stage was evaluated against identical statics."""
        if self._contexts is None:
            return
        if self._bound_epoch != graph_epoch():
            self._bind()

    # ------------------------------------------------------------------
    # solver advance
    # ------------------------------------------------------------------
    def _advance(self, tau: float) -> int:
        """Integrate the frontier forward to ``tau``; returns nfev."""
        if tau <= self._t + _EPS_T:
            return 0
        _, nfev = self._advance_many([float(tau)])
        return nfev

    def _advance_many(self, taus) -> tuple[list, int]:
        """Advance through every ``tau`` (ascending) with ONE resumed
        solve; returns the frontier state at each tau plus total nfev.

        Bitwise equal to one :meth:`_advance` per tau — resumable solves
        stitch exactly, so the merged output grid produces the same
        trajectory — but the per-solve overhead (options, validation,
        controller start-up) is paid once.  The serving warm path leans
        on this: a repeat query with several horizon times costs one
        solve, not one per time.  Taus at or behind the frontier answer
        with the current frontier state.
        """
        self.ensure_bound()
        states: list = [None] * len(taus)
        pending: list[tuple[int, float]] = []
        for k, tau in enumerate(taus):
            tau = float(tau)
            if tau <= self._t + _EPS_T:
                states[k] = self._y
            else:
                pending.append((k, tau))
        if not pending:
            return states, 0
        ts: list[float] = [self._t]
        flags: list[bool] = []                  # True = uniform grid point
        answers: dict[int, list[int]] = {}      # ts index -> taus positions
        grid = self._grid
        for k, tau in pending:
            while (self._grid_idx < len(grid)
                   and grid[self._grid_idx] <= tau + _EPS_T):
                g = float(grid[self._grid_idx])
                if g > ts[-1] + _EPS_T:
                    ts.append(g)
                    flags.append(True)
                self._grid_idx += 1
            if tau - ts[-1] > _EPS_T:
                ts.append(tau)
                flags.append(False)
            answers.setdefault(len(ts) - 1, []).append(k)
        sol = solve(self.model.dynamics, self._y, np.asarray(ts),
                    method=self.cfg.method,
                    options=self.model.solver_options(
                        resumable=self.incremental),
                    resume_from=self._resume if self.incremental else None)
        d = self.cfg.latent_dim
        for j, on_grid in enumerate(flags):
            if on_grid:
                self._s_sum += sol.ys.data[j + 1][:, :d]
                self._s_count += 1
        self._y = sol.ys[len(ts) - 1]
        self._t = float(ts[-1])
        if self.incremental:
            self._resume = sol.resume_state
        self.model.last_solver_stats = sol.stats
        for j, ks in answers.items():
            state = sol.ys[j]
            for k in ks:
                states[k] = state
        return states, sol.stats.nfev

    # ------------------------------------------------------------------
    def _predict(self, tau: float) -> StreamPrediction:
        pred = StreamPrediction(time=float(tau), n_obs=self.n_obs)
        if self._y is None:
            pred.warmup = True
            return pred
        pred.nfev = self._advance(float(tau))
        if self.task == "regression":
            out = self.model.head(self._y)
            pred.y_hat = np.asarray(out.data).reshape(-1)
        else:
            s_mean = Tensor(self._s_sum / float(self._s_count))
            out = self.model.head(concat([s_mean, self._y], axis=-1))
            pred.logits = np.asarray(out.data).reshape(-1)
        return pred

    def ingest(self, time: float, inputs) -> None:
        """Ingest one observation without predicting.

        The serving warm path uses this directly: a repeat query on a
        growing series ingests only the new suffix rows (rank-1 context
        ``extend()`` + resume rebase each), then answers via
        :meth:`predict_times`.

        An observation *behind* the solver frontier (possible in serving,
        where queries may have advanced the frontier past it; impossible
        in the prequential loop) resets the solve to ``t=0`` under the
        extended contexts — the carried frontier state reflects dynamics
        that never saw this observation, so resuming from it would answer
        later queries with a permanently stale trajectory.
        """
        cfg = self.cfg
        if cfg.use_attention and self.n_obs >= cfg.max_len:
            raise RuntimeError(
                f"stream exceeded max_len={cfg.max_len} observations; "
                "configure DiffODEConfig.max_len for the horizon")
        with no_grad():
            z_row = self._encode_row(float(time), inputs)
            self._z_rows.append(z_row)
            self._times.append(float(time))
            self.n_obs += 1
            if self._contexts is None:
                if self.n_obs >= self.model.min_context:
                    # First bind: exact contexts over the warmup prefix.
                    self._contexts = self._exact_contexts()
                    self._bind()
                    self._reset_frontier()
            else:
                self._extend_contexts(z_row)
                # Reset also when the frontier still sits at the origin:
                # S_0 is a function of the contexts (forward attention),
                # so extending them re-derives it for free there.
                if self._y is not None and (float(time) < self._t - _EPS_T
                                            or self._t <= _EPS_T):
                    self._reset_frontier()

    def step(self, obs) -> StreamPrediction:
        """Predict at ``obs.time``, then ingest ``obs``; prequential."""
        start = _time.perf_counter()
        with no_grad():
            pred = self._predict(obs.time)
            self.ingest(obs.time, obs.inputs)
        pred.latency = _time.perf_counter() - start
        self.total_nfev += pred.nfev
        reg = get_registry()
        if reg.enabled:
            reg.inc("streaming.observations")
            reg.observe("streaming.step_seconds", pred.latency)
        return pred

    # ------------------------------------------------------------------
    # serving entry points
    # ------------------------------------------------------------------
    @classmethod
    def from_state(cls, model, *, times, z_rows, enc_h, y,
                   t) -> "StreamSession":
        """Seed a warm regression session from externally computed state.

        The serving engine builds sessions this way after a *batched* cold
        solve: the latent rows and the GRU carry ``enc_h`` (the hidden
        state after the last observation, ``None`` for the MLP encoder)
        come from the batched encode, and the frontier ``(t, y)`` is read
        off the union solve.  The session builds its own exact contexts
        over ``z_rows``, so later rank-1 extends pick up valid Gram
        bookkeeping.  The first warm ``predict_times`` starts a fresh
        resumable solve from the frontier, which the grid-independent
        stepper makes consistent with the unsplit solve.
        """
        sess = cls(model)
        if sess.task != "regression":
            raise NotImplementedError(
                "from_state seeds regression sessions only (the pooled "
                "classification state cannot be reconstructed from a "
                "frontier)")
        sess._enc_h = enc_h
        sess._times = [float(v) for v in times]
        sess._last_time = sess._times[-1]
        sess._z_rows = [np.asarray(r, dtype=np.float64).reshape(1, -1)
                        for r in z_rows]
        sess.n_obs = len(sess._times)
        sess._contexts = sess._exact_contexts()
        sess._set_frontier(y, t)
        return sess

    def predict_times(self, query_times) -> tuple[np.ndarray, int]:
        """Regression predictions at arbitrary query times.

        Queries at or ahead of the solver frontier advance it (resumed
        solve, in time order); queries *behind* the frontier are answered
        by a read-only auxiliary solve from ``t=0`` over the current
        contexts — the frontier/resume state is untouched, and the
        grid-independent stepper keeps both within solver tolerance of
        the offline solve.  Returns ``(predictions (nq, out_dim), nfev)``.
        """
        if self.task != "regression":
            raise NotImplementedError("predict_times is regression-only")
        if self._y is None:
            raise RuntimeError(
                f"session is still warming up ({self.n_obs} observations, "
                f"needs {self.model.min_context})")
        q = np.asarray(query_times, dtype=np.float64).reshape(-1)
        if q.size == 0:
            return np.zeros((0, int(self.cfg.out_dim or 1))), 0
        if not np.all(np.isfinite(q)):
            raise ValueError("query times must be finite")
        if np.any(q < -_EPS_T):
            raise ValueError("query times must be >= 0")
        nfev = 0
        preds: dict[float, np.ndarray] = {}
        with no_grad():
            behind = np.unique(q[q < self._t - _EPS_T])
            if behind.size:
                vals, n = self._solve_behind(behind)
                nfev += n
                for tau, v in zip(behind, vals):
                    preds[float(tau)] = v
            ahead = np.unique(q[q >= self._t - _EPS_T])
            if ahead.size:
                states, n = self._advance_many(ahead)
                nfev += n
                for tau, state in zip(ahead, states):
                    out = self.model.head(state)
                    preds[float(tau)] = np.asarray(out.data).reshape(-1)
        self.total_nfev += nfev
        return np.stack([preds[float(tau)] for tau in q], axis=0), nfev

    def _solve_behind(self, uniq: np.ndarray) -> tuple[list[np.ndarray], int]:
        """Read-only solve from ``t=0`` for behind-frontier query times."""
        model = self.model
        self.ensure_bound()
        y0 = model.initial_state(self._z_tensor(), self._contexts)
        ts = uniq
        offset = 0
        if uniq[0] > _EPS_T:
            ts = np.concatenate([[0.0], uniq])
            offset = 1
        if len(ts) == 1:        # every query sits at t=0: no integration
            out = model.head(y0)
            return [np.asarray(out.data).reshape(-1)] * len(uniq), 0
        sol = solve(model.dynamics, y0, ts, method=self.cfg.method,
                    options=model.solver_options())
        vals = [np.asarray(model.head(sol.ys[j]).data).reshape(-1)
                for j in range(offset, len(ts))]
        return vals, sol.stats.nfev

    # ------------------------------------------------------------------
    @property
    def context_stats(self) -> dict:
        """Extend/rebuild counters of the current bind generation."""
        if not self._contexts:
            return {"extends": 0, "rebuilds": 0, "generation": 0}
        ctx = self._contexts[0]
        return {"extends": ctx.extends, "rebuilds": ctx.rebuilds,
                "generation": ctx.generation}
