"""The DIFFODE model (Fig. 2 of the paper).

Pipeline per batch of irregular series:

1. the input network ``psi`` (one-layer GRU, Eq. 4) encodes observations
   ``(x_t, dt, t)`` into latent representations ``Z``;
2. per attention head, a :class:`~repro.core.dhs.ContextState` precomputes
   the generalized-inverse constants;
3. the initial DHS ``S_0`` comes from the *forward* attention (Eq. 5) with
   the first observation's latent as query;
4. ``[S, c, r]`` is integrated with the implicit Adams solver through the
   :class:`~repro.core.dynamics.AugmentedDynamics` (Eq. 36);
5. a small MLP reads out class logits or per-time predictions.

Readout happens on a uniform grid over the normalized time axis [0, 1];
values at arbitrary query times are linear interpolations of the two
neighbouring grid states (differentiable gather + blend).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, stack
from ..nn import GRU, Linear, MLP, Module
from ..odeint import ADAPTIVE_METHODS, SolverOptions, SolverStats, solve
from ..telemetry import get_registry
from .config import DiffODEConfig
from .dhs import ContextState, dhs_attention
from .dynamics import AugmentedDynamics, DHSDynamics, PlainLatentDynamics

__all__ = ["DiffODE", "interpolate_grid_states"]


def interpolate_grid_states(states: Tensor, grid: np.ndarray,
                            query_times: np.ndarray) -> Tensor:
    """Linearly interpolate ODE states at arbitrary per-sequence times.

    Parameters
    ----------
    states:
        (L, B, D) solution on the uniform ``grid``.
    grid:
        (L,) strictly increasing grid times.
    query_times:
        (B, nq) times to evaluate at.  Times outside ``[grid[0],
        grid[-1]]`` are clipped onto the boundary - the model answers
        out-of-range queries with the nearest endpoint state rather than
        extrapolating.  Each clipped query increments the
        ``model.query_clipped`` telemetry counter, so silent truncation
        of target times is observable (see ``docs/telemetry.md``).

    Returns
    -------
    Tensor (B, nq, D).
    """
    grid = np.asarray(grid, dtype=np.float64)
    raw = np.asarray(query_times, dtype=np.float64)
    q = np.clip(raw, grid[0], grid[-1])
    clipped = int(np.count_nonzero(q != raw))
    if clipped:
        reg = get_registry()
        if reg.enabled:
            reg.inc("model.query_clipped", clipped)
    # Position of each query on the grid.
    idx_hi = np.searchsorted(grid, q, side="left")
    idx_hi = np.clip(idx_hi, 1, len(grid) - 1)
    idx_lo = idx_hi - 1
    denom = grid[idx_hi] - grid[idx_lo]
    w_hi = (q - grid[idx_lo]) / np.where(denom > 0, denom, 1.0)
    w_lo = 1.0 - w_hi

    batch_idx = np.arange(q.shape[0])[:, None]
    lo = states[idx_lo, batch_idx]     # (B, nq, D)
    hi = states[idx_hi, batch_idx]
    return lo * Tensor(w_lo[..., None]) + hi * Tensor(w_hi[..., None])


class DiffODE(Module):
    """Differentiable-hidden-state neural ODE for irregular time series."""

    def __init__(self, config: DiffODEConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.latent_dim

        if config.encoder == "gru":
            # psi(x_t, t, E(x_t)): the GRU recurrence carries the history.
            # A linear projection follows so the latent scale is unbounded:
            # the Eq. 12 coupling Z^T(P - p^T p)Z / sqrt(d) scales with
            # ||Z||^2, and a tanh-bounded Z would freeze the DHS dynamics.
            self.encoder = GRU(config.input_dim + 2, config.hidden_dim, rng)
            self.enc_proj = Linear(config.hidden_dim, d, rng)
        elif config.encoder == "mlp":
            # Fig. 5 ablation: E(x_t) = empty set, pointwise encoding.
            self.encoder = MLP(config.input_dim + 1, [config.hidden_dim], d, rng)
        else:
            raise ValueError(f"unknown encoder {config.encoder!r}")

        if config.use_attention:
            latent_dyn = DHSDynamics(
                d, config.hidden_dim, rng, p_solver=config.p_solver,
                num_heads=config.num_heads, max_len=config.max_len)
        else:
            latent_dyn = PlainLatentDynamics(d, config.hidden_dim, rng)
        self.latent_dynamics = latent_dyn

        if config.use_hippo:
            self.dynamics = AugmentedDynamics(
                latent_dyn, d, config.hippo_dim, config.info_dim,
                config.hidden_dim, rng)
            state_dim = d + config.hippo_dim + config.info_dim
        else:
            self.dynamics = latent_dyn
            state_dim = d
        self.state_dim = state_dim

        if config.num_classes is not None:
            # DHS pooled over all integration points + final state (Eq. 35).
            self.head = MLP(d + state_dim, [config.hidden_dim],
                            config.num_classes, rng)
        else:
            self.head = MLP(state_dim, [config.hidden_dim],
                            config.out_dim, rng)

        #: :class:`~repro.odeint.SolverStats` of the most recent ODE solve.
        self.last_solver_stats = None
        #: route the regression forward through union-grid batched solves
        #: (:func:`repro.parallel.union_solve`) instead of the uniform
        #: readout grid.  Set by the Trainer when ``union_batching`` is on;
        #: only takes effect for adaptive solvers without the continuous
        #: adjoint (the union path backpropagates through the solver).
        self.union_forward = False

    def describe(self) -> dict:
        out = super().describe()
        cfg = self.config
        out.update(
            task=("classification" if cfg.num_classes is not None
                  else "regression"),
            solver=cfg.method,
            latent_dim=cfg.latent_dim,
            state_dim=self.state_dim,
            num_heads=cfg.num_heads,
            encoder=cfg.encoder,
            use_attention=cfg.use_attention,
            use_hippo=cfg.use_hippo,
        )
        return out

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray, times: np.ndarray,
               mask: np.ndarray) -> Tensor:
        """Run ``psi`` over the observations; returns ``Z`` (B, n, d)."""
        return self.encode_carry(values, times)[0]

    def encode_carry(self, values: np.ndarray, times: np.ndarray, *,
                     h0: Tensor | None = None,
                     last_time: float | None = None
                     ) -> tuple[Tensor, Tensor | None]:
        """Run ``psi`` over (B, T) observations, continuing a carry.

        Returns ``Z`` (B, T, d) and the GRU hidden states (B, T, hidden),
        or ``None`` for the pointwise MLP encoder.  ``h0`` is the hidden
        state after the previous observation and ``last_time`` its time,
        so a series encoded in pieces sees the same ``dt`` features and
        recurrence as one encoded whole (a series' first ``dt`` is 0).
        """
        values = np.asarray(values, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        if self.config.encoder != "gru":
            # MLP encoder sees (x_t, t) only.
            feats = np.concatenate([values, times[..., None]], axis=-1)
            return self.encoder(Tensor(feats)), None
        prev = (times[:, :1] if last_time is None
                else np.full_like(times[:, :1], last_time))
        dt = np.diff(times, axis=1, prepend=prev)
        feats = np.concatenate([values, dt[..., None], times[..., None]],
                               axis=-1)
        states = self.encoder(Tensor(feats), h0=h0)
        return self.enc_proj(states), states

    def build_contexts(self, z: Tensor,
                       mask: np.ndarray | None = None) -> list[ContextState]:
        """One attention context per head over the head's latent slice;
        none without attention."""
        if not self.config.use_attention:
            return []
        hd = self._head_dim
        return [ContextState.build(z[:, :, i * hd:(i + 1) * hd], mask,
                                   ridge=self.config.ridge)
                for i in range(self.config.num_heads)]

    def extend_contexts(self, contexts: list[ContextState],
                        z_row: np.ndarray) -> list[ContextState]:
        """Rank-1 :meth:`~ContextState.extend` of every head's context by
        its slice of one new latent row (1, latent_dim)."""
        hd = self._head_dim
        return [ctx.extend(z_row[:, i * hd:(i + 1) * hd])
                for i, ctx in enumerate(contexts)]

    @property
    def _head_dim(self) -> int:
        return self.config.latent_dim // self.config.num_heads

    @property
    def min_context(self) -> int:
        """Observations a series needs before its first context: more
        than the latent dims per head (one without attention)."""
        if not self.config.use_attention:
            return 1
        return self._head_dim + 1

    def initial_state(self, z: Tensor,
                      contexts: list[ContextState]) -> Tensor:
        """``S_0`` from forward attention (plus zero HiPPO/info states)."""
        batch = z.shape[0]
        if self.config.use_attention:
            hd = self._head_dim
            parts = []
            for head, ctx in enumerate(contexts):
                q = z[:, 0, head * hd:(head + 1) * hd]
                s0, _ = dhs_attention(q, ctx.z, ctx.mask)
                parts.append(s0)
            s0 = concat(parts, axis=-1)
        else:
            s0 = z[:, 0, :]
        if not self.config.use_hippo:
            return s0
        zeros = Tensor(np.zeros((batch,
                                 self.config.hippo_dim + self.config.info_dim)))
        return concat([s0, zeros], axis=-1)

    # ------------------------------------------------------------------
    # integration + readout
    # ------------------------------------------------------------------
    def grid(self) -> np.ndarray:
        steps = max(2, int(round(1.0 / self.config.step_size)) + 1)
        return np.linspace(0.0, 1.0, steps)

    def solver_options(self, **extra) -> SolverOptions:
        """The configured solver's :class:`SolverOptions` plus ``extra``.

        An adaptive solve controls its own step through ``rtol``/``atol``;
        ``step_size`` then only shapes the readout :meth:`grid`.
        """
        cfg = self.config
        if cfg.method in ADAPTIVE_METHODS:
            return SolverOptions(rtol=cfg.rtol, atol=cfg.atol, **extra)
        return SolverOptions(step_size=cfg.step_size, **extra)

    def integrate(self, values: np.ndarray, times: np.ndarray,
                  mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Encode, bind contexts and solve the ODE on the readout grid."""
        z = self.encode(values, times, mask)
        ctx_z = z
        if self.config.adjoint and self.config.use_attention:
            # The continuous adjoint accumulates dynamics-path gradients
            # into func.parameters() only (the torchdiffeq contract): bound
            # context tensors must enter the solve as constants, otherwise
            # every VJP evaluation of the backward sweep would walk the
            # encoder tape and accumulate unweighted gradient into it.  The
            # encoder still trains through the initial state below.
            ctx_z = Tensor(z.data)
        contexts = self.build_contexts(ctx_z, mask)
        self.latent_dynamics.bind(contexts)
        state0 = self.initial_state(z, contexts)
        grid = self.grid()
        opts = self.solver_options(adjoint=self.config.adjoint)
        sol = solve(self.dynamics, state0, grid,
                    method=self.config.method, options=opts)
        self.last_solver_stats = sol.stats
        return sol.ys, grid

    # ------------------------------------------------------------------
    # task heads
    # ------------------------------------------------------------------
    def forward_classification(self, values: np.ndarray, times: np.ndarray,
                               mask: np.ndarray) -> Tensor:
        """Class logits (B, C) from the DHS over all integration points."""
        if self.config.num_classes is None:
            raise RuntimeError("model was not configured for classification")
        states, _ = self.integrate(values, times, mask)
        d = self.config.latent_dim
        s_mean = states[:, :, :d].mean(axis=0)     # DHS pooled over the grid
        final = states[-1]
        return self.head(concat([s_mean, final], axis=-1))

    def forward_regression(self, values: np.ndarray, times: np.ndarray,
                           mask: np.ndarray, query_times: np.ndarray,
                           query_mask: np.ndarray | None = None) -> Tensor:
        """Predictions (B, nq, out_dim) at per-sequence ``query_times``.

        ``query_mask`` (B, nq) marks which query columns are real (padding
        otherwise); it is only consulted by the union-grid forward, where
        padded queries would otherwise lengthen the per-sample solve grids.
        The default grid-interpolation path evaluates every column - the
        loss masks padding itself.
        """
        if self.config.out_dim is None:
            raise RuntimeError("model was not configured for regression")
        if (self.union_forward and not self.config.adjoint
                and self.config.method in ADAPTIVE_METHODS):
            return self._union_forward_regression(values, times, mask,
                                                  query_times, query_mask)
        states, grid = self.integrate(values, times, mask)
        at_queries = interpolate_grid_states(states, grid, query_times)
        return self.head(at_queries)

    def union_states(self, values: np.ndarray, times: np.ndarray,
                     mask: np.ndarray, grids: list[np.ndarray], union_solve,
                     **bucket_kw
                     ) -> tuple[Tensor, Tensor | None, list, SolverStats]:
        """Encode the batch and integrate each series from ``t=0`` straight
        to its own ``grids[i]`` through union-grid buckets.

        ``union_solve`` is :func:`repro.parallel.union_solve` as the caller
        resolves it: core cannot import the parallel package at load time
        (that package imports training, which imports core), and the
        serving engine solves through its own module-level name, which
        layer instrumentation such as ``perfbench/spans.py`` wraps.
        ``bucket_kw`` goes to the bucket planner.  Per-head contexts are
        sliced to each bucket with :meth:`ContextState.take`, so gradients
        still reach the encoder.  Returns ``Z``, the encoder carry of
        :meth:`encode_carry`, the per-sample states and the solver stats.
        """
        z, carry = self.encode_carry(values, times)
        contexts = self.build_contexts(z, mask)
        state0 = self.initial_state(z, contexts)

        def func_for(idx: np.ndarray):
            self.latent_dynamics.bind([ctx.take(idx) for ctx in contexts])
            return self.dynamics

        opts = self.solver_options()
        per_sample, stats = union_solve(
            func_for, state0, grids, t0=0.0, rtol=opts.rtol, atol=opts.atol,
            **bucket_kw)
        self.last_solver_stats = stats
        return z, carry, per_sample, stats

    def _union_forward_regression(self, values: np.ndarray,
                                  times: np.ndarray, mask: np.ndarray,
                                  query_times: np.ndarray,
                                  query_mask: np.ndarray | None) -> Tensor:
        """Regression forward via union-grid buckets (one solve per bucket).

        Instead of integrating every sample over the uniform readout grid
        and interpolating, the batch is bucketed by query-span overlap and
        each bucket is integrated once directly to its members' query
        times (:meth:`union_states`).  Padded query columns come back as
        zeros - the masked loss ignores them.
        """
        from ..parallel import union_solve

        q = np.asarray(query_times, dtype=np.float64)
        keep = None
        if query_mask is not None:
            qm = np.asarray(query_mask)
            # (B, nq, F_out) per-feature masks: a query is real if any
            # feature is observed there; (B, nq) masks pass through.
            keep = qm.any(axis=-1) if qm.ndim == 3 else qm > 0
        grids = []
        for i in range(q.shape[0]):
            grids.append(q[i] if keep is None else q[i][keep[i]])
        _, _, per_sample, _ = self.union_states(values, times, mask, grids,
                                                union_solve)

        nq = q.shape[1]
        out_dim = self.config.out_dim
        zero_row = Tensor(np.zeros((1, out_dim)))
        outs = []
        for i, states_i in enumerate(per_sample):
            kept_idx = (np.flatnonzero(keep[i]) if keep is not None
                        else np.arange(nq))
            n_kept = len(kept_idx)
            if n_kept:
                pred = self.head(states_i)           # (n_kept, out_dim)
                pred_ext = concat([pred, zero_row], axis=0)
            else:
                pred_ext = zero_row
            # Scatter predictions back to their query columns; masked-out
            # columns gather the trailing zero row.
            rows = np.full(nq, n_kept, dtype=np.int64)
            rows[kept_idx] = np.arange(n_kept)
            outs.append(pred_ext[rows])
        return stack(outs, axis=0)

    # ------------------------------------------------------------------
    # streaming / online inference
    # ------------------------------------------------------------------
    def open_stream(self, *, incremental: bool = True):
        """Open a :class:`~repro.core.streaming.StreamSession`.

        The session consumes one observation at a time (see
        :func:`repro.data.iter_stream`) and serves prequential
        predictions; with ``incremental=True`` (the default) each step is
        a rank-1 context extend plus a resumed solve rather than a full
        forward pass.  ``incremental=False`` gives the exact
        full-recompute reference.  Sessions do not touch each other or
        training state beyond the shared dynamics bind, so open a fresh
        session per series.
        """
        from .streaming import StreamSession
        return StreamSession(self, incremental=incremental)

    # unified entry point used by the task harness
    def forward(self, batch) -> Tensor:
        if self.config.num_classes is not None:
            return self.forward_classification(batch.values, batch.times,
                                               batch.mask)
        return self.forward_regression(batch.values, batch.times, batch.mask,
                                       batch.target_times,
                                       query_mask=batch.target_mask)
