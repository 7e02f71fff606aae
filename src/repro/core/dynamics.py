"""ODE right-hand sides for DIFFODE.

:class:`DHSDynamics` implements ``F_s`` (Eq. 12 with the backward-computed
``p_t`` and ``z_t`` of Eqs. 32/34); :class:`AugmentedDynamics` couples it
with the HiPPO output system (Eq. 36).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, bump_graph_epoch, concat, mark_static, time_tensor
from ..linalg import hippo_legt
from ..nn import MLP, Linear, Module, Parameter
from .dhs import P_SOLVERS, ContextState, dhs_ds, dhs_recover

__all__ = ["DHSDynamics", "AugmentedDynamics", "PlainLatentDynamics"]


class DHSDynamics(Module):
    """``dS/dt = phi(z_t, t) Z^T (P_diag - p^T p) Z / sqrt(d)`` (Eq. 12).

    Supports multi-head operation (Fig. 6): the latent dimension is split
    into ``num_heads`` slices, each with its own attention context, while
    the dynamics network ``phi`` is shared across heads.

    The trainable vectors ``h`` (adaH solver, Eq. 13) and ``h2`` (Eq. 34)
    are position-indexed parameters of length ``max_len``, sliced to the
    current number of observations - the paper leaves their handling of
    variable-length sequences unspecified, and this is the natural choice.
    """

    def __init__(self, latent_dim: int, hidden_dim: int,
                 rng: np.random.Generator, p_solver: str = "max_hoyer",
                 num_heads: int = 1, max_len: int = 512,
                 ds_clip: float | None = 50.0):
        super().__init__()
        if p_solver not in P_SOLVERS:
            raise ValueError(f"unknown p_solver {p_solver!r}; "
                             f"choose from {sorted(P_SOLVERS)}")
        if latent_dim % num_heads != 0:
            raise ValueError("latent_dim must be divisible by num_heads")
        self.latent_dim = latent_dim
        self.num_heads = num_heads
        self.head_dim = latent_dim // num_heads
        self.p_solver = p_solver
        #: stability guard: |dS/dt| is capped here because the Eq. 12
        #: coupling grows with ||Z||^2, and once training pushes the latent
        #: scale up the ODE can turn stiff enough to overflow explicit
        #: solvers.  The cap is far above the operating range on
        #: standardized data, so it only binds when integration is already
        #: diverging.
        self.ds_clip = ds_clip
        self.phi = MLP(latent_dim + 1, [hidden_dim], latent_dim, rng)
        self.h = Parameter(rng.normal(scale=0.1, size=(max_len,)), name="h")
        self.h2 = Parameter(rng.normal(scale=0.1, size=(max_len,)), name="h2")
        self._contexts: list[ContextState] | None = None
        self._slices: dict[int, tuple[Tensor, Tensor]] = {}

    # ------------------------------------------------------------------
    def bind(self, contexts: list[ContextState]) -> None:
        """Attach the per-head attention contexts for the current batch."""
        if len(contexts) != self.num_heads:
            raise ValueError(f"expected {self.num_heads} contexts, "
                             f"got {len(contexts)}")
        # Slice the position-indexed parameters once per bind instead of
        # re-recording a getitem per RHS call; gradients still reach h/h2
        # through each slice's tape node.  The slices are bind-time
        # constants (the optimizer only steps between binds), so they are
        # marked static: a generated kernel bakes them in.
        slices: dict[int, tuple[Tensor, Tensor]] = {}
        for ctx in contexts:
            if ctx.n > self.h.shape[0]:
                raise ValueError(
                    f"context has n={ctx.n} observations but h/h2 hold "
                    f"max_len={self.h.shape[0]}; configure a larger max_len")
            if id(ctx) not in slices:
                h_s = self.h[:ctx.n]
                h_s.name = "h_slice"
                h2_s = self.h2[:ctx.n]
                h2_s.name = "h2_slice"
                slices[id(ctx)] = (mark_static(h_s), mark_static(h2_s))
                if self.p_solver == "ada_h":
                    # Only adaH reads the (B, n, n) null projector.  Build
                    # it here, not lazily inside the first traced call, so
                    # RHS traces capture it as a static external and eager
                    # and replay sum its gradients in the same order.
                    mark_static(ctx.a_null)
        self._contexts = contexts
        self._slices = slices
        # Replayed traces capture the context tensors (pinv of Z, null
        # projectors, ...) as externals; swapping them for a new batch
        # must invalidate every recorded trace.
        bump_graph_epoch()

    def _h_slices(self, ctx: ContextState) -> tuple[Tensor, Tensor]:
        cached = self._slices.get(id(ctx))
        if cached is None:          # ctx not from bind (direct solver use)
            return self.h[:ctx.n], self.h2[:ctx.n]
        return cached

    def solve_p(self, ctx: ContextState, s_head: Tensor) -> Tensor:
        solver = P_SOLVERS[self.p_solver]
        return solver(ctx, s_head, h=self._h_slices(ctx)[0])

    # ------------------------------------------------------------------
    def forward(self, t: float, s: Tensor) -> Tensor:
        """Evaluate ``dS/dt`` at scalar time ``t`` for states ``s`` (B, d).

        Per head, one ``dhs_recover`` node yields ``[p | z_t]`` (Eqs.
        32/34) and one ``dhs_ds`` node Eq. 12; only the shared ``phi``
        runs as composite ops in between.
        """
        if self._contexts is None:
            raise RuntimeError("DHSDynamics.bind() must be called first")
        batch = s.shape[0]
        hd = self.head_dim
        z_parts: list[Tensor] = []
        head_p: list[tuple[ContextState, Tensor]] = []
        for head, ctx in enumerate(self._contexts):
            h_s, h2_s = self._h_slices(ctx)
            pz = dhs_recover(ctx, s[:, head * hd:(head + 1) * hd], h2_s,
                             self.p_solver, h_s)
            head_p.append((ctx, pz[:, :ctx.n]))
            z_parts.append(pz[:, ctx.n:])

        z = concat(z_parts, axis=-1)
        t_col = time_tensor(t, (batch, 1))
        dz = self.phi(concat([z, t_col], axis=-1))  # (B, latent_dim)
        ds = concat([dhs_ds(p, dz[:, head * hd:(head + 1) * hd], ctx.z)
                     for head, (ctx, p) in enumerate(head_p)], axis=-1)
        if self.ds_clip is not None:
            ds = ds.clip(-self.ds_clip, self.ds_clip)
        return ds


class PlainLatentDynamics(Module):
    """Ablation "w/o Attn": a vanilla neural ODE ``dS/dt = phi(S, t)``.

    Removing the attention collapses DIFFODE to a NODE feeding the HiPPO
    head, which the paper notes is "similar to HiPPO-RNN" (Section IV-G).
    """

    def __init__(self, latent_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.phi = MLP(latent_dim + 1, [hidden_dim], latent_dim, rng)

    def bind(self, contexts) -> None:  # interface parity with DHSDynamics
        return None

    def forward(self, t: float, s: Tensor) -> Tensor:
        t_col = time_tensor(t, (s.shape[0], 1))
        return self.phi(concat([s, t_col], axis=-1))


class AugmentedDynamics(Module):
    """Joint system of Eq. 36: state ``[S_t, c_t, r_t]``.

    * ``dS/dt`` - the DHS dynamics (or the plain-NODE ablation);
    * ``dc/dt = A c + B (W_r r)`` - HiPPO-LegT memory of the information
      state;
    * ``dr/dt = f_r(S || c || r)`` - the information state itself.
    """

    def __init__(self, latent_dynamics: Module, latent_dim: int,
                 hippo_dim: int, info_dim: int, hidden_dim: int,
                 rng: np.random.Generator, window: float = 1.0):
        super().__init__()
        self.latent = latent_dynamics
        self.latent_dim = latent_dim
        self.hippo_dim = hippo_dim
        self.info_dim = info_dim
        a, b = hippo_legt(hippo_dim, theta=window)
        # Constant tensors (not per-call ``Tensor(...)`` wraps) so replayed
        # traces hold stable externals and eager calls allocate less; the
        # HiPPO matrices never change, so they are marked static.
        self._a_t = mark_static(Tensor(a.T.copy(), name="hippo_a_t"))
        self._b = mark_static(Tensor(b.copy(), name="hippo_b"))
        self.w_r = Linear(info_dim, 1, rng)
        self.f_r = MLP(latent_dim + hippo_dim + info_dim, [hidden_dim],
                       info_dim, rng)

    def split(self, state: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        d, dc = self.latent_dim, self.hippo_dim
        return state[:, :d], state[:, d:d + dc], state[:, d + dc:]

    def forward(self, t: float, state: Tensor) -> Tensor:
        s, c, r = self.split(state)
        ds = self.latent(t, s)
        u = self.w_r(r)                                   # (B, 1)
        dc = c @ self._a_t + u * self._b
        dr = self.f_r(concat([s, c, r], axis=-1))
        return concat([ds, dc, dr], axis=-1)
