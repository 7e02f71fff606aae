"""Differentiable Hidden State (DHS): forward attention and its inversion.

Implements Sections III-B and III-C of the paper:

* :func:`dhs_attention` - Eq. 5: ``a = zZ^T/sqrt(d)``, ``p = softmax(a)``,
  ``S = pZ``.
* :class:`ContextState` - per-batch constants derived from ``Z`` that the
  ODE right-hand side needs at every integration step: the Moore-Penrose
  inverse ``(Z^T)^+``, the cached Eq. 32 terms and, for ``ada_h`` only, the
  null-space projector ``A_p = I - (Z^T)^+ Z^T``.
* the three strategies for recovering ``p_t`` from ``S_t`` (RQ5 / Table VI):
  ``max_hoyer`` (Theorem 2, closed form Eq. 32), ``min_norm`` (the plain
  least-norm solution ``b_p``), and ``ada_h`` (trainable ``h``);
* the exact KKT solver of Theorem 1 (``solve_p_exact_kkt``) for small ``n``;
* recovery of ``z_t`` from ``p_t`` (Eq. 34), in both the literal pinv form
  and an O(n) closed form (see DESIGN.md section 4);
* two fused IR ops the ODE right-hand side records once per head:
  ``dhs_recover`` (a p-solver followed by :func:`recover_z`) and
  ``dhs_ds`` (Eq. 12 for one head, multiplied right to left).

Masking convention: every formula that contains ``I_n`` or the all-ones
vector ``J`` in the paper uses ``diag(m)`` / ``m`` instead, where ``m`` is
the per-sequence observation mask.  Padded coordinates then remain exactly
zero through the whole pipeline.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..autodiff import (Tensor, apply, as_tensor, mark_static,
                        masked_softmax, softmax)
from ..autodiff.ir import register_op
from ..telemetry import get_registry

__all__ = [
    "dhs_attention",
    "ContextState",
    "solve_p_min_norm",
    "solve_p_max_hoyer",
    "solve_p_adaptive",
    "solve_p_exact_kkt",
    "recover_z",
    "recover_z_literal",
    "dhs_recover",
    "dhs_ds",
    "P_SOLVERS",
]

_EPS = 1e-9


def dhs_attention(z_query: Tensor, z_all: Tensor,
                  mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Forward DHS (Eq. 5): returns ``(S, p)``.

    Parameters
    ----------
    z_query:
        Latent query ``z_t`` of shape (B, d).
    z_all:
        Latent representations ``Z`` of all observations, (B, n, d).
    mask:
        Optional (B, n) validity mask.
    """
    d = z_all.shape[-1]
    scores = (z_query[:, None, :] @ z_all.transpose()) * (1.0 / np.sqrt(d))
    scores = scores[:, 0, :]  # (B, n)
    if mask is not None:
        p = masked_softmax(scores, mask, axis=-1)
    else:
        p = softmax(scores, axis=-1)
    s = (p[:, None, :] @ z_all)[:, 0, :]  # (B, d)
    return s, p


def _exact_state_fields(z: Tensor, mask: np.ndarray | None,
                        ridge: float) -> dict:
    """Exact (from-scratch) computation of every context constant.

    One shared implementation behind :meth:`ContextState.build` and
    :meth:`ContextState.rebuild` so an incremental state rebuilt after
    drift is *bitwise identical* to a freshly built context over the same
    observations.  The pseudo-inverse replicates
    :func:`repro.linalg.pinv_full_row_rank` op for op (Gram + ridge, then
    ``inv``), but keeps the intermediate Gram matrix and its inverse for
    the rank-1 ``extend`` bookkeeping.
    """
    z = as_tensor(z)
    batch, n, d = z.shape
    if n <= d:
        raise ValueError(
            f"DHS requires more observations than latent dims (n > d); "
            f"got n={n}, d={d}")
    if mask is None:
        mask = np.ones((batch, n))
    mask = np.asarray(mask, dtype=np.float64)
    # Zero out padded rows so they do not contribute to the Gram matrix.
    z = z * Tensor(mask[..., None])
    gram = z.transpose() @ z
    if ridge:
        gram = gram + Tensor(ridge * np.eye(d))
    gram_inv = gram.inv()
    zt_pinv = z @ gram_inv
    m_col = Tensor(mask[..., None])               # (B, n, 1)
    s_m = z.transpose() @ m_col                   # Z^T m      (B, d, 1)
    # A_p J computed without materializing A_p: diag(m) m = m exactly for
    # a 0/1 mask, so A_p J = m - (Z^T)^+ (Z^T m).  O(n d) instead of the
    # O(n^2) projector product - the form the rank-1 extend also uses.
    a_ones = m_col - zt_pinv @ s_m                # A_p J      (B, n, 1)
    denom = (m_col.transpose() @ a_ones)          # J A_p J    (B, 1, 1)
    return dict(z=z, mask=mask, zt_pinv=zt_pinv, a_ones=a_ones,
                denom=denom[:, 0, :] + _EPS,
                gram=gram.data, gram_inv=gram_inv.data, s_m=s_m.data)


class ContextState:
    """Pure DHS context state with an incremental ``extend`` bind.

    Holds exactly the per-batch constants the ODE right-hand side reads at
    every integration step (``(Z^T)^+``, the cached Eq. 32 terms, the
    mask) plus the O(d^2) Gram bookkeeping that makes a rank-1
    :meth:`extend` possible.  Instances are immutable: ``extend`` /
    ``rebuild`` / ``take`` return *new* states, so compiled RHS traces
    keyed on the old tensors stay valid for their bind generation and the
    caller decides when to re-bind (and bump the graph epoch).

    Construction paths:

    * :meth:`build` - exact, differentiable Tensor computation (the
      training and offline inference path);
    * :meth:`extend` - Sherman-Morrison rank-1 update of the Gram inverse
      and ``(Z^T)^+`` for one new observation row, O(n d) numpy on
      detached values (the streaming/inference path), with a drift check
      ``max |G G^{-1} - I|`` that falls back to :meth:`rebuild` past
      ``drift_threshold``;
    * :meth:`rebuild` - exact recompute from the accumulated rows,
      bitwise identical to a fresh :meth:`build` over the same
      observations;
    * :meth:`take` - differentiable batch-row slice (union-grid
      bucketing).
    """

    #: drift on ``G @ G^{-1}`` past which ``extend`` rebuilds exactly
    DRIFT_THRESHOLD = 1e-6

    def __init__(self, *, z: Tensor, mask: np.ndarray, zt_pinv: Tensor,
                 a_ones: Tensor, denom: Tensor, gram: np.ndarray,
                 gram_inv: np.ndarray, s_m: np.ndarray, ridge: float,
                 mask_t: Tensor | None = None, a_null: Tensor | None = None,
                 drift_threshold: float | None = None, generation: int = 0,
                 extends: int = 0, rebuilds: int = 0,
                 last_drift: float = 0.0):
        batch, n, d = z.shape
        self.z = z
        self.mask = mask
        self.zt_pinv = zt_pinv
        self._a_ones = a_ones
        self._denom = denom
        self._gram = gram
        self._gram_inv = gram_inv
        self._s_m = s_m
        self.ridge = float(ridge)
        self.n = n
        self.d = d
        # Reusable mask tensor for the solvers / recovery below: one shared
        # handle instead of a fresh ``Tensor(ctx.mask)`` per RHS call.
        self.mask_t = (Tensor(mask, name="dhs_mask")
                       if mask_t is None else mask_t)
        self._a_null = a_null
        self.drift_threshold = (self.DRIFT_THRESHOLD
                                if drift_threshold is None
                                else float(drift_threshold))
        #: bind generation: 0 for a fresh build, +1 per extend/rebuild
        self.generation = generation
        #: cumulative rank-1 extends / exact rebuilds along this lineage
        self.extends = extends
        self.rebuilds = rebuilds
        #: ``max |G G^{-1} - I|`` measured by the most recent extend
        self.last_drift = last_drift
        # Name the context constants: ODE right-hand-side traces capture
        # them as externals, and the names make CompiledGraph.dump()
        # listings readable (ext0:dhs_zt_pinv rather than a bare ext0).
        self.z.name = "dhs_z"
        self.zt_pinv.name = "dhs_zt_pinv"
        self._a_ones.name = "dhs_a_ones"
        self._denom.name = "dhs_denom"
        # Contexts are bind-time constants: DHSDynamics.bind bumps the
        # graph epoch when new ones are installed, so a generated kernel
        # may bake them in as constants.
        for t in (self.z, self.zt_pinv, self._a_ones, self._denom,
                  self.mask_t):
            mark_static(t)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, z: Tensor, mask: np.ndarray | None = None,
              ridge: float = 1e-6, *,
              drift_threshold: float | None = None) -> "ContextState":
        """Exact state over ``z`` (B, n, d) - the differentiable path."""
        fields = _exact_state_fields(z, mask, ridge)
        return cls(ridge=ridge, drift_threshold=drift_threshold, **fields)

    @property
    def a_null(self) -> Tensor:
        """``A_p = diag(m) - (Z^T)^+ Z^T`` (B, n, n), built lazily.

        Only the ``ada_h`` p-solver (which builds it in
        :meth:`DHSDynamics.bind <repro.core.dynamics.DHSDynamics.bind>`) and
        the exact-KKT validation read the full projector; everything else
        uses the cached ``A_p J`` columns, so no other path pays the O(n^2)
        materialization.
        """
        if self._a_null is None:
            batch, n = self.mask.shape
            eye = np.zeros((batch, n, n))
            idx = np.arange(n)
            eye[:, idx, idx] = self.mask
            a_null = Tensor(eye) - self.zt_pinv @ self.z.transpose()
            a_null.name = "dhs_a_null"
            self._a_null = a_null
        return self._a_null

    # ------------------------------------------------------------------
    def extend(self, z_new: Tensor | np.ndarray,
               mask_new: np.ndarray | None = None) -> "ContextState":
        """Incorporate one new observation row per batch element.

        Rank-1 (Sherman-Morrison) update of the Gram inverse, ``(Z^T)^+``
        and the cached Eq. 32 terms in O(n d) numpy on detached values -
        the streaming bind is an inference-time operation, so the returned
        tensors are constants (no tape).  When the accumulated drift
        ``max |G G^{-1} - I|`` exceeds ``drift_threshold`` the update
        falls back to an exact :meth:`rebuild` over all rows.

        Parameters
        ----------
        z_new:
            New latent row(s), shape (B, d) or (B, 1, d).
        mask_new:
            Optional (B,) validity of the new row (default: all valid).
            Masked rows are zeroed and leave the state unchanged except
            for the extra (inert) position.
        """
        zn = z_new.data if isinstance(z_new, Tensor) else z_new
        zn = np.asarray(zn, dtype=np.float64).reshape(self.z.shape[0], self.d)
        if mask_new is None:
            m_new = np.ones(zn.shape[0], dtype=np.float64)
        else:
            m_new = np.asarray(mask_new, dtype=np.float64).reshape(-1)
        zn = zn * m_new[:, None]
        z_all = np.concatenate([self.z.data, zn[:, None, :]], axis=1)
        mask_all = np.concatenate([self.mask, m_new[:, None]], axis=1)

        u = zn[:, :, None]                                   # (B, d, 1)
        v = self._gram_inv @ u                               # (B, d, 1)
        c = 1.0 / (1.0 + np.sum(u * v, axis=1, keepdims=True))
        gram_inv = self._gram_inv - c * (v @ np.swapaxes(v, 1, 2))
        gram = self._gram + u @ np.swapaxes(u, 1, 2)

        drift = float(np.max(np.abs(
            gram @ gram_inv - np.eye(self.d)[None, :, :])))
        reg = get_registry()
        if drift > self.drift_threshold:
            state = self._rebuilt_from(z_all, mask_all, drift)
            if reg.enabled:
                reg.inc("streaming.rebuilds")
            return state

        w = self.zt_pinv.data @ u                            # (B, n, 1)
        pinv_top = self.zt_pinv.data - (c * w) @ np.swapaxes(v, 1, 2)
        new_row = np.swapaxes(gram_inv @ u, 1, 2)            # (B, 1, d)
        zt_pinv = np.concatenate([pinv_top, new_row], axis=1)
        s_m = self._s_m + u
        m_col = mask_all[..., None]
        a_ones = m_col - zt_pinv @ s_m
        denom = (np.swapaxes(m_col, 1, 2) @ a_ones)[:, 0, :] + _EPS
        if reg.enabled:
            reg.inc("streaming.extends")
        return ContextState(
            z=Tensor(z_all), mask=mask_all, zt_pinv=Tensor(zt_pinv),
            a_ones=Tensor(a_ones), denom=Tensor(denom), gram=gram,
            gram_inv=gram_inv, s_m=s_m, ridge=self.ridge,
            drift_threshold=self.drift_threshold,
            generation=self.generation + 1, extends=self.extends + 1,
            rebuilds=self.rebuilds, last_drift=drift)

    def _rebuilt_from(self, z_all: np.ndarray, mask_all: np.ndarray,
                      drift: float) -> "ContextState":
        fields = _exact_state_fields(Tensor(z_all), mask_all, self.ridge)
        return ContextState(
            ridge=self.ridge, drift_threshold=self.drift_threshold,
            generation=self.generation + 1, extends=self.extends + 1,
            rebuilds=self.rebuilds + 1, last_drift=drift, **fields)

    def rebuild(self) -> "ContextState":
        """Exact recompute over the accumulated rows.

        Returns a state bitwise identical (tensor data) to a fresh
        :meth:`build` over the same ``z`` and mask; resets the
        incremental drift to zero.  Counts as a new generation.
        """
        fields = _exact_state_fields(Tensor(self.z.data), self.mask,
                                     self.ridge)
        reg = get_registry()
        if reg.enabled:
            reg.inc("streaming.rebuilds")
        return ContextState(
            ridge=self.ridge, drift_threshold=self.drift_threshold,
            generation=self.generation + 1, extends=self.extends,
            rebuilds=self.rebuilds + 1, last_drift=0.0, **fields)

    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "ContextState":
        """Batch-row slice (differentiable): the context for a sub-batch.

        Used by union-grid bucketing to bind one per-bucket context
        without recomputing any inverse; gradients still flow to the full
        ``z`` through the gather.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        return ContextState(
            z=self.z[idx], mask=self.mask[idx],
            zt_pinv=self.zt_pinv[idx], a_ones=self._a_ones[idx],
            denom=self._denom[idx], gram=self._gram[idx],
            gram_inv=self._gram_inv[idx], s_m=self._s_m[idx],
            ridge=self.ridge,
            a_null=None if self._a_null is None else self._a_null[idx],
            drift_threshold=self.drift_threshold,
            generation=self.generation, extends=self.extends,
            rebuilds=self.rebuilds, last_drift=self.last_drift)

    # ------------------------------------------------------------------
    def least_norm_p(self, s: Tensor) -> Tensor:
        """``b_p = ((Z^T)^+ S^T)^T`` - the minimum-norm solution, (B, n)."""
        return (self.zt_pinv @ s[:, :, None])[:, :, 0]


def solve_p_min_norm(ctx: ContextState, s: Tensor, **_unused) -> Tensor:
    """``minNorm`` variant: take ``p = b_p`` directly (Section IV-F)."""
    return ctx.least_norm_p(s)


def solve_p_max_hoyer(ctx: ContextState, s: Tensor, **_unused) -> Tensor:
    """``maxHoyer`` variant: Theorem 2 closed form (Eq. 32).

    ``p^T = b_p - (J b_p - 1) A_p J / (J A_p J)`` with ``J -> mask``.
    ``J b_p`` needs no mask: ``b_p`` is exactly zero on padded rows, whose
    ``(Z^T)^+`` rows are zero.
    """
    b = ctx.least_norm_p(s)                                  # (B, n)
    excess = b.sum(axis=-1, keepdims=True) - 1.0
    correction = ctx._a_ones[:, :, 0] * (excess / ctx._denom)
    return b - correction


def solve_p_adaptive(ctx: ContextState, s: Tensor,
                     h: Tensor | None = None, **_unused) -> Tensor:
    """``adaH`` variant: ``p = b_p + A_p h`` with a trainable ``h`` (Eq. 13)."""
    if h is None:
        raise ValueError("ada_h solver requires the trainable vector h")
    b = ctx.least_norm_p(s)
    correction = (ctx.a_null @ h.reshape(-1)[None, :, None])[:, :, 0]
    return b + correction * ctx.mask_t


P_SOLVERS = {
    "min_norm": solve_p_min_norm,
    "max_hoyer": solve_p_max_hoyer,
    "ada_h": solve_p_adaptive,
}


def solve_p_exact_kkt(b: np.ndarray, a: np.ndarray,
                      max_n: int = 14, tol: float = 1e-8) -> np.ndarray:
    """Theorem 1: exact solution of Eq. 15 by KKT active-set enumeration.

    Maximizes ``p p^T`` subject to ``p >= 0``, ``sum(p) = 1`` and
    ``p = b + A h``.  Enumerates all subsets of active (``p_i = 0``)
    constraints - the O(2^n) procedure of the paper - so it is only usable
    for small ``n``; the test-suite uses it to validate the relaxed
    Theorem-2 formula.

    Parameters
    ----------
    b : (n,) least-norm solution ``b_p``.
    a : (n, n) null-space projector ``A_p``.
    """
    n = b.shape[0]
    if n > max_n:
        raise ValueError(f"exact KKT enumeration is O(2^n); n={n} > {max_n}")
    alpha_rows = a.sum(axis=1)
    alpha = float(a.sum())
    if abs(alpha) < tol:
        raise np.linalg.LinAlgError(
            "sum(A) ~= 0: the all-ones vector is (numerically) in the row "
            "space of Z^T, the constraint sum(p)=1 cannot be adjusted")

    best_p: np.ndarray | None = None
    best_val = -np.inf
    ones = np.ones(n)

    for k in range(0, n):  # size of the active set (mu != 0)
        for active in combinations(range(n), k):
            idx = np.array(active, dtype=int)
            mu = np.zeros(n)
            if k > 0:
                a_nn = a[np.ix_(idx, idx)]
                alpha_n = alpha_rows[idx]
                lhs = 0.5 * (a_nn - np.outer(alpha_n, alpha_n) / alpha)
                rhs = b[idx] - (b.sum() - 1.0) / alpha * alpha_n
                mu_n, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
                if not np.allclose(lhs @ mu_n, rhs, atol=1e-6):
                    continue  # inconsistent active set
                mu[idx] = mu_n
            lam = 2.0 / alpha * (b.sum() - 1.0 - 0.5 * (alpha_rows * mu).sum())
            # From A(2h + mu + lambda J) = 0: A h = -A(mu + lambda J)/2.
            p = b - a @ (mu + lam * ones) / 2.0
            feasible = (
                p.min() >= -1e-7
                and abs(p.sum() - 1.0) < 1e-6
                and mu.min() >= -1e-7
                and (k == 0 or np.abs(p[idx]).max() < 1e-6)
            )
            if feasible:
                val = float(p @ p)
                if val > best_val:
                    best_val = val
                    best_p = p
    if best_p is None:
        raise RuntimeError("no feasible KKT point found")
    return best_p


def recover_z(p: Tensor, ctx: ContextState, h2: Tensor) -> Tensor:
    """Recover ``z_t`` from ``p_t`` (Eq. 34) via the O(n) closed form.

    With ``M = J_{n,1} p - I_n`` and ``p`` summing to one, ``M^2 = -M`` and
    ``range(M) = { y : p^T y = 0 }``; therefore
    ``I - M M^+ = p p^T / (p^T p)`` and Eq. 34 collapses to

        ``a_h = (h2 . p / p . p) p - J``,  ``z = sqrt(d) a_h (Z^T)^+``.

    Equality with the literal pinv form is covered by the tests.  Every
    p-solver returns ``p`` exactly zero on padded rows, so ``p`` is used
    unmasked.
    """
    pp = (p * p).sum(axis=-1, keepdims=True) + _EPS
    hp = (p * h2.reshape(-1)[None, :]).sum(axis=-1, keepdims=True)
    a_h = p * (hp / pp) - ctx.mask_t
    return (a_h[:, None, :] @ ctx.zt_pinv)[:, 0, :] * np.sqrt(ctx.d)


# ---------------------------------------------------------------------------
# fused ops for the ODE right-hand side
# ---------------------------------------------------------------------------
# The right-hand side evaluates a p-solver, :func:`recover_z` and Eq. 12 per
# head at every solver stage; as composites they cost 34 tape nodes per head
# and evaluation.  ``dhs_recover`` and ``dhs_ds`` record one node each.  Their
# forwards repeat the composites' numpy calls in the same order, so values
# are bitwise the composites'.  Their backwards recompute the few (B, n)
# intermediates from the inputs and ``out``, and form each context gradient
# as one product whose contracted dimension is 2, instead of two outer
# products and an add.

def _fw_dhs_recover(ins, at):
    s, zt_pinv, a_ones, denom, mask, h2 = ins[:6]
    b = (zt_pinv @ s[:, :, None])[:, :, 0]                 # least_norm_p
    solver = at["p_solver"]
    if solver == "max_hoyer":
        excess = b.sum(axis=-1, keepdims=True) - 1.0
        p = b - a_ones[:, :, 0] * (excess / denom)
    elif solver == "ada_h":
        a_null, h = ins[6:]
        p = b + (a_null @ h.reshape(-1)[None, :, None])[:, :, 0] * mask
    else:
        p = b
    pp = (p * p).sum(axis=-1, keepdims=True) + _EPS         # recover_z
    hp = (p * h2.reshape(-1)[None, :]).sum(axis=-1, keepdims=True)
    a_h = p * (hp / pp) - mask
    z = (a_h[:, None, :] @ zt_pinv)[:, 0, :] * np.sqrt(zt_pinv.shape[-1])
    return np.concatenate([p, z], axis=1)


def _bw_dhs_recover(g, ins, out, at, needs):
    s, zt_pinv, a_ones, denom, mask, h2 = ins[:6]
    n = zt_pinv.shape[1]
    root_d = np.sqrt(zt_pinv.shape[-1])
    p, g_z = out[:, :n], g[:, n:]
    grads = [None] * len(ins)        # the 0/1 mask carries no gradient
    # Eq. 34: z = sqrt(d) a_h (Z^T)^+ with a_h = p (hp / pp) - m.
    h2_row = h2.reshape(-1)[None, :]
    pp = (p * p).sum(axis=-1, keepdims=True) + _EPS
    hp = (p * h2_row).sum(axis=-1, keepdims=True)
    ratio = hp / pp
    a_h = p * ratio - mask
    g_ah = (zt_pinv @ g_z[:, :, None])[:, :, 0] * root_d
    g_ratio = (g_ah * p).sum(axis=-1, keepdims=True)
    g_hp = g_ratio / pp
    g_p = (g[:, :n] + g_ah * ratio + g_hp * h2_row
           - 2.0 * (g_ratio * ratio / pp) * p)
    if needs[5]:
        grads[5] = (g_hp * p).sum(axis=0).reshape(h2.shape)
    # The p-solver: p = b + correction, with b = (Z^T)^+ s.
    g_b = g_p
    solver = at["p_solver"]
    if solver == "max_hoyer":
        # correction = -a (sum(b) - 1) / denom
        b = (zt_pinv @ s[:, :, None])[:, :, 0]
        q = (b.sum(axis=-1, keepdims=True) - 1.0) / denom
        g_q = -(g_p * a_ones[:, :, 0]).sum(axis=-1, keepdims=True)
        g_b = g_p + g_q / denom
        if needs[2]:
            grads[2] = (-g_p * q)[:, :, None]
        if needs[3]:
            grads[3] = -g_q * q / denom
    elif solver == "ada_h":
        # correction = (A_p h) * m
        a_null, h = ins[6:]
        g_corr = g_p * mask
        if needs[6]:
            grads[6] = g_corr[:, :, None] * h.reshape(-1)[None, None, :]
        if needs[7]:
            grads[7] = ((g_corr[:, None, :] @ a_null)[:, 0, :]
                        .sum(axis=0).reshape(h.shape))
    if needs[0]:
        grads[0] = (g_b[:, None, :] @ zt_pinv)[:, 0, :]
    if needs[1]:
        # d(Z^T)^+ = g_b s^T + a_h (sqrt(d) g_z)^T as one k = 2 product
        grads[1] = (np.stack([g_b, a_h], axis=-1)
                    @ np.stack([s, root_d * g_z], axis=1))
    return tuple(grads)


def _fw_dhs_ds(ins, at):
    p, dz, z = ins
    p_col = p[:, :, None]                                   # (B, n, 1)
    pg = p_col * (z @ dz[:, :, None])                       # p * g
    w = pg - p_col * pg.sum(axis=1, keepdims=True)
    return (np.swapaxes(w, -2, -1) @ z)[:, 0, :] * at["scale"]


def _bw_dhs_ds(g, ins, out, at, needs):
    p, dz, z = ins
    g_ds = g * at["scale"]
    gz = (z @ dz[:, :, None])[:, :, 0]                      # Z dz^T
    pg = p * gz
    pg_sum = pg.sum(axis=-1, keepdims=True)
    g_w = (z @ g_ds[:, :, None])[:, :, 0]
    g_pg = g_w - (g_w * p).sum(axis=-1, keepdims=True)
    g_gz = g_pg * p
    g_p = g_pg * gz - g_w * pg_sum if needs[0] else None
    g_dz = (g_gz[:, None, :] @ z)[:, 0, :] if needs[1] else None
    g_zz = None
    if needs[2]:
        # dZ = g_gz dz^T + w g_ds^T as one k = 2 product
        w = pg - p * pg_sum
        g_zz = (np.stack([g_gz, w], axis=-1)
                @ np.stack([dz, g_ds], axis=1))
    return g_p, g_dz, g_zz


register_op("dhs_recover", _fw_dhs_recover, _bw_dhs_recover)
register_op("dhs_ds", _fw_dhs_ds, _bw_dhs_ds)


def dhs_recover(ctx: ContextState, s: Tensor, h2: Tensor,
                p_solver: str = "max_hoyer",
                h: Tensor | None = None) -> Tensor:
    """``[p | z_t]`` (B, n + d) as one ``dhs_recover`` node.

    Bitwise equal to ``P_SOLVERS[p_solver](ctx, s, h=h)`` followed by
    :func:`recover_z` with ``h2``.
    """
    ins = (s, ctx.zt_pinv, ctx._a_ones, ctx._denom, ctx.mask_t, h2)
    if p_solver == "ada_h":
        if h is None:
            raise ValueError("ada_h solver requires the trainable vector h")
        ins += (ctx.a_null, h)
    return apply("dhs_recover", ins, {"p_solver": p_solver})


def dhs_ds(p: Tensor, dz: Tensor, z: Tensor) -> Tensor:
    """One head's Eq. 12, ``dz Z^T (P_diag - p^T p) Z / sqrt(d)`` (B, d),
    as one ``dhs_ds`` node, multiplied right to left (the softmax JVP):
    ``g = Z dz^T``, ``w = p*g - p (p.g)``, then ``w^T Z``."""
    return apply("dhs_ds", (p, dz, z),
                 {"scale": 1.0 / np.sqrt(z.shape[-1])})


def recover_z_literal(p: Tensor, ctx: ContextState, h2: Tensor) -> Tensor:
    """Recover ``z_t`` (Eq. 34) literally, with an explicit Moore-Penrose
    inverse of ``(J_{n,1} p - I_n)`` at each call.  O(n^3); used only by
    tests to validate :func:`recover_z`.
    """
    batch, n, _ = ctx.z.shape
    mask = Tensor(ctx.mask)
    p = p * mask
    # Renormalize so sum(p) = 1 *exactly*: the rank deficiency of
    # ``J p - I`` (which the closed form exploits) holds only then, and a
    # 1e-10 drift in the sum otherwise turns a structurally zero singular
    # value into a huge spurious direction of the pseudo-inverse.
    p = p * (1.0 / p.sum(axis=-1, keepdims=True))
    eye = np.zeros((batch, n, n))
    idx = np.arange(n)
    eye[:, idx, idx] = ctx.mask
    ones_col = Tensor(ctx.mask[..., None])  # J_{n,1} restricted to valid rows
    m_mat = ones_col @ p[:, None, :] - Tensor(eye)
    proj = Tensor(eye) - m_mat @ m_mat.pinv(rcond=1e-8)
    a_h = (h2.reshape(-1)[None, None, :] * Tensor(ctx.mask[:, None, :])) @ proj \
        - Tensor(ctx.mask[:, None, :])
    return (a_h @ ctx.zt_pinv)[:, 0, :] * np.sqrt(ctx.d)
