"""Property-based tests (hypothesis) for the DHS invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.core import (
    ContextState,
    dhs_attention,
    solve_p_adaptive,
    solve_p_max_hoyer,
    solve_p_min_norm,
)


def _problem(seed: int, n: int, d: int, batch: int = 2):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.normal(size=(batch, n, d)))
    ctx = ContextState.build(z, None, ridge=0.0)
    s, p = dhs_attention(Tensor(rng.normal(size=(batch, d))), ctx.z, None)
    return rng, ctx, s, p


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(6, 14), st.integers(2, 4))
def test_all_solvers_reconstruct_s(seed, n, d):
    """Invariant: every p solver satisfies pZ = S to numerical precision."""
    if n <= d:
        return
    rng, ctx, s, _ = _problem(seed, n, d)
    h = Tensor(rng.normal(size=(n,)))
    for solver, kw in ((solve_p_min_norm, {}), (solve_p_max_hoyer, {}),
                       (solve_p_adaptive, {"h": h})):
        p = solver(ctx, s, **kw)
        recon = np.einsum("bn,bnd->bd", p.data, ctx.z.data)
        np.testing.assert_allclose(recon, s.data, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(6, 14), st.integers(2, 4))
def test_max_hoyer_sum_constraint(seed, n, d):
    if n <= d:
        return
    _, ctx, s, _ = _problem(seed, n, d)
    p = solve_p_max_hoyer(ctx, s)
    np.testing.assert_allclose(p.data.sum(-1), 1.0, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(6, 12))
def test_min_norm_orthogonal_to_null_space(seed, n):
    """b_p has no null-space component: A_p b_p = 0."""
    d = 3
    if n <= d:
        return
    _, ctx, s, _ = _problem(seed, n, d)
    b = solve_p_min_norm(ctx, s)
    residual = np.einsum("bnm,bm->bn", ctx.a_null.data, b.data)
    np.testing.assert_allclose(residual, 0.0, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(7, 12))
def test_forward_attention_is_feasible_point(seed, n):
    """The true softmax p must satisfy the same linear system the solvers
    invert (consistency of forward and backward attention)."""
    d = 3
    _, ctx, s, p_fwd = _problem(seed, n, d)
    recon = np.einsum("bn,bnd->bd", p_fwd.data, ctx.z.data)
    np.testing.assert_allclose(recon, s.data, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(7, 12))
def test_min_norm_is_shortest_solution(seed, n):
    """Any feasible solution is at least as long as the least-norm one."""
    d = 3
    _, ctx, s, p_fwd = _problem(seed, n, d)
    b = solve_p_min_norm(ctx, s).data
    assert np.all((b ** 2).sum(-1) <= (p_fwd.data ** 2).sum(-1) + 1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_masked_context_matches_trimmed(seed):
    """Padding + masking must be exactly equivalent to trimming."""
    rng = np.random.default_rng(seed)
    n_valid, pad, d = 9, 5, 3
    z_small = rng.normal(size=(1, n_valid, d))
    z_big = np.concatenate([z_small, rng.normal(size=(1, pad, d))], axis=1)
    mask = np.concatenate([np.ones((1, n_valid)), np.zeros((1, pad))],
                          axis=1)
    ctx_a = ContextState.build(Tensor(z_small), None, ridge=0.0)
    ctx_b = ContextState.build(Tensor(z_big), mask, ridge=0.0)
    q = rng.normal(size=(1, d))
    s_a, _ = dhs_attention(Tensor(q), ctx_a.z, None)
    s_b, _ = dhs_attention(Tensor(q), ctx_b.z, mask)
    np.testing.assert_allclose(s_a.data, s_b.data, atol=1e-10)
    p_a = solve_p_max_hoyer(ctx_a, s_a).data
    p_b = solve_p_max_hoyer(ctx_b, s_b).data
    np.testing.assert_allclose(p_a, p_b[:, :n_valid], atol=1e-6)
    np.testing.assert_allclose(p_b[:, n_valid:], 0.0, atol=1e-8)
