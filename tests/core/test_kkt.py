"""Theorem 1: exact KKT solution of the constrained Hoyer problem."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import ContextState, dhs_attention, solve_p_exact_kkt, \
    solve_p_max_hoyer


def _small_problem(rng, n=7, d=3):
    z = Tensor(rng.normal(size=(1, n, d)))
    ctx = ContextState.build(z, None, ridge=0.0)
    s, _ = dhs_attention(Tensor(rng.normal(size=(1, d))), ctx.z, None)
    b = ctx.least_norm_p(s).data[0]
    a = ctx.a_null.data[0]
    return ctx, s, b, a


class TestExactKKT:
    def test_solution_is_feasible(self, rng):
        ctx, s, b, a = _small_problem(rng)
        p = solve_p_exact_kkt(b, a)
        assert p.min() >= -1e-7
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-6)

    def test_solution_reconstructs_s(self, rng):
        ctx, s, b, a = _small_problem(rng)
        p = solve_p_exact_kkt(b, a)
        recon = p @ ctx.z.data[0]
        np.testing.assert_allclose(recon, s.data[0], atol=1e-6)

    def test_exact_at_least_as_sparse_as_relaxed(self, rng):
        """With sum(p)=1 fixed, Hoyer is monotone increasing in ||p||_2;
        the exact KKT maximizer must beat (or match) the relaxed
        stationary point whenever the latter is feasible (p >= 0)."""
        found_feasible = 0
        for seed in range(12):
            local = np.random.default_rng(seed)
            ctx, s, b, a = _small_problem(local)
            p_relax = solve_p_max_hoyer(ctx, s).data[0]
            if p_relax.min() < 0:
                continue  # relaxed solution infeasible for Eq. 15
            found_feasible += 1
            p_exact = solve_p_exact_kkt(b, a)
            assert p_exact @ p_exact >= p_relax @ p_relax - 1e-7
        assert found_feasible >= 1

    def test_rejects_large_n(self, rng):
        with pytest.raises(ValueError):
            solve_p_exact_kkt(np.ones(20), np.eye(20))

    def test_degenerate_alpha_raises(self):
        # A = 0 projector: the ones vector is entirely in the row space
        b = np.full(4, 0.25)
        with pytest.raises(np.linalg.LinAlgError):
            solve_p_exact_kkt(b, np.zeros((4, 4)))

    def test_trivial_problem_recovers_simplex_vertex(self):
        """Z with a single latent dim: feasible set is a segment; the
        maximizer of ||p||^2 is a vertex of the simplex slice."""
        rng = np.random.default_rng(3)
        z = Tensor(np.abs(rng.normal(size=(1, 5, 1))) + 0.5)
        ctx = ContextState.build(z, None, ridge=0.0)
        s, _ = dhs_attention(Tensor(rng.normal(size=(1, 1))), ctx.z, None)
        b = ctx.least_norm_p(s).data[0]
        a = ctx.a_null.data[0]
        p = solve_p_exact_kkt(b, a)
        # vertex => at most d + 1 = 2 nonzero coordinates... allow numerics
        assert (np.abs(p) > 1e-6).sum() <= 3
