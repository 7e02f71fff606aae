"""Eq. 34: recovering z_t from p_t - closed form vs literal pinv form."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck
from repro.core import (
    ContextState,
    dhs_attention,
    recover_z,
    recover_z_literal,
    solve_p_max_hoyer,
)


@pytest.fixture
def setup(rng):
    z = Tensor(rng.normal(size=(3, 9, 4)))
    ctx = ContextState.build(z, None, ridge=0.0)
    s, _ = dhs_attention(Tensor(rng.normal(size=(3, 4))), ctx.z, None)
    p = solve_p_max_hoyer(ctx, s)
    h2 = Tensor(rng.normal(size=(9,)))
    return ctx, p, h2


class TestClosedFormEquivalence:
    def test_matches_literal_pinv_form(self, setup):
        ctx, p, h2 = setup
        z_fast = recover_z(p, ctx, h2).data
        z_lit = recover_z_literal(p, ctx, h2).data
        np.testing.assert_allclose(z_fast, z_lit, atol=1e-6)

    def test_matches_with_masking(self, rng):
        z = Tensor(rng.normal(size=(2, 10, 3)))
        mask = np.ones((2, 10))
        mask[1, 7:] = 0
        ctx = ContextState.build(z, mask, ridge=0.0)
        s, _ = dhs_attention(Tensor(rng.normal(size=(2, 3))), ctx.z, mask)
        p = solve_p_max_hoyer(ctx, s)
        h2 = Tensor(rng.normal(size=(10,)))
        np.testing.assert_allclose(recover_z(p, ctx, h2).data,
                                   recover_z_literal(p, ctx, h2).data,
                                   atol=1e-5)

    def test_projector_identity(self, rng):
        """I - M M^+ = p p^T / (p^T p) for M = J p - I with sum(p) = 1."""
        p = rng.normal(size=7)
        p = p / p.sum()
        m = np.outer(np.ones(7), p) - np.eye(7)
        proj_lit = np.eye(7) - m @ np.linalg.pinv(m, rcond=1e-10)
        proj_cf = np.outer(p, p) / (p @ p)
        np.testing.assert_allclose(proj_lit, proj_cf, atol=1e-8)

    def test_m_squared_is_minus_m(self, rng):
        p = rng.normal(size=6)
        p = p / p.sum()
        m = np.outer(np.ones(6), p) - np.eye(6)
        np.testing.assert_allclose(m @ m, -m, atol=1e-12)


class TestShapeAndGradient:
    def test_output_shape(self, setup):
        ctx, p, h2 = setup
        assert recover_z(p, ctx, h2).shape == (3, 4)

    def test_differentiable_wrt_h2(self, rng):
        z = rng.normal(size=(1, 7, 3))

        def fn(h2, s):
            ctx = ContextState.build(Tensor(z), None, ridge=0.0)
            p = solve_p_max_hoyer(ctx, s)
            return (recover_z(p, ctx, h2) ** 2).sum()

        gradcheck(fn, [rng.normal(size=(7,)), rng.normal(size=(1, 3))])

    def test_scaling_with_sqrt_d(self, setup):
        """z = sqrt(d) * a_h (Z^T)^+: doubling h2's aligned component moves
        z linearly (the formula is affine in h2)."""
        ctx, p, h2 = setup
        z1 = recover_z(p, ctx, h2).data
        z2 = recover_z(p, ctx, h2 * 2.0).data
        z0 = recover_z(p, ctx, h2 * 0.0).data
        np.testing.assert_allclose(z2 - z0, 2.0 * (z1 - z0), atol=1e-8)
