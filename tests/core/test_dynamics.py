"""DHS dynamics (Eq. 6/12) and the augmented HiPPO system (Eq. 36)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, apply, concat, gradcheck, tape_profile
from repro.core import AugmentedDynamics, ContextState, DHSDynamics, \
    DiffODE, DiffODEConfig, P_SOLVERS, PlainLatentDynamics, dhs_attention, \
    recover_z
from repro.core.dhs import dhs_ds, dhs_recover


def eq12_literal(dz, p, z_all):
    """Eq. 12 for one sequence, literally: ``dz Z^T (P_diag - p^T p) Z /
    sqrt(d)`` with the (d, d) coupling formed explicitly.  The reference
    the regrouped right-hand side is held to."""
    coupling = z_all.T @ (np.diag(p) - np.outer(p, p)) @ z_all
    return dz @ coupling / np.sqrt(z_all.shape[-1])


def eq12_right_to_left(p, dz, z):
    """Eq. 12 for one head in Tensor ops, multiplied right to left as the
    softmax JVP: ``g = Z dz^T``, then ``(P_diag - p^T p) g = p*g - p
    (p.g)``, then times ``Z``.  The composite the ``dhs_ds`` op is held
    to, bitwise."""
    p_col = p[:, :, None]                         # (B, n, 1)
    pg = p_col * (z @ dz[:, :, None])             # p * g
    w = pg - p_col * pg.sum(axis=1, keepdims=True)
    return (w.transpose() @ z)[:, 0, :] * (1.0 / np.sqrt(z.shape[-1]))


class TestEquation6ChainRule:
    """Validate the paper's central derivation: differentiate the forward
    attention S(t) = softmax(z(t) Z^T / sqrt(d)) Z numerically along a
    known z(t) trajectory and compare with the analytic formula
    dS/dt = (dz/dt) Z^T (P_diag - p^T p) Z / sqrt(d)."""

    def _analytic_ds(self, z_t, v, z_all):
        d = z_all.shape[-1]
        a = z_t @ z_all.T / np.sqrt(d)
        e = np.exp(a - a.max())
        p = e / e.sum()
        return eq12_literal(v, p, z_all), p

    def test_matches_numerical_derivative(self, rng):
        n, d = 9, 4
        z_all = rng.normal(size=(n, d))
        z0 = rng.normal(size=d)
        v = rng.normal(size=d)  # dz/dt (constant velocity trajectory)

        def s_of_t(t):
            z_t = z0 + t * v
            a = z_t @ z_all.T / np.sqrt(d)
            e = np.exp(a - a.max())
            p = e / e.sum()
            return p @ z_all

        eps = 1e-6
        ds_numeric = (s_of_t(eps) - s_of_t(-eps)) / (2 * eps)
        ds_analytic, _ = self._analytic_ds(z0, v, z_all)
        np.testing.assert_allclose(ds_analytic, ds_numeric, atol=1e-6)

    def test_softmax_jacobian_identity(self, rng):
        """Eq. 7: dp_j/da_i = p_j (delta_ij - p_i)."""
        a = rng.normal(size=6)

        def softmax(x):
            e = np.exp(x - x.max())
            return e / e.sum()

        p = softmax(a)
        jac_analytic = np.diag(p) - np.outer(p, p)
        eps = 1e-6
        jac_numeric = np.zeros((6, 6))
        for i in range(6):
            da = np.zeros(6)
            da[i] = eps
            jac_numeric[:, i] = (softmax(a + da) - softmax(a - da)) / (2 * eps)
        np.testing.assert_allclose(jac_analytic, jac_numeric, atol=1e-6)


def _masked_batch(rng, batch=3, n=9, d=4):
    """Latents and a mask whose sequences 1 and 2 end in padded rows."""
    mask = np.ones((batch, n))
    mask[1, n - 2:] = 0.0
    mask[2, n - 3:] = 0.0
    return rng.normal(size=(batch, n, d)), mask


def _bind(dyn, z, mask):
    hd = dyn.head_dim
    dyn.bind([ContextState.build(z[:, :, h * hd:(h + 1) * hd], mask)
              for h in range(dyn.num_heads)])


class TestEquation12Oracle:
    """``DHSDynamics.forward`` multiplies Eq. 12 right to left; it must
    equal the literal (d, d) coupling form for every p-solver, one and two
    heads, on a batch with padded rows."""

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("solver", sorted(P_SOLVERS))
    def test_matches_literal_form(self, rng, solver, heads):
        d, t = 4, 0.35
        z, mask = _masked_batch(rng, d=d)
        dyn = DHSDynamics(d, 8, rng, p_solver=solver, num_heads=heads,
                          max_len=16, ds_clip=None)
        _bind(dyn, Tensor(z), mask)
        s = rng.normal(size=(3, d))
        out = dyn(t, Tensor(s)).data

        # p, z_t and dz = phi(z_t, t) from the same solver; only the
        # coupling is recomputed literally.
        hd = dyn.head_dim
        heads_p, z_t = [], []
        for h, ctx in enumerate(dyn._contexts):
            p = dyn.solve_p(ctx, Tensor(s[:, h * hd:(h + 1) * hd]))
            heads_p.append(p.data)
            z_t.append(recover_z(p, ctx, dyn.h2[:ctx.n]).data)
        feats = np.concatenate(z_t + [np.full((3, 1), t)], axis=-1)
        dz = dyn.phi(Tensor(feats)).data
        expected = np.concatenate([
            np.stack([eq12_literal(dz[b, h * hd:(h + 1) * hd],
                                   heads_p[h][b], ctx.z.data[b])
                      for b in range(3)])
            for h, ctx in enumerate(dyn._contexts)], axis=-1)
        assert np.all(heads_p[0][1, -2:] == 0.0)        # padded rows
        err = np.max(np.abs(out - expected)) / np.max(np.abs(expected))
        assert err < 1e-12

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("solver", sorted(P_SOLVERS))
    def test_gradcheck_state_latents_and_phi(self, rng, solver, heads):
        d = 4
        z0, mask = _masked_batch(rng, d=d)
        dyn = DHSDynamics(d, 6, rng, p_solver=solver, num_heads=heads,
                          max_len=16, ds_clip=None)
        fc0, fc1 = dyn.phi.fc0, dyn.phi.fc1
        weights = rng.normal(size=(3, d))

        def fn(s, z, w0, w1):
            # route phi through the checked weight tensors
            object.__setattr__(fc0, "weight", w0)
            object.__setattr__(fc1, "weight", w1)
            _bind(dyn, z, mask)
            return (dyn(0.2, s) * Tensor(weights)).sum()

        params = (fc0.weight, fc1.weight)
        try:
            gradcheck(fn, [rng.normal(size=(3, d)), z0,
                           fc0.weight.data.copy(), fc1.weight.data.copy()])
        finally:
            object.__setattr__(fc0, "weight", params[0])
            object.__setattr__(fc1, "weight", params[1])


@st.composite
def _dhs_case(draw):
    """A masked batch with per-head contexts: B 1-4, head dim 1-4, one
    or two heads, n from hd + 1 to hd + 8, 0-3 padded rows per series
    (at least hd + 1 valid), any p-solver."""
    batch = draw(st.integers(1, 4))
    hd = draw(st.integers(1, 4))
    heads = draw(st.integers(1, 2))
    n = draw(st.integers(hd + 1, hd + 8))
    pads = draw(st.lists(st.integers(0, 3), min_size=batch,
                         max_size=batch))
    solver = draw(st.sampled_from(sorted(P_SOLVERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    mask = np.ones((batch, n))
    for b, pad in enumerate(pads):
        mask[b, n - min(pad, n - hd - 1):] = 0.0
    z = rng.normal(size=(batch, n, heads * hd))
    contexts = [ContextState.build(Tensor(z[:, :, h * hd:(h + 1) * hd]),
                                   mask) for h in range(heads)]
    return contexts, solver, rng


def _leaf(array):
    return Tensor(np.array(array), requires_grad=True)


def _values_and_grads(fn, inputs, g):
    """``fn(*inputs)``'s value and each input's gradient under ``g``."""
    for t in inputs:
        t.grad = None
    out = fn(*inputs)
    out.backward(g)
    return out.data, [t.grad for t in inputs]


def _assert_grads_close(grads, ref_grads):
    for got, ref in zip(grads, ref_grads):
        if ref is None:
            assert got is None
            continue
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFusedOps:
    """``dhs_recover`` and ``dhs_ds`` are held to the composites they
    replace: values bitwise, every input's gradient within
    1e-12 of its largest magnitude."""

    @settings(max_examples=80, deadline=None)
    @given(_dhs_case())
    def test_recover_matches_solver_and_recover_z(self, case):
        contexts, solver, rng = case
        for ctx in contexts:
            batch, n, hd = ctx.z.shape
            # The op's context inputs as leaves, so each gets a gradient.
            ctx.zt_pinv = _leaf(ctx.zt_pinv.data)
            ctx._a_ones = _leaf(ctx._a_ones.data)
            ctx._denom = _leaf(ctx._denom.data)
            ctx._a_null = _leaf(ctx.a_null.data)
            s, h, h2 = (_leaf(rng.normal(size=(batch, hd))),
                        _leaf(rng.normal(scale=0.1, size=n)),
                        _leaf(rng.normal(scale=0.1, size=n)))
            inputs = [s, h, h2, ctx.zt_pinv, ctx._a_ones, ctx._denom,
                      ctx._a_null]
            g = rng.normal(size=(batch, n + hd))

            def composite(s, h, h2, *_):
                p = P_SOLVERS[solver](ctx, s, h=h)
                return concat([p, recover_z(p, ctx, h2)], axis=-1)

            def fused(s, h, h2, *_):
                return dhs_recover(ctx, s, h2, solver, h)

            out, grads = _values_and_grads(fused, inputs, g)
            ref, ref_grads = _values_and_grads(composite, inputs, g)
            np.testing.assert_array_equal(out, ref)
            assert np.all(out[:, :n][ctx.mask == 0.0] == 0.0)
            _assert_grads_close(grads, ref_grads)

    @settings(max_examples=80, deadline=None)
    @given(_dhs_case())
    def test_ds_matches_right_to_left_block(self, case):
        contexts, solver, rng = case
        for ctx in contexts:
            batch, n, hd = ctx.z.shape
            p = P_SOLVERS[solver](ctx, Tensor(rng.normal(size=(batch, hd))),
                                  h=Tensor(rng.normal(size=n)))
            inputs = [_leaf(p.data), _leaf(rng.normal(size=(batch, hd))),
                      _leaf(ctx.z.data)]
            g = rng.normal(size=(batch, hd))
            out, grads = _values_and_grads(dhs_ds, inputs, g)
            ref, ref_grads = _values_and_grads(eq12_right_to_left, inputs, g)
            np.testing.assert_array_equal(out, ref)
            _assert_grads_close(grads, ref_grads)

    @pytest.mark.parametrize("solver", sorted(P_SOLVERS))
    def test_recover_gradcheck(self, rng, solver):
        z, mask = _masked_batch(rng, n=6, d=2)
        ctx = ContextState.build(Tensor(z), mask)
        weights = Tensor(rng.normal(size=(3, 8)))

        def fn(s, zt_pinv, a_ones, denom, h2, *ada_h):
            out = apply("dhs_recover",
                        (s, zt_pinv, a_ones, denom, ctx.mask_t, h2) + ada_h,
                        {"p_solver": solver})
            return (out * weights).sum()

        inputs = [rng.normal(size=(3, 2)), ctx.zt_pinv.data,
                  ctx._a_ones.data, ctx._denom.data, rng.normal(size=6)]
        if solver == "ada_h":
            inputs += [ctx.a_null.data, rng.normal(size=6)]
        gradcheck(fn, inputs)

    def test_ds_gradcheck(self, rng):
        z, mask = _masked_batch(rng, n=6, d=2)
        weights = Tensor(rng.normal(size=(3, 2)))
        p = rng.random((3, 6)) * mask
        gradcheck(lambda p, dz, z: (dhs_ds(p, dz, z) * weights).sum(),
                  [p / p.sum(axis=-1, keepdims=True), rng.normal(size=(3, 2)),
                   z * mask[..., None]])

    @pytest.mark.parametrize("solver", sorted(P_SOLVERS))
    def test_one_node_per_head_and_op(self, rng, solver):
        """A 2-head evaluation records two nodes of each fused op, and its
        only matmuls are phi's two layers."""
        dyn = DHSDynamics(4, 8, rng, p_solver=solver, num_heads=2,
                          max_len=16)
        z, mask = _masked_batch(rng, d=4)
        _bind(dyn, Tensor(z, requires_grad=True), mask)
        s = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with tape_profile() as prof:
            dyn(0.3, s)
        counts = {op: rec.count for op, rec in prof.ops.items()}
        assert counts["dhs_recover"] == 2
        assert counts["dhs_ds"] == 2
        assert counts["matmul"] == 2


class TestDHSDynamics:
    def _make(self, rng, n=10, d=4, heads=1, solver="max_hoyer"):
        dyn = DHSDynamics(d, 8, rng, p_solver=solver, num_heads=heads,
                          max_len=64)
        hd = d // heads
        contexts = [ContextState.build(Tensor(rng.normal(size=(2, n, hd))),
                                       None, ridge=0.0)
                    for _ in range(heads)]
        dyn.bind(contexts)
        return dyn

    def test_output_shape(self, rng):
        dyn = self._make(rng)
        out = dyn(0.3, Tensor(rng.normal(size=(2, 4))))
        assert out.shape == (2, 4)

    def test_requires_bind(self, rng):
        dyn = DHSDynamics(4, 8, rng)
        with pytest.raises(RuntimeError):
            dyn(0.0, Tensor(np.zeros((1, 4))))

    def test_bind_checks_head_count(self, rng):
        dyn = DHSDynamics(4, 8, rng, num_heads=2)
        with pytest.raises(ValueError):
            dyn.bind([ContextState.build(Tensor(rng.normal(size=(1, 6, 2))))])

    def test_bind_rejects_series_longer_than_max_len(self, rng):
        """h/h2 hold max_len positions; a longer context must fail at
        bind with a clear message, not at the first RHS call."""
        dyn = DHSDynamics(4, 8, rng, max_len=8)
        ctx = ContextState.build(Tensor(rng.normal(size=(2, 10, 4))))
        with pytest.raises(ValueError, match=r"n=10.*max_len=8"):
            dyn.bind([ctx])
        dyn.bind([ContextState.build(Tensor(rng.normal(size=(2, 8, 4))))])

    def test_model_forward_rejects_series_longer_than_max_len(self, rng):
        model = DiffODE(DiffODEConfig(input_dim=2, latent_dim=4,
                                      hidden_dim=8, hippo_dim=4, info_dim=4,
                                      step_size=0.5, num_classes=2,
                                      max_len=8))
        times = np.sort(rng.random((2, 10)), axis=1)
        with pytest.raises(ValueError, match=r"n=10.*max_len=8"):
            model.forward_classification(rng.normal(size=(2, 10, 2)),
                                         times, np.ones((2, 10)))

    def test_ada_h_projector_is_built_at_bind(self, rng):
        z = Tensor(rng.normal(size=(2, 10, 4)))
        ctx = ContextState.build(z)
        assert ctx._a_null is None          # no solver has needed it yet
        DHSDynamics(4, 8, rng, p_solver="max_hoyer").bind([ctx])
        assert ctx._a_null is None
        DHSDynamics(4, 8, rng, p_solver="ada_h").bind([ctx])
        assert ctx._a_null is not None and ctx._a_null.static

    def test_multi_head_shape(self, rng):
        dyn = self._make(rng, d=4, heads=2)
        out = dyn(0.1, Tensor(rng.normal(size=(2, 4))))
        assert out.shape == (2, 4)

    def test_unknown_solver_rejected(self, rng):
        with pytest.raises(ValueError):
            DHSDynamics(4, 8, rng, p_solver="bogus")

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(ValueError):
            DHSDynamics(5, 8, rng, num_heads=2)

    @pytest.mark.parametrize("solver", ["max_hoyer", "min_norm", "ada_h"])
    def test_all_solvers_produce_gradients(self, rng, solver):
        dyn = self._make(rng, solver=solver)
        s = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        (dyn(0.2, s) ** 2).sum().backward()
        assert s.grad is not None
        assert dyn.phi.fc0.weight.grad is not None

    def test_dynamics_consistent_with_forward_attention(self, rng):
        """At a state generated by forward attention, dS/dt computed by the
        backward route (p from S) must equal the chain-rule value with the
        true p (they solve the same linear system)."""
        n, d = 10, 3
        z_all = Tensor(rng.normal(size=(1, n, d)))
        ctx = ContextState.build(z_all, None, ridge=0.0)
        dyn = DHSDynamics(d, 8, rng, p_solver="min_norm", max_len=64)
        dyn.bind([ctx])
        q = Tensor(rng.normal(size=(1, d)))
        s, p_true = dhs_attention(q, ctx.z, None)
        out = dyn(0.0, s)
        assert np.all(np.isfinite(out.data))


class TestAugmentedDynamics:
    def test_state_splitting(self, rng):
        latent = PlainLatentDynamics(4, 8, rng)
        aug = AugmentedDynamics(latent, 4, 6, 5, 8, rng)
        state = Tensor(rng.normal(size=(2, 15)))
        s, c, r = aug.split(state)
        assert s.shape == (2, 4) and c.shape == (2, 6) and r.shape == (2, 5)

    def test_forward_shape(self, rng):
        latent = PlainLatentDynamics(4, 8, rng)
        aug = AugmentedDynamics(latent, 4, 6, 5, 8, rng)
        out = aug(0.5, Tensor(rng.normal(size=(2, 15))))
        assert out.shape == (2, 15)

    def test_hippo_block_is_linear_in_c(self, rng):
        """dc/dt = A c + B u: with r (hence u) fixed, doubling c doubles
        the c-part of the derivative minus the input drive."""
        latent = PlainLatentDynamics(2, 4, rng)
        aug = AugmentedDynamics(latent, 2, 4, 3, 4, rng)
        base = rng.normal(size=(1, 9))
        state1 = base.copy()
        state2 = base.copy()
        state2[:, 2:6] *= 2.0
        d1 = aug(0.0, Tensor(state1)).data[:, 2:6]
        d2 = aug(0.0, Tensor(state2)).data[:, 2:6]
        # subtract the input drive (c = 0 case)
        state0 = base.copy()
        state0[:, 2:6] = 0.0
        d0 = aug(0.0, Tensor(state0)).data[:, 2:6]
        np.testing.assert_allclose(d2 - d0, 2.0 * (d1 - d0), atol=1e-9)

    def test_gradients_flow_through_all_parts(self, rng):
        latent = PlainLatentDynamics(3, 6, rng)
        aug = AugmentedDynamics(latent, 3, 4, 4, 6, rng)
        state = Tensor(rng.normal(size=(2, 11)), requires_grad=True)
        (aug(0.1, state) ** 2).sum().backward()
        assert state.grad is not None
        assert aug.w_r.weight.grad is not None
        assert aug.f_r.fc0.weight.grad is not None
