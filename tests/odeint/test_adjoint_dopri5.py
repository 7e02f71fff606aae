"""Gradient-equivalence battery for the dopri5 continuous adjoint.

Backprop through the adaptive solver differentiates the *discrete* solve
exactly; the continuous adjoint integrates the augmented system backward
and is only tolerance-bounded.  Every comparison here therefore asserts
agreement within a band derived from the solver tolerances, not bitwise
equality (that is the checkpointing suite's job —
tests/autodiff/test_checkpointing.py).
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, concat
from repro.core import ContextState, DHSDynamics
from repro.nn import Linear, MLP, Module
from repro.odeint import SolverOptions, solve
from repro.telemetry import MetricsRegistry, set_registry

RTOL = 1e-7
ATOL = 1e-9
# The adjoint re-integrates the sensitivity equations, so its error is a
# small multiple of the forward tolerance; 1e3 x rtol leaves headroom
# without masking a broken sweep (a sign error shows up as O(1)).
BAND = dict(rtol=1e3 * RTOL, atol=1e3 * ATOL)


class SmallField(Module):
    def __init__(self, rng, dim=4):
        super().__init__()
        self.lin = Linear(dim, dim, rng)

    def forward(self, t, y):
        return self.lin(y).tanh() * 0.8


class LatentField(Module):
    """Latent-ODE-style dynamics: MLP over [z, t] (the baselines bind this
    shape as a method; the adjoint needs a Module to find parameters)."""

    def __init__(self, rng, dim=3):
        super().__init__()
        self.f = MLP(dim + 1, [8], dim, rng)

    def forward(self, t, y):
        t_col = Tensor(np.full((y.shape[0], 1), float(t)))
        return self.f(concat([y, t_col], axis=-1))


def _grads(func, y0_data, times, *, adjoint):
    """Loss gradients (y0, params) via backprop or the continuous adjoint."""
    func.zero_grad()
    y0 = Tensor(np.array(y0_data, copy=True), requires_grad=True)
    opts = SolverOptions(rtol=RTOL, atol=ATOL, adjoint=adjoint)
    sol = solve(func, y0, times, method="dopri5", options=opts)
    (sol.ys ** 2).mean().backward()
    gy = y0.grad.copy()
    # Unused parameters keep grad None on the backprop path; the adjoint
    # reports an explicit zero for them — normalize for comparison.
    gp = [(p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
          for p in func.parameters()]
    func.zero_grad()
    return sol.ys.data.copy(), gy, gp


class TestGradientEquivalence:
    @pytest.mark.parametrize("field_cls,dim", [(SmallField, 4),
                                               (LatentField, 3)])
    def test_matches_backprop_within_band(self, rng, field_cls, dim):
        func = field_cls(rng, dim=dim)
        y0 = rng.normal(size=(3, dim))
        times = np.linspace(0.0, 1.5, 6)
        out_bp, gy_bp, gp_bp = _grads(func, y0, times, adjoint=False)
        out_adj, gy_adj, gp_adj = _grads(func, y0, times, adjoint=True)
        # Same forward core -> identical trajectories.
        np.testing.assert_array_equal(out_bp, out_adj)
        np.testing.assert_allclose(gy_adj, gy_bp, **BAND)
        for a, b in zip(gp_adj, gp_bp):
            np.testing.assert_allclose(a, b, **BAND)

    def test_reverse_time_grid(self, rng):
        func = SmallField(rng)
        y0 = rng.normal(size=(2, 4))
        times = np.array([1.0, 0.6, 0.2, 0.0])
        _, gy_bp, gp_bp = _grads(func, y0, times, adjoint=False)
        _, gy_adj, gp_adj = _grads(func, y0, times, adjoint=True)
        np.testing.assert_allclose(gy_adj, gy_bp, **BAND)
        for a, b in zip(gp_adj, gp_bp):
            np.testing.assert_allclose(a, b, **BAND)

    def test_degenerate_tiny_span(self, rng):
        """A near-zero interval must not blow up the backward sweep."""
        func = SmallField(rng)
        y0 = rng.normal(size=(1, 4))
        _, gy, gp = _grads(func, y0, np.array([0.0, 1e-6]), adjoint=True)
        assert np.all(np.isfinite(gy))
        assert all(np.all(np.isfinite(g)) for g in gp)
        # Over dt -> 0 the loss is ~mean(y0**2): d/dy0 ~ 2 y0 / N.
        np.testing.assert_allclose(gy, 2 * y0 / y0.size, atol=1e-4)

    def test_dhs_dynamics(self, rng):
        d, n = 4, 6
        dyn = DHSDynamics(d, 8, rng, num_heads=1, max_len=32)
        # Contexts enter the solve as constants — the adjoint accumulates
        # dynamics-path gradients into dyn.parameters() only (see
        # DiffODE.integrate's detach under config.adjoint).
        z = Tensor(rng.normal(size=(2, n, d)))
        y0 = rng.normal(size=(2, d))
        times = np.linspace(0.0, 1.0, 4)

        dyn.bind([ContextState.build(z, None, ridge=0.0)])
        _, gy_bp, gp_bp = _grads(dyn, y0, times, adjoint=False)
        dyn.bind([ContextState.build(z, None, ridge=0.0)])
        _, gy_adj, gp_adj = _grads(dyn, y0, times, adjoint=True)
        np.testing.assert_allclose(gy_adj, gy_bp, **BAND)
        for a, b in zip(gp_adj, gp_bp):
            np.testing.assert_allclose(a, b, **BAND)


class TestPublishOnce:
    """The Solution from solve(adjoint=True) must publish stats exactly once;
    the backward sweep only adds backward_nfev / solver.nfev increments."""

    @pytest.fixture
    def registry(self):
        reg = MetricsRegistry(enabled=True)
        old = set_registry(reg)
        yield reg
        set_registry(old)

    def test_forward_publishes_once(self, rng, registry):
        func = SmallField(rng)
        y0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        sol = solve(func, y0, [0.0, 1.0], method="dopri5",
                    options=SolverOptions(rtol=RTOL, atol=ATOL, adjoint=True))
        assert registry.counter("solver.adjoint[dopri5].solves").value == 1
        nfev_forward = registry.counter("solver.nfev").value
        assert nfev_forward == sol.stats.nfev
        assert registry.gauge("solver.adjoint.dense_bytes").value > 0

        (sol.ys ** 2).mean().backward()
        # Still one publish; backward contributes only the nfev counters.
        assert registry.counter("solver.adjoint[dopri5].solves").value == 1
        back = registry.counter("solver.adjoint[dopri5].backward_nfev").value
        assert back > 0
        assert (registry.counter("solver.nfev").value
                == nfev_forward + back)
