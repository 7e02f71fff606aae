"""Additional adjoint coverage: time-dependent fields and longer spans."""

import numpy as np
import pytest

from repro.autodiff import Tensor, concat
from repro.nn import Linear, Module
from repro.odeint import SolverOptions, solve


class TimeField(Module):
    """Nonautonomous field: f(t, y) = tanh(W [y, t])."""

    def __init__(self, rng, dim=2):
        super().__init__()
        self.lin = Linear(dim + 1, dim, rng)

    def forward(self, t, y):
        t_col = Tensor(np.full((y.shape[0], 1), float(t)))
        return self.lin(concat([y, t_col], axis=-1)).tanh()


class TestAdjointTimeDependent:
    def _grads(self, use_adjoint, rng_seed=3):
        rng = np.random.default_rng(rng_seed)
        field = TimeField(rng)
        y0 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = solve(field, y0, [0.0, 0.4, 1.1], method="rk4",
                    options=SolverOptions(step_size=0.05,
                                          adjoint=use_adjoint)).ys
        ((out - 0.3) ** 2).mean().backward()
        return (y0.grad.copy(),
                [p.grad.copy() for p in field.parameters()],
                out.data.copy())

    def test_nonautonomous_gradients_match(self):
        gy_a, gp_a, out_a = self._grads(False)
        gy_b, gp_b, out_b = self._grads(True)
        np.testing.assert_allclose(out_a, out_b, atol=1e-10)
        np.testing.assert_allclose(gy_a, gy_b, atol=1e-5)
        for a, b in zip(gp_a, gp_b):
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_long_horizon_stable(self):
        rng = np.random.default_rng(0)
        field = TimeField(rng)
        y0 = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        out = solve(field, y0, np.linspace(0, 5, 6), method="rk4",
                    options=SolverOptions(step_size=0.1, adjoint=True)).ys
        (out ** 2).mean().backward()
        assert np.all(np.isfinite(y0.grad))

    def test_euler_adjoint_close_to_rk4(self):
        """Coarser forward solver -> same-order adjoint agreement."""
        rng = np.random.default_rng(1)
        field = TimeField(rng)
        y0 = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        out = solve(field, y0, [0.0, 1.0], method="euler",
                    options=SolverOptions(step_size=0.01, adjoint=True)).ys
        (out ** 2).mean().backward()
        g_euler = y0.grad.copy()

        field.zero_grad()
        y0b = Tensor(y0.data.copy(), requires_grad=True)
        out2 = solve(field, y0b, [0.0, 1.0], method="rk4",
                     options=SolverOptions(step_size=0.01, adjoint=True)).ys
        (out2 ** 2).mean().backward()
        # first-order forward error carries into the adjoint: O(h) ~ 1e-2
        np.testing.assert_allclose(g_euler, y0b.grad, atol=2e-2)
