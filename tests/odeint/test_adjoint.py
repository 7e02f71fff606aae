"""Continuous adjoint vs backprop-through-the-solver."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Linear, Module
from repro.odeint import SolverOptions, solve


class SmallField(Module):
    def __init__(self, rng, dim=3):
        super().__init__()
        self.lin = Linear(dim, dim, rng)

    def forward(self, t, y):
        return self.lin(y).tanh()


class TestAdjoint:
    def _both_grads(self, rng, times, method="rk4", step_size=0.05):
        fmod = SmallField(rng)
        y0_data = rng.normal(size=(2, 3))

        y0a = Tensor(y0_data.copy(), requires_grad=True)
        out_a = solve(fmod, y0a, times, method=method,
                      options=SolverOptions(step_size=step_size)).ys
        (out_a ** 2).mean().backward()
        grads_bp = ([p.grad.copy() for p in fmod.parameters()],
                    y0a.grad.copy())
        fmod.zero_grad()

        y0b = Tensor(y0_data.copy(), requires_grad=True)
        out_b = solve(fmod, y0b, times, method=method,
                      options=SolverOptions(step_size=step_size,
                                            adjoint=True)).ys
        (out_b ** 2).mean().backward()
        grads_adj = ([p.grad.copy() for p in fmod.parameters()],
                     y0b.grad.copy())
        return out_a, out_b, grads_bp, grads_adj

    @pytest.mark.parametrize("method",
                             ["euler", "midpoint", "rk4", "implicit_adams"])
    def test_forward_values_match(self, rng, method):
        """The adjoint's tape-free forward runs solve()'s own grid loop.

        A step size that divides none of the output intervals gives 5, 3
        and 8 sub-steps of three different lengths, so implicit Adams
        also drops its history twice along the way.
        """
        out_a, out_b, *_ = self._both_grads(
            rng, [0.0, 0.3, 0.45, 1.0], method=method, step_size=0.07)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_y0_gradient_matches(self, rng):
        *_, bp, adj = self._both_grads(rng, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(bp[1], adj[1], atol=1e-5)

    def test_parameter_gradients_match(self, rng):
        *_, bp, adj = self._both_grads(rng, [0.0, 1.0])
        for g1, g2 in zip(bp[0], adj[0]):
            np.testing.assert_allclose(g1, g2, atol=1e-5)

    def test_multiple_output_times_accumulate(self, rng):
        *_, bp, adj = self._both_grads(rng, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(bp[1], adj[1], atol=1e-5)

    def test_rejects_unknown_methods(self, rng):
        fmod = SmallField(rng)
        with pytest.raises(ValueError):
            solve(fmod, Tensor(np.ones((1, 3))), [0.0, 1.0],
                  method="leapfrog", options=SolverOptions(adjoint=True))

    def test_legacy_kwargs_raise(self, rng):
        fmod = SmallField(rng)
        with pytest.raises(TypeError, match="step_size"):
            solve(fmod, Tensor(np.ones((1, 3))), [0.0, 1.0],
                  method="rk4", step_size=0.1,
                  options=SolverOptions(adjoint=True))

    def test_rejects_func_without_parameters(self, rng):
        with pytest.raises(TypeError, match="parameters"):
            solve(lambda t, y: y * -0.5, Tensor(np.ones((1, 3))),
                  [0.0, 1.0], method="rk4",
                  options=SolverOptions(adjoint=True))

    def test_implicit_adams_gradients_match(self, rng):
        """The paper's solver works under the adjoint (RK4 backward)."""
        fmod = SmallField(rng)
        y0_data = rng.normal(size=(2, 3))
        times = np.linspace(0.0, 1.0, 9)
        opts = SolverOptions(step_size=0.05)

        y0a = Tensor(y0_data.copy(), requires_grad=True)
        out_a = solve(fmod, y0a, times, method="implicit_adams",
                      options=opts).ys
        (out_a ** 2).mean().backward()
        bp = ([p.grad.copy() for p in fmod.parameters()], y0a.grad.copy())
        fmod.zero_grad()

        y0b = Tensor(y0_data.copy(), requires_grad=True)
        sol_b = solve(fmod, y0b, times, method="implicit_adams",
                      options=SolverOptions(step_size=0.05, adjoint=True))
        out_b, stats = sol_b.ys, sol_b.stats
        (out_b ** 2).mean().backward()

        assert stats.method == "adjoint[implicit_adams]"
        # Same ABM forward stepper under no_grad: values are bit-identical.
        np.testing.assert_array_equal(out_a.data, out_b.data)
        np.testing.assert_allclose(bp[1], y0b.grad, atol=1e-5)
        for g1, p in zip(bp[0], fmod.parameters()):
            np.testing.assert_allclose(g1, p.grad, atol=1e-5)

    def test_no_grad_needed_y0(self, rng):
        """Adjoint with constant y0 still trains parameters."""
        fmod = SmallField(rng)
        out = solve(fmod, Tensor(np.ones((1, 3))), [0.0, 1.0], method="rk4",
                    options=SolverOptions(step_size=0.1, adjoint=True)).ys
        (out ** 2).mean().backward()
        assert all(p.grad is not None for p in fmod.parameters())
