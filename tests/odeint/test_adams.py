"""Implicit Adams (ABM predictor-corrector) specifics."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.odeint import SolverOptions, AdamsBashforthMoulton, solve


class TestABM:
    def test_bootstrap_uses_rk4(self):
        solver = AdamsBashforthMoulton(lambda t, y: -y)
        y = Tensor(np.array([[1.0]]))
        for i in range(3):
            y = solver.step(i * 0.1, 0.1, y)
        # after 3 steps history is full; next step uses the ABM formula
        assert len(solver._history) == 3
        solver.step(0.3, 0.1, y)
        assert len(solver._history) == 4

    def test_reset_clears_history(self):
        solver = AdamsBashforthMoulton(lambda t, y: -y)
        solver.step(0.0, 0.1, Tensor(np.array([[1.0]])))
        solver.reset()
        assert solver._history == []

    def test_fourth_order_accuracy(self):
        def err(h):
            sol = solve(lambda t, y: -y, Tensor(np.array([[1.0]])),
                        [0.0, 1.0], method="implicit_adams",
                        options=SolverOptions(step_size=h)).ys
            return abs(sol.data[-1, 0, 0] - np.exp(-1.0))

        # halving the step should cut the error by ~2^4
        ratio = err(1 / 16) / err(1 / 32)
        assert ratio > 8.0, ratio

    def test_history_reset_on_nonuniform_output_grid(self):
        # Intervals of different lengths force a dt change mid-integration;
        # the result must still be accurate.
        t = np.array([0.0, 0.3, 0.35, 0.9, 1.0])
        sol = solve(lambda t_, y: -y, Tensor(np.array([[1.0]])), t,
                    method="implicit_adams",
                    options=SolverOptions(step_size=0.05)).ys
        np.testing.assert_allclose(sol.data[:, 0, 0], np.exp(-t), atol=1e-5)

    def test_differentiable_through_corrector(self):
        y0 = Tensor(np.array([[1.2]]), requires_grad=True)
        sol = solve(lambda t, y: -y, y0, [0.0, 1.0],
                    method="implicit_adams",
                    options=SolverOptions(step_size=0.05)).ys
        sol[-1].sum().backward()
        np.testing.assert_allclose(y0.grad, [[np.exp(-1.0)]], atol=1e-4)
