"""solve() interface edge cases and stress tests."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.odeint import SolverOptions, METHODS, solve


class TestInterface:
    def test_methods_constant_lists_all(self):
        assert set(METHODS) == {"euler", "midpoint", "rk4",
                                "implicit_adams", "dopri5"}

    def test_irregular_output_grid(self):
        t = np.array([0.0, 0.03, 0.5, 0.52, 1.7])
        sol = solve(lambda _, y: -y, Tensor(np.ones((1, 1))), t,
                    method="rk4", options=SolverOptions(step_size=0.01)).ys
        np.testing.assert_allclose(sol.data[:, 0, 0], np.exp(-t),
                                   atol=1e-8)

    def test_decreasing_grid(self):
        t = np.array([1.0, 0.5, 0.0])
        sol = solve(lambda _, y: -y, Tensor(np.array([[np.exp(-1.0)]])),
                    t, method="rk4", options=SolverOptions(step_size=0.02)).ys
        np.testing.assert_allclose(sol.data[-1, 0, 0], 1.0, atol=1e-7)

    def test_default_one_step_per_interval(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        solve(f, Tensor(np.ones((1, 1))), [0.0, 0.5, 1.0], method="euler")
        assert len(calls) == 2  # one Euler eval per interval

    def test_large_state_no_grad(self):
        with no_grad():
            sol = solve(lambda _, y: -y, Tensor(np.ones((64, 128))),
                        np.linspace(0, 1, 5), method="rk4",
                        options=SolverOptions(step_size=0.05)).ys
        assert sol.shape == (5, 64, 128)
        assert not sol.requires_grad

    def test_stiff_linear_system_adams_stable(self):
        a = np.diag([-1.0, -5.0, -20.0])
        sol = solve(lambda _, y: y @ Tensor(a.T), Tensor(np.ones((1, 3))),
                    [0.0, 1.0], method="implicit_adams",
                    options=SolverOptions(step_size=0.01)).ys
        np.testing.assert_allclose(sol.data[-1, 0],
                                   np.exp(np.diag(a)), atol=1e-4)

    def test_nonautonomous_rhs(self):
        # y' = cos(t), y(0)=0 -> y = sin(t)
        def f(t, y):
            return Tensor(np.full_like(y.data, np.cos(t)))

        t = np.linspace(0.0, np.pi, 7)
        sol = solve(f, Tensor(np.zeros((1, 1))), t, method="rk4",
                    options=SolverOptions(step_size=0.01)).ys
        np.testing.assert_allclose(sol.data[:, 0, 0], np.sin(t), atol=1e-6)

    def test_gradient_through_multi_output_times(self):
        y0 = Tensor(np.array([[1.0]]), requires_grad=True)
        sol = solve(lambda _, y: -y, y0, np.linspace(0, 1, 5),
                    method="rk4", options=SolverOptions(step_size=0.05)).ys
        sol.sum().backward()
        expected = sum(np.exp(-t) for t in np.linspace(0, 1, 5))
        np.testing.assert_allclose(y0.grad, [[expected]], atol=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    def test_first_output_is_initial_state(self, method):
        y0 = Tensor(np.array([[3.0, -2.0]]))
        opts = None if method == "dopri5" else SolverOptions(step_size=0.1)
        sol = solve(lambda _, y: -y, y0, [0.0, 1.0], method=method,
                    options=opts).ys
        np.testing.assert_array_equal(sol.data[0], y0.data)

    def test_step_size_rejected_for_dopri5(self):
        # step_size used to be silently repurposed as the first step.
        with pytest.raises(ValueError, match="adaptive"):
            solve(lambda _, y: -y, Tensor(np.ones((1, 1))), [0.0, 1.0],
                  method="dopri5", options=SolverOptions(step_size=0.1))
