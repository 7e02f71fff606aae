"""Accuracy and convergence-order tests for the ODE solvers."""

import numpy as np
import pytest

from repro.autodiff import Tensor, concat
from repro.odeint import SolverOptions, solve


def exp_decay(t, y):
    return -y


def harmonic(t, y):
    # y = [x, v]; x'' = -x
    x, v = y[:, :1], y[:, 1:]
    return concat([v, -x], axis=-1)


def _options(method, step_size):
    """dopri5 is adaptive and rejects step_size; fixed methods need it."""
    if method == "dopri5":
        return None
    return SolverOptions(step_size=step_size)


class TestAccuracy:
    @pytest.mark.parametrize("method,tol", [
        ("euler", 0.05), ("midpoint", 2e-3), ("rk4", 1e-7),
        ("implicit_adams", 1e-5), ("dopri5", 1e-4),
    ])
    def test_exponential_decay(self, method, tol):
        t = np.linspace(0.0, 2.0, 11)
        sol = solve(exp_decay, Tensor(np.ones((1, 2))), t, method=method,
                    options=_options(method, 0.05)).ys
        err = np.abs(sol.data[:, 0, 0] - np.exp(-t)).max()
        assert err < tol, f"{method}: {err}"

    @pytest.mark.parametrize("method,tol", [
        ("rk4", 1e-6), ("implicit_adams", 1e-4), ("dopri5", 1e-3),
    ])
    def test_harmonic_oscillator(self, method, tol):
        t = np.linspace(0.0, 2 * np.pi, 9)
        y0 = Tensor(np.array([[1.0, 0.0]]))
        sol = solve(harmonic, y0, t, method=method,
                    options=_options(method, 0.02)).ys
        np.testing.assert_allclose(sol.data[-1], [[1.0, 0.0]], atol=tol)

    def test_energy_conservation_rk4(self):
        t = np.linspace(0.0, 10.0, 21)
        sol = solve(harmonic, Tensor(np.array([[1.0, 0.0]])), t,
                    method="rk4", options=SolverOptions(step_size=0.01)).ys
        energy = (sol.data ** 2).sum(axis=-1).reshape(-1)
        np.testing.assert_allclose(energy, energy[0], rtol=1e-8)

    def test_backward_time_integration(self):
        t = np.linspace(2.0, 0.0, 9)
        y0 = Tensor(np.array([[np.exp(-2.0)]]))
        sol = solve(exp_decay, y0, t, method="rk4",
                    options=SolverOptions(step_size=0.05)).ys
        np.testing.assert_allclose(sol.data[-1, 0, 0], 1.0, atol=1e-7)


class TestConvergenceOrder:
    def _error(self, method, n_steps):
        t = [0.0, 1.0]
        sol = solve(exp_decay, Tensor(np.array([[1.0]])), t, method=method,
                    options=SolverOptions(step_size=1.0 / n_steps)).ys
        return abs(sol.data[-1, 0, 0] - np.exp(-1.0))

    @pytest.mark.parametrize("method,order", [
        ("euler", 1), ("midpoint", 2), ("rk4", 4),
    ])
    def test_observed_order(self, method, order):
        e1 = self._error(method, 8)
        e2 = self._error(method, 16)
        observed = np.log2(e1 / e2)
        assert observed > order - 0.4, (method, observed)


class TestDifferentiability:
    @pytest.mark.parametrize("method,atol", [
        ("euler", 5e-3), ("midpoint", 1e-4), ("rk4", 1e-6),
        ("implicit_adams", 1e-4), ("dopri5", 1e-4),
    ])
    def test_grad_matches_analytic(self, method, atol):
        # y(t) = y0 e^{-t}; d y(1)/d y0 = e^{-1}
        y0 = Tensor(np.array([[2.0]]), requires_grad=True)
        sol = solve(exp_decay, y0, [0.0, 1.0], method=method,
                    options=_options(method, 0.02)).ys
        sol[-1].sum().backward()
        np.testing.assert_allclose(y0.grad, [[np.exp(-1.0)]], atol=atol)

    def test_parameter_gradient(self, rng):
        # dy/dt = -a*y; d y(1)/d a = -y0 e^{-a}
        a = Tensor(np.array([0.7]), requires_grad=True)
        sol = solve(lambda t, y: -(a * y), Tensor(np.array([[1.5]])),
                    [0.0, 1.0], method="rk4",
                    options=SolverOptions(step_size=0.02)).ys
        sol[-1].sum().backward()
        np.testing.assert_allclose(a.grad, [-1.5 * np.exp(-0.7)], atol=1e-6)


class TestValidation:
    def test_rejects_single_time(self):
        with pytest.raises(ValueError, match="solve needs at least two"):
            solve(exp_decay, Tensor(np.ones((1, 1))), [0.0])

    def test_rejects_non_monotonic(self):
        with pytest.raises(ValueError):
            solve(exp_decay, Tensor(np.ones((1, 1))), [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("grid", [[0.0, np.inf], [-np.inf, 0.0],
                                      [0.0, np.nan]])
    @pytest.mark.parametrize("method", ["euler", "rk4", "dopri5"])
    def test_rejects_non_finite(self, grid, method):
        # Unchecked, dopri5 returned y after one step as y(inf), euler
        # returned -inf, rk4 overflowed and [-inf, 0] ran to max_steps.
        with pytest.raises(ValueError, match="time points must be finite"):
            solve(exp_decay, Tensor(np.ones((1, 1))), grid, method=method)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            solve(exp_decay, Tensor(np.ones((1, 1))), [0.0, 1.0],
                  method="magic")

    def test_output_stacks_all_times(self):
        t = np.linspace(0, 1, 7)
        sol = solve(exp_decay, Tensor(np.ones((3, 2))), t, method="euler",
                    options=SolverOptions(step_size=0.1)).ys
        assert sol.shape == (7, 3, 2)
        np.testing.assert_allclose(sol.data[0], np.ones((3, 2)))
