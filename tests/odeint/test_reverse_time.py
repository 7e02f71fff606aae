"""Reverse-time dopri5 regression tests (dense output included).

Decreasing time grids integrate backwards; the dense-output interpolant
must honour the negative step direction (``theta = (t_q - t) / h`` with a
signed ``h``).  These tests lock the behaviour for accuracy, gradients and
input validation.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.odeint import SolverOptions, solve


class TestReverseAccuracy:
    def test_exponential_decay_reversed(self):
        # dy/dt = -y integrated from t=1 back to t=0: y(t) = y(1) e^{1-t}.
        t = np.linspace(1.0, 0.0, 7)
        sol = solve(lambda _, y: -y, Tensor(np.array([1.0])), t,
                    method="dopri5",
                    options=SolverOptions(rtol=1e-8, atol=1e-10)).ys
        expected = np.exp(1.0 - t)[:, None]
        np.testing.assert_allclose(sol.data, expected, rtol=1e-6)

    def test_non_autonomous_reversed(self):
        # dy/dt = cos(t): y(t) = y0 + sin(t) - sin(t0), any direction.
        t = np.linspace(2.0, -1.0, 9)
        rhs = lambda tau, y: Tensor(np.full_like(y.data, np.cos(tau)))
        sol = solve(rhs, Tensor(np.array([0.5])), t, method="dopri5",
                    options=SolverOptions(rtol=1e-8, atol=1e-10)).ys
        expected = (0.5 + np.sin(t) - np.sin(2.0))[:, None]
        np.testing.assert_allclose(sol.data, expected, atol=1e-6)

    def test_dense_output_points_reversed(self):
        # Coarse tolerances force long solver steps, so most outputs come
        # from the dense interpolant rather than step endpoints.
        t = np.linspace(1.0, 0.0, 33)
        sol = solve(lambda _, y: -y, Tensor(np.array([2.0])), t,
                    method="dopri5",
                    options=SolverOptions(rtol=1e-6, atol=1e-8))
        assert sol.stats.dense_evals > 0
        expected = 2.0 * np.exp(1.0 - t)[:, None]
        np.testing.assert_allclose(sol.ys.data, expected, rtol=1e-4)

    def test_forward_and_reverse_are_inverses(self):
        t_fwd = np.linspace(0.0, 1.0, 5)
        fwd = solve(lambda _, y: -y, Tensor(np.array([1.0, 3.0])), t_fwd,
                    method="dopri5",
                    options=SolverOptions(rtol=1e-9, atol=1e-11)).ys
        back = solve(lambda _, y: -y, Tensor(fwd.data[-1]), t_fwd[::-1],
                     method="dopri5",
                     options=SolverOptions(rtol=1e-9, atol=1e-11)).ys
        np.testing.assert_allclose(back.data[-1], np.array([1.0, 3.0]),
                                   rtol=1e-6)


class TestReverseGradients:
    def test_gradient_through_reversed_solve(self):
        # y(t) = y0 e^{-(t-1)} for t in [1, 0]; d sum(y)/d y0 = sum e^{1-t}.
        t = np.linspace(1.0, 0.0, 6)
        y0 = Tensor(np.array([1.0]), requires_grad=True)
        sol = solve(lambda _, y: -y, y0, t, method="dopri5",
                    options=SolverOptions(rtol=1e-9, atol=1e-11)).ys
        sol.sum().backward()
        expected = np.exp(1.0 - t).sum()
        np.testing.assert_allclose(y0.grad, [expected], rtol=1e-5)


class TestValidation:
    def test_rejects_interior_reversal(self):
        with pytest.raises(ValueError, match="monotonic"):
            solve(lambda _, y: -y, Tensor(np.array([1.0])),
                  np.array([0.0, 0.5, 0.3, 1.0]), method="dopri5")

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="two time points"):
            solve(lambda _, y: -y, Tensor(np.array([1.0])),
                  np.array([0.0]), method="dopri5")

    def test_rejects_final_reversal(self):
        with pytest.raises(ValueError, match="monotonic"):
            solve(lambda _, y: -y, Tensor(np.array([1.0])),
                  [0.0, 1.0, 0.5], method="dopri5")
