"""SolverOptions consolidation: validation, legacy-kwarg removal, routing."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Module, Parameter
from repro.odeint import SolverOptions, solve


def decay(t, y):
    return y * Tensor(np.array(-0.7))


Y0 = Tensor(np.array([1.0, 2.0]))
T = np.linspace(0.0, 1.0, 6)


class TestSolverOptionsObject:
    def test_defaults(self):
        opts = SolverOptions()
        assert [f.name for f in dataclasses.fields(opts)] == [
            "step_size", "rtol", "atol", "max_steps", "adjoint",
            "resumable"]
        assert opts.step_size is None
        assert opts.rtol == 1e-5 and opts.atol == 1e-7
        assert opts.max_steps == 10_000
        assert opts.adjoint is False
        assert opts.resumable is False

    def test_frozen(self):
        with pytest.raises(Exception):
            SolverOptions().rtol = 1.0

    @pytest.mark.parametrize("kwargs", [
        {"step_size": 0.0}, {"step_size": -1.0}, {"rtol": 0.0},
        {"atol": -1e-9}, {"rtol": -1e-6}, {"atol": 0.0},
        {"max_steps": 0},
    ])
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    def test_step_size_rejected_for_dopri5(self):
        with pytest.raises(ValueError, match="'step_size' only applies"):
            solve(decay, Y0, T, method="dopri5",
                  options=SolverOptions(step_size=0.1))

    def test_adjoint_accepted_for_dopri5(self):
        # PR 8 lifted the old restriction: the continuous adjoint now
        # covers the adaptive method via dense-output segments.
        sol = solve(_Decay(), Tensor(np.ones((1, 1))), T, method="dopri5",
                    options=SolverOptions(adjoint=True))
        assert sol.stats.method == "adjoint[dopri5]"


class TestEquivalence:
    def test_stats_identical_across_entry_points(self):
        opts = SolverOptions(rtol=1e-6, atol=1e-8)
        sol = solve(decay, Y0, T, method="dopri5", options=opts)
        again = solve(decay, Y0, T, method="dopri5", options=opts)
        assert again.stats.nfev == sol.stats.nfev
        assert again.stats.steps == sol.stats.steps


class TestLegacyKwargRemoval:
    """solve() takes every tunable through SolverOptions only."""

    def test_legacy_step_size_raises(self):
        with pytest.raises(TypeError, match="step_size"):
            solve(decay, Y0, T, method="rk4", step_size=0.05)

    def test_legacy_tolerances_raise(self):
        with pytest.raises(TypeError, match="rtol"):
            solve(decay, Y0, T, method="dopri5", rtol=1e-6, atol=1e-8)

    def test_options_style_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solve(decay, Y0, T, method="rk4",
                  options=SolverOptions(step_size=0.1))

    def test_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solve(decay, Y0, T, method="rk4")

    def test_return_stats_raises(self):
        # Stats travel on Solution.stats; there is no return_stats flag.
        with pytest.raises(TypeError, match="return_stats"):
            solve(decay, Y0, T, method="rk4", return_stats=True)

    def test_options_must_be_solver_options(self):
        with pytest.raises(TypeError, match="SolverOptions"):
            solve(decay, Y0, T, method="rk4", options={"step_size": 0.1})


class _Decay(Module):
    def __init__(self):
        super().__init__()
        self.a = Parameter(np.array([0.7]))

    def forward(self, t, y):
        return y * (-self.a)


class TestAdjointRouting:
    def test_adjoint_accepts_options(self):
        func = _Decay()
        y0 = Tensor(np.array([[1.0]]), requires_grad=True)
        sol = solve(func, y0, [0.0, 1.0], method="rk4",
                    options=SolverOptions(step_size=0.05, adjoint=True))
        sol.ys.sum().backward()
        assert y0.grad is not None
        assert sol.stats.method == "adjoint[rk4]"

    def test_adjoint_legacy_step_size_raises(self):
        func = _Decay()
        y0 = Tensor(np.array([[1.0]]))
        with pytest.raises(TypeError, match="step_size"):
            solve(func, y0, [0.0, 1.0], method="rk4", step_size=0.05,
                  options=SolverOptions(adjoint=True))
