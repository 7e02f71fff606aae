"""The unified solve() facade: Solution fields, dispatch, executors and
the union path's per-bucket dense readout."""

import inspect

import numpy as np
import pytest

import repro.odeint
from repro.autodiff import Tensor, get_executor, no_grad, set_executor
from repro.odeint import (
    METHODS,
    Solution,
    SolverOptions,
    SolverStats,
    solve,
)
from repro.parallel import padded_shard_solve, union_solve
from repro.parallel.union import dopri5_dense_solve


def _decay(rate=1.3):
    neg = Tensor(np.full((2, 1), -rate))

    def rhs(t, y):
        return y * neg

    return rhs, rate


class TestSolutionFields:
    def test_solution_contents(self):
        rhs, rate = _decay()
        times = np.linspace(0.0, 1.0, 6)
        sol = solve(rhs, Tensor(np.ones((2, 1))), times, method="dopri5")
        assert isinstance(sol, Solution)
        assert isinstance(sol.ys, Tensor)
        assert isinstance(sol.stats, SolverStats)
        assert sol.ys.shape == (6, 2, 1)
        np.testing.assert_array_equal(sol.times, times)
        assert sol.resume_state is None  # not requested

    def test_stats_are_populated(self):
        rhs, _ = _decay()
        sol = solve(rhs, Tensor(np.ones((2, 1))), np.linspace(0, 1, 4),
                    method="dopri5")
        assert sol.stats.nfev > 0
        assert sol.stats.steps > 0
        assert sol.stats.method == "dopri5"

    def test_fixed_method_solution(self):
        rhs, rate = _decay()
        sol = solve(rhs, Tensor(np.ones((2, 1))), np.linspace(0, 1, 11),
                    method="rk4", options=SolverOptions(step_size=0.1))
        exact = np.exp(-rate)
        assert abs(float(sol.ys.data[-1, 0, 0]) - exact) < 1e-6

    def test_accuracy_matches_exact_solution(self):
        rhs, rate = _decay()
        times = np.linspace(0.0, 1.0, 9)
        sol = solve(rhs, Tensor(np.ones((2, 1))), times, method="dopri5")
        exact = np.exp(-rate * times)
        err = np.abs(sol.ys.data[:, 0, 0] - exact).max()
        assert err < 1e-4


class TestDispatch:
    def test_default_method_is_dopri5(self):
        rhs, _ = _decay()
        sol = solve(rhs, Tensor(np.ones((2, 1))), np.linspace(0, 1, 4))
        assert sol.stats.method == "dopri5"

    def test_every_method_accepted(self):
        rhs, _ = _decay()
        times = np.linspace(0.0, 0.5, 6)
        for method in METHODS:
            opts = (None if method == "dopri5"
                    else SolverOptions(step_size=0.05))
            sol = solve(rhs, Tensor(np.ones((2, 1))), times, method=method,
                        options=opts)
            assert sol.ys.shape[0] == 6, method

    def test_solve_is_the_only_integrator(self):
        exported = {name for name in repro.odeint.__all__
                    if inspect.isfunction(getattr(repro.odeint, name))}
        steppers = {"euler_step", "midpoint_step", "rk4_step"}
        helpers = {"validate_times", "initial_step_size"}
        assert exported - steppers - helpers == {"solve", "odeint_event"}

    def test_unknown_method_raises(self):
        rhs, _ = _decay()
        with pytest.raises(ValueError, match="unknown method"):
            solve(rhs, Tensor(np.ones((2, 1))), [0.0, 1.0], method="rk99")

    def test_options_type_checked(self):
        rhs, _ = _decay()
        with pytest.raises(TypeError, match="SolverOptions"):
            solve(rhs, Tensor(np.ones((2, 1))), [0.0, 1.0],
                  options={"rtol": 1e-6})

    def test_adjoint_routing(self):
        from repro.nn import Linear, Module

        class Field(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(1, 1, np.random.default_rng(0))

            def forward(self, t, y):
                return self.lin(y).tanh()

        rhs = Field()
        times = np.linspace(0.0, 1.0, 5)
        sol = solve(rhs, Tensor(np.ones((2, 1))), times, method="rk4",
                    options=SolverOptions(step_size=0.1, adjoint=True))
        ref = solve(rhs, Tensor(np.ones((2, 1))), times, method="rk4",
                    options=SolverOptions(step_size=0.1))
        np.testing.assert_array_equal(sol.ys.data, ref.ys.data)
        assert sol.stats.method == "adjoint[rk4]"
        assert ref.stats.method == "rk4"


class TestExecutors:
    @pytest.mark.parametrize("mode", ["eager", "replay"])
    def test_solve_equivalent_under_executor(self, mode):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3)) * 0.4
        wt = Tensor(w)

        def rhs(t, y):
            return y @ wt

        times = np.linspace(0.0, 1.0, 6)
        prev = get_executor()
        try:
            set_executor("eager")
            with no_grad():
                ref = solve(rhs, Tensor(np.ones((2, 3))), times).ys.data
            set_executor(mode)
            with no_grad():
                out = solve(rhs, Tensor(np.ones((2, 3))), times).ys.data
        finally:
            set_executor(prev)
        np.testing.assert_array_equal(out, ref)


class TestDenseSolveVsGridSolve:
    def test_shared_grid_matches_solve(self):
        """When every sample's grid is the union grid, the dense-readout
        path must reproduce solve() exactly (same steps, same interpolant
        evaluations)."""
        rng = np.random.default_rng(1)
        n, dim = 4, 3
        rates = rng.uniform(0.3, 2.0, size=(n, dim))
        neg = Tensor(-rates)

        def rhs(t, y):
            return y * neg

        times = np.concatenate([[0.0], np.sort(rng.random(7)), [1.0]])
        y0 = Tensor(rng.normal(size=(n, dim)))
        with no_grad():
            grid = solve(rhs, y0, times, method="dopri5")
            per_sample, dense_stats = dopri5_dense_solve(
                rhs, y0, [times] * n, t0=0.0)
        assert dense_stats.nfev == grid.stats.nfev
        for i, out in enumerate(per_sample):
            np.testing.assert_array_equal(out.data, grid.ys.data[:, i])

    def test_mismatched_grid_count_raises(self):
        """Both union drivers need exactly one grid per batch row: too few
        would drop the trailing rows, too many would index past them."""
        rhs, _ = _decay()
        grid = np.array([0.0, 1.0])
        for driver in (union_solve, padded_shard_solve):
            for grids in ([grid], [grid] * 3):
                with pytest.raises(ValueError, match="sample grids"):
                    driver(lambda idx: rhs, Tensor(np.ones((2, 1))), grids)

    def test_sample_time_before_t0_raises(self):
        rhs, _ = _decay()
        with pytest.raises(ValueError, match="precedes"):
            dopri5_dense_solve(rhs, Tensor(np.ones((2, 1))),
                               [np.array([0.0, 1.0]),
                                np.array([0.5, 1.0])], t0=0.2)
