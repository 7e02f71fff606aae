"""Fixed-grid sub-step rule: a grid spaced at ``step_size`` takes one step
per interval.

The spacing of ``np.linspace(0, 1, G)`` is a few ulps off ``1/(G - 1)``,
so a plain ``ceil(span / step_size)`` turns some intervals into two
half-steps and makes ``implicit_adams`` reset its history at every
spacing change.  The sub-step rule treats a span within 1e-9 relative of
``k * step_size`` as exactly ``k`` sub-steps.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, get_executor, set_executor
from repro.nn import Linear, Module
from repro.odeint import SolverOptions, solve

FIXED_METHODS = ["euler", "midpoint", "rk4", "implicit_adams"]
GRID_POINTS = [11, 21, 41, 101]


class _Field(Module):
    def __init__(self, seed=0):
        super().__init__()
        self.lin = Linear(3, 3, np.random.default_rng(seed))

    def forward(self, t, y):
        return self.lin(y).tanh()


def _solve_and_grad(method, grid, step_size, adjoint=False):
    field = _Field()
    y0 = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    sol = solve(field, y0, grid, method=method,
                options=SolverOptions(step_size=step_size, adjoint=adjoint))
    forward_nfev = sol.stats.nfev
    (sol.ys ** 2).mean().backward()
    grads = [p.grad.copy() for p in field.parameters()] + [y0.grad.copy()]
    return sol, forward_nfev, grads


@pytest.mark.parametrize("points", GRID_POINTS)
@pytest.mark.parametrize("method", FIXED_METHODS)
def test_configured_spacing_takes_one_step_per_interval(method, points):
    grid = np.linspace(0.0, 1.0, points)
    sol, _, grads = _solve_and_grad(method, grid, 1.0 / (points - 1))
    ref, _, ref_grads = _solve_and_grad(method, grid, None)
    assert sol.stats.steps == points - 1
    assert sol.stats.nfev == ref.stats.nfev
    np.testing.assert_array_equal(sol.ys.data, ref.ys.data)
    for g, g_ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(g, g_ref)


@pytest.mark.parametrize("points", GRID_POINTS)
def test_implicit_adams_bootstraps_once(points):
    """One 3-step RK4 bootstrap reusing f(t, y), then 2 evals per step."""
    calls = []

    def f(t, y):
        calls.append(t)
        return -y

    prev = get_executor()
    try:
        set_executor("eager")
        stats = solve(f, Tensor(np.ones((1, 2))),
                      np.linspace(0.0, 1.0, points), method="implicit_adams",
                      options=SolverOptions(step_size=1.0 / (points - 1))
                      ).stats
    finally:
        set_executor(prev)
    assert stats.nfev == 2 * (points - 1) + 6
    assert len(calls) == stats.nfev


@pytest.mark.parametrize("method", FIXED_METHODS)
def test_genuine_fraction_still_rounds_up(method):
    step = 0.1
    stats = solve(lambda t, y: -y, Tensor(np.ones((1, 1))),
                  [0.0, 2.5 * step], method=method,
                  options=SolverOptions(step_size=step)).stats
    assert stats.steps == 3


def test_adjoint_sweep_walks_the_forward_sub_grid():
    """The backward sweep takes 20 RK4 sub-steps of 4 augmented
    evaluations, each a plain RHS call plus a VJP forward pass."""
    sol, forward_nfev, _ = _solve_and_grad(
        "implicit_adams", np.linspace(0.0, 1.0, 21), 0.05, adjoint=True)
    assert sol.stats.steps == 20
    assert forward_nfev == 46
    assert sol.stats.nfev - forward_nfev == 2 * 4 * 20
