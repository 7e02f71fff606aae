"""Property-based solver tests (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.odeint import SolverOptions, solve


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_linear_decay_matches_exponential(rate, y0):
    sol = solve(lambda t, y: y * (-rate), Tensor(np.array([[y0]])),
                [0.0, 1.0], method="rk4",
                options=SolverOptions(step_size=0.02)).ys
    np.testing.assert_allclose(sol.data[-1, 0, 0], y0 * np.exp(-rate),
                               atol=1e-6, rtol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_linearity_of_linear_systems(seed, dim):
    """For dy/dt = A y, the flow is linear: solving a sum of initial
    conditions equals the sum of the solutions."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) * 0.5
    at = Tensor(a.T)

    def f(t, y):
        return y @ at

    y1 = rng.normal(size=(1, dim))
    y2 = rng.normal(size=(1, dim))
    t = [0.0, 1.0]
    opts = SolverOptions(step_size=0.05)
    s1 = solve(f, Tensor(y1), t, method="rk4", options=opts).ys.data[-1]
    s2 = solve(f, Tensor(y2), t, method="rk4", options=opts).ys.data[-1]
    s12 = solve(f, Tensor(y1 + y2), t, method="rk4",
                options=opts).ys.data[-1]
    np.testing.assert_allclose(s12, s1 + s2, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_time_reversal_roundtrip(seed):
    """Integrating forward then backward recovers the initial state."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) * 0.3
    at = Tensor(a.T)

    def f(t, y):
        return (y @ at).tanh()

    y0 = rng.normal(size=(1, 3))
    opts = SolverOptions(step_size=0.01)
    fwd = solve(f, Tensor(y0), [0.0, 1.0], method="rk4",
                options=opts).ys.data[-1]
    back = solve(f, Tensor(fwd), [1.0, 0.0], method="rk4",
                 options=opts).ys.data[-1]
    np.testing.assert_allclose(back, y0, atol=1e-6)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["rk4", "implicit_adams", "midpoint"]))
def test_refining_steps_converges(seed, method):
    """Halving the step size must not increase the error."""
    rng = np.random.default_rng(seed)
    rate = float(rng.uniform(0.2, 2.0))

    def err(h):
        sol = solve(lambda t, y: y * (-rate), Tensor(np.array([[1.0]])),
                    [0.0, 1.0], method=method,
                    options=SolverOptions(step_size=h)).ys
        return abs(sol.data[-1, 0, 0] - np.exp(-rate))

    assert err(0.05) <= err(0.2) + 1e-12
