"""Resumable solves: split-at-any-point bitwise equals the unsplit solve."""

import numpy as np
import pytest

from repro.autodiff import Tensor, get_executor, no_grad, set_executor
from repro.odeint import ResumeState, SolverOptions, solve

GRID = np.linspace(0.0, 1.0, 9)


def _rhs(seed=3):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(3, 3)) * 0.35)

    def rhs(t, y):
        return y @ w

    return rhs


def _method_options(method):
    if method == "dopri5":
        return SolverOptions(rtol=1e-6, atol=1e-8)
    return SolverOptions(step_size=0.05)


@pytest.mark.parametrize("mode", ["eager", "replay"])
@pytest.mark.parametrize("method", ["dopri5", "implicit_adams", "rk4"])
@pytest.mark.parametrize("split", [1, 4, 7])
def test_split_solve_bitwise_equal(method, split, mode):
    rhs = _rhs()
    y0 = Tensor(np.ones((2, 3)))
    base = _method_options(method)
    prev = get_executor()
    try:
        set_executor(mode)
        with no_grad():
            whole = solve(rhs, y0, GRID, method=method,
                          options=SolverOptions(
                              resumable=True, step_size=base.step_size,
                              rtol=base.rtol, atol=base.atol))
            first = solve(rhs, y0, GRID[:split + 1], method=method,
                          options=SolverOptions(
                              resumable=True, step_size=base.step_size,
                              rtol=base.rtol, atol=base.atol))
            second = solve(rhs, None, GRID[split:], method=method,
                           options=base, resume_from=first.resume_state)
    finally:
        set_executor(prev)
    stitched = np.concatenate([first.ys.data, second.ys.data[1:]], axis=0)
    np.testing.assert_array_equal(stitched, whole.ys.data)
    # A resumed solve is itself resumable.
    assert second.resume_state is not None
    assert second.resume_state.method == method


def test_chained_resume_bitwise_equal():
    """Many one-interval continuations == one resumable solve (dopri5)."""
    rhs = _rhs(11)
    y0 = Tensor(np.ones((2, 3)))
    opts = SolverOptions(rtol=1e-6, atol=1e-8, resumable=True)
    with no_grad():
        whole = solve(rhs, y0, GRID, options=opts)
        rows = [y0.data]
        sol = solve(rhs, y0, GRID[:2], options=opts)
        rows.append(sol.ys.data[1])
        for k in range(1, len(GRID) - 1):
            sol = solve(rhs, None, GRID[k:k + 2],
                        options=SolverOptions(rtol=1e-6, atol=1e-8),
                        resume_from=sol.resume_state)
            rows.append(sol.ys.data[1])
    np.testing.assert_array_equal(np.stack(rows), whole.ys.data)


def test_resume_method_mismatch_rejected():
    rhs = _rhs()
    y0 = Tensor(np.ones((2, 3)))
    first = solve(rhs, y0, GRID[:3],
                  options=SolverOptions(rtol=1e-6, atol=1e-8, resumable=True))
    with pytest.raises(ValueError, match="cannot resume"):
        solve(rhs, None, GRID[2:], method="euler",
              options=SolverOptions(step_size=0.1),
              resume_from=first.resume_state)


def test_y0_requires_resume_state():
    with pytest.raises(ValueError, match="y0 may only be None"):
        solve(_rhs(), None, GRID)


def test_after_rhs_change_drops_stale_caches():
    rhs = _rhs()
    y0 = Tensor(np.ones((2, 3)))
    first = solve(rhs, y0, GRID[:4],
                  options=SolverOptions(rtol=1e-6, atol=1e-8, resumable=True))
    state = first.resume_state
    assert state.f is not None
    cleared = state.after_rhs_change()
    assert cleared.f is None and cleared.segment is None
    assert cleared.history is None
    assert cleared.t == state.t and cleared.dt == state.dt
    moved = state.rebased(0.7, Tensor(np.zeros((2, 3))))
    assert moved.t == 0.7 and moved.f is None
    np.testing.assert_array_equal(moved.y.data, 0.0)


def test_rebased_state_continues_new_dynamics():
    """After a bind change, the resumed solve integrates the new RHS."""
    rhs_a, rhs_b = _rhs(1), _rhs(2)
    y0 = Tensor(np.ones((2, 3)))
    with no_grad():
        first = solve(rhs_a, y0, GRID[:5],
                      options=SolverOptions(rtol=1e-6, atol=1e-8,
                                            resumable=True))
        carried = first.resume_state.rebased(float(GRID[4]), first.ys[4])
        second = solve(rhs_b, None, GRID[4:],
                       options=SolverOptions(rtol=1e-6, atol=1e-8),
                       resume_from=carried)
        ref = solve(rhs_b, first.ys[4], GRID[4:],
                    options=SolverOptions(rtol=1e-6, atol=1e-8))
    np.testing.assert_allclose(second.ys.data, ref.ys.data,
                               rtol=1e-6, atol=1e-8)
    assert isinstance(carried, ResumeState)
